"""Basic-product counting and the wedge-label decomposition identity."""

from collections import Counter

import pytest

import confighom.assemble as assemble
import confighom.hilton as hilton
from confighom import (
    FieldChar,
    InvalidInputError,
    basic_words,
    hilton_milnor_check,
)


def test_counts_on_two_letters():
    words = basic_words(2, 4)
    totals = Counter()
    for w in words:
        totals[w.length] += w.count
    assert [totals[l] for l in (1, 2, 3, 4)] == [2, 1, 2, 3]


def test_multiplicity_two_one_single_word():
    words = {w.multiplicities: w.count for w in basic_words(2, 3)}
    assert words[(2, 1)] == 1
    assert words[(1, 2)] == 1


def test_single_letter_free_lie_is_one_dimensional():
    assert [(w.multiplicities, w.count) for w in basic_words(1, 5)] == [((1,), 1)]


def test_generating_identity_in_two_commuting_variables():
    # 1/(1 - z1 - z2) == prod over words (1 - z^mult)^(-count), compared as
    # truncated polynomials in two commuting variables up to total degree 7
    top = 7
    words = basic_words(2, top)

    def mul(a, b):
        out = {}
        for (i1, j1), v1 in a.items():
            for (i2, j2), v2 in b.items():
                if i1 + i2 + j1 + j2 <= top:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + v1 * v2
        return out

    lhs = {(0, 0): 1}
    # geometric series sum_r (z1+z2)^r
    power = {(0, 0): 1}
    for _ in range(top):
        power = mul(power, {(1, 0): 1, (0, 1): 1})
        for key, v in power.items():
            lhs[key] = lhs.get(key, 0) + v

    rhs = {(0, 0): 1}
    for w in words:
        a, b = w.multiplicities
        for _ in range(w.count):
            # multiply by (1 - z^w)^(-1) = sum_r z^(r*w)
            geom = {}
            r = 0
            while r * a <= top and r * b <= top and r * (a + b) <= top:
                geom[(r * a, r * b)] = 1
                r += 1
            rhs = mul(rhs, geom)

    assert lhs == rhs


def test_single_label_space_is_trivially_consistent():
    rep = hilton_milnor_check(1, {0: 1}, [{2: 1}], 12)
    assert rep.passed and rep.first_mismatch is None


def test_interval_with_wedge_s2_s3():
    rep = hilton_milnor_check(1, {0: 1}, [{2: 1}, {3: 1}], 14)
    assert rep.passed, rep.first_mismatch


def test_circle_with_wedge_s2_s2():
    rep = hilton_milnor_check(1, {0: 1, 1: 1}, [{2: 1}, {2: 1}], 12)
    assert rep.passed, rep.first_mismatch


def test_rational_check_behind_orientable_flag():
    with pytest.raises(InvalidInputError):
        hilton_milnor_check(
            1, {0: 1}, [{2: 1}, {3: 1}], 10, char=FieldChar.rational()
        )
    rep = hilton_milnor_check(
        1,
        {0: 1},
        [{2: 1}, {3: 1}],
        12,
        char=FieldChar.rational(),
        orientable=True,
    )
    assert rep.passed, rep.first_mismatch


def test_odd_characteristic_rejected():
    with pytest.raises(InvalidInputError):
        hilton_milnor_check(
            1, {0: 1}, [{2: 1}], 10, char=FieldChar.odd(3), orientable=True
        )


def test_report_shape():
    rep = hilton_milnor_check(1, {0: 1}, [{2: 1}, {3: 1}], 10)
    payload = rep.to_json()
    assert payload["status"] == "pass"
    assert payload["words_used"] == len(payload["words"])
    assert len(payload["lhs_totals"]) == 11


def test_each_side_is_one_free_algebra(monkeypatch):
    calls = []
    for module in (assemble, hilton):
        real = module.free_commutative

        def solve(*args, _real=real, _name=module.__name__):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, "free_commutative", solve)
    report = hilton_milnor_check(1, {0: 1, 1: 1}, [{2: 1}, {3: 1}], 14)
    assert report.passed and report.words_used > 1
    assert sorted(calls) == ["confighom.assemble", "confighom.hilton"]
