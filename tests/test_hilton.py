"""Basic-product counting and the wedge-label decomposition identity."""

import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confighom.assemble as assemble
import confighom.hilton as hilton
from confighom.series import weight_log_derivative
from confighom import (
    FieldChar,
    IntegrityError,
    InvalidInputError,
    basic_words,
    free_commutative,
    hilton_milnor_check,
)

F2 = FieldChar.mod2()


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


def mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def necklace_count(a):
    """The closed form M(a) = (1/l) sum_{d | gcd a} mu(d) (l/d)! / prod
    (a_i/d)! of basic products with multiplicity vector a, length l."""
    l, g = sum(a), math.gcd(*a)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            term = math.factorial(l // d)
            for x in a:
                term //= math.factorial(x // d)
            total += mobius(d) * term
    assert total % l == 0
    return total // l


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_basic_words_are_the_closed_form_in_order(r):
    # every nonzero vector of length <= max_length is present, none other,
    # by length and then by decreasing multiplicity vector
    for max_length in range(10):
        vectors = product(range(max_length + 1), repeat=r)
        expected = [
            (a, sum(a), necklace_count(a))
            for a in sorted(vectors, key=lambda a: (sum(a), [-x for x in a]))
            if 0 < sum(a) <= max_length and necklace_count(a)
        ]
        got = basic_words(r, max_length)
        assert [(w.multiplicities, w.length, w.count) for w in got] == expected


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


def bumped_words(r, max_length, _real=hilton.basic_words):
    """basic_words with every count raised by 1: a perturbed basic-product
    side."""
    return [
        hilton.BasicWord(w.multiplicities, w.length, w.count + 1)
        for w in _real(r, max_length)
    ]


def test_each_side_is_one_free_algebra(monkeypatch):
    # a passing case solves one single-graded table, whose totals serve
    # both sides; a perturbed basic-product side is solved as well
    calls = []
    real = assemble.free_commutative_from_beta

    def solve(max_degree, max_weight, beta):
        calls.append((assemble.__name__, max_degree, max_weight))
        return real(max_degree, max_weight, beta)

    monkeypatch.setattr(assemble, "free_commutative_from_beta", solve)
    problem = (1, {0: 1, 1: 1}, [{2: 1}, {3: 1}], 14)
    report = hilton_milnor_check(*problem)
    assert report.passed and report.words_used > 1
    assert calls == [("confighom.assemble", 0, 14)]
    calls.clear()
    monkeypatch.setattr(hilton, "basic_words", bumped_words)
    assert not hilton_milnor_check(*problem).passed
    assert calls == [("confighom.assemble", 0, 14)] * 2


# (m_dim, rel, labels, D, words sharing one module, that module)
SHARED_MODULE_CASES = [
    # on the circle with S^2 v S^2 labels, the words of length l all smash
    # to S^2l: (2, 1) and (1, 2) both give Sigma^2 S^6 = S^8
    (1, {0: 1, 1: 1}, [{2: 1}, {2: 1}], 12, [(2, 1), (1, 2)], {8: 1}),
    # on the interval with S^2 v S^3 labels, words of lengths 5 and 6 give
    # Sigma^4 S^14 = Sigma^5 S^13 = S^18
    (1, {0: 1}, [{2: 1}, {3: 1}], 18, [(1, 4), (5, 1)], {18: 1}),
]


def test_each_word_class_is_solved_once(monkeypatch):
    # every census runs over the one factor plan of (m_dim, rel), one per
    # suspension class of both sides' modules, on the class's lowest module;
    # over Q a class also keeps the parity of its lowest degree.  The wedge's
    # class is formed first, and here it holds no word's module
    calls = []
    real = hilton.product_beta

    def spy(*call):
        calls.append(call)
        return real(*call)

    monkeypatch.setattr(hilton, "product_beta", spy)
    cases = product(SHARED_MODULE_CASES, ("F2", "Q"))
    for (m_dim, rel, labels, D, shared, module), field in cases:
        char = FieldChar.from_name(field)
        calls.clear()
        report = hilton_milnor_check(
            m_dim, rel, labels, D, char=char, orientable=field == "Q"
        )
        assert report.passed
        assert all(call[:3] == (m_dim, rel, 1) for call in calls)
        wedge, *classes = calls
        assert wedge[3] == dict(sum((Counter(x) for x in labels), Counter()))

        modules = {}
        for word in report.word_summary:
            shift = (word["length"] - 1) * m_dim
            smash = hilton._smash_betti(labels, tuple(word["multiplicities"]))
            key = tuple(sorted((d + shift, c) for d, c in smash.items()))
            modules.setdefault(key, []).append(tuple(word["multiplicities"]))
        assert modules[tuple(module.items())] == shared

        lowest = {}
        for key in modules:
            low = key[0][0]
            shape = tuple((d - low, c) for d, c in key)
            parity = low % 2 if field == "Q" else 0
            lowest[shape, parity] = min(lowest.get((shape, parity), low), low)
        assert sorted(tuple(sorted(call[3].items())) for call in classes) == sorted(
            tuple((low + d, c) for d, c in shape) for (shape, _), low in lowest.items()
        )
        # the labels are spheres, so each module is one sphere: one class
        # over F2, and over Q one per parity of the sphere's degree
        parities = {key[0][0] % 2 for key in modules}
        assert len(classes) == (len(parities) if field == "Q" else 1)

        # the right-hand side built word by word, as the identity states it
        generators = []
        for word in report.word_summary:
            l = word["length"]
            shifted_rel = {q + (l - 1) * m_dim: b for q, b in rel.items()}
            smash = hilton._smash_betti(labels, tuple(word["multiplicities"]))
            generators += [
                (d, k, c * copies * word["count"], kind)
                for _q, _j, _y, copies, listed in assemble.plan_generators(
                    l * m_dim, shifted_rel, 1, smash, char, D, D
                )
                for d, k, c, kind in listed
            ]
        assert report.rhs_totals == free_commutative(D, D, generators).degree_totals()


@pytest.mark.parametrize(
    "labels, expected",
    [
        # a single label is the module of its only word, so the wedge's
        # census serves both sides
        ([{2: 1}], [{2: 1}]),
        ([{2: 1, 3: 1}], [{2: 1, 3: 1}]),
        # sphere labels: the wedge's class and the one sphere class
        ([{2: 1}, {3: 1}], [{2: 1, 3: 1}, {2: 1}]),
    ],
)
def test_both_sides_take_their_censuses_from_one_class_route(
    monkeypatch, labels, expected
):
    calls = []
    real = hilton.product_beta

    def spy(*call):
        calls.append(call[3])
        return real(*call)

    monkeypatch.setattr(hilton, "product_beta", spy)
    assert hilton_milnor_check(1, {0: 1}, labels, 20).passed
    assert calls == expected


def test_a_coefficient_not_k_times_a_count_is_an_integrity_failure(monkeypatch):
    # b / k is the net generator count the regrade multiplies; it is never
    # floored
    real = hilton.product_beta

    def corrupt(*call):
        beta = real(*call)
        beta[4, 2] = beta.get((4, 2), 0) + 1
        return beta

    monkeypatch.setattr(hilton, "product_beta", corrupt)
    with pytest.raises(IntegrityError, match=r"at \(4, 2\) is not k times") as caught:
        hilton_milnor_check(1, {0: 1}, [{2: 1}, {3: 1}], 12)
    assert caught.value.cell == (4, 2)


def test_negative_max_degree_is_refused_before_any_census(monkeypatch):
    calls = []
    monkeypatch.setattr(hilton, "product_beta", lambda *call: calls.append(call))
    with pytest.raises(InvalidInputError, match="max_degree must be an int >= 0"):
        hilton_milnor_check(1, {0: 1}, [{2: 1}, {3: 1}], -1)
    assert calls == []


KINDS = ("polynomial", "exterior")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(
                st.just(d), st.integers(1, d), st.integers(0, 4), st.sampled_from(KINDS)
            )
        ),
        max_size=7,
    ),
    st.integers(0, 14),
)
def test_property_regraded_totals_equal_the_degree_totals(gens, D):
    # with 1 <= k <= d, a product inside the degree cap D has weight <= D
    regraded = [(0, d, c, kind) for d, _k, c, kind in gens]
    totals = assemble._solve(0, D, weight_log_derivative(0, D, regraded)).rows()[0]
    assert totals == free_commutative(D, D, gens).degree_totals()


@st.composite
def wedge_problems(draw):
    m_dim = draw(st.integers(0, 2))
    rel = draw(st.dictionaries(st.integers(0, m_dim), st.integers(1, 2), min_size=1))
    label = st.dictionaries(
        st.integers(1, 4), st.integers(1, 2), min_size=1, max_size=2
    )
    labels = draw(st.lists(label, min_size=1, max_size=3))
    return m_dim, rel, labels, draw(st.integers(6, 16))


@settings(max_examples=150, deadline=None)
@given(wedge_problems(), st.sampled_from(("F2", "Q")))
def test_property_hilton_milnor_holds_on_random_wedges(problem, field):
    # repeated summands and multi-class labels make several words of one
    # length share a module, and words of different lengths share one too
    m_dim, rel, labels, D = problem
    report = hilton_milnor_check(
        m_dim, rel, labels, D, char=FieldChar.from_name(field), orientable=field == "Q"
    )
    assert report.passed, report.first_mismatch


def both_sides_report(m_dim, rel, labels, D, char, words):
    """The report that solving both sides at caps (D, D) gives: the wedge
    side by ``factor_product``, and the right-hand side word by word from
    the report's ``words``."""
    wedge = Counter()
    for x in labels:
        wedge.update(x)
    lhs = assemble.factor_product(m_dim, rel, 1, dict(wedge), char, D, D).degree_totals()
    generators = []
    for word in words:
        l = word["length"]
        shifted_rel = {q + (l - 1) * m_dim: b for q, b in rel.items()}
        smash = hilton._smash_betti(labels, tuple(word["multiplicities"]))
        generators += [
            (d, k, c * copies * word["count"], kind)
            for _q, _j, _y, copies, listed in assemble.plan_generators(
                l * m_dim, shifted_rel, 1, smash, char, D, D
            )
            for d, k, c, kind in listed
        ]
    rhs = free_commutative(D, D, generators).degree_totals()
    first = next(((d, a, b) for d, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    return hilton.HiltonReport(first is None, D, len(words), first, lhs, rhs, words)


def regraded_sides(m_dim, rel, labels, D, char, words):
    """Both sides' generators regraded to (0, degree), as listed before the
    check folded each class with ``product_beta``: one ``plan_generators``
    call per suspension class, on its lowest module, flattened ``copies``
    times, and each member's weight-k generators raised by k * Delta."""
    wedge = Counter()
    for x in labels:
        wedge.update(x)
    modules = Counter()
    for word in words:
        shift = (word["length"] - 1) * m_dim
        smash = hilton._smash_betti(labels, tuple(word["multiplicities"]))
        modules[tuple(sorted((d + shift, c) for d, c in smash.items()))] += word["count"]
    classes = {}
    for side, counted in enumerate([{tuple(sorted(wedge.items())): 1}, modules]):
        for key, count in counted.items():
            low = key[0][0]
            shape = tuple((d - low, c) for d, c in key)
            parity = 0 if char.is_two else low % 2
            classes.setdefault((shape, parity), []).append((side, low, count))
    sides = ([], [])
    for (shape, _parity), members in classes.items():
        base = min(low for _side, low, _count in members)
        census = [
            (d, k, c * copies, kind)
            for _q, _j, _y, copies, listed in assemble.plan_generators(
                m_dim, rel, 1, {base + d: c for d, c in shape}, char, D, D
            )
            for d, k, c, kind in listed
        ]
        for side, low, count in members:
            delta = low - base
            sides[side].extend(
                (0, d + k * delta, c * count, kind)
                for d, k, c, kind in census
                if d + k * delta <= D
            )
    return sides


@settings(max_examples=100, deadline=None)
@given(wedge_problems(), st.sampled_from(("F2", "Q")), st.booleans())
def test_property_each_side_folds_to_its_regraded_generators(problem, field, bumped):
    # a perturbed basic-product side differs from the wedge's, so both
    # sides' dicts reach the kernel
    m_dim, rel, labels, D = problem
    char = FieldChar.from_name(field)
    solved = []
    real = hilton._solve
    with pytest.MonkeyPatch.context() as patch:
        if bumped:
            patch.setattr(hilton, "basic_words", bumped_words)
        patch.setattr(hilton, "_solve", lambda *args: solved.append(args) or real(*args))
        report = hilton_milnor_check(m_dim, rel, labels, D, char=char, orientable=field == "Q")
    expected = [
        (0, D, weight_log_derivative(0, D, side))
        for side in regraded_sides(m_dim, rel, labels, D, char, report.word_summary)
    ]
    # the basic-product side is solved only when its dict differs
    if expected[0] == expected[1]:
        expected.pop()
    assert solved == expected
    assert len(solved) == 2 - report.passed


@settings(max_examples=40, deadline=None)
@given(wedge_problems(), st.sampled_from(("F2", "Q")))
def test_property_a_perturbed_basic_product_side_reports_as_solving_both(problem, field):
    m_dim, rel, labels, D = problem
    char = FieldChar.from_name(field)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hilton, "basic_words", bumped_words)
        report = hilton_milnor_check(m_dim, rel, labels, D, char=char, orientable=field == "Q")
    expected = both_sides_report(m_dim, rel, labels, D, char, report.word_summary)
    assert not report.passed
    assert report.to_json() == expected.to_json()
