"""Acceptance gate: the full battery of classical-oracle identities at exact
integer equality (tolerance zero).  Each criterion prints its own pass/fail
line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import pytest

from confighom import (
    FieldChar,
    InvalidInputError,
    ProblemSpec,
    ab_coherence_report,
    atom_census,
    factor_series,
    filtration_table,
    generator_census,
    hilton_milnor_check,
    random_problem_specs,
    theorem_a,
    theorem_b,
    weight_one_slice_expected,
)
from confighom.oracle import (
    census_from_descriptors,
    classical_series,
    enumerate_generators,
)

Q = FieldChar.rational()
F2 = FieldChar.mod2()

ALL_CHARS = (Q, F2, FieldChar.odd(3))


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} ({name}): {status}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_james_law():
    ok = True
    detail = ""
    for d in (1, 2, 3, 5):
        expected = classical_series("james", {"d": d}, 60, 60)
        for char in ALL_CHARS:
            got = factor_series({d: 1}, 1, char, 60, 60)
            if got != expected:
                ok = False
                detail = f"d={d} char={char.name}"
    _report(1, "James law, loops on a suspension", ok, detail)


def test_criterion_02_double_loops_s3_mod2():
    got = factor_series({1: 1}, 2, F2, 50, 50).degree_totals()
    expected = classical_series("omega2_s3_mod2", None, 50, 0).degree_totals()
    _report(2, "double loops on S^3 mod 2 vs partition counter", got == expected)


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_03_double_loops_s3_odd(p):
    cap = 2 * p * p + 2
    got = factor_series({1: 1}, 2, FieldChar.odd(p), cap, cap).degree_totals()
    expected = classical_series("omega2_s3_modp", {"p": p}, cap, 0).degree_totals()
    _report(3, f"double loops on S^3 mod {p}", got == expected)


def test_criterion_04_rational_spheres():
    D = 40
    ok = True
    detail = ""
    for k in (1, 2, 3):
        cases = [
            ({2 * k: 1}, 1, {"j": 1, "m": 2 * k + 1}),
            ({2 * k - 1: 1}, 1, {"j": 1, "m": 2 * k}),
            ({2 * k - 1: 1}, 2, {"j": 2, "m": 2 * k + 1}),
        ]
        if k >= 2:
            cases.append(({2 * k - 2: 1}, 2, {"j": 2, "m": 2 * k}))
        for y, j, params in cases:
            got = factor_series(y, j, Q, D, D).degree_totals()
            expected = classical_series(
                "rational_loops_sphere", params, D, 0
            ).degree_totals()
            if got != expected:
                ok = False
                detail = f"y={y} j={j}"
    # the k = 1 instance of the last family would need degree-0 labels,
    # which the connectivity hypothesis rules out on both sides
    try:
        factor_series({0: 1}, 2, Q, D, D)
        ok = False
        detail = "degree-0 labels were accepted"
    except InvalidInputError:
        pass
    _report(4, "rational homology of loops on spheres", ok, detail)


def test_criterion_05_even_sphere_splitting():
    D = 40
    ok = True
    detail = ""
    for k in (2, 3):
        for char in (F2, FieldChar.odd(3), FieldChar.odd(5), Q):
            got = factor_series({2 * k - 2: 1}, 2, char, D, D)
            expected = classical_series(
                "even_sphere_split", {"k": k, "field": char}, D, D
            )
            if got != expected:
                ok = False
                detail = f"k={k} char={char.name}"
    _report(5, "even-sphere splitting pins self-bracket and parity", ok, detail)


def test_criterion_06_stunted_weight_two_slice():
    D = 30
    ok = True
    detail = ""
    for j in range(2, 7):
        for d in range(1, 5):
            got = factor_series({d: 1}, j, F2, D, 4).weight_slice(2)
            expected = classical_series(
                "stunted_weight2", {"d": d, "j": j}, D, 4
            ).weight_slice(2)
            if got != expected:
                ok = False
                detail = f"j={j} d={d}"
    _report(6, "mod-2 quadratic construction band", ok, detail)


def test_criterion_07_ab_coherence():
    report = ab_coherence_report(seed=0, trials=20, max_degree=30)
    _report(
        7,
        "tensor formula vs desuspended quotients, 20 seeded specs",
        report.passed,
        str(report.failures[:1]),
    )


def test_criterion_08_wedge_decomposition():
    rep1 = hilton_milnor_check(1, {0: 1}, [{2: 1}, {3: 1}], 20)
    rep2 = hilton_milnor_check(1, {0: 1, 1: 1}, [{2: 1}, {2: 1}], 20)
    _report(
        8,
        "wedge-label product decomposition, degreewise",
        rep1.passed and rep2.passed,
        f"{rep1.first_mismatch} {rep2.first_mismatch}",
    )


def test_criterion_09_oracle_equivalence():
    ok = True
    detail = ""
    for y in ({1: 1}, {2: 1}, {1: 1, 2: 1}):
        for j in (2, 3):
            for char in (F2, FieldChar.odd(3)):
                oracle = census_from_descriptors(
                    enumerate_generators(y, j, char, 20, 20)
                )
                engine = dict(
                    generator_census(
                        atom_census(y, j, char, 20, 20), j, char, 20, 20
                    ).entries
                )
                if oracle != engine:
                    ok = False
                    detail = f"y={y} j={j} char={char.name}"
    _report(9, "explicit enumeration equals census", ok, detail)


def _braid_spec() -> ProblemSpec:
    return ProblemSpec(
        m_dim=1,
        rel_betti={0: 1},
        n=1,
        x_betti={0: 1},
        char=F2,
        max_degree=3,
        max_weight=3,
    )


def test_criterion_10_braid_groups_mod2():
    rows = filtration_table(theorem_b(_braid_spec()))
    expected = [{0: 1}, {0: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}]
    _report(10, "braid group homology mod 2 through 3 strands", rows == expected)


def test_criterion_11_weight_one_slice_identity():
    ok = True
    detail = ""
    for spec in random_problem_specs(seed=0, trials=20, max_degree=30):
        expected = weight_one_slice_expected(
            spec.rel_betti, spec.x_betti, spec.max_degree
        )
        if theorem_a(spec).weight_slice(1) != expected:
            ok = False
            detail = f"theorem_a {spec}"
        if theorem_b(spec).weight_slice(1) != expected:
            ok = False
            detail = f"theorem_b {spec}"
    braid = _braid_spec()
    if theorem_b(braid).weight_slice(1) != weight_one_slice_expected(
        braid.rel_betti, braid.x_betti, braid.max_degree
    ):
        ok = False
        detail = "braid spec"
    _report(11, "length-one slice is the relative smash", ok, detail)
