"""The enumeration oracle: explicit witnesses, recomputation of their
gradings, agreement with the census, the closed-form catalog, and the
oracle's independence from the engine."""

import ast
from pathlib import Path

import pytest

import confighom

from confighom import (
    FieldChar,
    InvalidInputError,
    atom_census,
    factor_series,
    filtration_table,
    generator_census,
    multiply,
)
from confighom.oracle import (
    census_from_descriptors,
    classical_series,
    diff_report,
    enumerate_generators,
)

Q = FieldChar.rational()
F2 = FieldChar.mod2()
F3 = FieldChar.odd(3)


def recompute(descriptor, j, p):
    length = len(descriptor.letter_degrees)
    degree = sum(descriptor.letter_degrees) + (length - 1) * (j - 1)
    weight = length
    for b, eps in descriptor.ops:
        degree = p * degree + b * (p - 1) - eps
        weight *= p
    return degree, weight


def test_circle_mod2_tower_descriptors():
    got = [
        (g.bracket, g.ops, g.degree, g.weight)
        for g in enumerate_generators({1: 1}, 2, F2, 7, 7)
    ]
    assert got == [
        ("x1", (), 1, 1),
        ("x1", ((1, 0),), 3, 2),
        ("x1", ((1, 0), (1, 0)), 7, 4),
    ]


def test_two_sphere_rational_descriptors():
    got = [
        (g.bracket, g.degree, g.weight)
        for g in enumerate_generators({2: 1}, 2, Q, 6, 6)
    ]
    assert got == [("x1", 2, 1), ("[x1,x1]", 5, 2)]


def test_admissibility_ordering_for_three_loops_mod2():
    # operation indices may never increase along the application order, so
    # the two-step words on a degree-1 class are (1,1), (2 then 1), (2,2)
    # with degrees 7, 9, 10
    gens = enumerate_generators({1: 1}, 3, F2, 12, 16)
    table = {(g.degree, g.weight): g.ops for g in gens}
    assert set(table) == {(1, 1), (3, 2), (4, 2), (7, 4), (9, 4), (10, 4)}
    assert table[(9, 4)] == ((2, 0), (1, 0))
    assert all(
        b1 >= b2 for g in gens for (b1, _), (b2, _) in zip(g.ops, g.ops[1:])
    )


def test_descriptor_gradings_recompute():
    for y in ({1: 1}, {2: 1}, {1: 1, 2: 1}):
        for j in (2, 3):
            for char in (Q, F2, F3):
                for g in enumerate_generators(y, j, char, 18, 16):
                    assert recompute(g, j, max(char.p, 2)) == (g.degree, g.weight)


@pytest.mark.parametrize("char", [Q, F2, F3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("j", [2, 3])
def test_counts_match_census(char, j):
    for y in ({1: 1}, {2: 1}, {1: 1, 2: 1}):
        oracle = census_from_descriptors(
            enumerate_generators(y, j, char, 18, 16)
        )
        engine = dict(
            generator_census(
                atom_census(y, j, char, 18, 16), j, char, 18, 16
            ).entries
        )
        assert oracle == engine, (y, j, char.name)


# -- classical catalog -------------------------------------------------------


def test_james_catalog_bigraded():
    got = classical_series("james", {"d": 3}, 12, 4)
    assert got.to_dict() == {(0, 0): 1, (3, 1): 1, (6, 2): 1, (9, 3): 1, (12, 4): 1}


def test_partition_counts_for_double_loops_s3_mod2():
    got = classical_series("omega2_s3_mod2", None, 10, 0).degree_totals()
    # partitions into parts {1, 3, 7}: checked by hand through degree 10
    assert got == [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6]


def test_odd_primary_double_loops_catalog():
    got = classical_series("omega2_s3_modp", {"p": 3}, 6, 0).degree_totals()
    # exterior(1, 5) tensor polynomial(4): degrees 0,1,4,5,6 hit once
    assert got == [1, 1, 0, 0, 1, 2, 1]


def test_rational_sphere_catalog():
    poly2 = classical_series("rational_loops_sphere", {"j": 1, "m": 3}, 8, 0)
    assert poly2.degree_totals() == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    loops_s4 = classical_series("rational_loops_sphere", {"j": 1, "m": 4}, 9, 0)
    assert loops_s4.degree_totals() == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]
    double_s5 = classical_series("rational_loops_sphere", {"j": 2, "m": 5}, 6, 0)
    assert double_s5.degree_totals() == [1, 0, 0, 1, 0, 0, 0]


def test_stunted_catalog():
    got = classical_series("stunted_weight2", {"d": 2, "j": 3}, 10, 2)
    assert got.to_dict() == {(4, 2): 1, (5, 2): 1, (6, 2): 1}


def test_even_sphere_split_catalog_matches_engine_product():
    # the closed form against James' series times the engine's double loops
    # on S^(4k-1), cell by cell, including caps that cut the weights short
    for k in range(2, 6):
        for field in ("F2", "Fp:3", "Fp:5", "Q"):
            char = FieldChar.from_name(field)
            for D, K in ((40, 40), (40, 7), (25, 3)):
                direct = multiply(
                    classical_series("james", {"d": 2 * k - 2}, D, K),
                    factor_series({4 * k - 3: 1}, 2, char, D, K),
                )
                got = classical_series(
                    "even_sphere_split", {"k": k, "field": field}, D, K
                )
                assert got == direct, (k, field, D, K)


def test_braid_catalog_rows():
    rows = {
        field: filtration_table(classical_series("braid", {"field": field}, 6, 6))
        for field in ("F2", "Fp:3", "Q")
    }
    # B_0 and B_1 are points, B_2 is a circle; mod 2, x_0^4, x_0^2 x_1, x_1^2
    # and x_2 give the four classes of B_4
    assert rows["F2"][:5] == [
        {0: 1}, {0: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1, 3: 1}]
    # mod 3, beta xi_1 and xi_1 first appear at six strands
    assert rows["Fp:3"][5:] == [{0: 1, 1: 1}, {0: 1, 1: 1, 4: 1, 5: 1}]
    assert rows["Q"] == [{0: 1}, {0: 1}] + [{0: 1, 1: 1}] * 5


def test_unknown_catalog_name():
    with pytest.raises(InvalidInputError):
        classical_series("zeta", None, 5, 5)


# -- diff report -------------------------------------------------------------


def test_diff_report_empty_for_equal_series():
    a = factor_series({1: 1}, 2, F2, 10, 10)
    assert diff_report(a, a) == []


def test_diff_report_lists_differences():
    from confighom import BiSeries

    a = BiSeries.from_entries(3, 3, {(1, 1): 1})
    b = BiSeries.zero(3, 3)
    assert diff_report(a, b) == [(1, 1, 1, 0)]


def test_diff_report_requires_shared_caps():
    from confighom import BiSeries, ConfigurationError

    with pytest.raises(ConfigurationError):
        diff_report(BiSeries.zero(3, 3), BiSeries.zero(3, 4))


@pytest.mark.parametrize("p, cap", [(3, 16), (3, 52), (5, 48)])
def test_odd_primary_catalog_keeps_polynomial_generator_at_the_cap(p, cap):
    # cap == 2p^i - 2 is the degree of a polynomial generator
    got = classical_series("omega2_s3_modp", {"p": p}, cap, 0).degree_totals()
    engine = factor_series({1: 1}, 2, FieldChar.odd(p), cap, cap).degree_totals()
    assert got == engine


# -- independence ------------------------------------------------------------

SRC = Path(confighom.__file__).parent
ORACLE_MAY_IMPORT = {
    "errors": None,  # any name
    "series": {"BiSeries"},
    "loops": {"FieldChar", "GradedBetti", "normalize_betti"},
}
REFERENCES = {"multiply", "power_factor", "inverse_one_minus", "desuspend_by_weight"}


def test_oracle_borrows_nothing_from_the_engine():
    # the oracle checks the engine only while it shares no kernel with it,
    # and the series references stay out of the engine modules
    for node in ast.walk(ast.parse((SRC / "oracle.py").read_text())):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("confighom")]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("confighom")
        ):
            module = (node.module or "").rpartition(".")[2]
            assert module in ORACLE_MAY_IMPORT, module
            allowed = ORACLE_MAY_IMPORT[module]
            names = {a.name for a in node.names}
            assert allowed is None or names <= allowed, (module, names - allowed)
    for module in ("assemble", "loops", "witt", "hilton", "cli"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        named = {
            getattr(node, "id", None) or getattr(node, "attr", None) or node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert not named & REFERENCES, (module, named & REFERENCES)
