"""The enumeration oracle: explicit witnesses, recomputation of their
gradings, agreement with the census, the closed-form catalog, and the
oracle's independence from the engine."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confighom

from confighom import (
    FieldChar,
    InvalidInputError,
    atom_census,
    filtration_table,
)
from confighom.loops import factor_series, generator_census
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


PRIMES = st.sampled_from((0, 2, 3, 5, 7))
CENSUS_CASES = st.one_of(
    # connected letters and j >= 2: the operation grammar at wide caps
    st.tuples(
        st.dictionaries(st.integers(1, 4), st.integers(1, 2), min_size=1, max_size=2),
        st.integers(2, 4),
        PRIMES,
        st.integers(0, 18),
        st.integers(0, 16),
    ),
    # theorem_b's configuration-space model: j >= 1 and degree-0 letters,
    # favoured.  A letter of shifted degree 0 fits any degree cap, so the
    # oracle's words grow to the weight cap, and both caps stay small
    st.tuples(
        st.dictionaries(
            st.one_of(st.just(0), st.integers(0, 4)),
            st.integers(1, 2),
            min_size=1,
            max_size=2,
        ),
        st.integers(1, 4),
        PRIMES,
        st.integers(0, 12),
        st.integers(0, 8),
    ),
)


@settings(max_examples=600, deadline=None)
@given(CENSUS_CASES)
def test_property_census_matches_enumeration(case):
    # the engine's one move rule against the oracle's exhaustive search:
    # a dropped Bockstein step, top index or flipped parity shows here
    y, j, p, D, K = case
    char = FieldChar(p)
    oracle = census_from_descriptors(enumerate_generators(y, j, char, D, K))
    engine = generator_census(atom_census(y, j, char, D, K), j, char, D, K)
    assert oracle == engine.entries


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
    # the closed form against the engine's double loops on S^(2k), cell by
    # cell, including caps that cut the weights short or to zero: the
    # split factor's bottom class [iota, iota] sits at weight 2
    for k in range(2, 6):
        for field in ("F2", "Fp:3", "Fp:5", "Q"):
            char = FieldChar.from_name(field)
            for D, K in ((40, 40), (40, 7), (25, 3), (40, 0), (0, 5), (60, 60)):
                engine = factor_series({2 * k - 2: 1}, 2, char, D, K)
                got = classical_series(
                    "even_sphere_split", {"k": k, "field": field}, D, K
                )
                assert got == engine, (k, field, D, K)


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
    "record": {"FrozenRecord"},  # the records' base class, no kernel
    "series": {"BiSeries"},
    "loops": {"FieldChar", "GradedBetti", "normalize_betti"},
}
REFERENCES = {"multiply", "power_factor", "inverse_one_minus", "desuspend_by_weight"}


def test_oracle_borrows_nothing_from_the_engine():
    # the oracle checks the engine only while it shares no kernel with it,
    # and the series references stay out of the engine modules and out of
    # the package's exports
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
    for module in ("__init__", "assemble", "loops", "witt", "hilton", "cli"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        named = {
            getattr(node, "id", None) or getattr(node, "attr", None) or node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert not named & REFERENCES, (module, named & REFERENCES)


CAP_CHECKED_SOLVE = {"free_commutative", "free_commutative_from_beta", "require_caps"}
PLAN_WALK = {
    "factor_plan", "plan_generators", "product_beta", "atom_census",
    "closed_census", "generator_census", "lie_atom_counts",
}


def _named(tree: ast.AST) -> set[str]:
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_solve_goes_through_the_one_cap_checked_solve():
    # in assemble only _solve calls the kernel and checks the caps; hilton
    # and cli reach the kernel through it alone
    tree = ast.parse((SRC / "assemble.py").read_text())
    solvers = {
        getattr(node, "name", type(node).__name__)
        for node in tree.body
        if not isinstance(node, ast.ImportFrom) and _named(node) & CAP_CHECKED_SOLVE
    }
    assert solvers == {"_solve"}
    for module in ("hilton", "cli"):
        named = _named(ast.parse((SRC / f"{module}.py").read_text()))
        assert not named & CAP_CHECKED_SOLVE, (module, named & CAP_CHECKED_SOLVE)
    # nor does cli walk the factor plan or take a census: its generators
    # listing is assemble's, from the one Witt table of the plan; every
    # name of the walk is defined, so a stale one fails here
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert PLAN_WALK <= defined, PLAN_WALK - defined
    named = _named(ast.parse((SRC / "cli.py").read_text()))
    assert not named & PLAN_WALK, named & PLAN_WALK


WITT_PRIVATE = {"word_rows"}


def test_only_witt_names_its_word_rows():
    # one Witt kernel: every listed name is witt's own, and every other
    # module, hilton's basic words included, reaches the recurrence
    # through lie_atom_counts alone
    defined = {
        node.name
        for node in ast.parse((SRC / "witt.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert WITT_PRIVATE <= defined, WITT_PRIVATE - defined
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "witt":
            named = _named(ast.parse(path.read_text()))
            assert not named & WITT_PRIVATE, (path.stem, named & WITT_PRIVATE)


def test_the_plan_atoms_stay_a_plain_dict():
    # in loops only generator_census builds a DegreeWeightTable, so the
    # plan's census path holds no table but the Witt solve's, and assemble
    # unwraps no table's entries
    tree = ast.parse((SRC / "loops.py").read_text())
    builders = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "DegreeWeightTable"
            for call in ast.walk(node)
        )
    }
    assert builders == {"generator_census"}
    tree = ast.parse((SRC / "assemble.py").read_text())
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]
    assert reads == []


def _is_bool_test(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and getattr(node.args[1], "id", None) == "bool"
    )


def _is_int_test(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        return getattr(node.args[1], "id", None) == "int"
    return (  # type(x) is int, type(x) is not int
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and getattr(node.comparators[0], "id", None) == "int"
    )


INT_RULE_OWNERS = {("loops", "require_int"), ("loops", "normalize_betti")}


def test_the_int_rule_is_written_once():
    # what counts as an int (never a bool) is decided by loops.require_int,
    # inlined only in normalize_betti's hot loop: no module keeps an
    # _is_int or joins a bool test and an int test in one expression
    copies = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = {
            id(node)
            for owner in ast.walk(tree)
            if isinstance(owner, ast.FunctionDef)
            and (path.stem, owner.name) in INT_RULE_OWNERS
            for node in ast.walk(owner)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_is_int":
                copies.append((path.stem, node.lineno))
            elif isinstance(node, ast.BoolOp) and id(node) not in owned:
                parts = list(ast.walk(node))
                if any(map(_is_bool_test, parts)) and any(map(_is_int_test, parts)):
                    copies.append((path.stem, node.lineno))
    assert copies == []


def _module_bindings(body: list[ast.stmt]):
    """(name, line) of each name a module binds outside its functions and
    classes, through blocks such as ``if`` and ``try`` too."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt.lineno
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_bindings(getattr(stmt, block, []))


STATELESS_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*|_?[A-Z][A-Za-z0-9]*|__\w+__")


def test_no_module_keeps_hidden_state():
    # every library call is a pure function: a module binds only UPPER_CASE
    # constants, CamelCase type aliases and dunder names, and no function
    # rebinds a module name through ``global``
    stateful = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        stateful += [
            (path.stem, name, line)
            for name, line in _module_bindings(tree.body)
            if not STATELESS_NAME.fullmatch(name)
        ]
        stateful += [
            (path.stem, "global", node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
    assert stateful == []
