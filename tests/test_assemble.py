"""Assembly of the full configuration-space series: theorem hypotheses,
worked examples, filtration rows, presets and the structural invariants."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confighom.assemble as assemble
import confighom.cli as cli
import confighom.loops as loops
import confighom.series as series
from confighom import (
    BiSeries,
    FieldChar,
    IntegrityError,
    InvalidInputError,
    ProblemSpec,
    ab_coherence_report,
    desuspend_by_weight,
    factor_product,
    factor_series,
    filtration_table,
    multiply,
    preset,
    suspend_betti,
    theorem_a,
    theorem_b,
    weight_one_slice_expected,
)
from confighom.assemble import factor_plan, plan_generators, product_generators
from confighom.loops import atom_census, generator_census, raised_generators
from confighom.witt import DegreeWeightTable
from confighom.oracle import classical_series

Q = FieldChar.rational()
F2 = FieldChar.mod2()
F3 = FieldChar.odd(3)


def make_spec(**kw):
    base = dict(
        m_dim=1,
        rel_betti={0: 1},
        n=1,
        x_betti={2: 1},
        char=F2,
        max_degree=10,
        max_weight=None,
    )
    base.update(kw)
    return ProblemSpec(**base)


# -- validation -------------------------------------------------------------


def test_theorem_a_rejects_low_label_classes():
    with pytest.raises(InvalidInputError):
        theorem_a(make_spec(x_betti={1: 1}))


def test_theorem_b_requires_weight_cap():
    with pytest.raises(InvalidInputError):
        theorem_b(make_spec(x_betti={0: 1}))


def test_rel_betti_must_fit_dimension():
    with pytest.raises(InvalidInputError):
        theorem_a(make_spec(rel_betti={2: 1}))


def test_euclidean_factor_required():
    with pytest.raises(InvalidInputError):
        theorem_a(make_spec(n=0))


# -- theorem_a --------------------------------------------------------------


def test_cube_gives_a_single_loop_factor():
    # M = I^2 with one relative class in degree 0: the series of j = 2 + n loops
    spec = make_spec(m_dim=2, rel_betti={0: 1}, n=1, x_betti={2: 1}, char=Q)
    direct = factor_series({2: 1}, 3, Q, 10, 5)
    assert theorem_a(spec) == direct


def test_circle_times_line_with_s2_labels_rational():
    spec = make_spec(
        m_dim=1, rel_betti={0: 1, 1: 1}, n=1, x_betti={2: 1}, char=Q, max_degree=6
    )
    series = theorem_a(spec)
    assert series.degree_totals() == [1, 0, 1, 1, 1, 2, 2]
    rows = filtration_table(series)
    assert rows[0] == {0: 1}
    assert rows[1] == {2: 1, 3: 1}


def test_disjoint_union_multiplies_series():
    # Betti addition of manifolds corresponds to multiplying the series
    s1 = theorem_a(make_spec(m_dim=2, rel_betti={0: 1, 2: 1}, max_degree=8))
    s2 = theorem_a(make_spec(m_dim=2, rel_betti={1: 2}, max_degree=8))
    both = theorem_a(make_spec(m_dim=2, rel_betti={0: 1, 1: 2, 2: 1}, max_degree=8))
    assert both == multiply(s1, s2)


def test_wedge_reduction_only_betti_data_matters():
    # a wedge of spheres and any space with equal Betti numbers agree
    wedge = {2: 2, 3: 1}
    a = theorem_a(make_spec(x_betti=wedge))
    b = theorem_a(make_spec(x_betti={3: 1, 2: 2}))
    assert a == b


def test_weight_k_needs_degree_2k():
    series = theorem_a(make_spec(x_betti={2: 1, 4: 1}, max_degree=12))
    for d, k, v in series.items():
        assert d >= 2 * k


# -- theorem_b --------------------------------------------------------------


def test_theorem_b_agrees_with_theorem_a_for_simply_connected_labels():
    for char in (Q, F2, F3):
        a = theorem_a(make_spec(char=char, max_degree=12, max_weight=6))
        b = theorem_b(make_spec(char=char, max_degree=12, max_weight=6))
        assert a == b, char.name


def test_braid_group_rows_mod2():
    spec = make_spec(x_betti={0: 1}, max_degree=3, max_weight=3)
    rows = filtration_table(theorem_b(spec))
    assert rows == [{0: 1}, {0: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}]


@pytest.mark.parametrize("field", ["F2", "Fp:3", "Q"])
def test_braid_rows_equal_the_catalog_through_sixty_strands(field):
    # (I x R^1; S^0): row k is H_*(B_k(R^2)); every row starts at degree 0
    expected = classical_series("braid", {"field": field}, 60, 60)
    spec = make_spec(
        x_betti={0: 1}, char=FieldChar.from_name(field), max_degree=60, max_weight=60
    )
    assert theorem_b(spec) == expected
    status, text = cli.run({
        "mode": "dk_table", "field": field, "manifold": {"preset": "cube", "m": 1},
        "n": 1, "label_space": {"preset": "sphere", "d": 0},
        "max_degree": 60, "max_weight": 60, "format": "csv",
    })
    cells = {}
    for line in text.splitlines()[1:]:
        k, d, v = map(int, line.split(","))
        cells[(d, k)] = v
    assert status == 0 and cells == expected.to_dict()


def binomial(a: int, k: int) -> int:
    """The generalized binomial coefficient a choose k, for any integer a."""
    return math.prod(a - i for i in range(k)) // math.factorial(k)


# (preset, parameters) of manifolds M with M0 empty
ABSOLUTE_MANIFOLDS = [
    ("torus", {"m": 2}),
    ("torus", {"m": 3}),
    ("surface", {"genus": 0}),
    ("surface", {"genus": 2}),
    ("sphere", {"m": 3}),
    ("sphere", {"m": 4}),
    ("cube", {"m": 1}),
    ("point", {}),
]


# (preset, parameters) of manifold pairs, including relative ones
MANIFOLD_PAIRS = ABSOLUTE_MANIFOLDS + [("disk_pair", {"m": 2}), ("sphere", {"m": 0})]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MANIFOLD_PAIRS + [("rp", {"m": 2}), ("rp", {"m": 3})]),
    st.one_of(
        st.just({0: 1}),
        st.dictionaries(st.integers(0, 3), st.integers(1, 2), min_size=1, max_size=3),
    ),
    st.sampled_from(("Q", "F2", "Fp:3", "Fp:5")),
    st.integers(1, 3),
)
@example(("point", {}), {0: 1}, "Q", 1)
@example(("disk_pair", {"m": 2}), {0: 2, 1: 1}, "F2", 1)
@example(("rp", {"m": 3}), {0: 1, 3: 1}, "F2", 2)
def test_property_s0_rows_have_the_gal_euler_characteristic(manifold, x, field, n):
    # row k, the weight-k filtration quotient for N = M x R^n, lies in
    # degrees <= k (dim N + top degree of X).  With chi = chi(M, M0) and e the
    # reduced Euler characteristic of X, sum_k chi(row k) u^k is
    # (1 + e u)^chi for even dim N and (1 - e u)^(-chi) for odd dim N,
    # over every field; X = S^0 is Gal's formula
    char = F2 if manifold[0] == "rp" else FieldChar.from_name(field)
    m_dim, rel = preset(manifold[0], char=char, **manifold[1])
    K = 6
    spec = make_spec(
        m_dim=m_dim,
        rel_betti=rel,
        n=n,
        x_betti=x,
        char=char,
        max_degree=K * (m_dim + n + max(x)),
        max_weight=K,
    )
    rows = filtration_table(theorem_b(spec))
    chi = sum((-1) ** q * b for q, b in rel.items())
    e = sum((-1) ** d * b for d, b in x.items())
    for k in range(1, K + 1):
        if (m_dim + n) % 2 == 0:
            expected = binomial(chi, k) * e**k
        else:
            expected = binomial(-chi, k) * (-e) ** k
        assert sum((-1) ** d * v for d, v in rows[k].items()) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ABSOLUTE_MANIFOLDS),
    st.sampled_from(("Q", "F2", "Fp:3", "Fp:5")),
    st.integers(1, 3),
    st.integers(0, 10),
    st.integers(1, 8),
)
def test_property_s0_rows_are_homologically_stable(manifold, field, n, D, K):
    # M connected and M0 empty, so row k is H_*(B_k N) for the open
    # manifold N = M x R^n: b_i(B_k N) <= b_i(B_{k+1} N), with equality
    # for k >= 2i over every field (McDuff, Segal) and for k >= i + 1 over
    # Q (Church)
    char = FieldChar.from_name(field)
    m_dim, rel = preset(manifold[0], char=char, **manifold[1])
    spec = make_spec(
        m_dim=m_dim,
        rel_betti=rel,
        n=n,
        x_betti={0: 1},
        char=char,
        max_degree=D,
        max_weight=K,
    )
    rows = filtration_table(theorem_b(spec))
    for k in range(K):
        for i in range(D + 1):
            before, after = rows[k].get(i, 0), rows[k + 1].get(i, 0)
            assert before <= after, (k, i)
            if k >= 2 * i or (char.is_zero and k >= i + 1):
                assert before == after, (k, i)


def test_weight_one_slice_is_relative_smash():
    spec = make_spec(
        m_dim=2,
        rel_betti={0: 1, 1: 2, 2: 1},
        x_betti={0: 1, 2: 1},
        max_degree=8,
        max_weight=4,
    )
    series = theorem_b(spec)
    assert series.weight_slice(1) == weight_one_slice_expected(
        spec.rel_betti, spec.x_betti, 8
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MANIFOLD_PAIRS),
    st.one_of(
        st.dictionaries(st.integers(0, 3), st.integers(1, 2), min_size=1, max_size=3),
        st.sampled_from(({0: 1}, {0: 2}, {0: 1, 1: 1}, {0: 3, 2: 1})),
    ),
    st.sampled_from(("Q", "F2", "Fp:3", "Fp:5")),
    st.integers(1, 3),
    st.integers(0, 10),
    st.integers(0, 5),
)
def test_property_theorem_b_equals_the_desuspended_table(manifold, x, field, n, D, K):
    # the reference desuspends and truncates the whole table at the
    # enlarged cap; theorem_b desuspends only its generators
    char = FieldChar.from_name(field)
    m_dim, rel = preset(manifold[0], char=char, **manifold[1])
    wide = factor_product(m_dim, rel, n, suspend_betti(x, 2), char, D + 2 * K, K)
    spec = make_spec(
        m_dim=m_dim, rel_betti=rel, n=n, x_betti=x, char=char,
        max_degree=D, max_weight=K,
    )
    assert theorem_b(spec) == desuspend_by_weight(wide, 2).truncated(D, K)


def test_generator_below_degree_zero_is_an_integrity_failure(
    monkeypatch, tmp_path, capsys
):
    # only check:ab's S^2 X route lists generators and shifts them down;
    # theorem_a, its first side, lists none
    real = assemble.product_generators

    def stray(*args):
        return real(*args) + [(1, 1, 1, "polynomial")]

    monkeypatch.setattr(assemble, "product_generators", stray)
    with pytest.raises(IntegrityError, match=r"\(d, k\) = \(1, 1\)") as failure:
        ab_coherence_report(seed=0, trials=2, max_degree=8)
    assert failure.value.cell == (1, 1)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(
        {"mode": "check:ab", "seed": 0, "trials": 2, "max_degree": 8}
    ))
    assert cli.main(["--config", str(path)]) == cli.EXIT_INTEGRITY
    assert "(d, k) = (1, 1) below degree 0" in capsys.readouterr().err


def test_theorem_b_solves_one_free_algebra_at_the_caps_it_returns(monkeypatch):
    solves, table_ops = [], []
    real_solve = assemble.free_commutative_from_beta
    real_desuspend, real_truncated = series.desuspend_by_weight, BiSeries.truncated

    def solve(*args):
        solves.append(args[:2])
        return real_solve(*args)

    def desuspend(*args):
        table_ops.append("desuspend_by_weight")
        return real_desuspend(*args)

    def truncated(*args):
        table_ops.append("truncated")
        return real_truncated(*args)

    monkeypatch.setattr(assemble, "free_commutative_from_beta", solve)
    for module in (series, assemble):
        monkeypatch.setattr(module, "desuspend_by_weight", desuspend, raising=False)
    monkeypatch.setattr(BiSeries, "truncated", truncated)
    spec = make_spec(
        m_dim=2, rel_betti={0: 1, 1: 2, 2: 1}, x_betti={0: 1, 1: 1}, char=F3,
        max_degree=9, max_weight=4,
    )
    table = theorem_b(spec)
    assert (solves, table_ops, table.caps()) == ([(9, 4)], [], (9, 4))

    # theorem_a and theorem_b share one census, of the label itself, at
    # the caps asked for
    censuses = []
    real_beta = assemble.product_beta

    def census(*args):
        censuses.append(args)
        return real_beta(*args)

    monkeypatch.setattr(assemble, "product_beta", census)
    a_spec = make_spec(
        m_dim=2, rel_betti={0: 1, 1: 2, 2: 1}, x_betti={2: 1, 3: 1}, char=F3,
        max_degree=9, max_weight=4,
    )
    theorem_a(a_spec)
    theorem_b(spec)
    assert censuses == [
        (s.m_dim, s.rel_betti, s.n, s.x_betti, s.char, 9, 4) for s in (a_spec, spec)
    ]


def test_disconnected_labels_fill_degree_zero_at_all_weights():
    spec = make_spec(x_betti={0: 2}, max_degree=2, max_weight=5)
    series = theorem_b(spec)
    assert all(series.get(0, k) > 0 for k in range(6))


# labels each theorem accepts: theorem_a needs reduced classes in degrees >= 2
THEOREM_LABELS = {
    "theorem_a": ({2: 1}, {2: 1, 3: 1}, {3: 2}, {2: 2, 4: 1}),
    "theorem_b": ({0: 1}, {0: 2}, {0: 1, 1: 1}, {1: 1}, {2: 1}),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("theorem_a", "theorem_b")),
    st.sampled_from(MANIFOLD_PAIRS),
    st.integers(0, 4),
    st.sampled_from(("Q", "F2", "Fp:3")),
    st.integers(1, 3),
    st.integers(0, 24),
    st.integers(0, 16),
    st.integers(0, 24),
    st.integers(0, 16),
)
# (2, 1), the bottom generator of the j = 2 factor, is one term per
# multiple at caps (16, 12), where 2*12 > 1*16, and a running chain at (16, 6)
@example("theorem_a", ("cube", {"m": 1}), 0, "F2", 1, 16, 12, 16, 6)
def test_property_a_table_at_large_caps_truncates_to_the_table_at_small_caps(
    mode, manifold, label, field, n, D, K, small_d, small_k
):
    # the kernel picks a generator's path by comparing its slope with the
    # caps' D/K, so independent caps move generators between the two paths
    theorem = {"theorem_a": theorem_a, "theorem_b": theorem_b}[mode]
    labels = THEOREM_LABELS[mode]
    char = FieldChar.from_name(field)
    m_dim, rel = preset(manifold[0], char=char, **manifold[1])

    def table(max_degree, max_weight):
        return theorem(make_spec(
            m_dim=m_dim, rel_betti=rel, n=n, x_betti=labels[label % len(labels)],
            char=char, max_degree=max_degree, max_weight=max_weight,
        ))

    small_d, small_k = min(small_d, D), min(small_k, K)
    assert table(D, K).truncated(small_d, small_k) == table(small_d, small_k)


# -- filtration table ------------------------------------------------------


def test_filtration_rows_sum_to_series():
    spec = make_spec(m_dim=1, rel_betti={0: 1, 1: 1}, max_degree=9)
    series = theorem_a(spec)
    rows = filtration_table(series)
    totals = [0] * 10
    for k, row in enumerate(rows):
        for d, v in row.items():
            assert series.get(d, k) == v
            totals[d] += v
    assert totals == series.degree_totals()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_factor_product_equals_the_multiply_chain(data):
    m_dim = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 2))
    rel = data.draw(
        st.dictionaries(st.integers(0, m_dim), st.integers(1, 3), min_size=1, max_size=3)
    )
    if data.draw(st.booleans()):
        # a class in the top degree with n = 1 gives a j = 1 factor
        n, rel[m_dim] = 1, data.draw(st.integers(1, 3))
    x = data.draw(
        st.dictionaries(st.integers(1, 4), st.integers(1, 2), min_size=1, max_size=2)
    )
    char = FieldChar(data.draw(st.sampled_from((0, 2, 3))))
    D, K = data.draw(st.integers(0, 14)), data.draw(st.integers(0, 7))
    chain = BiSeries.one(D, K)
    for _q, j, y, copies in factor_plan(m_dim, rel, n, x):
        for _ in range(copies):
            chain = multiply(chain, factor_series(y, j, char, D, K))
    assert factor_product(m_dim, rel, n, x, char, D, K) == chain


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_one_census_serves_every_factor_of_a_plan(data):
    # factor q's basic products are the first factor's raised by q - q0,
    # degree-0 labels (theorem_b's model) and j = 1 factors included
    m_dim = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 2))
    rel = data.draw(
        st.dictionaries(st.integers(0, m_dim), st.integers(1, 3), min_size=1, max_size=3)
    )
    if data.draw(st.booleans()):
        n, rel[m_dim] = 1, data.draw(st.integers(1, 3))
    x = data.draw(
        st.dictionaries(st.integers(0, 4), st.integers(1, 2), min_size=1, max_size=2)
    )
    char = FieldChar(data.draw(st.sampled_from((0, 2, 3, 5))))
    D, K = data.draw(st.integers(0, 14)), data.draw(st.integers(0, 7))
    per_factor = [
        (d, k, c * copies, kind)
        for _q, j, y, copies in factor_plan(m_dim, rel, n, x)
        for d, k, c, kind in raised_generators(
            atom_census(y, j, char, D, K), 0, j, char, D, K
        )
    ]
    assert product_generators(m_dim, rel, n, x, char, D, K) == per_factor


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_the_engine_census_is_the_per_factor_route_through_tables(data):
    # plan_generators raises, closes and tags in one call per factor; the
    # public wrappers raise first and close the raised atoms at rise 0, as a
    # table and as tagged generators
    m_dim = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 2))
    rel = data.draw(
        st.dictionaries(st.integers(0, m_dim), st.integers(1, 3), min_size=1, max_size=3)
    )
    x = data.draw(
        st.dictionaries(st.integers(0, 4), st.integers(1, 2), min_size=1, max_size=2)
    )
    char = FieldChar(data.draw(st.sampled_from((0, 2, 3, 5))))
    D, K = data.draw(st.integers(0, 14)), data.draw(st.integers(0, 7))
    plan = factor_plan(m_dim, rel, n, x)
    q0, j0, y0, _copies = plan[0]
    atoms = atom_census(y0, j0, char, D, K)
    expected = []
    for q, j, y, copies in plan:
        raised = {
            (d + q - q0, l): c for (d, l), c in atoms.items() if d + q - q0 <= D
        }
        census = generator_census(raised, j, char, D, K)
        generators = raised_generators(raised, 0, j, char, D, K)
        assert [(d, k, c) for d, k, c, _kind in generators] == list(census.items())
        expected.append((q, j, y, copies, generators))
    assert plan_generators(m_dim, rel, n, x, char, D, K) == expected


def raised(census, delta, D):
    """``census`` with each weight-k generator raised by k * delta, cut at D."""
    return sorted(
        (d + k * delta, k, c, kind) for d, k, c, kind in census if d + k * delta <= D
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_a_suspended_label_raises_the_census_by_weight(data):
    # a weight-k generator is built from k letters, so Sigma^delta y raises
    # it by k * delta; over Q only an even delta keeps every letter's parity
    m_dim = data.draw(st.integers(0, 3))
    rel = data.draw(
        st.dictionaries(st.integers(0, m_dim), st.integers(1, 3), min_size=1, max_size=3)
    )
    y = data.draw(
        st.dictionaries(st.integers(1, 5), st.integers(1, 2), min_size=1, max_size=2)
    )
    char = data.draw(st.sampled_from((F2, Q)))
    delta = data.draw(st.integers(0, 3)) * (1 if char.is_two else 2)
    D = data.draw(st.integers(0, 24))
    census = product_generators(m_dim, rel, 1, y, char, D, D)
    suspended = product_generators(m_dim, rel, 1, suspend_betti(y, delta), char, D, D)
    assert sorted(suspended) == raised(census, delta, D)


def test_an_odd_suspension_over_q_is_not_a_raise():
    # over Q the bracket [x, x] of the bottom class lives on S^2 (degree 5,
    # exterior) and vanishes on S^3, and x itself turns exterior: the class
    # key of ``hilton_milnor_check`` therefore carries the lowest degree's parity
    census = product_generators(1, {0: 1}, 1, {2: 1}, Q, 12, 12)
    assert census == [(2, 1, 1, "polynomial"), (5, 2, 1, "exterior")]
    suspended = product_generators(1, {0: 1}, 1, {3: 1}, Q, 12, 12)
    assert suspended == [(3, 1, 1, "exterior")]
    assert sorted(suspended) != raised(census, 1, 12)
    # over F2 the same odd suspension is a raise
    census = product_generators(1, {0: 1}, 1, {2: 1}, F2, 12, 12)
    suspended = product_generators(1, {0: 1}, 1, {3: 1}, F2, 12, 12)
    assert sorted(suspended) == raised(census, 1, 12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_the_census_beta_is_the_listed_generators_log_derivative(data):
    # the theorems fold each factor's closed census straight into beta;
    # check:ab's second route tags, lists and copies the generators first
    theorem = data.draw(st.sampled_from(("theorem_a", "theorem_b")))
    m_dim = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 3))
    rel = data.draw(
        st.dictionaries(st.integers(0, m_dim), st.integers(1, 3), min_size=1, max_size=3)
    )
    # theorem_a's labels are simply connected; theorem_b's may sit in degree 0
    low = 2 if theorem == "theorem_a" else 0
    x = data.draw(
        st.dictionaries(st.integers(low, 5), st.integers(1, 2), min_size=1, max_size=3)
    )
    char = FieldChar(data.draw(st.sampled_from((0, 2, 3, 5))))
    D = data.draw(st.integers(0, 24))
    K = D // 2 if theorem == "theorem_a" else data.draw(st.integers(0, 10))
    listed = product_generators(m_dim, rel, n, x, char, D, K)
    assert assemble.product_beta(m_dim, rel, n, x, char, D, K) == (
        series.weight_log_derivative(D, K, listed)
    )


def test_the_theorems_list_no_generators_and_solve_one_witt_table_per_plan(
    monkeypatch,
):
    listed, witt_solves = [], []

    def spy(name, real):
        def listing(*args):
            listed.append(name)
            return real(*args)

        return listing

    for module, name in (
        (assemble, "product_generators"),
        (assemble, "plan_generators"),
        (assemble, "raised_generators"),
        (loops, "raised_generators"),
    ):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    real_witt = loops.lie_atom_counts

    def witt(*args):
        witt_solves.append(args[2])
        return real_witt(*args)

    monkeypatch.setattr(loops, "lie_atom_counts", witt)
    # genus-1 surface, n = 1: factors with j = 3, 2 (two copies) and 1
    m_dim, rel = preset("surface", genus=1)
    theorem_a(ProblemSpec(m_dim, rel, 1, {2: 1, 3: 1}, F3, 16))
    theorem_b(ProblemSpec(m_dim, rel, 1, {0: 1, 2: 1}, F2, 12, 6))
    assert listed == []
    assert witt_solves == [18, 14]


def test_a_multi_factor_plan_builds_no_table_per_factor(monkeypatch):
    tables = []
    real = DegreeWeightTable.__init__

    def spy(table, *args, **kwargs):
        real(table, *args, **kwargs)
        tables.append((table.max_degree, table.max_weight))

    monkeypatch.setattr(DegreeWeightTable, "__init__", spy)
    # torus m = 6 over F3: seven factors, j = 7 down to 1; the Witt table
    # at the shifted cap 30 + 6 is the only table, the atoms a plain dict
    m_dim, rel = preset("torus", m=6)
    assert len(factor_plan(m_dim, rel, 1, {2: 1})) == 7
    theorem_a(ProblemSpec(m_dim, rel, 1, {2: 1}, F3, 30))
    assert tables == [(36, 15)]


def test_a_table_is_one_free_algebra_on_one_census_and_a_repeat_solves_again(
    monkeypatch,
):
    solves, censuses, witt_solves = [], [], []
    real_solve, real_census = assemble.free_commutative_from_beta, assemble.atom_census
    real_witt = loops.lie_atom_counts

    def solve(*args):
        solves.append(args[:2])
        return real_solve(*args)

    def census(y, j, *args):
        censuses.append(j)
        return real_census(y, j, *args)

    def witt(letters, signed, max_degree, max_weight):
        witt_solves.append(max_degree)
        return real_witt(letters, signed, max_degree, max_weight)

    monkeypatch.setattr(assemble, "free_commutative_from_beta", solve)
    monkeypatch.setattr(assemble, "atom_census", census)
    monkeypatch.setattr(loops, "lie_atom_counts", witt)
    # genus-1 surface, n = 1: factors with j = 3, 2 (two copies) and 1; the
    # census of the j = 3 factor, at shifted cap 16 + 2, serves all three
    args = (2, {0: 1, 1: 2, 2: 1}, 1, {2: 1, 3: 1}, F3, 16, 8)
    first = factor_product(*args)
    assert (solves, censuses, witt_solves) == ([(16, 8)], [3], [18])
    # nothing is kept between calls: a repeat solves the Witt table again
    assert factor_product(*args) == first
    assert (solves, censuses, witt_solves) == ([(16, 8)] * 2, [3, 3], [18, 18])


# -- presets ---------------------------------------------------------------


def test_preset_catalog():
    assert preset("sphere", m=2) == (2, {0: 1, 2: 1})
    assert preset("sphere", m=0) == (0, {0: 2})
    assert preset("surface", genus=2) == (2, {0: 1, 1: 4, 2: 1})
    assert preset("surface", genus=0) == (2, {0: 1, 2: 1})
    assert preset("disk_pair", m=3) == (3, {3: 1})
    assert preset("torus", m=3) == (3, {0: 1, 1: 3, 2: 3, 3: 1})
    assert preset("cube", m=2) == (2, {0: 1})
    assert preset("point") == (0, {0: 1})
    assert preset("rp", char=F2, m=3) == (3, {0: 1, 1: 1, 2: 1, 3: 1})


def test_the_torus_row_is_the_binomial_row():
    for m in range(65):
        assert preset("torus", m=m) == (m, {q: math.comb(m, q) for q in range(m + 1)})


def test_preset_errors():
    with pytest.raises(InvalidInputError):
        preset("klein_bottle")
    with pytest.raises(InvalidInputError):
        preset("rp", char=Q, m=2)
    with pytest.raises(InvalidInputError):
        preset("rp", m=2)
    with pytest.raises(InvalidInputError):
        preset("sphere")
    with pytest.raises(InvalidInputError):
        preset("sphere", m=-1)


# -- coherence suite ---------------------------------------------------------


def test_ab_coherence_small_run_passes_and_is_reproducible():
    rep1 = ab_coherence_report(seed=5, trials=6, max_degree=16)
    rep2 = ab_coherence_report(seed=5, trials=6, max_degree=16)
    assert rep1.passed and rep2.passed
    assert rep1.to_json() == rep2.to_json()


def test_ab_coherence_refuses_negative_counts_before_any_spec(monkeypatch):
    def specs(*_args):
        raise AssertionError("a spec was built for a bad count")

    monkeypatch.setattr(assemble, "random_problem_specs", specs)
    with pytest.raises(InvalidInputError, match="trials must be an int >= 0"):
        ab_coherence_report(0, -3, 30)
    with pytest.raises(InvalidInputError, match="max_degree must be an int >= 0"):
        ab_coherence_report(0, 0, -1)


def both_tables_report(seed, trials, max_degree):
    """The coherence report that solving both tables of every case gives:
    theorem_a's and that of the check's S^2 X route."""
    report = assemble.CheckReport("ab_coherence", True, trials)
    for idx, spec in enumerate(assemble.random_problem_specs(seed, trials, max_degree)):
        a = theorem_a(spec)
        b = series.free_commutative(
            spec.max_degree, spec.max_weight, assemble._suspended_generators(spec)
        )
        if a != b:
            cells = set(a.items()) ^ set(b.items())
            mism = sorted((d, k, a.get(d, k), b.get(d, k)) for d, k, _ in cells)[:5]
            report.failures.append(
                {"case": idx, "spec": assemble.describe_spec(spec), "first_mismatches": mism}
            )
    report.passed = not report.failures
    return report


def _drop_first(generators):
    return generators[1:]


def _bump_first(generators):
    (d, k, c, kind), *rest = generators
    return [(d, k, c + 1, kind)] + rest


def test_check_ab_solves_only_on_a_mismatch(monkeypatch):
    # equal Lambert coefficients decide a passing case without the kernel;
    # a case whose route is perturbed solves both tables
    solves = []
    real = assemble.free_commutative_from_beta

    def solve(max_degree, max_weight, beta):
        solves.append((max_degree, max_weight))
        return real(max_degree, max_weight, beta)

    monkeypatch.setattr(assemble, "free_commutative_from_beta", solve)
    config = {"mode": "check:ab", "seed": 0, "trials": 10, "max_degree": 36}
    assert cli.run(config)[0] == cli.EXIT_OK
    assert solves == []
    route = assemble._suspended_generators
    monkeypatch.setattr(
        assemble, "_suspended_generators", lambda spec: _bump_first(route(spec))
    )
    config = dict(config, trials=3, max_degree=14)
    assert cli.run(config)[0] == cli.EXIT_CHECK_FAILED
    assert solves == [(14, 7)] * 6


@pytest.mark.parametrize("perturb", [_drop_first, _bump_first])
def test_check_ab_fails_when_theorem_b_generators_change(monkeypatch, perturb):
    real = assemble._suspended_generators

    def perturbed(spec):
        return perturb([g for g in real(spec) if g[2]])

    monkeypatch.setattr(assemble, "_suspended_generators", perturbed)
    seed, trials, D = 0, 4, 14
    expected = both_tables_report(seed, trials, D).to_json()
    assert expected["status"] == "fail"
    assert len(expected["failures"]) == trials
    assert ab_coherence_report(seed, trials, D).to_json() == expected
    config = {"mode": "check:ab", "seed": seed, "trials": trials, "max_degree": D,
              "format": "json"}
    status, text = cli.run(config)
    assert status == cli.EXIT_CHECK_FAILED
    assert json.loads(text)["checks"] == [json.loads(json.dumps(expected))]


def test_factor_product_rejects_class_beyond_loop_range():
    # q = 1 > m_dim + n - 1 = 0 would need a factor with j = 0 loops
    with pytest.raises(InvalidInputError):
        factor_product(0, {1: 1}, 1, {2: 1}, F2, 6, 3)


def test_factor_plan_lists_one_loop_factor_per_relative_degree():
    # (S^1, pt) x R^2 with S^2 v S^3 labels: classes in degrees 0 and 1
    plan = factor_plan(1, {0: 1, 1: 2}, 2, {2: 1, 3: 1})
    assert plan == [(0, 3, {2: 1, 3: 1}, 1), (1, 2, {3: 1, 4: 1}, 2)]
