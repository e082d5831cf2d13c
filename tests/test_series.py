"""Kernel tests: worked examples plus seeded-random algebra properties.

The reference multiplication used here is a direct dict convolution written
independently of the packed-integer path in the package.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confighom import (
    BiSeries,
    ConfigurationError,
    DivergentSeriesError,
    FieldChar,
    IntegrityError,
    InvalidInputError,
    assemble,
    atom_census,
    cli,
    desuspend_by_weight,
    factor_series,
    free_commutative,
    generator_census,
    inverse_one_minus,
    loops,
    multiply,
    power_factor,
    series,
)


def naive_multiply(a: BiSeries, b: BiSeries) -> dict:
    D, K = a.caps()
    out: dict = {}
    for d1, k1, v1 in a.items():
        for d2, k2, v2 in b.items():
            d, k = d1 + d2, k1 + k2
            if d <= D and k <= K:
                out[(d, k)] = out.get((d, k), 0) + v1 * v2
    return out


def random_series(rng: random.Random, D: int, K: int, density: float = 0.3) -> BiSeries:
    entries = {}
    for d in range(D + 1):
        for k in range(K + 1):
            if rng.random() < density:
                entries[(d, k)] = rng.randint(1, 9)
    return BiSeries.from_entries(D, K, entries)


# -- multiply ---------------------------------------------------------------


def test_multiply_unit_is_identity():
    rng = random.Random(1)
    a = random_series(rng, 8, 5)
    assert multiply(a, BiSeries.one(8, 5)) == a


def test_multiply_binomial_square():
    a = BiSeries.from_entries(2, 2, {(0, 0): 1, (1, 1): 1}, is_algebra=True)
    assert multiply(a, a).to_dict() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_multiply_two_geometric_series_degree_six():
    # hand expansion of (sum t^{2d} u^d)(sum t^{3d} u^d): degree 6 splits as
    # 2+2+2 (weight 3) and 3+3 (weight 2)
    a = BiSeries.from_entries(6, 3, {(2 * d, d): 1 for d in range(4)})
    b = BiSeries.from_entries(6, 3, {(3 * d, d): 1 for d in range(3)})
    got = {(d, k): v for d, k, v in multiply(a, b).items() if d == 6}
    assert got == {(6, 2): 1, (6, 3): 1}


def test_multiply_matches_naive_convolution():
    rng = random.Random(7)
    for _ in range(25):
        D, K = rng.randint(0, 10), rng.randint(0, 6)
        a = random_series(rng, D, K)
        b = random_series(rng, D, K)
        assert multiply(a, b).to_dict() == naive_multiply(a, b)


def test_multiply_huge_coefficients_stay_exact():
    big = 10**40
    a = BiSeries.from_entries(2, 1, {(1, 0): big, (2, 1): big + 3})
    b = BiSeries.from_entries(2, 1, {(0, 0): big, (1, 1): 7})
    assert multiply(a, b).to_dict() == naive_multiply(a, b)


def test_multiply_associative_commutative():
    rng = random.Random(3)
    for _ in range(10):
        a = random_series(rng, 7, 4)
        b = random_series(rng, 7, 4)
        c = random_series(rng, 7, 4)
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_cap_mismatch_rejected():
    a = BiSeries.one(4, 4)
    b = BiSeries.one(4, 3)
    with pytest.raises(ConfigurationError):
        multiply(a, b)


# -- power_factor -----------------------------------------------------------


def test_power_factor_polynomial_geometric():
    got = power_factor(BiSeries.one(6, 3), 2, 1, 1, "polynomial")
    assert got.to_dict() == {(0, 0): 1, (2, 1): 1, (4, 2): 1, (6, 3): 1}


def test_power_factor_exterior_squares_to_zero():
    got = power_factor(BiSeries.one(6, 3), 3, 2, 1, "exterior")
    assert got.to_dict() == {(0, 0): 1, (3, 2): 1}


def test_power_factor_two_polynomial_generators_counts_monomials():
    # x^a y^b with a+b = d: d+1 monomials, weight equals degree
    got = power_factor(BiSeries.one(3, 3), 1, 1, 2, "polynomial")
    assert got.to_dict() == {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 4}


def test_power_factor_order_independent():
    one = BiSeries.one(10, 6)
    ab = power_factor(power_factor(one, 2, 1, 3, "polynomial"), 3, 2, 2, "exterior")
    ba = power_factor(power_factor(one, 3, 2, 2, "exterior"), 2, 1, 3, "polynomial")
    assert ab == ba


def test_power_factor_matches_naive_closed_form():
    rng = random.Random(11)
    for _ in range(20):
        D, K = rng.randint(1, 9), rng.randint(0, 5)
        acc = random_series(rng, D, K)
        d = rng.randint(1, D)
        k = rng.randint(0, K)
        c = rng.randint(0, 4)
        kind = rng.choice(("polynomial", "exterior"))
        factor = {(0, 0): 1}
        i = 1
        while i * d <= D and (k == 0 or i * k <= K) and (kind == "polynomial" or i <= c):
            from math import comb

            factor[(i * d, i * k)] = comb(c + i - 1, i) if kind == "polynomial" else comb(c, i)
            i += 1
        expected = naive_multiply(acc, BiSeries.from_entries(D, K, factor))
        assert power_factor(acc, d, k, c, kind).to_dict() == expected


def test_power_factor_divergent_degree_zero():
    with pytest.raises(DivergentSeriesError):
        power_factor(BiSeries.one(4, 4), 0, 1, 1, "polynomial")
    with pytest.raises(InvalidInputError):
        power_factor(BiSeries.one(4, 4), 0, 1, 1, "exterior")


# -- free_commutative -------------------------------------------------------


def power_chain(D: int, K: int, generators) -> BiSeries:
    """The free algebra as one power_factor per generator, from the unit."""
    acc = BiSeries.one(D, K)
    for degree, weight, count, kind in generators:
        acc = power_factor(acc, degree, weight, count, kind)
    return acc


generator_lists = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.integers(1, 4),
        st.one_of(st.integers(0, 4), st.integers(0, 10**12)),
        st.sampled_from(("polynomial", "exterior")),
    ),
    max_size=7,
)


@settings(max_examples=150, deadline=None)
@given(generator_lists, st.integers(0, 18), st.integers(0, 9), st.data())
def test_property_free_commutative_equals_power_factor_chain(gens, D, K, data):
    # repeat a drawn generator so equal bidegrees (and kinds) meet in B
    if gens and data.draw(st.booleans()):
        gens = gens + [data.draw(st.sampled_from(gens))]
    assert free_commutative(D, K, gens) == power_chain(D, K, gens)


@settings(max_examples=60, deadline=None)
@given(
    generator_lists,
    st.lists(
        st.tuples(
            st.just(0),
            st.integers(1, 4),
            st.integers(0, 4),
            st.sampled_from(("polynomial", "exterior")),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 12),
    st.integers(0, 9),
)
def test_property_degree_zero_generators_multiply_in(gens, zeros, D, K):
    # a free algebra on two sets of generators is the product of the two
    assert free_commutative(D, K, gens + zeros) == multiply(
        free_commutative(D, K, gens), free_commutative(D, K, zeros)
    )


def test_free_commutative_small_examples():
    assert free_commutative(6, 3, [(2, 1, 1, "polynomial")]).to_dict() == {
        (0, 0): 1, (2, 1): 1, (4, 2): 1, (6, 3): 1}
    assert free_commutative(6, 3, [(3, 2, 1, "exterior")]).to_dict() == {
        (0, 0): 1, (3, 2): 1}
    # x, y exterior in degree 1 weight 1: 1 + 2tu + t^2u^2
    assert free_commutative(4, 4, [(1, 1, 2, "exterior")]).to_dict() == {
        (0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert free_commutative(5, 0, [(1, 1, 3, "polynomial")]) == BiSeries.one(5, 0)
    assert free_commutative(0, 0, []) == BiSeries.one(0, 0)


def test_free_commutative_rejects_bad_generators():
    # a degree-0 generator of weight w >= 1 is bounded by the weight cap:
    # c polynomial ones give C(c+r-1, r) at (0, r*w), c exterior ones C(c, r)
    D, K, w, c = 3, 7, 2, 3
    cells = [(0, r * w) for r in range(K // w + 1)]
    assert free_commutative(D, K, [(0, w, c, "polynomial")]).to_dict() == {
        cell: math.comb(c + r - 1, r) for r, cell in enumerate(cells)}
    assert free_commutative(D, K, [(0, w, c, "exterior")]).to_dict() == {
        cell: math.comb(c, r) for r, cell in enumerate(cells) if r <= c}
    with pytest.raises(InvalidInputError, match="degree"):
        free_commutative(4, 4, [(-1, 1, 1, "polynomial")])
    with pytest.raises(InvalidInputError, match="weight"):
        free_commutative(4, 4, [(2, 0, 1, "polynomial")])
    with pytest.raises(InvalidInputError):
        free_commutative(4, 4, [(2, 1, -1, "polynomial")])
    with pytest.raises(InvalidInputError):
        free_commutative(4, 4, [(2, 1, 1, "divided_power")])
    with pytest.raises(InvalidInputError):
        free_commutative(-1, 4, [])


def census_generators(y, j, char, D, K):
    census = generator_census(atom_census(y, j, char, D, K), j, char, D, K)
    return [
        (d, k, c, "polynomial" if char.is_two or d % 2 == 0 else "exterior")
        for d, k, c in census.items()
    ]


@pytest.mark.parametrize(
    "y, j, p, D, K",
    [({2: 1}, 3, 3, 120, 40), ({2: 1}, 3, 2, 120, 40), ({1: 1, 2: 1}, 2, 3, 90, 40)],
)
def test_loop_factor_equals_power_factor_chain_across_slot_growth(
    monkeypatch, y, j, p, D, K
):
    widths = []
    real = series._pack_row

    def spy(c, weight, cell):
        widths.append(cell)
        return real(c, weight, cell)

    monkeypatch.setattr(series, "_pack_row", spy)
    monkeypatch.setattr(loops, "_factor_cache", {})
    char = FieldChar(p)
    got = factor_series(y, j, char, D, K)
    assert got == power_chain(D, K, census_generators(y, j, char, D, K))
    if p == 2 or j == 2:
        # the slots outgrew their first width and every row was repacked
        assert len(set(widths)) >= 2


def bump_weight_two(real):
    """weight_log_derivative with B raised by 1 at (max_degree, 2)."""

    def bumped(max_degree, max_weight, generators):
        b = real(max_degree, max_weight, generators)
        b[(max_degree, 2)] = b.get((max_degree, 2), 0) + 1
        return b

    return bumped


def test_corrupted_log_derivative_raises_integrity_error(monkeypatch, tmp_path):
    monkeypatch.setattr(
        series, "weight_log_derivative", bump_weight_two(series.weight_log_derivative)
    )
    with pytest.raises(IntegrityError, match=r"\(d, k\) = \(8, 2\)"):
        free_commutative(8, 4, [(2, 1, 1, "polynomial"), (3, 1, 2, "exterior")])

    monkeypatch.setattr(loops, "_factor_cache", {})
    config = {
        "field": "F2",
        "manifold": {"preset": "cube", "m": 1},
        "n": 1,
        "label_space": {"preset": "sphere", "d": 2},
        "mode": "theorem_a",
        "max_degree": 8,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path)]) == cli.EXIT_INTEGRITY


def test_one_gate_covers_every_factor_of_the_product(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        series, "weight_log_derivative", bump_weight_two(series.weight_log_derivative)
    )
    config = {
        "field": "F2",
        "manifold": {"preset": "surface", "genus": 1},
        "n": 1,
        "label_space": {"preset": "wedge", "spheres": [2, 3]},
        "mode": "theorem_a",
        "max_degree": 10,
    }
    # the product has loop factors with j = 3, 2 and 1
    plan = assemble.factor_plan(2, {0: 1, 1: 2, 2: 1}, 1, {2: 1, 3: 1})
    assert [j for _q, j, _y, _copies in plan] == [3, 2, 1]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path)]) == cli.EXIT_INTEGRITY
    assert "free-algebra recurrence broke at (d, k) = (10, 2)" in capsys.readouterr().err


def test_free_algebra_gate_holds_without_asserts(tmp_path):
    script = """
import json, sys
import confighom.series as series
from confighom import cli
assert False  # stripped by -O
real = series.weight_log_derivative
def bumped(max_degree, max_weight, generators):
    b = real(max_degree, max_weight, generators)
    b[(max_degree, 2)] = b.get((max_degree, 2), 0) + 1
    return b
series.weight_log_derivative = bumped
sys.exit(cli.main(["--config", sys.argv[1]]))
"""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "field": "Fp:3",
        "manifold": {"preset": "cube", "m": 1},
        "n": 2,
        "label_space": {"preset": "sphere", "d": 2},
        "mode": "theorem_a",
        "max_degree": 12,
    }))
    src = os.path.dirname(os.path.dirname(series.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == cli.EXIT_INTEGRITY, done.stderr
    assert "free-algebra recurrence broke at (d, k)" in done.stderr


# -- inverse_one_minus ------------------------------------------------------


def test_inverse_single_letter_geometric():
    f = BiSeries.from_entries(12, 4, {(3, 1): 1})
    assert inverse_one_minus(f).to_dict() == {(3 * r, r): 1 for r in range(5)}


def test_inverse_two_letters_counts_words():
    f = BiSeries.from_entries(4, 4, {(1, 1): 2})
    g = inverse_one_minus(f)
    assert [g.get(d, d) for d in range(5)] == [1, 2, 4, 8, 16]


def test_inverse_mixed_degrees_enumerates_words():
    f = BiSeries.from_entries(6, 3, {(2, 1): 1, (3, 1): 1})
    assert inverse_one_minus(f).to_dict() == {
        (0, 0): 1,
        (2, 1): 1,
        (3, 1): 1,
        (4, 2): 1,
        (5, 2): 2,
        (6, 2): 1,
        (6, 3): 1,
    }


def test_inverse_times_one_minus_is_unit():
    rng = random.Random(5)
    for _ in range(15):
        D, K = rng.randint(1, 9), rng.randint(1, 6)
        f = random_series(rng, D, K, density=0.25)
        if f.get(0, 0):
            f = BiSeries.from_entries(
                D, K, {(d, k): v for d, k, v in f.items() if (d, k) != (0, 0)}
            )
        g = inverse_one_minus(f)
        # g*(1-f) == 1 is the same as f*g == g - 1
        fg = naive_multiply(f, g)
        g_minus_one = g.to_dict()
        assert g_minus_one.pop((0, 0)) == 1
        assert fg == g_minus_one


def test_inverse_requires_vanishing_constant_term():
    with pytest.raises(InvalidInputError):
        inverse_one_minus(BiSeries.one(4, 4))


# -- desuspend_by_weight ----------------------------------------------------


def test_desuspend_examples():
    s = BiSeries.from_entries(4, 2, {(4, 2): 1})
    assert desuspend_by_weight(s, 2).to_dict() == {(0, 2): 1}
    u = BiSeries.one(4, 2)
    assert desuspend_by_weight(u, 5).to_dict() == {(0, 0): 1}
    s = BiSeries.from_entries(7, 3, {(5, 2): 1, (7, 3): 1})
    assert desuspend_by_weight(s, 2).to_dict() == {(1, 2): 1, (1, 3): 1}


def test_desuspend_negative_degree_is_integrity_error():
    s = BiSeries.from_entries(4, 4, {(1, 1): 1})
    with pytest.raises(IntegrityError):
        desuspend_by_weight(s, 2)


# -- container invariants ---------------------------------------------------


def test_negative_coefficients_rejected():
    with pytest.raises(IntegrityError):
        BiSeries(1, 1, [[1, 0], [-1, 0]])


def test_algebra_flag_requires_unit():
    with pytest.raises(ConfigurationError):
        BiSeries(1, 1, [[0, 0], [0, 0]], is_algebra=True)


def test_reading_outside_caps_is_refused():
    s = BiSeries.one(3, 3)
    with pytest.raises(ConfigurationError):
        s.get(4, 0)


def test_truncated_keeps_low_cells_and_refuses_growth():
    rng = random.Random(9)
    s = random_series(rng, 8, 5)
    t = s.truncated(5, 3)
    assert all(t.get(d, k) == s.get(d, k) for d in range(6) for k in range(4))
    with pytest.raises(ConfigurationError):
        s.truncated(9, 5)
