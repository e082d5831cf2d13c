"""Kernel tests: worked examples plus seeded-random algebra properties.

The reference multiplication used here is a direct dict convolution written
independently of the package's ``multiply``.
"""

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confighom import (
    BiSeries,
    ConfigurationError,
    FieldChar,
    IntegrityError,
    InvalidInputError,
    assemble,
    atom_census,
    cli,
    free_commutative,
    series,
)
from confighom.loops import factor_series, generator_census
from confighom.series import desuspend_by_weight, inverse_one_minus, multiply, power_factor


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
    with pytest.raises(InvalidInputError, match=(
        "^polynomial generator in degree 0 gives a divergent truncation$"
    )):
        power_factor(BiSeries.one(4, 4), 0, 1, 1, "polynomial")
    with pytest.raises(InvalidInputError):
        power_factor(BiSeries.one(4, 4), 0, 1, 1, "exterior")


# -- free_commutative -------------------------------------------------------


def power_chain(D: int, K: int, generators) -> BiSeries:
    """The free algebra as one power_factor per generator, from the unit.

    power_factor refuses degree 0, so a degree-0 generator is multiplied in
    as its factor: sum_r C(c+r-1, r) u^(rw), or sum_r C(c, r) u^(rw) if it
    is exterior."""
    acc = BiSeries.one(D, K)
    for degree, weight, count, kind in generators:
        if degree:
            acc = power_factor(acc, degree, weight, count, kind)
            continue
        if not count:
            continue
        factor = {
            (0, r * weight): math.comb(count + r - 1, r)
            if kind == "polynomial"
            else math.comb(count, r)
            for r in range(K // weight + 1)
        }
        acc = multiply(acc, BiSeries.from_entries(D, K, factor))
    return acc


def per_multiple_log_derivative(D: int, K: int, generators) -> dict:
    """B = u d/du log A with one term per multiple: each generator (d, w, c,
    kind) adds c*w*s_r at (r*d, r*w) for every r >= 1 inside the caps, with
    s_r = 1 for a polynomial generator and (-1)^(r+1) for an exterior one."""
    b: dict = {}
    for degree, weight, count, kind in generators:
        r = 1
        while r * degree <= D and r * weight <= K:
            sign = 1 if kind == "polynomial" or r % 2 else -1
            key = (r * degree, r * weight)
            b[key] = b.get(key, 0) + sign * count * weight
            r += 1
    return {key: v for key, v in b.items() if v}


def lambert_expansion(D: int, K: int, beta) -> dict:
    """sum beta(d, w) x/(1 - x), x = t^d u^w, expanded inside the caps."""
    b: dict = {}
    for (degree, weight), v in beta.items():
        r = 1
        while r * degree <= D and r * weight <= K:
            b[r * degree, r * weight] = b.get((r * degree, r * weight), 0) + v
            r += 1
    return {key: v for key, v in b.items() if v}


def dict_recurrence(D: int, K: int, b) -> tuple[tuple[int, int] | None, list]:
    """k A_k = sum B(e, i) t^e A_{k-i} solved over dicts from the
    per-multiple ``b``: the first (d, k), by weight and then degree, whose
    residual is negative or not a multiple of k (None if there is none),
    and the rows A_k before it as degree -> value dicts."""
    rows = [{0: 1}]
    for k in range(1, K + 1):
        residual: dict = {}
        for (e, i), v in b.items():
            if i <= k:
                for d, a in rows[k - i].items():
                    if d + e <= D:
                        residual[d + e] = residual.get(d + e, 0) + v * a
        for d in sorted(residual):
            if residual[d] < 0 or residual[d] % k:
                return (d, k), rows
        rows.append({d: v // k for d, v in residual.items() if v})
    return None, rows


def first_broken_cell(D: int, K: int, b) -> tuple[int, int] | None:
    """The first broken cell of :func:`dict_recurrence`."""
    return dict_recurrence(D, K, b)[0]


KINDS = ("polynomial", "exterior")


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(1, 4),
            st.one_of(st.integers(0, 4), st.integers(0, 10**12)),
            st.sampled_from(KINDS),
        ),
        max_size=7,
    ),
    st.integers(0, 20),
    st.integers(0, 12),
    st.data(),
)
def test_property_lambert_coefficients_expand_to_the_log_derivative(gens, D, K, data):
    # a repeated bidegree, and a generator at (2d, 2w) of a drawn (d, w),
    # where an exterior generator's correction lands
    if gens and data.draw(st.booleans()):
        gens = gens + [data.draw(st.sampled_from(gens))]
    if gens and data.draw(st.booleans()):
        d, w, _count, _kind = data.draw(st.sampled_from(gens))
        gens = gens + [
            (2 * d, 2 * w, data.draw(st.integers(1, 4)), data.draw(st.sampled_from(KINDS)))
        ]
    beta = series.weight_log_derivative(D, K, gens)
    assert all(v and d <= D and w <= K for (d, w), v in beta.items())
    assert lambert_expansion(D, K, beta) == per_multiple_log_derivative(D, K, gens)


def test_lambert_coefficients_of_single_generators():
    assert series.weight_log_derivative(4, 4, [(1, 1, 3, "polynomial")]) == {(1, 1): 3}
    # x/(1 + x) = x/(1 - x) - 2 x^2/(1 - x^2)
    assert series.weight_log_derivative(4, 4, [(1, 1, 3, "exterior")]) == {
        (1, 1): 3, (2, 2): -6}
    # the correction at (2d, 2w) lies outside the caps
    assert series.weight_log_derivative(4, 3, [(1, 2, 3, "exterior")]) == {(1, 2): 6}
    # an exterior and a polynomial generator at (1, 1) and (2, 2) cancel
    assert series.weight_log_derivative(
        4, 4, [(1, 1, 1, "exterior"), (2, 2, 1, "polynomial")]
    ) == {(1, 1): 1}
    assert series.weight_log_derivative(4, 4, [(5, 1, 1, "polynomial")]) == {}


@st.composite
def shallow_generators(draw):
    """Caps up to 40 and generators of slope d/w <= D/K with 2w <= K,
    degree 0 included: the bidegrees the kernel solves as running chains."""
    D, K = draw(st.integers(0, 40)), draw(st.integers(2, 40))
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        weight = draw(st.integers(1, K // 2))
        gens.append((
            draw(st.integers(0, weight * D // K)),
            weight,
            draw(st.one_of(st.integers(0, 4), st.integers(0, 10**12))),
            draw(st.sampled_from(KINDS)),
        ))
    return D, K, gens


@settings(max_examples=80, deadline=None)
@given(shallow_generators(), generator_lists)
def test_property_chains_equal_power_factor_chain(shallow, steep):
    # counts up to 10^12 widen the slots while the chains are live, and
    # the other generators mix terms of both paths into each row step
    D, K, gens = shallow
    gens = gens + steep
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


@st.composite
def theorem_a_generators(draw):
    """Generators in degree >= 2 * weight, as for a simply connected label,
    all of weight a multiple of ``step``, so the rows in between vanish."""
    step = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        weight = step * draw(st.integers(1, 3))
        gens.append((
            draw(st.integers(2 * weight, 2 * weight + 14)),
            weight,
            draw(st.one_of(st.integers(0, 4), st.integers(0, 10**9))),
            draw(st.sampled_from(("polynomial", "exterior"))),
        ))
    return gens


@settings(max_examples=150, deadline=None)
@given(theorem_a_generators(), st.integers(0, 30), st.integers(0, 12))
def test_property_rows_from_their_low_degree_equal_power_factor_chain(gens, D, K):
    # weight-k rows vanish below degree 2k; generators may lie above the cap
    assert free_commutative(D, K, gens) == power_chain(D, K, gens)


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
    # a cap no row can index is refused before any allocation
    for caps in ((sys.maxsize, 1), (4, sys.maxsize), (10**21, 1)):
        with pytest.raises(InvalidInputError, match="caps must be below"):
            free_commutative(*caps, [])


# -- the kernel reads its generators only through beta -----------------------


def kernel_outcome(D: int, K: int, generators, corrupt):
    """free_commutative's table, or the cell of the IntegrityError it
    raises.  With ``corrupt`` = (key, amount) the Lambert coefficients are
    raised by ``amount`` at ``key`` first, so that some rows break."""
    with pytest.MonkeyPatch.context() as patch:
        if corrupt:
            patch.setattr(
                series, "weight_log_derivative", bump_beta(series.weight_log_derivative, *corrupt)
            )
        try:
            return free_commutative(D, K, generators)
        except IntegrityError as failure:
            return failure.cell
        except InvalidInputError as refusal:  # the kernel refuses a key past the caps
            return str(refusal)


kernel_inputs = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(1, 4),
            st.one_of(st.integers(0, 4), st.integers(0, 10**12)),
            st.sampled_from(KINDS),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 18),
    st.integers(0, 9),
    st.one_of(
        st.none(),
        st.tuples(
            st.tuples(st.integers(0, 18), st.integers(1, 9)),
            st.sampled_from([-3, -2, -1, 1, 2, 3]),
        ),
    ),
)


@settings(max_examples=100, deadline=None)
@given(kernel_inputs, st.data())
def test_property_a_permutation_of_the_generators_gives_the_same_outcome(inputs, data):
    gens, D, K, corrupt = inputs
    shuffled = data.draw(st.permutations(gens))
    assert kernel_outcome(D, K, shuffled, corrupt) == kernel_outcome(D, K, gens, corrupt)


@settings(max_examples=100, deadline=None)
@given(kernel_inputs, st.data())
def test_property_a_count_split_across_duplicates_gives_the_same_outcome(inputs, data):
    gens, D, K, corrupt = inputs
    i = data.draw(st.integers(0, len(gens) - 1))
    d, w, c, kind = gens[i]
    part = data.draw(st.integers(0, c))
    split = gens[:i] + [(d, w, part, kind)] + gens[i + 1 :] + [(d, w, c - part, kind)]
    assert kernel_outcome(D, K, split, corrupt) == kernel_outcome(D, K, gens, corrupt)


@settings(max_examples=100, deadline=None)
@given(kernel_inputs, st.data())
def test_property_generators_with_equal_lambert_coefficients_give_the_same_outcome(
    inputs, data
):
    gens, D, K, corrupt = inputs
    # rewrites that keep beta: (1 - x)^(-c) = (1 + x)^c (1 - x^2)^(-c),
    # generators of count 0 or outside the caps, and a new order
    other = []
    for d, w, c, kind in gens:
        if kind == "polynomial" and data.draw(st.booleans()):
            other += [(d, w, c, "exterior"), (2 * d, 2 * w, c, "polynomial")]
        else:
            other.append((d, w, c, kind))
    other += data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, 6), st.integers(1, 4), st.just(0), st.sampled_from(KINDS)),
                st.tuples(st.integers(D + 1, D + 6), st.integers(1, 4), st.integers(1, 4),
                          st.sampled_from(KINDS)),
                st.tuples(st.integers(0, 6), st.integers(K + 1, K + 4), st.integers(1, 4),
                          st.sampled_from(KINDS)),
            ),
            max_size=3,
        )
    )
    other = data.draw(st.permutations(other))
    assert series.weight_log_derivative(D, K, other) == series.weight_log_derivative(D, K, gens)
    assert kernel_outcome(D, K, other, corrupt) == kernel_outcome(D, K, gens, corrupt)


small_generator_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 4), st.integers(0, 3), st.sampled_from(KINDS)),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(small_generator_lists, st.integers(0, 14), st.integers(0, 8), st.data())
def test_property_genuine_generators_give_equal_tables_iff_equal_lambert_coefficients(
    gens, D, K, data
):
    # the "only if" half: A_0 = 1 recovers B from the table and Moebius
    # inversion recovers beta from B, so different coefficients inside the
    # caps give different tables; compared against one generator changed,
    # which may or may not move beta, or an independent list
    if gens and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(gens) - 1))
        d, w, c, kind = gens[i]
        changed = data.draw(
            st.sampled_from(
                [
                    (d, w, c + 1, kind),
                    (d, w, max(c - 1, 0), kind),
                    (d, w, c, KINDS[kind == "polynomial"]),
                    (d + 1, w, c, kind),
                    (d, w + 1, c, kind),
                ]
            )
        )
        other = gens[:i] + [changed] + gens[i + 1 :]
    else:
        other = data.draw(small_generator_lists)
    same_beta = series.weight_log_derivative(D, K, other) == series.weight_log_derivative(
        D, K, gens
    )
    assert (free_commutative(D, K, other) == free_commutative(D, K, gens)) == same_beta


def census_generators(y, j, char, D, K):
    census = generator_census(atom_census(y, j, char, D, K), j, char, D, K)
    return [
        (d, k, c, "polynomial" if char.is_two or d % 2 == 0 else "exterior")
        for d, k, c in census.items()
    ]


@pytest.mark.parametrize(
    "y, j, p, D, K",
    [
        ({2: 1}, 3, 3, 120, 40),
        ({2: 1}, 3, 2, 120, 40),
        ({1: 1, 2: 1}, 2, 3, 90, 40),
        # at D = K the generator (1, 1) is a running chain while the slots grow
        ({1: 1}, 2, 2, 80, 80),
    ],
)
def test_loop_factor_equals_power_factor_chain_across_slot_growth(
    monkeypatch, y, j, p, D, K
):
    widths = []
    real = series._widen

    def spy(packed, cell, wider):
        widths.append((cell, wider))
        return real(packed, cell, wider)

    monkeypatch.setattr(series, "_widen", spy)
    char = FieldChar(p)
    got = factor_series(y, j, char, D, K)
    assert got == power_chain(D, K, census_generators(y, j, char, D, K))
    if p == 2 or j == 2:
        # the slots outgrew their first width and every row was re-slotted
        assert widths and all(cell < wider for cell, wider in widths)


def test_chains_extend_once_per_row_across_slot_growth(monkeypatch):
    # at D = K = 80 the generators (1, 1), (3, 2) and (7, 4) have at least
    # CHAIN_MULTIPLES multiples inside the caps, (15, 8) has 5, so the
    # chain weights are 1, 2 and 4 while the slots grow.  A widening in
    # place extends each chain weight w once per row from k = w, with
    # R_{k-w}; a replay would extend it again
    assert series.CHAIN_MULTIPLES == 8
    calls = []
    real = series._extend_chains

    def spy(chains, w, j, *args):
        calls.append((w, j))
        return real(chains, w, j, *args)

    monkeypatch.setattr(series, "_extend_chains", spy)
    widened = []
    real_widen = series._widen

    def widen_spy(packed, cell, wider):
        widened.append(wider)
        return real_widen(packed, cell, wider)

    monkeypatch.setattr(series, "_widen", widen_spy)
    D = K = 80
    factor_series({1: 1}, 2, FieldChar(2), D, K)
    assert widened
    assert calls == [(w, k - w) for k in range(1, K + 1) for w in (1, 2, 4) if w <= k]


def multiples_inside(D: int, K: int, d: int, w: int) -> int:
    """rmax: the multiples of (d, w) inside both caps."""
    return K // w if d == 0 else min(K // w, D // d)


@st.composite
def steep_chains(draw):
    """Caps up to 48 and generators steeper than the caps, d/w > D/K,
    with at least CHAIN_MULTIPLES multiples inside them, so they run as
    chains, beside degree-0 ones; exterior ones add their correction at
    (2d, 2w)."""
    n = series.CHAIN_MULTIPLES
    D, K = draw(st.integers(n, 48)), draw(st.integers(2 * n, 48))
    count = st.one_of(st.integers(0, 4), st.integers(0, 10**12))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, D // n))
        # d*K > w*D: steeper than the caps
        w_max = min(K // n, (d * K - 1) // D)
        if w_max >= 1:
            gens.append((d, draw(st.integers(1, w_max)), draw(count), draw(st.sampled_from(KINDS))))
    for _ in range(draw(st.integers(0, 2))):
        gens.append((0, draw(st.integers(1, K)), draw(count), draw(st.sampled_from(KINDS))))
    return D, K, gens


@settings(max_examples=80, deadline=None)
@given(steep_chains(), generator_lists)
def test_property_steep_chains_equal_the_dict_recurrence(steep, direct):
    D, K, gens = steep
    gens = gens + direct
    broken, rows = dict_recurrence(D, K, per_multiple_log_derivative(D, K, gens))
    assert broken is None
    cells = {(d, k): v for k, row in enumerate(rows) for d, v in row.items()}
    assert free_commutative(D, K, gens) == BiSeries.from_entries(D, K, cells)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 12),
            st.integers(1, 8),
            st.one_of(st.integers(0, 4), st.integers(0, 10**12)),
            st.sampled_from(KINDS),
        ),
        max_size=8,
    ),
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(2, 12),
)
def test_property_a_bidegree_is_a_chain_iff_it_has_enough_multiples(gens, D, K, n):
    # at any threshold n >= 2 the chains are exactly the bidegrees of beta
    # with rmax >= n, and the table does not depend on the split
    chains = set()
    real = series._extend_chains

    def spy(weight_chains, w, *args):
        chains.update((d, w) for d, _v, _ring in weight_chains)
        return real(weight_chains, w, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "CHAIN_MULTIPLES", n)
        patch.setattr(series, "_extend_chains", spy)
        got = free_commutative(D, K, gens)
    beta = series.weight_log_derivative(D, K, gens)
    assert chains == {(d, w) for d, w in beta if multiples_inside(D, K, d, w) >= n}
    assert got == power_chain(D, K, gens)


def pack_slots(values, cell):
    return int.from_bytes(b"".join(v.to_bytes(cell, "little") for v in values), "little")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.data())
def test_property_widening_equals_packing_at_the_new_width(cell, data):
    # any pair of widths up to 64 bytes, not only the doublings the kernel makes
    values = data.draw(st.lists(st.integers(0, (1 << (8 * cell)) - 1), max_size=12))
    wider = data.draw(st.integers(cell, 64))
    got = series._widen(pack_slots(values, cell), cell, wider)
    assert got == pack_slots(values, wider)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16, 32, 64]), st.integers(1, 6), st.data())
def test_property_unpacking_equals_reading_each_slot(cell, n, data):
    # lists of rows of n slots, zero rows and the empty list included, read
    # in one call; slots that fit in 64 bits leave every high word of a
    # 16-byte slot 0, and a row may mix those with full-width slots
    full = st.integers(0, (1 << (8 * cell)) - 1)
    slot = st.one_of(st.just(0), full, full.map(lambda v: v % (1 << 64)))
    rows = data.draw(
        st.lists(
            st.one_of(st.just([0] * n), st.lists(slot, min_size=n, max_size=n)), max_size=6
        )
    )
    packed = [pack_slots(values, cell) for values in rows]
    raw = b"".join(row.to_bytes(n * cell, "little") for row in packed)
    slots = [int.from_bytes(raw[i : i + cell], "little") for i in range(0, len(raw), cell)]
    assert series._unpack(packed, cell, n) == slots == [v for values in rows for v in values]
    assert packed == [0] * len(rows)  # each row is freed once copied


def width_rule(D: int, K: int, gens, table: BiSeries) -> list[tuple[int, int]]:
    """The widenings (cell, wider) that the slot-width rule asks for, from
    the returned table: before row k a slot of ``cell`` bytes must hold
    bits(S) + bits(peak) + 2 bits, where peak is the largest value of the
    rows below k and S sums |beta| * rmax over the chains and |B(e, i)|
    over the direct terms, and it doubles until it does."""
    S, direct = 0, {}
    for (d, w), v in series.weight_log_derivative(D, K, gens).items():
        rmax = multiples_inside(D, K, d, w)
        if rmax >= series.CHAIN_MULTIPLES:
            S += abs(v) * rmax
            continue
        for r in range(1, rmax + 1):
            direct[r * d, r * w] = direct.get((r * d, r * w), 0) + v
    S += sum(map(abs, direct.values()))
    widenings, cell, peak = [], 1, 0
    for k in range(1, K + 1):
        peak = max(peak, *table.weight_slice(k - 1))
        wider = cell
        while S.bit_length() + peak.bit_length() + 2 > 8 * wider:
            wider *= 2
        if wider > cell:
            widenings.append((cell, wider))
            cell = wider
    return widenings


def widening_spy(patch) -> list[tuple[int, int]]:
    """Spy on ``series._widen``: the list of its (cell, wider) widenings,
    each once however many rows and running sums it re-slots."""
    widenings = []
    real = series._widen

    def spy(packed, cell, wider):
        if not widenings or widenings[-1] != (cell, wider):
            widenings.append((cell, wider))
        return real(packed, cell, wider)

    patch.setattr(series, "_widen", spy)
    return widenings


# counts of up to 40 digits widen the slots to 16, 32 bytes and beyond
wide_generator_lists = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.integers(1, 4),
        st.one_of(st.integers(0, 4), st.integers(0, 10**12), st.integers(0, 10**40)),
        st.sampled_from(KINDS),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(wide_generator_lists, st.integers(0, 30), st.integers(0, 30))
@example([(1, 1, 1000, "polynomial"), (2, 1, 5, "exterior")], 30, 12)  # slots up to 16 bytes
@example([(1, 1, 10**12, "polynomial"), (2, 1, 10**12, "exterior")], 24, 12)  # slots up to 64 bytes
def test_property_widenings_follow_the_peak_of_the_accepted_rows(gens, D, K):
    # a row widens the slots only if it meets the mask of each slot's top
    # bits, so the widenings must be those of the rule that takes the peak
    # over every accepted row
    with pytest.MonkeyPatch.context() as patch:
        widenings = widening_spy(patch)
        table = free_commutative(D, K, gens)
    assert widenings == width_rule(D, K, gens, table)


@pytest.mark.parametrize(
    "D, K, gens",
    [
        (6, 0, [(1, 1, 1, "polynomial")]),
        (12, 12, []),
        (80, 80, census_generators({1: 1}, 2, FieldChar(2), 80, 80)),
        (60, 60, census_generators({0: 1}, 2, FieldChar(3), 60, 60)),
        (24, 12, [(1, 1, 10**30, "polynomial"), (2, 1, 10**30 + 1, "exterior")]),
    ],
)
def test_an_accepted_table_is_unpacked_once_plus_once_per_widening(monkeypatch, D, K, gens):
    # the rows stay packed: a widening reads the one row that set it off,
    # and the table is read once, all K + 1 rows in one call
    unpacked = []
    real = series._unpack

    def spy(rows, cell, n):
        unpacked.append(len(rows))
        return real(rows, cell, n)

    widenings = widening_spy(monkeypatch)
    monkeypatch.setattr(series, "_unpack", spy)
    assert free_commutative(D, K, gens) == power_chain(D, K, gens)
    assert unpacked == [1] * len(widenings) + [K + 1]


@pytest.mark.parametrize("cell", [1, 2, 4, 8, 16, 32, 64])
def test_guard_admits_every_genuine_quotient_and_no_borrow(cell):
    # every residual is below 2^(slot - 2) in size, so a genuine quotient
    # is at most (2^(slot - 2) - 1) // k; an admitted digit q must keep
    # k q below half a slot, so that k q can neither carry nor hide the
    # borrow of a negative residual
    slot = 8 * cell
    full = (1 << slot) - 1
    for k in list(range(1, 300)) + [2**b + e for b in range(9, 70) for e in (-1, 0, 1)]:
        guard = series._guards(cell, 3, k)[k.bit_length()]
        admitted = full & ~guard
        assert guard == (full - admitted) * (1 + (1 << slot) + (1 << 2 * slot))
        assert admitted & (admitted + 1) == 0  # the low bits of the slot
        assert (((1 << (slot - 2)) - 1) // k) <= admitted
        assert k * admitted < 1 << (slot - 1)


def test_one_test_accepts_exactly_the_rows_of_nonnegative_multiples():
    # every row of two 1-byte slots whose residuals keep the slot rule,
    # |r| < 2^6: the one test accepts exactly the rows whose residuals are
    # all nonnegative multiples of k, with their quotients in its slots
    # (at k = 7, r = (-60, 1) gives 196 = 7 * 28, which a guard one bit
    # narrower would accept)
    for k in range(1, 17):
        guards = series._guards(1, 2, k)
        for r0 in range(-63, 64):
            for r1 in range(-63, 64):
                genuine = r0 >= 0 and r1 >= 0 and r0 % k == 0 and r1 % k == 0
                quotient = r0 // k + (r1 // k << 8) if genuine else None
                assert series._quotient(r0 + (r1 << 8), k, guards) == quotient


def test_every_genuine_row_passes_the_one_test(monkeypatch):
    # the cell-by-cell scan runs only after a row failed the one test, so
    # on genuine tables it must never run, whatever the slot width
    def scan(*args):
        raise AssertionError("a genuine row failed the one-test gate")

    monkeypatch.setattr(series, "_broken_cell", scan)
    widths = set()
    real_guards = series._guards

    def guards_spy(cell, slots, K):
        widths.add(cell)
        return real_guards(cell, slots, K)

    monkeypatch.setattr(series, "_guards", guards_spy)
    shapes = [
        # deep_loops: theorem_b rows of many-loop S^0 labels
        ("theorem_b", "F2", {"preset": "cube", "m": 1}, 2, 0, 130),
        ("theorem_b", "Fp:3", {"preset": "cube", "m": 1}, 2, 0, 90),
        # torus_product: binomial Betti numbers of a torus, wide coefficients
        ("theorem_a", "Q", {"preset": "torus", "m": 8}, 1, 2, 100),
        ("theorem_a", "F2", {"preset": "cube", "m": 1}, 1, 2, 8),
    ]
    for mode, field, manifold, n, d, D in shapes:
        config = {
            "mode": mode,
            "field": field,
            "manifold": manifold,
            "n": n,
            "label_space": {"preset": "sphere", "d": d},
            "max_degree": D,
            "format": "csv",
        }
        if mode == "theorem_b":
            config["max_weight"] = D
        assert cli.run(config)[0] == 0
    huge = [(1, 1, 10**30, "polynomial"), (2, 1, 10**30 + 1, "exterior"), (3, 2, 7, "polynomial")]
    assert free_commutative(24, 12, huge) == power_chain(24, 12, huge)
    assert {1, 2, 4, 8, 16, 32} <= widths


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16, 32]), st.integers(1, 2000), st.data())
def test_property_the_broken_cell_is_the_lowest_broken_degree(cell, k, data):
    # signed residuals under the slot rule |r| < 2^(slot - 2), at the
    # kernel's slot widths, packed from the cap down as the kernel packs a
    # row sum: slot i holds degree D - i
    bound = (1 << (8 * cell - 2)) - 1
    genuine = st.integers(0, bound // k).map(lambda q: q * k)
    digits = data.draw(
        st.lists(st.one_of(genuine, st.integers(-bound, bound)), min_size=1, max_size=12)
    )
    broken = st.integers(-bound, bound).filter(lambda r: r < 0 or r % k)
    digits[data.draw(st.integers(0, len(digits) - 1))] = data.draw(broken)
    D = len(digits) - 1
    total = sum(r << (8 * cell * (D - d)) for d, r in enumerate(digits))
    assert series._quotient(total, k, series._guards(cell, D + 1, k)) is None
    # the per-cell scan, in increasing degree
    d, r = next((d, r) for d, r in enumerate(digits) if r < 0 or r % k)
    failure = series._broken_cell(total, k, cell, D)
    assert failure.cell == (d, k)
    assert str(failure) == (
        f"free-algebra recurrence broke at (d, k) = ({d}, {k}): "
        f"residual {r} is not a nonnegative multiple of {k}"
    )


def test_a_row_step_holds_no_table_quadratic_in_the_degree_cap():
    # at D = 2000 a table of a big int per degree, each up to D slots
    # long, would take megabytes; the packed rows and sums are O(D) each
    generators = [(1, 1, 3, "polynomial"), (2, 1, 2, "exterior"), (3, 2, 1, "polynomial")]
    tracemalloc.start()
    try:
        free_commutative(2000, 4, generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def bump_weight_two(real, degree=None):
    """weight_log_derivative with the Lambert coefficient beta raised by 1
    at (degree, 2), by default at (max_degree, 2).  Where the tests bump it,
    only the first multiple of that bidegree lies inside the caps, so B
    itself is raised by 1 at that one cell."""

    def bumped(max_degree, max_weight, generators):
        b = real(max_degree, max_weight, generators)
        key = (max_degree if degree is None else degree, 2)
        b[key] = b.get(key, 0) + 1
        return b

    return bumped


def bump_beta(real, key, amount=1):
    """weight_log_derivative with beta raised by ``amount`` at ``key``."""

    def bumped(max_degree, max_weight, generators):
        b = real(max_degree, max_weight, generators)
        b[key] = b.get(key, 0) + amount
        return b

    return bumped


def corrupt_kernel(monkeypatch, key=None, amount=1):
    """Make the kernel entry that takes beta, as ``series`` and ``assemble``
    call it, raise beta by ``amount`` at ``key``, by default at
    (max_degree, 2), before solving: every mode's table goes through it."""
    real = series.free_commutative_from_beta

    def bumped(max_degree, max_weight, beta):
        beta = dict(beta)
        at = (max_degree, 2) if key is None else key
        beta[at] = beta.get(at, 0) + amount
        return real(max_degree, max_weight, beta)

    for module in (series, assemble):
        monkeypatch.setattr(module, "free_commutative_from_beta", bumped)


def test_corrupted_log_derivative_raises_integrity_error(monkeypatch, tmp_path):
    corrupt_kernel(monkeypatch)
    with pytest.raises(IntegrityError, match=r"\(d, k\) = \(8, 2\)") as failure:
        free_commutative(8, 4, [(2, 1, 1, "polynomial"), (3, 1, 2, "exterior")])
    assert failure.value.cell == (8, 2)

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


def test_gate_names_the_absolute_degree_of_an_offset_row(monkeypatch):
    # the weight-2 row starts at degree 4 (x^2), so the bumped residual sits
    # in slot 2 of its row and must be reported at degree 6
    monkeypatch.setattr(
        series, "weight_log_derivative", bump_weight_two(series.weight_log_derivative, 6)
    )
    with pytest.raises(IntegrityError, match=r"\(d, k\) = \(6, 2\)") as failure:
        free_commutative(8, 4, [(2, 1, 1, "polynomial"), (3, 1, 2, "exterior")])
    assert failure.value.cell == (6, 2)


def test_one_gate_covers_every_factor_of_the_product(monkeypatch, tmp_path, capsys):
    corrupt_kernel(monkeypatch)
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


TABLE = {
    "field": "F2",
    "manifold": {"preset": "surface", "genus": 1},
    "n": 1,
    "label_space": {"preset": "sphere", "d": 2},
    "max_degree": 10,
}


@pytest.mark.parametrize(
    "config",
    [
        dict(TABLE, mode="theorem_a"),
        dict(TABLE, mode="theorem_b", max_weight=5),
        dict(
            TABLE, mode="dk_table", label_space={"preset": "sphere", "d": 0}, max_weight=5
        ),
        {"mode": "check:hilton_milnor", "max_degree": 10},
        {"mode": "check:ab", "seed": 0, "trials": 3, "max_degree": 10},
    ],
    ids=lambda config: config["mode"],
)
def test_a_corrupted_coefficient_exits_4_from_every_solving_mode(
    config, monkeypatch, tmp_path, capsys
):
    # generators mode solves nothing.  check:ab solves only when its two
    # routes' coefficients differ, so there theorem_a's own are corrupted
    if config["mode"] == "check:ab":
        real = assemble.product_beta

        def bumped(*args):
            beta = real(*args)
            beta[args[-2], 2] = beta.get((args[-2], 2), 0) + 1
            return beta

        monkeypatch.setattr(assemble, "product_beta", bumped)
    else:
        corrupt_kernel(monkeypatch)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path)]) == cli.EXIT_INTEGRITY
    assert "free-algebra recurrence broke at (d, k)" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(1, 4),
            st.one_of(st.integers(0, 4), st.integers(0, 10**30)),
            st.sampled_from(KINDS),
        ),
        max_size=6,
    ),
    st.integers(0, 16),
    st.integers(1, 10),
    st.data(),
)
def test_property_the_row_gate_breaks_exactly_at_the_first_broken_cell(gens, D, K, data):
    # beta raised by a signed amount at a chain or direct bidegree of the
    # algebra, or at any bidegree inside the caps; counts up to 10^30 make
    # slots of 16 and 32 bytes
    beta = series.weight_log_derivative(D, K, gens)
    anywhere = (data.draw(st.integers(0, D)), data.draw(st.integers(1, K)))
    key = data.draw(st.sampled_from(sorted(beta) + [anywhere]))
    amount = data.draw(
        st.one_of(st.integers(-4, 4), st.integers(-(10**30), 10**30)).filter(bool)
    )
    bumped = bump_beta(series.weight_log_derivative, key, amount)
    broken, rows = dict_recurrence(D, K, lambert_expansion(D, K, bumped(D, K, gens)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "weight_log_derivative", bumped)
        if broken is None:
            cells = {(d, k): v for k, row in enumerate(rows) for d, v in row.items()}
            assert free_commutative(D, K, gens) == BiSeries.from_entries(D, K, cells)
            return
        with pytest.raises(IntegrityError, match="free-algebra recurrence broke") as failure:
            free_commutative(D, K, gens)
    assert failure.value.cell == broken


# generators of theorem_b's S^0-label table over F2 for M = I, n = 1 (Fuks):
# x_i at (2^i - 1, 2^i), shifted down by 2 per weight
BRAID_F2 = [(2**i - 1, 2**i, 1, "polynomial") for i in range(4)]


def test_corrupted_chain_raises_at_the_first_broken_residual(monkeypatch, tmp_path):
    # at D = K = 16 the generator (1, 2) has 8 multiples inside the caps, so
    # it runs as one chain, and beta = 3 there would be 3/2 generators (beta
    # raised by 1 at weight 1 would be one more generator, a genuine algebra)
    D = K = 16
    assert multiples_inside(D, K, 1, 2) >= series.CHAIN_MULTIPLES
    bumped = bump_beta(series.weight_log_derivative, (1, 2))
    expected = first_broken_cell(D, K, lambert_expansion(D, K, bumped(D, K, BRAID_F2)))
    assert expected is not None
    corrupt_kernel(monkeypatch, (1, 2))
    chains = []
    real_extend = series._extend_chains

    def spy(weight_chains, w, *rest):
        chains.extend((d, w) for d, _v, _ring in weight_chains)
        return real_extend(weight_chains, w, *rest)

    monkeypatch.setattr(series, "_extend_chains", spy)
    with pytest.raises(IntegrityError, match="free-algebra recurrence broke") as failure:
        free_commutative(D, K, BRAID_F2)
    assert failure.value.cell == expected
    assert (1, 2) in chains

    config = {
        "field": "F2",
        "manifold": {"preset": "cube", "m": 1},
        "n": 1,
        "label_space": {"preset": "sphere", "d": 0},
        "mode": "theorem_b",
        "max_degree": D,
        "max_weight": K,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path)]) == cli.EXIT_INTEGRITY


def test_free_algebra_gate_holds_without_asserts(tmp_path):
    script = """
import json, sys
import confighom.assemble as assemble
from confighom import cli
assert False  # stripped by -O
real = assemble.free_commutative_from_beta
def bumped(max_degree, max_weight, beta):
    beta = dict(beta)
    beta[(max_degree, 2)] = beta.get((max_degree, 2), 0) + 1
    return real(max_degree, max_weight, beta)
assemble.free_commutative_from_beta = bumped
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
    # the message names the first negative cell, degree-major
    with pytest.raises(IntegrityError, match=r"^negative coefficient -3; dimensions must be >= 0$"):
        BiSeries(2, 1, [[1, 0], [0, -3], [-7, 0]])
    with pytest.raises(ConfigurationError, match="wrong weight extent"):
        BiSeries(2, 1, [[1, 0], [0], [0, 0]])


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
