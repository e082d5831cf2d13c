"""Loop-space factor series: grammar examples per characteristic and the
structural invariants (weight slices, stability, double suspension)."""

import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confighom.loops as loops
from confighom import (
    BiSeries,
    DegreeWeightTable,
    FieldChar,
    InvalidInputError,
    atom_census,
    factor_series,
    generator_census,
    inverse_one_minus,
    suspend_betti,
)

Q = FieldChar.rational()
F2 = FieldChar.mod2()
F3 = FieldChar.odd(3)


def test_field_char_parsing():
    assert FieldChar.from_name("Q").p == 0
    assert FieldChar.from_name("F2").p == 2
    assert FieldChar.from_name("Fp:7").p == 7
    assert FieldChar.odd(5).name == "Fp:5"
    with pytest.raises(InvalidInputError):
        FieldChar.from_name("Fp:9")
    with pytest.raises(InvalidInputError):
        FieldChar.odd(2)
    with pytest.raises(InvalidInputError):
        FieldChar(6)
    # the characteristic is an int, checked first: no float, str or bool
    for p in (3.0, 2.0, "3", True, False, None):
        with pytest.raises(InvalidInputError, match="must be an int"):
            FieldChar(p)


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division():
    sieve = [trial_division_is_prime(n) for n in range(200_000)]
    assert [loops._is_prime(n) for n in range(200_000)] == sieve


@pytest.mark.parametrize("n", [2047, 1373653, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_composite(n):
    assert not loops._is_prime(n)
    with pytest.raises(InvalidInputError):
        FieldChar.from_name(f"Fp:{n}")


def test_field_characteristic_stops_below_two_to_the_64():
    largest = 18446744073709551557  # the largest prime below 2**64
    assert FieldChar.from_name(f"Fp:{largest}").p == largest
    for p in (2**64 + 13, 10**24 + 7):  # both prime
        with pytest.raises(InvalidInputError, match="2\\*\\*64"):
            FieldChar.from_name(f"Fp:{p}")


def test_census_past_every_index_is_the_same_table():
    # once j - 1 exceeds D no bracket or operation index binds inside the
    # caps, so n = 10**8 must give the n = 12 and n = 13 tables, and fast
    script = """
import json
from confighom import FieldChar, ProblemSpec, theorem_a
out = {}
for p in (2, 3, 0):
    out[p] = [
        sorted(theorem_a(ProblemSpec(0, {0: 1}, n, {2: 1, 3: 1}, FieldChar(p), 10)).items())
        for n in (10**8, 12, 13)
    ]
print(json.dumps(out))
"""
    src = os.path.dirname(os.path.dirname(loops.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=15,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    for p, (huge, twelve, thirteen) in json.loads(done.stdout).items():
        assert huge == twelve == thirteen, p
        assert huge


def test_suspend_betti():
    assert suspend_betti({2: 1}, 1) == {3: 1}
    assert suspend_betti({2: 1, 3: 2}, 0) == {2: 1, 3: 2}
    assert suspend_betti({2: 1, 3: 2}, 2) == {4: 1, 5: 2}


# -- atom census ------------------------------------------------------------


def test_atoms_circle_mod2_no_self_bracket():
    atoms = atom_census({1: 1}, 2, F2, 20, 8)
    assert atoms == {(1, 1): 1}


def test_atoms_two_sphere_rational_has_self_bracket():
    # shifted letter degree 3 is odd: [x,x] at shifted 6, actual 5
    atoms = atom_census({2: 1}, 2, Q, 20, 8)
    assert atoms == {(2, 1): 1, (5, 2): 1}


def test_atoms_circle_rational_even_shifted_no_square():
    atoms = atom_census({1: 1}, 2, Q, 20, 8)
    assert atoms == {(1, 1): 1}


# -- generator census -------------------------------------------------------


def test_census_mod2_tower():
    atoms = atom_census({1: 1}, 2, F2, 40, 40)
    census = generator_census(atoms, 2, F2, 40, 40)
    assert dict(census.entries) == {
        (1, 1): 1,
        (3, 2): 1,
        (7, 4): 1,
        (15, 8): 1,
        (31, 16): 1,
    }


def test_census_mod3_units_and_blocked_bockstein():
    atoms = atom_census({1: 1}, 2, F3, 20, 20)
    census = generator_census(atoms, 2, F3, 20, 20)
    assert dict(census.entries) == {
        (1, 1): 1,
        (5, 3): 1,
        (4, 3): 1,
        (17, 9): 1,
        (16, 9): 1,
    }


def test_census_parity_rule_blocks_even_atom_at_odd_p():
    census = generator_census({(2, 1): 1}, 2, F3, 20, 20)
    assert dict(census.entries) == {(2, 1): 1}


def test_zero_weight_cap_leaves_the_unit_row():
    for j in (1, 2):
        fs = factor_series({2: 1}, j, F2, 6, 0)
        assert fs.to_dict() == {(0, 0): 1}


def test_atom_degree_lower_bound():
    y = {1: 1, 2: 1}
    for j in (2, 3, 4):
        for char in (Q, F2):
            atoms = atom_census(y, j, char, 20, 8)
            for d, length in atoms:
                assert d >= length * min(y) + (length - 1) * (j - 1)
                assert d <= 20 and length <= 8


# -- factor series ----------------------------------------------------------


def test_james_tensor_algebra():
    fs = factor_series({3: 1}, 1, Q, 12, 4)
    assert fs.to_dict() == {(3 * r, r): 1 for r in range(5)}


def test_double_loops_on_s3_mod2_low_degrees():
    fs = factor_series({1: 1}, 2, F2, 7, 7)
    assert fs.degree_totals() == [1, 1, 1, 2, 2, 2, 3, 4]


def test_double_loops_on_s4_rational():
    fs = factor_series({2: 1}, 2, Q, 7, 4)
    assert fs.to_dict() == {
        (0, 0): 1,
        (2, 1): 1,
        (4, 2): 1,
        (5, 2): 1,
        (6, 3): 1,
        (7, 3): 1,
    }


def test_j_zero_is_refused():
    # factor_plan refuses j < 1, so no product has a j = 0 factor, and
    # factor_series refuses one as atom_census does
    for y in ({0: 1, 2: 2}, {2: 1}):
        with pytest.raises(InvalidInputError, match="j must be >= 1"):
            factor_series(y, 0, F2, 5, 3)


def test_connectivity_precondition():
    with pytest.raises(InvalidInputError):
        factor_series({0: 1}, 1, Q, 5, 3)
    with pytest.raises(InvalidInputError):
        factor_series({0: 1}, 2, F2, 5, 3)


def test_weight_one_slice_is_the_input():
    y = {1: 1, 3: 2}
    for j in (1, 2, 3):
        for char in (Q, F2, F3):
            fs = factor_series(y, j, char, 12, 6)
            expect = [0] * 13
            for d, c in y.items():
                expect[d] = c
            assert fs.weight_slice(1) == expect, (j, char.name)


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_weight_two_slice_mod2_is_stunted_band(j, d):
    fs = factor_series({d: 1}, j, F2, 2 * d + j + 3, 4)
    got = fs.weight_slice(2)
    expect = [0] * (2 * d + j + 4)
    for deg in range(2 * d, 2 * d + j):
        expect[deg] = 1
    assert got == expect


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3),
    st.sampled_from((0, 2, 3, 5)),
    st.integers(0, 14),
    st.integers(0, 9),
)
def test_property_one_loop_factor_is_the_tensor_algebra(y, p, D, K):
    # PBW in the engine's sign conventions: the free commutative algebra on
    # the basic products has the series of the words in the letters of y
    words = inverse_one_minus(
        BiSeries.from_entries(D, K, {(d, 1): c for d, c in y.items()})
    )
    assert factor_series(y, 1, FieldChar(p), D, K) == words


def test_the_census_of_a_suspension_at_one_loop_fewer_is_raised_by_one(monkeypatch):
    calls = []
    real = loops.lie_atom_counts

    def spy(letters, signed, max_degree, max_weight):
        calls.append(max_degree)
        return real(letters, signed, max_degree, max_weight)

    monkeypatch.setattr(loops, "lie_atom_counts", spy)
    y = {2: 1, 3: 1}
    for char in (Q, F2, F3):
        # Sigma y at j = 2 sees the same shifted letters {4, 5} as y at j = 3
        calls.clear()
        atoms = atom_census(y, 3, char, 12, 6)
        raised = atom_census(suspend_betti(y, 1), 2, char, 12, 6)
        assert calls == [14, 13]
        # the raise drops the atoms at the cap, here in degree 12
        assert atoms.get((12, 3))
        assert raised == {(d + 1, l): c for (d, l), c in atoms.items() if d < 12}
        # a smaller cap solves a smaller table with the same cells below it
        assert atom_census(y, 3, char, 8, 6) == {
            (d, l): c for (d, l), c in atoms.items() if d <= 8
        }
        assert calls == [14, 13, 10]


def test_one_loop_census_is_the_basic_products():
    # no operation index lies in 1..j-1 = 0, so the census adds nothing
    for char in (Q, F2, F3):
        atoms = atom_census({1: 2, 2: 1}, 1, char, 9, 6)
        assert generator_census(atoms, 1, char, 9, 6) == DegreeWeightTable(9, 6, atoms)
    with pytest.raises(InvalidInputError):
        atom_census({1: 1}, 0, F2, 5, 3)
    with pytest.raises(InvalidInputError):
        generator_census({}, 0, F2, 5, 3)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(1, 12), st.integers(1, 6)), st.integers(1, 5), max_size=8
    ),
    st.integers(0, 4),
    st.sampled_from((0, 2, 3, 5)),
    st.integers(0, 16),
    st.integers(0, 7),
)
def test_property_a_one_loop_closed_census_is_the_raised_atoms_cut(atoms, rise, p, D, K):
    # over every field j = 1 applies no operation: its census is the atoms
    # raised by rise and cut to the caps, as a new dict
    census = loops.closed_census(atoms, rise, 1, FieldChar(p), D, K)
    assert census == {
        (d + rise, k): c for (d, k), c in atoms.items() if d + rise <= D and k <= K
    }
    assert census is not atoms


def test_j_one_is_characteristic_independent():
    y = {1: 2, 4: 1}
    series = [factor_series(y, 1, char, 10, 10) for char in (Q, F2, F3)]
    assert series[0] == series[1] == series[2]


def test_monotone_stability_under_cap_growth():
    rng = random.Random(17)
    for _ in range(6):
        y = {rng.randint(1, 3): 1, rng.randint(2, 4): 1}
        j = rng.randint(1, 3)
        char = rng.choice((Q, F2, F3))
        small = factor_series(y, j, char, 10, 5)
        big = factor_series(y, j, char, 15, 7)
        assert big.truncated(10, 5) == small


def test_double_suspension_shifts_degree_by_twice_weight():
    rng = random.Random(23)
    for _ in range(8):
        y = {rng.randint(1, 3): rng.randint(1, 2)}
        j = rng.randint(2, 4)
        char = rng.choice((Q, F2, F3))
        D, K = 16, 6
        base = factor_series(y, j, char, D, K)
        susp = factor_series(suspend_betti(y, 2), j, char, D, K)
        for d, k, v in susp.items():
            assert d - 2 * k >= 0 and base.get(d - 2 * k, k) == v
        for d, k, v in base.items():
            if d + 2 * k <= D:
                assert susp.get(d + 2 * k, k) == v
