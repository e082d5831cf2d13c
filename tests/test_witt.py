"""Witt counting: worked identities, a brute-force Lyndon cross-check, and
the reconstruction property (counts substituted back into the defining
product must reproduce the tensor-algebra series)."""

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confighom import (
    BiSeries,
    DegreeWeightTable,
    FieldChar,
    IntegrityError,
    InvalidInputError,
    ProblemSpec,
    basic_words,
    cli,
    inverse_one_minus,
    lie_atom_counts,
    loops,
    power_factor,
    preset,
    theorem_a,
    witt,
)
from confighom.assemble import factor_plan


def reconstruct(L: DegreeWeightTable, signed: bool) -> BiSeries:
    out = BiSeries.one(L.max_degree, L.max_weight)
    for d, l, c in L.items():
        kind = "exterior" if signed and d % 2 else "polynomial"
        out = power_factor(out, d, l, c, kind)
    return out


def tensor_series(degrees: dict, D: int, K: int) -> BiSeries:
    f = BiSeries.from_entries(D, K, {(d, 1): c for d, c in degrees.items()})
    return inverse_one_minus(f)


def brute_lyndon_count_by_length(n_letters: int, max_len: int) -> list[int]:
    counts = []
    for length in range(1, max_len + 1):
        total = 0
        for word in iproduct(range(n_letters), repeat=length):
            rotations = [word[i:] + word[:i] for i in range(1, length)]
            if all(word < rot for rot in rotations):
                total += 1
        counts.append(total)
    return counts


def test_single_even_generator_signed():
    gens = DegreeWeightTable.from_generators({2: 1}, 12, 6)
    assert dict(lie_atom_counts(gens, True).entries) == {(2, 1): 1}


def test_single_odd_generator_signed_has_square():
    # (1+t^3)/(1-t^6) = 1/(1-t^3): one letter plus its self-bracket
    gens = DegreeWeightTable.from_generators({3: 1}, 18, 6)
    L = lie_atom_counts(gens, True)
    assert dict(L.entries) == {(3, 1): 1, (6, 2): 1}
    assert reconstruct(L, True) == tensor_series({3: 1}, 18, 6)


def test_two_degree_one_generators_unsigned_are_necklace_numbers():
    gens = DegreeWeightTable.from_generators({1: 2}, 6, 6)
    L = lie_atom_counts(gens, False)
    got = [L.get(l, l) for l in range(1, 6)]
    assert got == [2, 1, 2, 3, 6]
    assert got == brute_lyndon_count_by_length(2, 5)


@pytest.mark.parametrize("degree", [1, 2, 3, 7])
def test_unsigned_single_generator_is_one_atom(degree):
    gens = DegreeWeightTable.from_generators({degree: 1}, 4 * degree, 8)
    assert dict(lie_atom_counts(gens, False).entries) == {(degree, 1): 1}


def test_support_bound():
    gens = DegreeWeightTable.from_generators({2: 1, 3: 2}, 18, 6)
    for signed in (True, False):
        L = lie_atom_counts(gens, signed)
        assert all(d >= 2 * l for d, l, _ in L.items())


def test_reconstruction_on_random_generator_sets():
    rng = random.Random(42)
    for _ in range(12):
        degrees = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            degrees[d] = degrees.get(d, 0) + rng.randint(1, 2)
        D, K = 14, 7
        gens = DegreeWeightTable.from_generators(degrees, D, K)
        for signed in (True, False):
            L = lie_atom_counts(gens, signed)
            assert reconstruct(L, signed) == tensor_series(degrees, D, K)


def test_smaller_output_caps_agree_with_larger_run():
    gens_big = DegreeWeightTable.from_generators({1: 1, 2: 1}, 16, 8)
    gens_small = DegreeWeightTable.from_generators({1: 1, 2: 1}, 16, 8)
    big = lie_atom_counts(gens_big, True)
    small = lie_atom_counts(gens_small, True, max_degree=10, max_weight=5)
    for d, l, c in small.items():
        assert big.get(d, l) == c
    for d, l, c in big.items():
        if d <= 10 and l <= 5:
            assert small.get(d, l) == c


def test_input_validation():
    bad = DegreeWeightTable(6, 6, {(2, 2): 1})
    with pytest.raises(InvalidInputError):
        lie_atom_counts(bad, True)
    with pytest.raises(InvalidInputError):
        lie_atom_counts(DegreeWeightTable(6, 6, {(0, 1): 1}), True)


def test_negative_table_count_rejected():
    with pytest.raises(IntegrityError):
        DegreeWeightTable(4, 4, {(2, 1): -1})


def test_words_identity_signed_vs_unsigned_agree_through_tensor_series():
    # both conventions must reproduce the same word counts they were solved from
    degrees = {1: 1, 3: 1}
    D, K = 12, 6
    gens = DegreeWeightTable.from_generators(degrees, D, K)
    target = tensor_series(degrees, D, K)
    for signed in (True, False):
        L = lie_atom_counts(gens, signed)
        assert reconstruct(L, signed) == target


# -- properties of the shared Witt recurrence --------------------------------

generator_maps = st.dictionaries(
    st.integers(1, 5), st.integers(1, 3), min_size=1, max_size=3
)


@settings(max_examples=40, deadline=None)
@given(generator_maps, st.integers(0, 14), st.integers(0, 7), st.booleans())
def test_property_counts_reconstruct_tensor_series(degrees, D, K, signed):
    L = lie_atom_counts(DegreeWeightTable.from_generators(degrees, D, K), signed)
    assert reconstruct(L, signed) == tensor_series(degrees, D, K)


@settings(max_examples=40, deadline=None)
@given(generator_maps, st.booleans(), st.data())
def test_property_smaller_caps_equal_truncated_larger_run(degrees, signed, data):
    D, K = 14, 7
    d_cap = data.draw(st.integers(0, D))
    k_cap = data.draw(st.integers(0, K))
    gens = DegreeWeightTable.from_generators(degrees, D, K)
    big = lie_atom_counts(gens, signed)
    small = lie_atom_counts(gens, signed, max_degree=d_cap, max_weight=k_cap)
    assert small.entries == {
        (d, l): c for d, l, c in big.items() if d <= d_cap and l <= k_cap
    }


def brute_lyndon_by_multiplicity(n_letters: int, max_len: int) -> Counter:
    counts = Counter()
    for length in range(1, max_len + 1):
        for word in iproduct(range(n_letters), repeat=length):
            if all(word < word[i:] + word[:i] for i in range(1, length)):
                counts[tuple(word.count(i) for i in range(n_letters))] += 1
    return counts


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6))
def test_property_basic_words_equal_lyndon_enumeration(r, max_len):
    got = {w.multiplicities: w.count for w in basic_words(r, max_len)}
    assert got == dict(brute_lyndon_by_multiplicity(r, max_len))


def test_corrupted_word_count_raises_integrity_error(monkeypatch, tmp_path):
    # hand the recurrence word rows with one length-2 cell raised by 1
    real = witt.word_rows

    def bumped(degrees, max_degree, max_weight):
        rows = real(degrees, max_degree, max_weight)
        if max_weight >= 2:
            rows += [{} for _ in range(3 - len(rows))]
            rows[2][max_degree] = rows[2].get(max_degree, 0) + 1
        return rows

    monkeypatch.setattr(witt, "word_rows", bumped)
    for signed in (True, False):
        with pytest.raises(IntegrityError, match="Witt recurrence"):
            lie_atom_counts(DegreeWeightTable.from_generators({2: 1}, 12, 6), signed)

    monkeypatch.setattr(loops, "_factor_cache", {})
    monkeypatch.setattr(loops, "_witt_cache", {})
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


@pytest.mark.parametrize("degree", [2, 3])
def test_a_word_row_that_lost_a_cell_raises(monkeypatch, degree):
    # the square of the letter has no words left, but its divisor term
    # L(degree, 1) = 1 still reaches the cell, so its residual is -1 or 1
    real = witt.word_rows

    def dropped(degrees, max_degree, max_weight):
        rows = real(degrees, max_degree, max_weight)
        del rows[2][2 * degree]
        return rows

    monkeypatch.setattr(witt, "word_rows", dropped)
    gens = DegreeWeightTable.from_generators({degree: 1}, 4 * degree, 4)
    for signed in (True, False):
        with pytest.raises(IntegrityError, match=rf"\({2 * degree}, 2\)"):
            lie_atom_counts(gens, signed)


def test_integrity_gate_holds_without_asserts():
    script = """
import confighom.witt as witt
from confighom import IntegrityError
assert False  # stripped by -O
real = witt.word_rows

def bumped(degrees, max_degree, max_weight):
    rows = real(degrees, max_degree, max_weight)
    rows[2][5] += 1
    return rows

witt.word_rows = bumped
try:
    gens = witt.DegreeWeightTable.from_generators({2: 1, 3: 1}, 8, 4)
    witt.lie_atom_counts(gens, True)
except IntegrityError:
    print("raised")
"""
    src = os.path.dirname(os.path.dirname(witt.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "raised", done.stderr


# -- the sparse kernel against the dense recurrence ---------------------------


def dense_atom_counts(degrees: dict, D: int, K: int, signed: bool) -> dict:
    """The dense Witt recurrence: the word series by ``inverse_one_minus``
    and ``_solve_cell`` on every cell of the (D+1) x (K+1) grid."""
    words = tensor_series(degrees, D, K)
    counts = {}
    for length in range(1, K + 1):
        for d in range(D + 1):

            def lower(r):
                sign = -1 if signed and r % 2 == 0 and (d // r) % 2 else 1
                return sign * counts.get((d // r, length // r), 0)

            c = witt._solve_cell(
                (d, length), words.get(d, length), length, math.gcd(d, length), lower
            )
            if c:
                counts[(d, length)] = c
    return counts


@pytest.mark.parametrize(
    "degrees, D, K, signed",
    [
        ({3: 1}, 260, 100, True),  # odd sphere: one letter and its square
        ({3: 1, 4: 1, 5: 1}, 130, 65, True),  # wedge of three spheres
        ({2: 1}, 210, 100, False),  # unsigned sphere: one letter
    ],
)
def test_sparse_kernel_equals_dense_recurrence(degrees, D, K, signed):
    got = lie_atom_counts(DegreeWeightTable.from_generators(degrees, D, K), signed)
    assert got.entries == dense_atom_counts(degrees, D, K, signed)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(1, 7), st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 30),
    st.integers(0, 15),
    st.booleans(),
    st.data(),
)
def test_property_sparse_kernel_equals_dense_recurrence(degrees, D, K, signed, data):
    d_cap = data.draw(st.integers(0, D))
    k_cap = data.draw(st.integers(0, K))
    gens = DegreeWeightTable.from_generators(degrees, D, K)
    got = lie_atom_counts(gens, signed, max_degree=d_cap, max_weight=k_cap)
    assert got.entries == dense_atom_counts(degrees, d_cap, k_cap, signed)


def test_one_witt_table_serves_every_factor_of_a_plan(monkeypatch):
    calls = []
    real = loops.lie_atom_counts

    def spy(gens, signed):
        calls.append(gens.max_degree)
        return real(gens, signed)

    monkeypatch.setattr(loops, "lie_atom_counts", spy)
    monkeypatch.setattr(loops, "_factor_cache", {})
    monkeypatch.setattr(loops, "_witt_cache", {})
    m_dim, rel = preset("torus", m=6)
    spec = ProblemSpec(m_dim, rel, 1, {2: 1}, FieldChar.odd(3), 30)
    assert len(factor_plan(m_dim, rel, 1, {2: 1})) == 7
    theorem_a(spec)
    # the q = 0 factor has the largest shifted cap, 30 + (j - 1) = 36
    assert calls == [36]
