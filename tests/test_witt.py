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
    ConfigurationError,
    DegreeWeightTable,
    FieldChar,
    IntegrityError,
    InvalidInputError,
    ProblemSpec,
    basic_words,
    cli,
    lie_atom_counts,
    loops,
    preset,
    theorem_a,
    witt,
)
from confighom.assemble import factor_plan
from confighom.series import inverse_one_minus, power_factor


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
    assert dict(lie_atom_counts({2: 1}, True, 12, 6).entries) == {(2, 1): 1}


def test_single_odd_generator_signed_has_square():
    # (1+t^3)/(1-t^6) = 1/(1-t^3): one letter plus its self-bracket
    L = lie_atom_counts({3: 1}, True, 18, 6)
    assert dict(L.entries) == {(3, 1): 1, (6, 2): 1}
    assert reconstruct(L, True) == tensor_series({3: 1}, 18, 6)


def test_two_degree_one_generators_unsigned_are_necklace_numbers():
    L = lie_atom_counts({1: 2}, False, 6, 6)
    got = [L.get(l, l) for l in range(1, 6)]
    assert got == [2, 1, 2, 3, 6]
    assert got == brute_lyndon_count_by_length(2, 5)
    # two degree-0 letters: every word lies in degree 0, where no square
    # is signed, so both conventions count the necklaces
    for signed in (True, False):
        L = lie_atom_counts({0: 2}, signed, 0, 8)
        assert [L.get(0, l) for l in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


@pytest.mark.parametrize("degree", [1, 2, 3, 7])
def test_unsigned_single_generator_is_one_atom(degree):
    L = lie_atom_counts({degree: 1}, False, 4 * degree, 8)
    assert dict(L.entries) == {(degree, 1): 1}


def test_support_bound():
    for signed in (True, False):
        L = lie_atom_counts({2: 1, 3: 2}, signed, 18, 6)
        assert all(d >= 2 * l for d, l, _ in L.items())


def test_reconstruction_on_random_generator_sets():
    rng = random.Random(42)
    for _ in range(12):
        degrees = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            degrees[d] = degrees.get(d, 0) + rng.randint(1, 2)
        D, K = 14, 7
        for signed in (True, False):
            L = lie_atom_counts(degrees, signed, D, K)
            assert reconstruct(L, signed) == tensor_series(degrees, D, K)


def test_smaller_output_caps_agree_with_larger_run():
    big = lie_atom_counts({1: 1, 2: 1}, True, 16, 8)
    small = lie_atom_counts({1: 1, 2: 1}, True, 10, 5)
    for d, l, c in small.items():
        assert big.get(d, l) == c
    for d, l, c in big.items():
        if d <= 10 and l <= 5:
            assert small.get(d, l) == c


def test_input_validation():
    with pytest.raises(InvalidInputError, match="degrees must be >= 0"):
        lie_atom_counts({2: 1, -1: 1}, False, 6, 6)


def test_negative_table_count_rejected():
    with pytest.raises(IntegrityError):
        DegreeWeightTable(4, 4, {(2, 1): -1})


def test_table_checks_name_the_first_entry_at_fault():
    with pytest.raises(IntegrityError, match=r"negative count -2 at \(3,1\)"):
        DegreeWeightTable(4, 4, {(1, 1): 1, (3, 1): -2, (4, 2): -1})
    for d, l in ((5, 1), (1, 5)):
        with pytest.raises(ConfigurationError, match=rf"entry \({d},{l}\) outside caps"):
            DegreeWeightTable(4, 4, {(0, 0): 1, (d, l): 1})
    # entries are checked in order, each for its sign before its caps
    with pytest.raises(ConfigurationError, match=r"\(9,1\) outside caps"):
        DegreeWeightTable(4, 4, {(9, 1): 1, (2, 1): -1})
    with pytest.raises(IntegrityError, match=r"at \(9,1\)"):
        DegreeWeightTable(4, 4, {(9, 1): -1})


def test_table_drops_zeros_and_keeps_no_alias_of_the_callers_dict():
    given = {(1, 1): 2, (2, 1): 0, (4, 4): 1}
    table = DegreeWeightTable(4, 4, given)
    assert table.entries == {(1, 1): 2, (4, 4): 1}
    assert given == {(1, 1): 2, (2, 1): 0, (4, 4): 1}
    without_zeros = {(1, 1): 2}
    table = DegreeWeightTable(4, 4, without_zeros)
    assert table.entries == without_zeros and table.entries is not without_zeros
    without_zeros[(1, 1)] = 5
    assert table.get(1, 1) == 2
    assert DegreeWeightTable(4, 4).entries == {}
    assert list(DegreeWeightTable(4, 4, {(3, 1): 1, (1, 2): 1}).items()) == [
        (1, 2, 1),
        (3, 1, 1),
    ]


def test_words_identity_signed_vs_unsigned_agree_through_tensor_series():
    # both conventions must reproduce the same word counts they were solved from
    degrees = {1: 1, 3: 1}
    D, K = 12, 6
    target = tensor_series(degrees, D, K)
    for signed in (True, False):
        L = lie_atom_counts(degrees, signed, D, K)
        assert reconstruct(L, signed) == target


# -- properties of the shared Witt recurrence --------------------------------

generator_maps = st.dictionaries(
    st.integers(1, 5), st.integers(1, 3), min_size=1, max_size=3
)


@settings(max_examples=40, deadline=None)
@given(generator_maps, st.integers(0, 14), st.integers(0, 7), st.booleans())
def test_property_counts_reconstruct_tensor_series(degrees, D, K, signed):
    L = lie_atom_counts(degrees, signed, D, K)
    assert reconstruct(L, signed) == tensor_series(degrees, D, K)


@settings(max_examples=40, deadline=None)
@given(generator_maps, st.booleans(), st.data())
def test_property_smaller_caps_equal_truncated_larger_run(degrees, signed, data):
    D, K = 14, 7
    d_cap = data.draw(st.integers(0, D))
    k_cap = data.draw(st.integers(0, K))
    big = lie_atom_counts(degrees, signed, D, K)
    small = lie_atom_counts(degrees, signed, d_cap, k_cap)
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
            lie_atom_counts({2: 1}, signed, 12, 6)

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


def drop_square_words(monkeypatch, degree):
    """Patch ``witt.word_rows`` to lose the length-2 cell at 2 * degree."""
    real = witt.word_rows

    def dropped(degrees, max_degree, max_weight):
        rows = real(degrees, max_degree, max_weight)
        del rows[2][2 * degree]
        return rows

    monkeypatch.setattr(witt, "word_rows", dropped)


@pytest.mark.parametrize("degree", [2, 3])
def test_a_word_row_that_lost_a_cell_raises(monkeypatch, degree):
    # the square of the letter has no words left, but its divisor term
    # L(degree, 1) = 1 still reaches the cell, which names it
    drop_square_words(monkeypatch, degree)
    for signed in (True, False):
        with pytest.raises(
            IntegrityError, match=rf"\({2 * degree}, 2\): a divisor term reaches it, but no word"
        ):
            lie_atom_counts({degree: 1}, signed, 4 * degree, 4)


def test_a_divisor_term_on_a_cell_without_words_is_not_solved(monkeypatch):
    # for two odd letters, signed, the divisor term of L(3, 1) = 2 alone
    # leaves the residual 2 at (6, 2), a multiple of the length: solved,
    # the cell would pass as one basic product
    drop_square_words(monkeypatch, 3)
    with pytest.raises(IntegrityError, match=r"\(6, 2\): a divisor term reaches it"):
        lie_atom_counts({3: 2}, True, 12, 4)


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
    witt.lie_atom_counts({2: 1, 3: 1}, True, 8, 4)
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
    """The dense Witt recurrence, apart from the kernel: the word series by
    ``inverse_one_minus`` and one division on every cell of the
    (D+1) x (K+1) grid, each with every divisor r >= 2 of its gcd found by
    trial division."""
    words = tensor_series(degrees, D, K)
    counts = {}
    for length in range(1, K + 1):
        for d in range(D + 1):
            g = math.gcd(d, length)
            residual = words.get(d, length) - sum(
                (length // r)
                * (-1 if signed and r % 2 == 0 and (d // r) % 2 else 1)
                * counts.get((d // r, length // r), 0)
                for r in range(2, g + 1)
                if g % r == 0
            )
            c, rem = divmod(residual, length)
            assert residual >= 0 and rem == 0, ((d, length), residual)
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
    got = lie_atom_counts(degrees, signed, D, K)
    assert got.entries == dense_atom_counts(degrees, D, K, signed)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(0, 7), st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 30),
    st.integers(0, 15),
    st.booleans(),
    st.data(),
)
def test_property_sparse_kernel_equals_dense_recurrence(degrees, D, K, signed, data):
    d_cap = data.draw(st.integers(0, D))
    k_cap = data.draw(st.integers(0, K))
    got = lie_atom_counts(degrees, signed, d_cap, k_cap)
    dense = dense_atom_counts(degrees, D, K, signed)
    assert got.entries == {
        (d, l): c for (d, l), c in dense.items() if d <= d_cap and l <= k_cap
    }


def test_one_witt_table_serves_every_factor_of_a_plan(monkeypatch):
    calls = []
    real = loops.lie_atom_counts

    def spy(letters, signed, max_degree, max_weight):
        calls.append(max_degree)
        return real(letters, signed, max_degree, max_weight)

    monkeypatch.setattr(loops, "lie_atom_counts", spy)
    m_dim, rel = preset("torus", m=6)
    spec = ProblemSpec(m_dim, rel, 1, {2: 1}, FieldChar.odd(3), 30)
    assert len(factor_plan(m_dim, rel, 1, {2: 1})) == 7
    theorem_a(spec)
    # the q = 0 factor has the largest shifted cap, 30 + (j - 1) = 36
    assert calls == [36]
    # the generators listing reads the same census
    calls.clear()
    status, _text = cli.run({
        "mode": "generators", "field": "Fp:3", "manifold": {"preset": "torus", "m": 6},
        "n": 1, "label_space": {"preset": "sphere", "d": 2}, "max_degree": 30,
    })
    assert (status, calls) == (0, [36])
