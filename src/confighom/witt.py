"""Basis counts for free graded Lie algebras, bigraded by degree and
bracket length.

Given the letters as a degree -> count map g_d (every letter at length 1,
in degree >= 0), the counts L(d, l) of basic products inside the caps are
defined by the Poincare-Birkhoff-Witt identity against the word series
T = 1/(1 - f) of the tensor algebra, f = sum_d g_d t^d u:

* signed (super) convention::

    T = prod_{d odd} (1 + t^d u^l)^L(d,l)
      * prod_{d even} (1 - t^d u^l)^(-L(d,l))

* unsigned convention::

    T = prod_{d,l} (1 - t^d u^l)^(-L(d,l))

Every letter has length 1, so u d/du log T = T - 1, and comparing the
coefficients of t^d u^l gives the generalized Witt formula (Kang-Kim,
J. Algebra 1996)::

    l L(d,l) = T(d,l) - sum_{r >= 2, r | gcd(d,l)} (l/r) s L(d/r, l/r)

with s = (-1)^(r+1) for an exterior factor (signed, d/r odd) and s = 1
otherwise.  Each cell needs only cells of smaller length, so one pass in
increasing length solves the table.  Parity refers to the degree grading of
the letters handed in; callers working with a degree-shifted bracket pass
shifted degrees.

The table is sparse: a sphere or a wedge of a few spheres has words in
few degrees of each length.  :func:`word_rows` builds T_l = f T_{l-1}
over the nonzero cells only, and the recurrence runs on the cells that
have words; every other cell has residual 0 and no basic products.  The
solve is one forward pass over the lengths: once length l is solved,
each nonzero L(d, l) is scattered once, as l s L(d, l) with the sign s
of its r-th power, onto the pending divisor sum of (r d, r l) for every
r >= 2 inside the caps.  Every proper divisor of a length is shorter
than it, so by the time a length is reached every term of its pending
sums has been scattered, and each of its cells is one division.  Every
term lands on a cell with words: a basic product of degree d and length
l, repeated r times, is a word at (r d, r l).

The engine solves one such table per factor plan, through
``loops.atom_census``: every factor of a plan sees the same shifted
letters.  ``hilton`` counts basic words by multiplicity vector with one
unsigned solve, on letters whose degrees spell those vectors.
:func:`lie_atom_counts` is also the entry point the benchmark's tracer
wraps and the tests call.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from operator import itemgetter

from .errors import ConfigurationError, IntegrityError, InvalidInputError
from .record import FrozenRecord


class DegreeWeightTable(FrozenRecord):
    """Nonnegative counts indexed by (degree, length/weight) inside caps:
    ``entries`` maps (degree, length) to a count, zeros dropped."""

    __slots__ = ("max_degree", "max_weight", "entries")

    def __init__(
        self,
        max_degree: int,
        max_weight: int,
        entries: Mapping[tuple[int, int], int] | None = None,
    ) -> None:
        # a copy, so the caller's dict is never aliased; the checks run as
        # min/max over the whole dict, and only a failure walks it in order
        # to name the first entry at fault
        entries = {} if entries is None else dict(entries)
        if entries and (
            min(entries.values()) < 0
            or max(entries)[0] > max_degree
            or max(map(itemgetter(1), entries)) > max_weight
        ):
            for (d, l), c in entries.items():
                if c < 0:
                    raise IntegrityError(f"negative count {c} at ({d},{l})")
                if d > max_degree or l > max_weight:
                    raise ConfigurationError(f"entry ({d},{l}) outside caps")
        if 0 in entries.values():
            entries = {key: c for key, c in entries.items() if c}
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "max_weight", max_weight)
        object.__setattr__(self, "entries", entries)

    def get(self, degree: int, length: int) -> int:
        return self.entries.get((degree, length), 0)

    def items(self) -> Iterator[tuple[int, int, int]]:
        for (d, l), c in sorted(self.entries.items()):
            yield d, l, c


def word_rows(
    degrees: Mapping[int, int], max_degree: int, max_weight: int
) -> list[dict[int, int]]:
    """Rows of the word series T = 1/(1 - f), f = sum_d g_d t^d u, over
    their nonzero cells: entry l maps degree -> number of length-l words.

    T_0 = {0: 1} and T_l = f * T_{l-1}, truncated at ``max_degree``.  With
    every letter in degree >= 1 the rows die once l exceeds ``max_degree``
    over the lowest letter degree, and the list stops before the first
    empty row; a degree-0 letter keeps them all, up to length ``max_weight``.
    """
    letters = sorted(degrees.items())
    rows = [{0: 1}]
    for _ in range(max_weight):
        row: dict[int, int] = {}
        for d, c in rows[-1].items():
            for e, g in letters:
                if d + e > max_degree:
                    break
                row[d + e] = row.get(d + e, 0) + c * g
        if not row:
            break
        rows.append(row)
    return rows


def lie_atom_counts(
    letters: Mapping[int, int], signed: bool, max_degree: int, max_weight: int
) -> DegreeWeightTable:
    """Solve the defining product identity for the basic-product counts of
    the free Lie algebra on ``letters``, a degree -> count map with every
    degree >= 0, inside the caps ``max_degree`` and ``max_weight``.

    Letters beyond the degree cap add nothing.  A word count that breaks
    exact divisibility in the Witt recurrence raises IntegrityError, since
    that cannot occur for a genuine generating set.

    One pass in increasing length.  Only the cells with words are solved,
    in increasing degree at each length l: the degrees of
    :func:`word_rows` row l.  Any other cell has no words and no divisor
    term, so its residual and its count are 0.  Once length l is solved,
    each of its nonzero counts L(d, l) adds its divisor term
    l * s * L(d, l) to the pending sum of (r*d, r*l) for every r >= 2
    inside the caps, so when a length is reached its pending sums are
    complete.  A divisor term always lands on a cell with words, the
    r-th power of a basic product; one that lands elsewhere raises
    IntegrityError naming the lowest such cell.
    """
    D, K = max_degree, max_weight
    if any(d < 0 for d in letters):
        raise InvalidInputError("generator degrees must be >= 0")
    rows = word_rows(letters, D, K)
    top = len(rows) - 1
    # pending[l]: degree -> the divisor terms of the lengths solved so far
    pending: list[dict[int, int]] = [{} for _ in rows]
    entries: dict[tuple[int, int], int] = {}
    for length in range(1, top + 1):
        words, lowers = rows[length], pending[length]
        if not lowers.keys() <= words.keys():
            stray = (min(lowers.keys() - words.keys()), length)
            raise IntegrityError(
                f"Witt recurrence broke at {stray}: a divisor term reaches it, "
                "but no word of that degree and length does"
            )
        solved = []  # (d, L(d, length)), nonzero counts in increasing degree
        for d in sorted(words):
            residual = words[d] - lowers.get(d, 0)
            count, rem = divmod(residual, length)
            if residual < 0 or rem:
                raise IntegrityError(
                    f"Witt recurrence broke at {(d, length)}: residual "
                    f"{residual} is not a nonnegative multiple of the length "
                    f"{length}"
                )
            if count:
                entries[d, length] = count
                solved.append((d, count))
        # s = -1 for an even power of an exterior (signed, odd-degree) factor
        for r in range(2, top // length + 1):
            flip = signed and r % 2 == 0
            into = pending[r * length]
            for d, c in solved:
                if r * d > D:
                    break
                term = length * (-c if flip and d % 2 else c)
                into[r * d] = into.get(r * d, 0) + term
    return DegreeWeightTable(D, K, entries)
