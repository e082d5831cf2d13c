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
increasing length solves the table.  ``hilton`` runs the same recurrence
over letter multiplicity vectors.  Parity refers to the degree grading of
the letters handed in; callers working with a degree-shifted bracket pass
shifted degrees.

The table is sparse: a sphere or a wedge of a few spheres has words in
few degrees of each length.  :func:`word_rows` builds T_l = f T_{l-1}
over the nonzero cells only, and the recurrence runs on the cells that
have words or a nonzero divisor term; every other cell has residual 0
and no basic products.  The divisor terms are scattered from the nonzero
cells of the shorter lengths, whose divisors come from one sieve per
call, and :func:`_solve_cell` is the one recurrence step, shared with
``hilton``.

The engine solves one such table per factor plan, through
``loops.atom_census``: every factor of a plan sees the same shifted
letters.  :func:`lie_atom_counts` is also the entry point the
benchmark's tracer wraps and the tests call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import ConfigurationError, IntegrityError, InvalidInputError


@dataclass(frozen=True)
class DegreeWeightTable:
    """Nonnegative counts indexed by (degree, length/weight) inside caps."""

    max_degree: int
    max_weight: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        # a copy, so the caller's dict is never aliased; the checks run as
        # min/max over the whole dict, and only a failure walks it in order
        # to name the first entry at fault
        entries = dict(self.entries)
        if entries and (
            min(entries.values()) < 0
            or max(entries)[0] > self.max_degree
            or max(map(itemgetter(1), entries)) > self.max_weight
        ):
            for (d, l), c in entries.items():
                if c < 0:
                    raise IntegrityError(f"negative count {c} at ({d},{l})")
                if d > self.max_degree or l > self.max_weight:
                    raise ConfigurationError(f"entry ({d},{l}) outside caps")
        if 0 in entries.values():
            entries = {key: c for key, c in entries.items() if c}
        object.__setattr__(self, "entries", entries)

    def get(self, degree: int, length: int) -> int:
        return self.entries.get((degree, length), 0)

    def items(self) -> Iterator[tuple[int, int, int]]:
        for (d, l), c in sorted(self.entries.items()):
            yield d, l, c


def _divisor_sieve(n: int) -> list[list[int]]:
    """Entry m lists the divisors r >= 2 of m in increasing order, for
    0 <= m <= n (entries 0 and 1 are empty)."""
    divisors: list[list[int]] = [[] for _ in range(n + 1)]
    for r in range(2, n + 1):
        for m in range(r, n + 1, r):
            divisors[m].append(r)
    return divisors


def _solve_cell(
    cell: object, words: int, length: int, lowers: Iterable[tuple[int, int]]
) -> int:
    """One step of the Witt recurrence: the number of basic products in
    ``cell`` from its word count, its length and ``lowers``, the pairs
    (r, s * L(cell / r)) over the divisors r >= 2 of the gcd of its
    grading (a pair whose count is 0 may be left out).

    A residual that is negative or not a multiple of ``length`` cannot come
    from a genuine word series and raises IntegrityError.
    """
    residual = words
    for r, lower in lowers:
        residual -= (length // r) * lower
    count, rem = divmod(residual, length)
    if residual < 0 or rem:
        raise IntegrityError(
            f"Witt recurrence broke at {cell}: residual {residual} is not a "
            f"nonnegative multiple of the length {length}"
        )
    return count


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

    Only cells that can be nonzero are solved, in increasing degree at
    each length l: the degrees of :func:`word_rows` row l and every r*d'
    (r >= 2 dividing l) with L(d', l/r) != 0.  Any other cell has no
    words and no divisor term, so its residual and its count are 0.
    """
    D, K = max_degree, max_weight
    if any(d < 0 for d in letters):
        raise InvalidInputError("generator degrees must be >= 0")
    rows = word_rows(letters, D, K)
    divisors = _divisor_sieve(len(rows) - 1)
    # solved[l]: degree -> L(degree, l), nonzero counts only
    solved: list[dict[int, int]] = [{}]
    for length in range(1, len(rows)):
        words = rows[length]
        # the divisor terms, scattered from the nonzero cells below
        lowers: dict[int, list[tuple[int, int]]] = {}
        for r in divisors[length]:
            flip = signed and r % 2 == 0
            for d, c in solved[length // r].items():
                if r * d <= D:
                    term = (r, -c if flip and d % 2 else c)
                    lowers.setdefault(r * d, []).append(term)
        row: dict[int, int] = {}
        for d in sorted(words.keys() | lowers.keys()) if lowers else sorted(words):
            c = _solve_cell((d, length), words.get(d, 0), length, lowers.get(d, ()))
            if c:
                row[d] = c
        solved.append(row)
    return DegreeWeightTable(
        D, K, {(d, l): c for l, row in enumerate(solved) for d, c in row.items()}
    )
