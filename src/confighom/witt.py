"""Basis counts for free graded Lie algebras, bigraded by degree and
bracket length.

Given generator counts g_d (all at length 1), the counts L(d, l) of basic
products are defined by the Poincare-Birkhoff-Witt identity against the
word series T = 1/(1 - f) of the tensor algebra, f = sum_d g_d t^d u:

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
the table handed in; callers working with a degree-shifted bracket pass
shifted degrees.

The table is sparse: a sphere or a wedge of a few spheres has words in
few degrees of each length.  :func:`word_rows` builds T_l = f T_{l-1}
over the nonzero cells only, and the recurrence runs on the cells that
have words or a nonzero divisor term; every other cell has residual 0
and no basic products.  ``loops`` solves one such table per factor plan:
every factor of a plan sees the same shifted letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .errors import ConfigurationError, IntegrityError, InvalidInputError


@dataclass(frozen=True)
class DegreeWeightTable:
    """Nonnegative counts indexed by (degree, length/weight) inside caps."""

    max_degree: int
    max_weight: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[tuple[int, int], int] = {}
        for (d, l), c in self.entries.items():
            if c < 0:
                raise IntegrityError(f"negative count {c} at ({d},{l})")
            if d > self.max_degree or l > self.max_weight:
                raise ConfigurationError(f"entry ({d},{l}) outside caps")
            if c:
                clean[(d, l)] = c
        object.__setattr__(self, "entries", clean)

    def get(self, degree: int, length: int) -> int:
        return self.entries.get((degree, length), 0)

    def items(self) -> Iterator[tuple[int, int, int]]:
        for (d, l), c in sorted(self.entries.items()):
            yield d, l, c

    def total(self) -> int:
        return sum(self.entries.values())

    @classmethod
    def from_generators(
        cls, degrees: Mapping[int, int], max_degree: int, max_weight: int
    ) -> "DegreeWeightTable":
        """Length-1 table from a degree -> count map (the generating set);
        generators beyond either cap are dropped."""
        return cls(
            max_degree,
            max_weight,
            {
                (d, 1): c
                for d, c in degrees.items()
                if c and d <= max_degree and max_weight >= 1
            },
        )


def _solve_cell(
    cell: object, words: int, length: int, g: int, lower: Callable[[int], int]
) -> int:
    """One step of the Witt recurrence: the number of basic products in
    ``cell`` from its word count, its length, the gcd ``g`` of its grading
    and ``lower(r)`` = s * L(cell / r) for each divisor r >= 2 of ``g``.

    A residual that is negative or not a multiple of ``length`` cannot come
    from a genuine word series and raises IntegrityError.
    """
    residual = words
    for r in range(2, g + 1):
        if g % r == 0:
            residual -= (length // r) * lower(r)
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
    over the lowest letter degree; the list stops before the first empty
    row (or after length ``max_weight``), and every later row is empty.
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
    gens: DegreeWeightTable,
    signed: bool,
    max_degree: int | None = None,
    max_weight: int | None = None,
) -> DegreeWeightTable:
    """Solve the defining product identity for the basic-product counts.

    ``gens`` must live at length 1 with degrees >= 1.  Exactness needs the
    input caps at least as large as the requested output caps.  A word
    count that breaks exact divisibility in the Witt recurrence raises
    IntegrityError, since that cannot occur for a genuine generating set.

    Only cells that can be nonzero are solved: at length l, the degrees
    of :func:`word_rows` row l and every r*d' (r >= 2 dividing l) with
    L(d', l/r) != 0.  Any other cell has no words and no divisor term, so
    its residual and its count are 0.
    """
    D = gens.max_degree if max_degree is None else max_degree
    K = gens.max_weight if max_weight is None else max_weight
    if D > gens.max_degree or K > gens.max_weight:
        raise ConfigurationError("output caps exceed the input table caps")
    degrees: dict[int, int] = {}
    for d, l, c in gens.items():
        if l != 1:
            raise InvalidInputError("generating set must sit at length 1")
        if d < 1:
            raise InvalidInputError("generator degrees must be >= 1")
        degrees[d] = c

    rows = word_rows(degrees, D, K)
    # solved[l]: degree -> L(degree, l), nonzero counts only
    solved: list[dict[int, int]] = [{}]
    for length in range(1, len(rows)):
        words = rows[length]
        cells = set(words)
        for r in range(2, length + 1):
            if length % r == 0:
                cells.update(r * d for d in solved[length // r] if r * d <= D)
        row: dict[int, int] = {}
        for d in sorted(cells):

            def lower(r: int) -> int:
                sign = -1 if signed and r % 2 == 0 and (d // r) % 2 else 1
                return sign * solved[length // r].get(d // r, 0)

            c = _solve_cell(
                (d, length), words.get(d, 0), length, math.gcd(d, length), lower
            )
            if c:
                row[d] = c
        solved.append(row)
    return DegreeWeightTable(
        D, K, {(d, l): c for l, row in enumerate(solved) for d, c in row.items()}
    )
