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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .errors import ConfigurationError, IntegrityError, InvalidInputError
from .series import BiSeries, inverse_one_minus


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

    f = BiSeries.from_entries(D, K, {(d, 1): c for d, c in degrees.items()})
    words = inverse_one_minus(f)

    counts: dict[tuple[int, int], int] = {}
    for length in range(1, K + 1):
        for d in range(D + 1):

            def lower(r: int) -> int:
                sign = -1 if signed and r % 2 == 0 and (d // r) % 2 else 1
                return sign * counts.get((d // r, length // r), 0)

            c = _solve_cell(
                (d, length), words.get(d, length), length, math.gcd(d, length), lower
            )
            if c:
                counts[(d, length)] = c
    return DegreeWeightTable(D, K, counts)
