"""Exact truncated bigraded power series over the integers.

A :class:`BiSeries` stores dimension counts indexed by (homological degree d,
filtration weight k) on the rectangle 0 <= d <= max_degree, 0 <= k <=
max_weight.  Coefficients are arbitrary-precision nonnegative integers;
truncation is total, meaning nothing outside the rectangle is ever read or
written, and every operation truncates eagerly.

All operations are pure: a BiSeries is never mutated after construction, so
values can be shared freely (including across threads) and products may be
evaluated in any order.

:func:`multiply`, the product of two series, packs each operand into a
single big integer (one fixed-width little-endian slot per coefficient,
rows padded so degree carries cannot cross weight rows) and does one
native big-int multiplication.  The engine assembles no products with it:
a product of free algebras is itself free, so it is one
:func:`free_commutative` call on the union of the generators.

Free graded-commutative algebras, products of (1 - t^d u^w)^(-c) and
(1 + t^d u^w)^c, are solved by one log-derivative kernel,
:func:`free_commutative`.  With B = u d/du log A, which has integer
coefficients, u dA/du = A * B gives the weight recurrence

    k A_k = sum_{i=1..k} B_i A_{k-i}

for the weight-k row A_k, a polynomial in t.  Rows are packed big
integers, so each step is a short sum of shifted scalar multiples.  Every
residual must be a nonnegative multiple of k; one that is not raises
IntegrityError naming the cell (d, k).  :func:`power_factor` multiplies
by a single generator's factor and is kept as the independent reference.

:func:`inverse_one_minus`, :func:`multiply`, :func:`power_factor` and
:func:`desuspend_by_weight` have no engine caller: ``witt`` builds its
sparse word rows itself, every table is one :func:`free_commutative`
call, and ``theorem_b`` desuspends the generators rather than the table
(so a generator may sit in degree 0 at weight >= 1).  They stay as the
tests' references, ``oracle`` uses :func:`multiply`, and
``bench/spans.py`` wraps all four by name.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

from .errors import (
    ConfigurationError,
    DivergentSeriesError,
    IntegrityError,
    InvalidInputError,
)

POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"


def _blank(max_degree: int, max_weight: int) -> list[list[int]]:
    return [[0] * (max_weight + 1) for _ in range(max_degree + 1)]


class BiSeries:
    """Truncated series sum c(d,k) t^d u^k with integer c(d,k) >= 0.

    ``is_algebra`` marks series arising as Poincare series of unital
    algebras; for those the constructor additionally checks c(0,0) == 1.
    """

    __slots__ = ("max_degree", "max_weight", "is_algebra", "_c")

    def __init__(
        self,
        max_degree: int,
        max_weight: int,
        coeff: list[list[int]] | None = None,
        *,
        is_algebra: bool = False,
    ):
        if max_degree < 0 or max_weight < 0:
            raise InvalidInputError("caps must be nonnegative")
        self.max_degree = max_degree
        self.max_weight = max_weight
        self.is_algebra = is_algebra
        if coeff is None:
            coeff = _blank(max_degree, max_weight)
        if len(coeff) != max_degree + 1:
            raise ConfigurationError("coefficient table has wrong degree extent")
        for row in coeff:
            if len(row) != max_weight + 1:
                raise ConfigurationError("coefficient table has wrong weight extent")
            for v in row:
                if v < 0:
                    raise IntegrityError(
                        f"negative coefficient {v}; dimensions must be >= 0"
                    )
        if is_algebra and coeff[0][0] != 1:
            raise ConfigurationError("algebra series must have constant term 1")
        self._c = coeff

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, max_degree: int, max_weight: int) -> "BiSeries":
        return cls(max_degree, max_weight)

    @classmethod
    def one(cls, max_degree: int, max_weight: int) -> "BiSeries":
        c = _blank(max_degree, max_weight)
        c[0][0] = 1
        return cls(max_degree, max_weight, c, is_algebra=True)

    @classmethod
    def from_entries(
        cls,
        max_degree: int,
        max_weight: int,
        entries: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]],
        *,
        is_algebra: bool = False,
    ) -> "BiSeries":
        """Build from sparse (d, k) -> value data; out-of-cap entries are dropped."""
        c = _blank(max_degree, max_weight)
        if isinstance(entries, Mapping):
            triples = ((d, k, v) for (d, k), v in entries.items())
        else:
            triples = iter(entries)
        for d, k, v in triples:
            if 0 <= d <= max_degree and 0 <= k <= max_weight:
                c[d][k] += v
        return cls(max_degree, max_weight, c, is_algebra=is_algebra)

    # -- access -------------------------------------------------------

    def get(self, degree: int, weight: int) -> int:
        """Coefficient at (degree, weight); both must lie inside the caps."""
        if not (0 <= degree <= self.max_degree and 0 <= weight <= self.max_weight):
            raise ConfigurationError(
                f"({degree},{weight}) lies outside the caps "
                f"({self.max_degree},{self.max_weight}); truncated data is unknown"
            )
        return self._c[degree][weight]

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (degree, weight, value) for nonzero cells, degree-major order."""
        for d, row in enumerate(self._c):
            for k, v in enumerate(row):
                if v:
                    yield d, k, v

    def to_dict(self) -> dict[tuple[int, int], int]:
        return {(d, k): v for d, k, v in self.items()}

    def weight_slice(self, weight: int) -> list[int]:
        """Dimensions of one filtration quotient, as a list indexed by degree."""
        if not 0 <= weight <= self.max_weight:
            raise ConfigurationError("weight outside cap")
        return [row[weight] for row in self._c]

    def degree_totals(self) -> list[int]:
        """Total dimension per degree (the weight grading summed away)."""
        return [sum(row) for row in self._c]

    def truncated(self, max_degree: int, max_weight: int) -> "BiSeries":
        """Copy restricted to smaller caps.  Enlarging is refused: the data
        beyond the current caps was never computed."""
        if max_degree > self.max_degree or max_weight > self.max_weight:
            raise ConfigurationError("cannot enlarge caps of a truncated series")
        c = [row[: max_weight + 1] for row in self._c[: max_degree + 1]]
        return BiSeries(max_degree, max_weight, c, is_algebra=self.is_algebra)

    def caps(self) -> tuple[int, int]:
        return (self.max_degree, self.max_weight)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.caps() == other.caps() and self._c == other._c

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        nnz = sum(1 for _ in self.items())
        return (
            f"BiSeries(max_degree={self.max_degree}, "
            f"max_weight={self.max_weight}, nnz={nnz})"
        )


def require_caps(s: BiSeries, max_degree: int, max_weight: int) -> BiSeries:
    """``s``, once checked to have the caps that were asked for."""
    if s.caps() != (max_degree, max_weight):
        raise ConfigurationError(
            f"cap mismatch: got {s.caps()}, asked for {(max_degree, max_weight)}"
        )
    return s


def _stats(s: BiSeries) -> tuple[int, int]:
    """(max coefficient, number of nonzero cells)."""
    mx = 0
    nnz = 0
    for row in s._c:
        for v in row:
            if v:
                nnz += 1
                if v > mx:
                    mx = v
    return mx, nnz


def _pack(s: BiSeries, row_slots: int, cell: int) -> int:
    buf = bytearray((s.max_weight + 1) * row_slots * cell)
    for d, row in enumerate(s._c):
        for k, v in enumerate(row):
            if v:
                off = (k * row_slots + d) * cell
                buf[off : off + cell] = v.to_bytes(cell, "little")
    return int.from_bytes(buf, "little")


def multiply(a: BiSeries, b: BiSeries) -> BiSeries:
    """Truncated product: out(d,k) = sum a(d1,k1) b(d2,k2) over splits.

    This is the dimension count of a tensor product of bigraded modules.
    """
    D, K = require_caps(b, *a.caps()).caps()
    max_a, nnz_a = _stats(a)
    max_b, nnz_b = _stats(b)
    if nnz_a == 0 or nnz_b == 0:
        return BiSeries.zero(D, K)
    # Any product cell is a sum of at most min(nnz) terms, each <= max_a*max_b.
    bound = max_a * max_b * min(nnz_a, nnz_b)
    cell = (bound.bit_length() + 8) // 8
    row_slots = 2 * D + 1  # degree sums reach 2D; keep them inside one weight row
    prod = _pack(a, row_slots, cell) * _pack(b, row_slots, cell)
    need = ((2 * K) * row_slots + 2 * D + 1) * cell
    raw = prod.to_bytes(need, "little")
    c = _blank(D, K)
    for k in range(K + 1):
        base = k * row_slots * cell
        for d in range(D + 1):
            off = base + d * cell
            c[d][k] = int.from_bytes(raw[off : off + cell], "little")
    return BiSeries(D, K, c, is_algebra=a.is_algebra and b.is_algebra)


def power_factor(
    acc: BiSeries, degree: int, weight: int, count: int, kind: str
) -> BiSeries:
    """Multiply ``acc`` by the series of a free commutative algebra on
    ``count`` generators of bidegree (degree, weight):

    * polynomial: (1 - t^degree u^weight)^(-count)
    * exterior:   (1 + t^degree u^weight)^(count)
    """
    if kind not in (POLYNOMIAL, EXTERIOR):
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    if degree == 0 and kind == POLYNOMIAL:
        raise DivergentSeriesError(
            "polynomial generator in degree 0 gives a divergent truncation"
        )
    if degree < 1:
        raise InvalidInputError("generator degree must be >= 1")
    if weight < 0 or count < 0:
        raise InvalidInputError("generator weight and count must be >= 0")
    if count == 0:
        return acc
    D, K = acc.caps()
    imax = D // degree
    if weight > 0:
        imax = min(imax, K // weight)
    if kind == EXTERIOR:
        imax = min(imax, count)
    if kind == POLYNOMIAL:
        multipliers = [math.comb(count + i - 1, i) for i in range(imax + 1)]
    else:
        multipliers = [math.comb(count, i) for i in range(imax + 1)]
    src = acc._c
    c = _blank(D, K)
    for d in range(D + 1):
        out_row = c[d]
        for i in range(min(imax, d // degree) + 1):
            m = multipliers[i]
            src_row = src[d - i * degree]
            kk = i * weight
            for k in range(kk, K + 1):
                v = src_row[k - kk]
                if v:
                    out_row[k] += m * v
    return BiSeries(D, K, c, is_algebra=acc.is_algebra)


def weight_log_derivative(
    max_degree: int, max_weight: int, generators: Iterable[tuple[int, int, int, str]]
) -> dict[tuple[int, int], int]:
    """Nonzero coefficients B(e, i) of B = u d/du log A inside the caps,
    where A is the free commutative algebra on ``generators``.

    Each generator (degree d, weight w, count c, kind) adds c*w*s_r at
    (r*d, r*w) for every r >= 1 inside the caps: s_r = 1 for a polynomial
    generator, whose factor is (1 - t^d u^w)^(-c), and s_r = (-1)^(r+1)
    for an exterior one, whose factor is (1 + t^d u^w)^c.  Degree 0 is
    allowed: with w >= 1 the weight cap bounds r, so nothing diverges.
    """
    b: dict[tuple[int, int], int] = {}
    for degree, weight, count, kind in generators:
        if kind not in (POLYNOMIAL, EXTERIOR):
            raise InvalidInputError(f"unknown generator kind {kind!r}")
        if degree < 0:
            raise InvalidInputError("generator degree must be >= 0")
        if weight < 1 or count < 0:
            raise InvalidInputError("generator weight must be >= 1 and count >= 0")
        step = count * weight
        rmax = max_weight // weight
        if degree:
            rmax = min(rmax, max_degree // degree)
        for r in range(1, rmax + 1):
            key = (r * degree, r * weight)
            b[key] = b.get(key, 0) + (step if kind == POLYNOMIAL or r % 2 else -step)
    return {key: v for key, v in b.items() if v}


def free_commutative(
    max_degree: int, max_weight: int, generators: Iterable[tuple[int, int, int, str]]
) -> BiSeries:
    """Series of the free graded-commutative algebra on ``generators``,
    given as (degree, weight, count, kind) with degree >= 0, weight >= 1.

    Equal to one :func:`power_factor` per generator applied to the unit,
    but solved in one pass over the weights from u dA/du = A * B with
    B = :func:`weight_log_derivative`: the weight-k row A_k, a polynomial
    in t, satisfies k A_k = sum_{i=1..k} B_i A_{k-i}.

    Each row is one packed big integer with a fixed-width slot per degree.
    B is sparse, so a row step sums the shifted scalar multiples
    B(e, i) * (A_{k-i} << e slots).  B can be negative, so the slots are
    read back signed: half a slot is added to every slot up to the degree
    cap and subtracted after reading.  The slot width keeps
    bits(sum |B|) + bits(max A) + 2 bits, and all rows are repacked at
    double width when that no longer fits.  A residual that is negative or
    not a multiple of k cannot come from a genuine algebra and raises
    IntegrityError naming the cell.
    """
    if max_degree < 0 or max_weight < 0:
        raise InvalidInputError("caps must be nonnegative")
    D, K = max_degree, max_weight
    b = weight_log_derivative(D, K, generators)
    by_weight: list[list[tuple[int, int]]] = [[] for _ in range(K + 1)]
    for (e, i), v in sorted(b.items()):
        by_weight[i].append((e, v))
    b_bits = sum(abs(v) for v in b.values()).bit_length()

    c = _blank(D, K)
    c[0][0] = 1
    cell = 0  # slot width in bytes
    rows = [1]  # packed A_0 = 1
    peak = 1
    for k in range(1, K + 1):
        if b_bits + peak.bit_length() + 2 > 8 * cell:
            cell = max(cell, 1)
            while b_bits + peak.bit_length() + 2 > 8 * cell:
                cell *= 2
            rows = [_pack_row(c, w, cell) for w in range(k)]
            slot = 8 * cell
            span = (D + 1) * slot
            half = 1 << (slot - 1)
            halves = half * (((1 << span) - 1) // ((1 << slot) - 1))
            # keep[e]: the slots of a row that stay below the cap after
            # a shift by e degrees
            keep = {e: (1 << (span - e * slot)) - 1 for e, _ in b}
        total = 0
        for i in range(1, k + 1):
            prev = rows[k - i]
            if prev:
                for e, v in by_weight[i]:
                    total += v * ((prev & keep[e]) << (e * slot))
        raw = (total + halves).to_bytes(span // 8, "little")
        # the residual is zero, so passes the gate, outside slots first..last
        if total:
            first = ((total & -total).bit_length() - 1) // slot
            last = min(D, (abs(total).bit_length() - 1) // slot + 1)
        else:
            first, last = 0, -1
        for d in range(first, last + 1):
            residual = int.from_bytes(raw[d * cell : (d + 1) * cell], "little") - half
            value, rem = divmod(residual, k)
            if residual < 0 or rem:
                raise IntegrityError(
                    f"free-algebra recurrence broke at (d, k) = ({d}, {k}): "
                    f"residual {residual} is not a nonnegative multiple of {k}"
                )
            if value:
                c[d][k] = value
                if value > peak:
                    peak = value
        rows.append(total // k)
    return BiSeries(D, K, c, is_algebra=True)


def _pack_row(c: list[list[int]], weight: int, cell: int) -> int:
    """The weight row of table ``c`` as one int, ``cell`` bytes per degree."""
    return int.from_bytes(
        b"".join(row[weight].to_bytes(cell, "little") for row in c), "little"
    )


def inverse_one_minus(f: BiSeries) -> BiSeries:
    """Return g with g * (1 - f) == 1 up to the caps, i.e. g = sum f^r.

    Counts words in the letters of f (tensor-algebra dimensions), so the
    weight of a word is the sum of its letters' weights.
    """
    D, K = f.caps()
    if f.get(0, 0) != 0:
        raise InvalidInputError("inverse_one_minus requires a vanishing constant term")
    letters = list(f.items())
    c = _blank(D, K)
    c[0][0] = 1
    # g = 1 + f*g; every letter has d + k >= 1 so the recursion is causal
    for d in range(D + 1):
        for k in range(K + 1):
            acc = c[d][k]
            for ld, lk, lv in letters:
                if ld <= d and lk <= k:
                    prev = c[d - ld][k - lk]
                    if prev:
                        acc += lv * prev
            c[d][k] = acc
    return BiSeries(D, K, c, is_algebra=True)


def desuspend_by_weight(s: BiSeries, r: int) -> BiSeries:
    """Shift each weight-k slice down by r*k degrees.

    Raises IntegrityError if any nonzero coefficient would land in negative
    degree; when the input was assembled from a double suspension this
    signals a grammar bug, never legal data.
    """
    if r < 0:
        raise InvalidInputError("desuspension step must be >= 0")
    D, K = s.caps()
    c = _blank(D, K)
    for d, k, v in s.items():
        nd = d - r * k
        if nd < 0:
            raise IntegrityError(
                f"desuspension by {r} per weight sends ({d},{k}) below degree 0"
            )
        c[nd][k] += v
    return BiSeries(D, K, c)
