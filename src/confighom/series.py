"""Exact truncated bigraded power series over the integers.

A :class:`BiSeries` stores dimension counts indexed by (homological degree d,
filtration weight k) on the rectangle 0 <= d <= max_degree, 0 <= k <=
max_weight.  Coefficients are arbitrary-precision nonnegative integers;
truncation is total, meaning nothing outside the rectangle is ever read or
written, and every operation truncates eagerly.

All operations are pure: a BiSeries is never mutated after construction, so
values can be shared freely (including across threads) and products may be
evaluated in any order.

:func:`multiply`, the product of two series, is a plain convolution over
their nonzero cells.  The engine assembles no products with it: a product
of free algebras is itself free, so it is one kernel call on the union
of the generators.

Free graded-commutative algebras, products of (1 - t^d u^w)^(-c) and
(1 + t^d u^w)^c, are solved by one log-derivative kernel,
:func:`free_commutative_from_beta`.  With B = u d/du log A, which has
integer coefficients, u dA/du = A * B gives the weight recurrence

    k A_k = sum_{i=1..k} B_i A_{k-i}

for the weight-k row A_k, a polynomial in t.  B is a Lambert series,
B = sum beta(d, w) x/(1 - x) with x = t^d u^w, and the kernel takes its
coefficients beta as input, a ``(d, w) -> beta`` dict.  The kernel has
two entries: :func:`free_commutative_from_beta` takes that dict, which
``assemble`` builds straight from a factor plan's censuses, and
:func:`free_commutative` takes a generator list (degree, weight, count,
kind) and folds it into the dict with :func:`weight_log_derivative`
first.  Rows are packed big integers, re-slotted in place when their
slots must grow, with slot i holding degree D - i: t^e times a row,
truncated at the degree cap D, is one right shift by e slots.  A
bidegree with at least ``CHAIN_MULTIPLES`` multiples inside the caps,
such as a degree-0, Dyer-Lashof or weight-1 torus generator, enters each
row step as one running sum over its multiples (a chain); every other
bidegree enters as one shifted scalar multiple per multiple, and a row
step visits only the weights with such terms.  Every residual must be a
nonnegative multiple of k.  Each row is gated by one big-int test, a
division by k whose quotient must leave the top bits of every slot
clear, and the quotient stays packed: one AND with a mask of the top
bits of every slot tells whether the slots must grow, and the whole
table is unpacked once, after its last row.  A row that fails is read
cell by cell, to raise IntegrityError naming its lowest broken cell
(d, k) in the message and as its ``cell``.
:func:`power_factor`, one generator's factor, is the independent
reference.

:func:`inverse_one_minus`, :func:`multiply`, :func:`power_factor` and
:func:`desuspend_by_weight` have no engine caller: ``witt`` builds its
sparse word rows itself, every table is one kernel call, and
``check:ab``'s S^2 X route desuspends its generators, not the table (a
generator may sit in degree 0 at weight >= 1).  They stay here as the
tests' references, imported from this module (the package does not
export them), and ``bench/spans.py`` wraps all four by name.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import compress

from .errors import ConfigurationError, IntegrityError, InvalidInputError

POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"
# a bidegree with at least this many multiples inside the caps is a chain;
# of 6 to 12, 8 ran the bench workloads' free-algebra calls fastest
CHAIN_MULTIPLES = 8


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
        if set(map(len, coeff)) != {max_weight + 1}:
            raise ConfigurationError("coefficient table has wrong weight extent")
        if min(map(min, coeff)) < 0:  # scanned in C; the row search runs on failure only
            v = next(v for row in coeff for v in row if v < 0)
            raise IntegrityError(f"negative coefficient {v}; dimensions must be >= 0")
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
        entries: Mapping[tuple[int, int], int],
        *,
        is_algebra: bool = False,
    ) -> "BiSeries":
        """Build from sparse (d, k) -> value data; out-of-cap entries are dropped."""
        c = _blank(max_degree, max_weight)
        for (d, k), v in entries.items():
            if 0 <= d <= max_degree and 0 <= k <= max_weight:
                c[d][k] = v
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

    def rows(self) -> Sequence[Sequence[int]]:
        """The stored rows indexed [degree][weight], not copied: read them
        only, for a BiSeries is never mutated."""
        return self._c

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

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        nnz = sum(1 for _ in self.items())
        return (
            f"BiSeries(max_degree={self.max_degree}, "
            f"max_weight={self.max_weight}, nnz={nnz})"
        )


def require_indexable_caps(*caps: int) -> None:
    """InvalidInputError unless every cap is below ``sys.maxsize``: a larger
    cap cannot index a row.  The one test of it, made before any work."""
    if max(caps) >= sys.maxsize:
        raise InvalidInputError(f"caps must be below {sys.maxsize}")


def require_caps(s: BiSeries, max_degree: int, max_weight: int) -> BiSeries:
    """``s``, once checked to have the caps that were asked for."""
    if s.caps() != (max_degree, max_weight):
        raise ConfigurationError(
            f"cap mismatch: got {s.caps()}, asked for {(max_degree, max_weight)}"
        )
    return s


def multiply(a: BiSeries, b: BiSeries) -> BiSeries:
    """Truncated product: out(d,k) = sum a(d1,k1) b(d2,k2) over splits.

    This is the dimension count of a tensor product of bigraded modules,
    convolved over the nonzero cells of both.
    """
    D, K = require_caps(b, *a.caps()).caps()
    c = _blank(D, K)
    cells = list(b.items())  # degree-major, so a degree past D ends the row
    for d1, k1, v1 in a.items():
        for d2, k2, v2 in cells:
            if d1 + d2 > D:
                break
            if k1 + k2 <= K:
                c[d1 + d2][k1 + k2] += v1 * v2
    return BiSeries(D, K, c, is_algebra=a.is_algebra and b.is_algebra)


def power_factor(
    acc: BiSeries, degree: int, weight: int, count: int, kind: str
) -> BiSeries:
    """Multiply ``acc`` by the series of a free commutative algebra on
    ``count`` generators of bidegree (degree, weight):

    * polynomial: (1 - t^degree u^weight)^(-count)
    * exterior:   (1 + t^degree u^weight)^(count)

    A polynomial generator in degree 0, whose truncation diverges, is
    refused with InvalidInputError.
    """
    if kind not in (POLYNOMIAL, EXTERIOR):
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    if degree == 0 and kind == POLYNOMIAL:
        raise InvalidInputError(
            "polynomial generator in degree 0 gives a divergent truncation"
        )
    if degree < 1:
        raise InvalidInputError("generator degree must be >= 1")
    if weight < 0 or count < 0:
        raise InvalidInputError("generator weight and count must be >= 0")
    if count == 0:
        return acc
    D, K = acc.caps()
    factor = {
        (i * degree, i * weight): math.comb(count + i - 1, i)
        if kind == POLYNOMIAL
        else math.comb(count, i)
        for i in range(D // degree + 1)
    }
    return multiply(acc, BiSeries.from_entries(D, K, factor, is_algebra=True))


def weight_log_derivative(
    max_degree: int, max_weight: int, generators: Iterable[tuple[int, int, int, str]]
) -> dict[tuple[int, int], int]:
    """Nonzero Lambert coefficients beta(d, w) of B = u d/du log A inside
    the caps, where A is the free commutative algebra on ``generators``:
    B = sum beta(d, w) x/(1 - x) with x = t^d u^w.

    A polynomial generator (degree d, weight w, count c), whose factor is
    (1 - x)^(-c), adds c*w at (d, w).  An exterior one, whose factor is
    (1 + x)^c, also subtracts 2*c*w at (2d, 2w) when that lies inside the
    caps, since x/(1 + x) = x/(1 - x) - 2 x^2/(1 - x^2).  A generator
    outside the caps adds nothing.  Degree 0 is allowed: with w >= 1 the
    weight cap bounds the multiples, so nothing diverges.
    """
    beta: dict[tuple[int, int], int] = {}
    for degree, weight, count, kind in generators:
        if kind not in (POLYNOMIAL, EXTERIOR):
            raise InvalidInputError(f"unknown generator kind {kind!r}")
        if degree < 0:
            raise InvalidInputError("generator degree must be >= 0")
        if weight < 1 or count < 0:
            raise InvalidInputError("generator weight must be >= 1 and count >= 0")
        if degree > max_degree or weight > max_weight:
            continue
        step = count * weight
        key = (degree, weight)
        beta[key] = beta.get(key, 0) + step
        if kind == EXTERIOR and 2 * degree <= max_degree and 2 * weight <= max_weight:
            key = (2 * degree, 2 * weight)
            beta[key] = beta.get(key, 0) - 2 * step
    return {key: v for key, v in beta.items() if v}


def free_commutative(
    max_degree: int, max_weight: int, generators: Iterable[tuple[int, int, int, str]]
) -> BiSeries:
    """Series of the free graded-commutative algebra on ``generators``,
    given as (degree, weight, count, kind) with degree >= 0, weight >= 1:
    the kernel's generator-list entry, :func:`free_commutative_from_beta`
    on their :func:`weight_log_derivative`.

    Equal to one :func:`power_factor` per generator applied to the unit.
    The kernel reads ``generators`` only through that dict, and not its
    order, so generator lists with equal coefficients there (reordered,
    with counts split across duplicates, or differing only outside the
    caps) give the same table, or the same IntegrityError.
    """
    return free_commutative_from_beta(
        max_degree, max_weight, weight_log_derivative(max_degree, max_weight, generators)
    )


def free_commutative_from_beta(
    max_degree: int, max_weight: int, beta: Mapping[tuple[int, int], int]
) -> BiSeries:
    """Series A of the free graded-commutative algebra whose B = u d/du
    log A has the Lambert coefficients ``beta``, a ``(d, w) -> beta`` map
    with 0 <= d <= max_degree and 1 <= w <= max_weight (B = sum beta(d, w)
    x/(1 - x) with x = t^d u^w, as :func:`weight_log_derivative` gives
    it): the kernel.  A key outside those bounds is refused with
    InvalidInputError before any row is built.

    Solved in one pass over the weights from u dA/du = A * B: the weight-k
    row A_k, a polynomial in t, satisfies k A_k = sum_{i=1..k} B_i A_{k-i}.

    Each row is one packed big integer with a fixed-width slot per degree,
    packed from the degree cap down: slot i holds degree D - i.  So t^e
    times a row, truncated at the cap, is the row shifted right by e
    slots; the degrees it pushes past D fall off the bottom, and the
    degrees below the row's lowest nonzero one are high zero slots that
    the big integer does not store.  A bidegree (d, w) of B has
    rmax = min(K // w, D // d) multiples inside both caps (K // w if
    d = 0), and rmax alone picks how it enters a row step:

    * a *chain* when rmax >= CHAIN_MULTIPLES (so 2w <= K): its multiples
      sum to beta t^d R_{k-w}, with the running sum
      R_j = A_j + t^d R_{j-w}: one term per row instead of one per
      multiple, whatever the slope.  The chain keeps
      S_j = t^d R_j = (A_j + S_{j-w}) >> d slots, built at row j + w from
      S_{j-w}, and its term is beta S_{k-w}.  For one w the lowest degree
      of t^d R_j rises with d, so the chains of a weight, sorted by d,
      stop at the first one whose S_j is 0.
    * otherwise *direct*: each multiple (r*d, r*w) inside the caps is a
      term B(e, i) of B_i, and a row step sums the scalar multiples
      B(e, i) * (A_{k-i} >> e slots).  The step visits only the weights
      i <= k with terms, B_i sorted by e, and stops, as a weight's chains
      do, at the first e whose shift of A_{k-i} is 0.  Few multiples cost
      less than a chain.

    So the row sum is total = sum_d r_d 2^(s(D-d)) over slots of s bits,
    with r_d the residual at degree d.  The slot width keeps
    bits(S) + bits(max A) + 2 bits, where S sums |B(e, i)| over the
    direct terms and |beta| * rmax over the chains, so every
    |r_d| < 2^(s-2), whatever B is.  A slot of S_{k-w} = t^d R_{k-w} sums
    at most rmax rows: at degree x it is the sum over r >= 1 of
    A_{k-rw}(x - rd), whose terms need r*w <= k <= K and r*d <= x <= D,
    so r <= rmax.  A_j + S_{j-w}, before its shift, has at most rmax + 1
    rows in a slot, so its slots stay below 2^(s-1) and none carries.
    Only a new widest row can break that width, and it is found by one
    AND: with t = s - bits(S) - 2, an accepted row needs a wider slot iff
    one of its slots is at least 2^t, that is, iff it meets the mask of
    the top bits(S) + 2 bits of every slot.  Every earlier row is below
    2^t, so a row that meets the mask is the widest so far; it alone is
    unpacked, before the next row, and the slot doubles until it fits
    that row's largest value.  Every packed row and running sum is then
    re-slotted in place at the new width, and the mask rebuilt.

    A residual that is negative or not a multiple of k cannot come from a
    genuine algebra.  The whole row is gated by one test: with
    q, rem = divmod(total, k) and b = bits(k), the row is accepted iff
    rem == 0, q >= 0 and no slot of q has any of its top b + 1 bits set.
    That accepts exactly the rows whose residuals are all nonnegative
    multiples of k.  If they are, each q_d = r_d / k < 2^(s-2) / 2^(b-1)
    = 2^(s-1-b), so q is their quotients, slot by slot.  Conversely, if
    the test passes, each q_d < 2^(s-1-b) gives k q_d < 2^(s-1), so
    k q = total has the digits k q_d in [0, 2^(s-1)) without carries.
    The digits r_d lie in (-2^(s-2), 2^(s-2)), and digits in
    [-2^(s-1), 2^(s-1)) write an integer in base 2^s in one way only, so
    r_d = k q_d: no digit can carry into the next or hide a borrow from
    a negative residual.  An accepted row's values are then the slots of
    q, top slot first, and q stays packed.  Only a row that fails is read
    back cell by cell, signed (half a slot added to every slot and
    subtracted after reading), from the top slot down, to find the lowest
    degree whose residual breaks the gate; it raises IntegrityError naming
    that cell.  A widening re-slots every row, so after the last row all
    of them share one width: the table is read by one unpack of all the
    rows, weight after weight, and each degree's row of the table is one
    strided slice of it.
    A cap of ``sys.maxsize`` or more cannot index a row, and is refused
    with InvalidInputError.
    """
    if max_degree < 0 or max_weight < 0:
        raise InvalidInputError("caps must be nonnegative")
    require_indexable_caps(max_degree, max_weight)
    D, K = max_degree, max_weight
    chains: dict[int, list[tuple[int, int, list]]] = {}
    direct: dict[int, dict[int, int]] = {}  # B_i as degree -> value, by weight i
    b_sum = 0
    for (d, w), v in beta.items():
        if not (0 <= d <= D and 1 <= w <= K):
            raise InvalidInputError(
                f"Lambert coefficient at (d, w) = ({d}, {w}) lies outside "
                f"0 <= d <= {D}, 1 <= w <= {K}"
            )
        rmax = K // w if d == 0 else min(K // w, D // d)
        if rmax >= CHAIN_MULTIPLES:
            chains.setdefault(w, []).append((d, v, [(None, 0)] * w))
            b_sum += abs(v) * rmax
            continue
        for r in range(1, rmax + 1):
            terms = direct.setdefault(r * w, {})
            terms[r * d] = terms.get(r * d, 0) + v
    # (i, B_i sorted by degree) for each weight with terms
    steps = []
    for i in sorted(direct):
        b_sum += sum(map(abs, direct[i].values()))
        if terms := sorted(filter(operator.itemgetter(1), direct[i].items())):
            steps.append((i, terms))
    chains = {w: sorted(chains[w], key=operator.itemgetter(0)) for w in sorted(chains)}
    b_bits = b_sum.bit_length()

    cell = 1  # slot width in bytes
    rows = [1 << (8 * D)]  # the packed rows; A_0 = 1 is degree 0, the top slot
    guards = _guards(cell, D + 1, K)
    mask = _slot_tops(cell, D + 1, b_bits + 2)
    for k in range(1, K + 1):
        if rows[-1] & mask:  # the last row is the widest so far and outgrew the slots
            peak = max(_unpack([rows[-1]], cell, D + 1))
            wider = 2 * cell
            while b_bits + peak.bit_length() + 2 > 8 * wider:
                wider *= 2
            rows = [_widen(row, cell, wider) for row in rows]
            for weight_chains in chains.values():
                for _d, _v, ring in weight_chains:
                    ring[:] = [(j, _widen(sum_j, cell, wider)) for j, sum_j in ring]
            cell = wider
            guards = _guards(cell, D + 1, K)
            mask = _slot_tops(cell, D + 1, b_bits + 2)
        slot = 8 * cell
        total = 0
        for w, weight_chains in chains.items():  # by weight, each by degree
            if w > k:
                break
            total += _extend_chains(weight_chains, w, k - w, rows, slot)
        for i, terms in steps:
            if i > k:
                break
            prev = rows[k - i]
            for e, v in terms:  # by degree, so the first zero shift ends B_i
                shifted = prev >> (e * slot)
                if not shifted:
                    break
                total += v * shifted
        if not total:
            rows.append(0)
            continue
        q = _quotient(total, k, guards)
        if q is None:
            raise _broken_cell(total, k, cell, D)
        rows.append(q)
    chains = None  # free the running sums before the unpack
    # slot i of row k, degree D - i, is flat[k * (D + 1) + i]
    flat = _unpack(rows, cell, D + 1)
    return BiSeries(D, K, [flat[D - d :: D + 1] for d in range(D + 1)], is_algebra=True)


def _slot_tops(cell: int, slots: int, bits: int) -> int:
    """The top ``bits`` bits of each of ``slots`` ``cell``-byte slots (the
    whole slot when it is narrower)."""
    s = 8 * cell
    top = (1 << s) - (1 << max(s - bits, 0))
    return int.from_bytes(top.to_bytes(cell, "little") * slots, "little")


def _guards(cell: int, slots: int, K: int) -> list[int]:
    """Entry b, for b from 0 to bits(K): the top b + 1 bits of each of
    ``slots`` ``cell``-byte slots (the whole slot when it is narrower),
    the guard of a row k with bits(k) = b."""
    return [_slot_tops(cell, slots, b + 1) for b in range(K.bit_length() + 1)]


def _quotient(total: int, k: int, guards: list[int]) -> int | None:
    """``total`` / k, slot by slot, if every residual of the row sum
    ``total`` is a nonnegative multiple of ``k``, else None: the one test
    per row of :func:`free_commutative_from_beta`, with ``guards`` from
    :func:`_guards`."""
    q, rem = divmod(total, k)
    return None if rem or q < 0 or q & guards[k.bit_length()] else q


def _broken_cell(total: int, k: int, cell: int, D: int) -> IntegrityError:
    """The IntegrityError naming the lowest degree of the row sum
    ``total``, with slot i at degree D - i, whose residual is not a
    nonnegative multiple of ``k``; a row that failed :func:`_quotient`
    always has one.  The residuals are signed, so the slots are read with
    half a slot added to each, less half after reading, from the top."""
    half = 1 << (8 * cell - 1)
    signed = _unpack([total + _slot_tops(cell, D + 1, 1)], cell, D + 1)
    for d, v in enumerate(reversed(signed)):
        if v < half or (v - half) % k:
            return IntegrityError(
                f"free-algebra recurrence broke at (d, k) = ({d}, {k}): "
                f"residual {v - half} is not a nonnegative multiple of {k}",
                cell=(d, k),
            )


def _unpack(rows: list[int], cell: int, n: int) -> list[int]:
    """The ``n`` nonnegative ``cell``-byte slots of each of ``rows``, lowest
    first, row after row, in one list.  The rows are joined into one
    buffer, each freed from ``rows`` once copied, and the buffer is read at
    once: slots of 1, 2, 4 and 8 bytes in C as the native unsigned words
    B, H, I and Q, 16-byte slots as their low Q words, with the high word
    joined only where it is nonzero, and wider slots (or any slot on a
    big-endian host) one by one."""
    size = n * cell
    raw = bytearray(len(rows) * size)
    for i, row in enumerate(rows):
        raw[i * size : (i + 1) * size] = row.to_bytes(size, "little")
        rows[i] = 0
    if cell > 16 or sys.byteorder == "big":
        return [int.from_bytes(raw[i : i + cell], "little") for i in range(0, len(raw), cell)]
    words = memoryview(raw).cast("BHIQ"[min(cell, 8).bit_length() - 1])
    if cell < 16:
        return words.tolist()
    low, high = words[::2].tolist(), words[1::2]
    for i in compress(range(len(low)), high):
        low[i] |= high[i] << 64
    return low


def _extend_chains(
    chains: list[tuple[int, int, list]], w: int, j: int, rows: list[int], slot: int
) -> int:
    """Extend the running sums of the weight-``w`` chains, sorted by
    degree, to S_j = t^d R_j = (A_j + S_{j-w}) >> d slots and return the
    sum of their terms beta S_j.

    Each chain keeps S_j as (j, packed sum) in slot j % w of its ring,
    where S_{j+w} is built from it; a slot holding another index (None
    before the chain's first sum) means that sum is 0.  The lowest
    degree of t^d R_j rises with d, so the first chain whose S_j is 0
    ends the weight: every later one is 0 too, and its slot is left
    stale.
    """
    total = 0
    s = j % w
    for d, v, ring in chains:
        running = rows[j]
        index, prev = ring[s]
        if index == j - w:
            running += prev
        running >>= d * slot
        if not running:
            break
        ring[s] = (j, running)
        total += v * running
    return total


def _widen(packed: int, cell: int, wider: int) -> int:
    """``packed``, a row of ``cell``-byte slots, re-slotted at ``wider``
    >= ``cell`` bytes per slot.  Exact because every slot is nonnegative:
    byte b of each slot is copied, as one strided slice for all slots, to
    byte b of its wider slot, whose upper bytes stay zero."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * cell)) * cell, "little")
    out = bytearray(len(raw) // cell * wider)
    for b in range(cell):
        out[b::wider] = raw[b::cell]
    return int.from_bytes(out, "little")


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
