"""Product decomposition of configuration spaces with wedge labels, checked
as a Poincare-series identity.

For labels X_1 v ... v X_r the series of C((M,M0) x R; wedge) must agree
degreewise with the product over basic products w (a Hall-type basis of the
free Lie algebra on r letters) of the series of C((M_w, M0_w) x R; smash),
where the smash takes a_i copies of X_i (a_i = multiplicity of letter i in
w) and (M_w, M0_w) is a tubular neighbourhood of a diagonal: its relative
homology is that of (M, M0) shifted up by the codimension (l(w)-1)*m_dim,
a Thom-class identification that is unconditional mod 2.

The identity is a homotopy equivalence of spaces, not of filtered objects,
so only degreewise totals are compared; the weight gradings of the two
sides genuinely differ.  The factors of (M_w, M0_w) with the smash are
those of (M, M0) with its Thom-shifted module Sigma^((l-1)*m_dim) smash,
one for one (j = m_dim + 1 - q loops on Sigma^(q + (l-1)*m_dim) smash), so
every word goes through the wedge side's one factor plan.  The words fall
into classes keyed by that module: each class's factors are built once and
counted by the sum of its words' ``word.count``.  Each side is one free
algebra (see ``assemble``), whose degree totals one single-graded
``assemble._solve`` call gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .errors import InvalidInputError
from .loops import FieldChar, GradedBetti, normalize_betti, require_int, suspend_betti
from .assemble import _solve, product_generators
from .series import weight_log_derivative
from .witt import _divisor_sieve, _solve_cell


@dataclass(frozen=True)
class BasicWord:
    """Basic products with a fixed multiplicity vector over the letters."""

    multiplicities: tuple[int, ...]
    length: int
    count: int


def _multinomial(total: int, parts: tuple[int, ...]) -> int:
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def basic_words(r: int, max_length: int) -> list[BasicWord]:
    """All multiplicity vectors of basic products on r letters, with counts,
    for lengths 1..max_length.

    The counts solve the Witt recurrence with the multinomial word counts
    (periodic vectors come out as zero)."""
    if r < 1:
        raise InvalidInputError("need at least one letter")
    counts: dict[tuple[int, ...], int] = {}
    divisors = _divisor_sieve(max_length)
    words = []
    for length in range(1, max_length + 1):
        for slots in combinations_with_replacement(range(r), length):
            mult = tuple(slots.count(i) for i in range(r))
            count = _solve_cell(
                mult,
                _multinomial(length, mult),
                length,
                [
                    (k, counts.get(tuple(a // k for a in mult), 0))
                    for k in divisors[math.gcd(*mult)]
                ],
            )
            if count:
                counts[mult] = count
                words.append(BasicWord(mult, length, count))
    return words


def _smash_betti(x_list: list[GradedBetti], mult: tuple[int, ...]) -> GradedBetti:
    """Reduced Betti numbers of the smash of mult[i] copies of each X_i:
    the convolution of the reduced tables."""
    acc: GradedBetti = {0: 1}
    for x, a in zip(x_list, mult):
        for _ in range(a):
            nxt: GradedBetti = {}
            for d1, c1 in acc.items():
                for d2, c2 in x.items():
                    key = d1 + d2
                    nxt[key] = nxt.get(key, 0) + c1 * c2
            acc = nxt
    return acc


@dataclass
class HiltonReport:
    """Degreewise comparison of the wedge series against the basic-product
    decomposition."""

    passed: bool
    max_degree: int
    words_used: int
    first_mismatch: tuple[int, int, int] | None
    lhs_totals: list[int]
    rhs_totals: list[int]
    word_summary: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": "hilton_milnor",
            "status": "pass" if self.passed else "fail",
            "max_degree": self.max_degree,
            "words_used": self.words_used,
            "first_mismatch": self.first_mismatch,
            "lhs_totals": self.lhs_totals,
            "rhs_totals": self.rhs_totals,
            "words": self.word_summary,
        }


def hilton_milnor_check(
    m_dim: int,
    rel_betti: GradedBetti,
    x_list: list[GradedBetti],
    max_degree: int,
    char: FieldChar | None = None,
    orientable: bool = False,
) -> HiltonReport:
    """Verify the wedge-label decomposition degreewise up to max_degree.

    Runs over F2 by default, where the diagonal Thom shift needs no
    orientation hypothesis; pass char 0 together with orientable=True to
    run the same comparison rationally.  n is fixed at 1 (the decomposition
    concerns a single Euclidean factor).

    The basic-product side is solved only when its regraded
    :func:`weight_log_derivative` differs from the wedge side's; equal
    dicts give equal tables, so every report is the one that solving both
    sides gives.
    """
    require_int(max_degree, "max_degree")
    require_int(m_dim, "manifold dim")
    if not isinstance(orientable, bool):
        raise InvalidInputError("orientable must be a boolean")
    if char is None:
        char = FieldChar.mod2()
    if not isinstance(char, FieldChar):
        raise InvalidInputError(f"char must be a FieldChar; got {char!r}")
    if not char.is_two and not (char.is_zero and orientable):
        raise InvalidInputError(
            "the decomposition check runs mod 2, or rationally with "
            "orientable=True; other characteristics need orientation data"
        )
    if not isinstance(x_list, list) or not x_list:
        raise InvalidInputError("need a nonempty list of label spaces")
    x_list = [normalize_betti(x, min_degree=1) for x in x_list]
    for x in x_list:
        if not x:
            raise InvalidInputError("every label space must have reduced classes")
    rel = normalize_betti(rel_betti)
    if not rel or any(q > m_dim for q in rel):
        raise InvalidInputError("relative Betti data must be nonzero within 0..m_dim")

    D = max_degree
    bottoms = [min(x) for x in x_list]
    min_rel = min(rel)

    wedge: GradedBetti = {}
    for x in x_list:
        for d, c in x.items():
            wedge[d] = wedge.get(d, 0) + c

    # a word of length l first contributes in degree
    # (l-1)m + min_rel + l * min(bottoms), which must be at most D
    max_len = (D + m_dim - min_rel) // (min(bottoms) + m_dim)
    modules: dict[tuple, int] = {}
    summary = []
    for word in basic_words(len(x_list), max_len):
        shift = (word.length - 1) * m_dim
        # the smash's lowest degree sums its factors' lowest degrees
        low = shift + min_rel + sum(a * b for a, b in zip(word.multiplicities, bottoms))
        if low > D:
            continue
        module = suspend_betti(_smash_betti(x_list, word.multiplicities), shift)
        key = tuple(sorted(module.items()))
        modules[key] = modules.get(key, 0) + word.count
        summary.append(
            {
                "multiplicities": list(word.multiplicities),
                "length": word.length,
                "count": word.count,
                "lowest_degree": low,
            }
        )

    # both sides over the one factor plan of (m_dim, rel); weights are not
    # compared, and degree >= weight holds throughout, so K = D.  Each
    # generator (d, k) is regraded to (0, d), so the weight carries the
    # degree; with 1 <= k <= d the weight cap D cuts only products beyond
    # the degree cap, so the degree totals are the one row of the table
    lhs_generators, rhs_generators = (
        [
            (0, d, c * count, kind)
            for module, count in side.items()
            for d, _k, c, kind in product_generators(
                m_dim, rel, 1, dict(module), char, D, D
            )
        ]
        for side in ({tuple(wedge.items()): 1}, modules)
    )
    lhs_totals = _solve(0, D, lhs_generators).rows()[0]
    if weight_log_derivative(0, D, lhs_generators) == weight_log_derivative(
        0, D, rhs_generators
    ):
        rhs_totals = lhs_totals[:]
    else:
        rhs_totals = _solve(0, D, rhs_generators).rows()[0]
    first = None
    for d, (lv, rv) in enumerate(zip(lhs_totals, rhs_totals)):
        if lv != rv:
            first = (d, lv, rv)
            break
    return HiltonReport(
        passed=first is None,
        max_degree=D,
        words_used=len(summary),
        first_mismatch=first,
        lhs_totals=lhs_totals,
        rhs_totals=rhs_totals,
        word_summary=summary,
    )
