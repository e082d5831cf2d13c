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
into classes keyed by that module, each counted by the sum of its words'
``word.count``; the wedge is one more module, of the left-hand side, with
count 1.  The modules of both sides fall in turn into suspension classes:
modules equal up to a uniform degree shift Delta >= 0, with Delta even
unless the field is F2.  A generator of weight k is built from k letters,
so the census of Sigma^Delta Y is that of Y with each weight-k generator
raised by k*Delta, its weight and kind unchanged; an odd Delta over Q
swaps the parity of every letter, and with it which brackets and squares
survive, so there the parity of the lowest degree is part of the class.
Each suspension class is solved once, on its lowest module, and the rest
of the class raises that census (``check:ab`` checks the case Delta = 2).
Each side is one free algebra (see ``assemble``), whose degree totals one
single-graded ``assemble._solve`` call gives, on the side's Lambert
coefficients.

The basic words themselves come from the engine's one Witt kernel: one
unsigned ``witt.lie_atom_counts`` solve on letters whose degrees spell
multiplicity vectors in a base above the longest word.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .loops import FieldChar, GradedBetti, normalize_betti, require_int, suspend_betti
from .assemble import _solve, product_generators
from .record import FrozenRecord, Record
from .series import require_indexable_caps, weight_log_derivative
from .witt import lie_atom_counts


class BasicWord(FrozenRecord):
    """Basic products with a fixed multiplicity vector over the letters."""

    __slots__ = ("multiplicities", "length", "count")

    def __init__(
        self, multiplicities: tuple[int, ...], length: int, count: int
    ) -> None:
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "count", count)


def basic_words(r: int, max_length: int) -> list[BasicWord]:
    """All multiplicity vectors of basic products on r letters, with counts,
    for lengths 1..max_length, by length and then by decreasing vector.

    One unsigned :func:`~confighom.witt.lie_atom_counts` solve on letters
    in degrees B^(r-1-i), B = max_length + 1: a word's degree spells its
    multiplicity vector in base B, with no carries since no multiplicity
    reaches B, and r*a spells r times the vector a spells, so every divisor
    term of the Witt recurrence lands on its own vector (periodic vectors
    come out as zero)."""
    require_int(r, "letter count", minimum=1)
    require_int(max_length, "max_length")
    base = max_length + 1
    digits = [base ** (r - 1 - i) for i in range(r)]
    atoms = lie_atom_counts(
        {b: 1 for b in digits}, False, max_length * digits[0], max_length
    ).entries
    return [
        BasicWord(tuple(d // b % base for b in digits), length, atoms[d, length])
        for d, length in sorted(atoms, key=lambda cell: (cell[1], -cell[0]))
    ]


def _smash_betti(
    x_list: list[GradedBetti],
    mult: tuple[int, ...],
    smashes: dict[tuple[int, ...], GradedBetti] | None = None,
) -> GradedBetti:
    """Reduced Betti numbers of the smash of mult[i] copies of each X_i:
    the convolution of the reduced tables.

    ``smashes`` keeps the smash of every multiplicity vector met so far, so
    a word's smash is a shorter word's convolved with one letter."""
    if not any(mult):
        return {0: 1}
    if smashes is None:
        smashes = {}
    out = smashes.get(mult)
    if out is None:
        i = max(i for i, a in enumerate(mult) if a)
        shorter = _smash_betti(x_list, mult[:i] + (mult[i] - 1,) + mult[i + 1:], smashes)
        out = {}
        for d1, c1 in shorter.items():
            for d2, c2 in x_list[i].items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        smashes[mult] = out
    return out


class HiltonReport(Record):
    """Degreewise comparison of the wedge series against the basic-product
    decomposition."""

    __slots__ = (
        "passed", "max_degree", "words_used", "first_mismatch",
        "lhs_totals", "rhs_totals", "word_summary",
    )

    def __init__(
        self,
        passed: bool,
        max_degree: int,
        words_used: int,
        first_mismatch: tuple[int, int, int] | None,
        lhs_totals: list[int],
        rhs_totals: list[int],
        word_summary: list[dict] | None = None,
    ) -> None:
        self.passed = passed
        self.max_degree = max_degree
        self.words_used = words_used
        self.first_mismatch = first_mismatch
        self.lhs_totals = lhs_totals
        self.rhs_totals = rhs_totals
        self.word_summary = [] if word_summary is None else word_summary

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

    Both sides are multisets of modules: the wedge once on the left, and
    each word's Thom-shifted smash, weighted by its count, on the right.
    One ``product_generators`` call serves each suspension class of all of
    them.  Over F2 sphere labels need two calls, the wedge's class and the
    one sphere class, and a single label one, since the wedge is then the
    module of its only word.

    Each side's regraded generators are folded once by
    :func:`weight_log_derivative`, and the kernel solves that dict.  The
    basic-product side is solved only when its dict differs from the
    wedge side's; equal dicts give equal tables, so every report is the
    one that solving both sides gives.
    """
    require_indexable_caps(require_int(max_degree, "max_degree"))
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
    smashes: dict[tuple[int, ...], GradedBetti] = {}
    summary = []
    for word in basic_words(len(x_list), max_len):
        shift = (word.length - 1) * m_dim
        # the smash's lowest degree sums its factors' lowest degrees
        low = shift + min_rel + sum(a * b for a, b in zip(word.multiplicities, bottoms))
        if low > D:
            continue
        module = suspend_betti(_smash_betti(x_list, word.multiplicities, smashes), shift)
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

    # suspension classes of both sides' modules: a module's shape above its
    # lowest degree, and over Q that degree's parity, since only an even
    # shift raises a census
    classes: dict[tuple, list[tuple[int, int, int]]] = {}
    for side, counted in enumerate([{tuple(sorted(wedge.items())): 1}, modules]):
        for key, count in counted.items():
            low = key[0][0]
            shape = tuple((d - low, c) for d, c in key)
            parity = 0 if char.is_two else low % 2
            classes.setdefault((shape, parity), []).append((side, low, count))

    # both sides over the one factor plan of (m_dim, rel); weights are not
    # compared, and degree >= weight holds throughout, so K = D.  Each
    # generator (d, k) is regraded to (0, d), so the weight carries the
    # degree; with 1 <= k <= d the weight cap D cuts only products beyond
    # the degree cap, so the degree totals are the one row of the table.
    # A class's census is solved on its lowest module, and a module Delta
    # above it raises each weight-k generator by k * Delta
    sides: tuple[list, list] = ([], [])
    for (shape, _parity), members in classes.items():
        base = min(low for _side, low, _count in members)
        census = product_generators(
            m_dim, rel, 1, {base + d: c for d, c in shape}, char, D, D
        )
        for side, low, count in members:
            delta = low - base
            sides[side].extend(
                (0, d + k * delta, c * count, kind)
                for d, k, c, kind in census
                if d + k * delta <= D
            )
    lhs_beta = weight_log_derivative(0, D, sides[0])
    lhs_totals = _solve(0, D, lhs_beta).rows()[0]
    rhs_beta = weight_log_derivative(0, D, sides[1])
    if rhs_beta == lhs_beta:
        rhs_totals = lhs_totals[:]
    else:
        rhs_totals = _solve(0, D, rhs_beta).rows()[0]
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
