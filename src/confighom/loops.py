"""Weight-filtered Poincare series of iterated loop spaces on suspensions.

``factor_series(y, j, char, D, K)`` returns the series of the free
E_j-algebra on a connected graded module with reduced Betti numbers ``y``,
i.e. of H_*(Omega^j Sigma^j Y; F).  The weight grading is the configuration
length filtration: letters have weight 1, a bracket of length l has weight
l, and each Dyer-Lashof operation multiplies the weight by the prime.

The generator grammar: char 0 has the basic Browder-bracket products
alone.  In char p every basic product w feeds admissible words of units
(b, eps), applied first to last, under one move rule: Q_b sends degree d
to p*d + b(p-1) and weight k to p*k, followed at odd p only by eps in
{0, 1} Bockstein steps down by 1 (eps = 0 at p = 2).  The indices satisfy
1 <= b <= j-1 and b_{t+1} <= b_t - eps_t between consecutive units, and
at odd p b is congruent to the current degree mod 2.  Atoms carry no
standalone Bockstein (inputs behave like wedges of spheres).

For j >= 1 the series is that of the free graded-commutative algebra on
the census, solved by ``series.free_commutative``.  At j = 1 the census is
the basic products alone (no operation index lies in 1..j-1), and by
Poincare-Birkhoff-Witt the tensor algebra has the series of the free
commutative algebra on them.

Basic products are counted by the Witt inversion in a shifted grading
where every letter is raised by j-1 (making the degree-(j-1) bracket
degree-preserving); the sign convention of the count uses that shifted
degree, while the exterior/polynomial split of the resulting algebra uses
the actual degree.  Sigma^q y at j - q loops has the same shifted letters
for every q, so its basic products are those of y at j raised by q
degrees.

Per factor plan the engine (``assemble.plan_generators``) calls
:func:`atom_census` once, its one Witt solve, and then
:func:`raised_generators` once per factor on the atoms' entries: raise,
close under operations and tag on a plain ``(degree, weight) -> count``
dict, sorted once.  No table is built per factor.
:func:`generator_census`, :func:`factor_generators` and
:func:`factor_series` are wrappers over the same census for the tracer
and the tests; the engine calls none of them.  Nothing here keeps state
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidInputError
from .series import BiSeries, EXTERIOR, POLYNOMIAL, free_commutative
from .witt import DegreeWeightTable, lie_atom_counts

GradedBetti = dict[int, int]

# fields of characteristic below this limit are accepted, so that
# Miller-Rabin over the first twelve primes decides primality exactly
FIELD_LIMIT = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def require_int(value: object, what: str, minimum: int = 0) -> int:
    """``value`` if it is an int (a bool is not) of at least ``minimum``;
    otherwise InvalidInputError.  The one test of what counts as an int."""
    if type(value) is not int or value < minimum:
        raise InvalidInputError(f"{what} must be an int >= {minimum}")
    return value


def int_from_text(text: str) -> int:
    """The int ``text`` spells as an optional '-' and ASCII digits, and
    nothing else (no '+', space, '_' or other digit); otherwise ValueError.
    The one rule for reading an int from text."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an int: {text!r}")
    return int(text)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2..37, exact for n < 2**64."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldChar:
    """Characteristic of the coefficient field: 0, 2, or an odd prime
    below :data:`FIELD_LIMIT`."""

    p: int

    def __post_init__(self):
        require_int(self.p, "characteristic")
        if self.p == 0 or self.p == 2:
            return
        if self.p >= FIELD_LIMIT:
            raise InvalidInputError(
                f"characteristic {self.p} is not below the limit 2**64"
            )
        if self.p < 3 or not _is_prime(self.p):
            raise InvalidInputError(f"{self.p} is not 0, 2 or an odd prime")

    @classmethod
    def rational(cls) -> "FieldChar":
        return cls(0)

    @classmethod
    def mod2(cls) -> "FieldChar":
        return cls(2)

    @classmethod
    def odd(cls, p: int) -> "FieldChar":
        if isinstance(p, int) and (p < 3 or p % 2 == 0):
            raise InvalidInputError(f"odd characteristic must be an odd prime, got {p}")
        return cls(p)

    @classmethod
    def from_name(cls, name: str) -> "FieldChar":
        if not isinstance(name, str):
            raise InvalidInputError(f"field name must be a str; got {name!r}")
        if name == "Q":
            return cls.rational()
        if name == "F2":
            return cls.mod2()
        if name.startswith("Fp:"):
            try:
                return cls.odd(int_from_text(name[3:]))
            except ValueError as exc:
                raise InvalidInputError(f"cannot parse field name {name!r}") from exc
        raise InvalidInputError(
            f"unknown field name {name!r}; expected 'Q', 'F2' or 'Fp:<p>'"
        )

    @property
    def name(self) -> str:
        if self.p == 0:
            return "Q"
        if self.p == 2:
            return "F2"
        return f"Fp:{self.p}"

    @property
    def is_two(self) -> bool:
        return self.p == 2

    @property
    def is_zero(self) -> bool:
        return self.p == 0


def normalize_betti(betti: Mapping[int, int], *, min_degree: int = 0) -> GradedBetti:
    """Validate and copy a degree -> dimension map, dropping zeros.  Its
    exact-type test is :func:`require_int`'s, inlined on a hot path."""
    message = "Betti data must map int degrees to int counts"
    try:
        pairs = betti.items()
    except AttributeError:
        raise InvalidInputError(message) from None
    out: GradedBetti = {}
    for d, c in pairs:
        if type(d) is not int or type(c) is not int:
            raise InvalidInputError(message)
        if c < 0:
            raise InvalidInputError(f"negative Betti number {c} in degree {d}")
        if d < min_degree:
            raise InvalidInputError(
                f"degree {d} class not allowed here (need degrees >= {min_degree})"
            )
        if c:
            out[d] = out.get(d, 0) + c
    return out


def suspend_betti(x: GradedBetti, q: int) -> GradedBetti:
    """Reduced Betti numbers of the q-fold suspension: shift degrees up by q."""
    if q < 0:
        raise InvalidInputError("suspension count must be >= 0")
    return {d + q: c for d, c in x.items()}


def atom_census(
    y: GradedBetti,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> DegreeWeightTable:
    """Counts of basic bracket products, by (actual degree, bracket
    length), for the degree-(j-1) bracket on ``y``, degree-0 classes
    included (the free E_j-algebra theorem_b needs).

    Computed by regrading every generator up by j-1, running the Witt count
    in that shifted grading (signed unless char is 2, where the self
    bracket vanishes in the free object), and shifting atom degrees back
    down: a length-l shifted word of degree d' is an actual word of degree
    d' - (j-1).  Hence the census of Sigma y at j - 1 is this one raised
    by one degree, which is how ``assemble`` serves a whole factor plan
    from one call.
    """
    if j < 1:
        raise InvalidInputError("atom census needs j >= 1")
    y = normalize_betti(y)
    shift = j - 1
    shifted = lie_atom_counts(
        {d + shift: c for d, c in y.items()},
        not char.is_two,
        max_degree + shift,
        max_weight,
    )
    return DegreeWeightTable(
        max_degree,
        max_weight,
        {(d - shift, l): c for (d, l), c in shifted.entries.items()},
    )


def _closed_census(
    atoms: Mapping[tuple[int, int], int],
    rise: int,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> dict[tuple[int, int], int]:
    """The ``(degree, weight) -> count`` map of ``atoms`` raised by ``rise``
    degrees, cut to the caps and closed under admissible operation words,
    as a new dict.

    Characteristic 0 applies no operations.  Otherwise states aggregate by
    (degree, weight, largest index the next operation may use); every
    operation strictly raises degree, so the frontier dies within caps.
    """
    if j < 1:
        raise InvalidInputError("generator census needs j >= 1")
    census = {
        (d + rise, k): c
        for (d, k), c in atoms.items()
        if d + rise <= max_degree and k <= max_weight
    }
    if char.is_zero:
        return census

    p = char.p
    steps = (0,) if p == 2 else (0, 1)  # the Bockstein steps after Q_b
    frontier = {(d, k, j - 1): c for (d, k), c in census.items()}
    while frontier:
        nxt: dict[tuple[int, int, int], int] = {}
        for (d, k, bmax), c in frontier.items():
            nk = p * k
            if nk > max_weight:
                continue
            for b in range(1, bmax + 1):
                base = p * d + b * (p - 1)
                # the lowest move of index b only rises with b, so the
                # first b that lands past the degree cap ends the indices
                if base - steps[-1] > max_degree:
                    break
                if p != 2 and (b - d) % 2:
                    continue
                for eps in steps:
                    nd = base - eps
                    if nd > max_degree:
                        continue
                    census[(nd, nk)] = census.get((nd, nk), 0) + c
                    if b > eps:
                        key = (nd, nk, b - eps)
                        nxt[key] = nxt.get(key, 0) + c
        frontier = nxt
    return census


def raised_generators(
    atoms: Mapping[tuple[int, int], int],
    rise: int,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> list[tuple[int, int, int, str]]:
    """Generators ``(degree, weight, count, kind)``, in increasing (degree,
    weight), of the free E_j-algebra whose basic products are ``atoms`` (a
    ``(degree, length) -> count`` map, such as an :func:`atom_census`'s
    entries) raised by ``rise`` degrees, as a free graded-commutative
    algebra, j >= 1: their census, each entry tagged polynomial in
    characteristic 2 or in even degree, exterior otherwise.

    This is what ``assemble`` calls per factor, on one atom census per
    plan; it builds no table.  :func:`generator_census` and
    :func:`factor_generators` are the same census on a table."""
    polynomial_only = char.is_two
    return [
        (d, k, c, POLYNOMIAL if polynomial_only or d % 2 == 0 else EXTERIOR)
        for (d, k), c in sorted(
            _closed_census(atoms, rise, j, char, max_degree, max_weight).items()
        )
    ]


def generator_census(
    atoms: DegreeWeightTable,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> DegreeWeightTable:
    """Close the atoms under admissible operation words, as a table: the
    census :func:`raised_generators` tags, at rise 0."""
    return DegreeWeightTable(
        max_degree,
        max_weight,
        _closed_census(atoms.entries, 0, j, char, max_degree, max_weight),
    )


def factor_generators(
    atoms: DegreeWeightTable,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> tuple[tuple[int, int, int, str], ...]:
    """:func:`raised_generators` of the table ``atoms`` (an
    :func:`atom_census`) at rise 0, as a tuple."""
    return tuple(raised_generators(atoms.entries, 0, j, char, max_degree, max_weight))


def factor_series(
    y: GradedBetti,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> BiSeries:
    """Poincare series of H_*(Omega^j Sigma^j Y), Y connected with reduced
    Betti data ``y``, j >= 1: the free graded-commutative algebra on
    :func:`factor_generators` (for j = 1 the tensor algebra, by PBW), solved
    by :func:`~confighom.series.free_commutative` from k A_k = sum_i
    B_i A_{k-i} with B = u d/du log A, which raises IntegrityError naming
    the cell (d, k) whose residual is negative or not a multiple of k.
    """
    if j < 1:
        raise InvalidInputError("loop count j must be >= 1")
    y = normalize_betti(y, min_degree=1)
    atoms = atom_census(y, j, char, max_degree, max_weight)
    return free_commutative(
        max_degree,
        max_weight,
        factor_generators(atoms, j, char, max_degree, max_weight),
    )
