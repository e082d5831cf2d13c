"""Weight-filtered Poincare series of iterated loop spaces on suspensions.

``factor_series(y, j, char, D, K)`` returns the series of the free
E_j-algebra on a connected graded module with reduced Betti numbers ``y``,
i.e. of H_*(Omega^j Sigma^j Y; F).  The weight grading is the configuration
length filtration: letters have weight 1, a bracket of length l has weight
l, and each Dyer-Lashof operation multiplies the weight by the prime.

The generator grammar, by characteristic:

* char 0: generators are the basic Browder-bracket products alone.
* char 2: every basic product w feeds admissible words Q_{b_s}...Q_{b_1} w,
  applied b_1 first with j-1 >= b_1 >= b_2 >= ... >= b_s >= 1; the
  operation in lower index b sends degree d to 2d + b.
* odd p: units (b, eps) with Q_b sending d to p*d + b(p-1) followed by eps
  Bockstein steps down by 1; constraints 1 <= b <= j-1, b congruent to the
  current degree mod 2, and b_{t+1} <= b_t - eps_t between consecutive
  units.  Atoms carry no standalone Bockstein (inputs behave like wedges
  of spheres).

For j >= 1 the series is that of the free graded-commutative algebra on
the census, solved by ``series.free_commutative``.  At j = 1 the census is
the basic products alone (no operation index lies in 1..j-1), and by
Poincare-Birkhoff-Witt the tensor algebra has the series of the free
commutative algebra on them.

Basic products are counted by the Witt inversion in a shifted grading
where every letter is raised by j-1 (making the degree-(j-1) bracket
degree-preserving); the sign convention of the count uses that shifted
degree, while the exterior/polynomial split of the resulting algebra uses
the actual degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidInputError
from .series import BiSeries, EXTERIOR, POLYNOMIAL, free_commutative
from .witt import DegreeWeightTable, lie_atom_counts

GradedBetti = dict[int, int]

# counts of basic bracket products by (actual degree, bracket length)
AtomTable = DegreeWeightTable
# counts of free-commutative-algebra generators by (degree, weight)
GeneratorCensus = DegreeWeightTable


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


@dataclass(frozen=True)
class FieldChar:
    """Characteristic of the coefficient field: 0, 2, or an odd prime."""

    p: int

    def __post_init__(self):
        if self.p == 0 or self.p == 2:
            return
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
        if p < 3 or p % 2 == 0:
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
                return cls.odd(int(name[3:]))
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
    """Validate and copy a degree -> dimension map, dropping zeros."""
    out: GradedBetti = {}
    for d, c in betti.items():
        if not isinstance(d, int) or not isinstance(c, int):
            raise InvalidInputError("Betti data must map int degrees to int counts")
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


# memos of atom_census and factor_generators, each cleared when full
_FACTOR_CACHE_LIMIT = 512
_witt_cache: dict[tuple, DegreeWeightTable] = {}


def _shifted_atoms(
    letters: GradedBetti, signed: bool, max_degree: int, max_weight: int
) -> DegreeWeightTable:
    """``lie_atom_counts`` of the shifted letters, at least up to degree
    ``max_degree``.

    Factor q of a plan raises the letters of Sigma^q X by j - 1 = m_dim +
    n - q - 1, so every factor sees the same shifted letters.  One table
    per (letters, signed, max_weight) serves any degree cap up to the one
    it was solved at (the caller filters); a larger cap solves it again.
    """
    key = (tuple(sorted(letters.items())), signed, max_weight)
    table = _witt_cache.get(key)
    if table is None or table.max_degree < max_degree:
        gens = DegreeWeightTable.from_generators(letters, max_degree, max_weight)
        table = lie_atom_counts(gens, signed=signed)
        if len(_witt_cache) >= _FACTOR_CACHE_LIMIT:
            _witt_cache.clear()
        _witt_cache[key] = table
    return table


def atom_census(
    y: GradedBetti,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> AtomTable:
    """Counts of basic bracket products for the degree-(j-1) bracket.

    Computed by regrading every generator up by j-1, running the Witt count
    in that shifted grading (signed unless char is 2, where the self
    bracket vanishes in the free object), and shifting atom degrees back
    down: a length-l shifted word of degree d' is an actual word of degree
    d' - (j-1).  The shifted table is shared through :func:`_shifted_atoms`.
    """
    if j < 1:
        raise InvalidInputError("atom census needs j >= 1")
    y = normalize_betti(y, min_degree=1)
    shift = j - 1
    shifted = _shifted_atoms(
        {d + shift: c for d, c in y.items()},
        not char.is_two,
        max_degree + shift,
        max_weight,
    )
    return DegreeWeightTable(
        max_degree,
        max_weight,
        {
            (d - shift, l): c
            for d, l, c in shifted.items()
            if d - shift <= max_degree
        },
    )


def generator_census(
    atoms: AtomTable,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> GeneratorCensus:
    """Close the atoms under admissible operation words.

    Characteristic 0 applies no operations.  Otherwise states aggregate by
    (degree, weight, largest index the next operation may use); every
    operation strictly raises degree, so the frontier dies within caps.
    """
    if j < 1:
        raise InvalidInputError("generator census needs j >= 1")
    census: dict[tuple[int, int], int] = {}
    for d, k, c in atoms.items():
        if d <= max_degree and k <= max_weight:
            census[(d, k)] = census.get((d, k), 0) + c
    if char.is_zero:
        return DegreeWeightTable(max_degree, max_weight, census)

    p = char.p
    frontier: dict[tuple[int, int, int], int] = {}
    for (d, k), c in census.items():
        frontier[(d, k, j - 1)] = frontier.get((d, k, j - 1), 0) + c
    while frontier:
        nxt: dict[tuple[int, int, int], int] = {}
        for (d, k, bmax), c in frontier.items():
            for b in range(1, bmax + 1):
                if p == 2:
                    moves = [(2 * d + b, 2 * k, b)]
                else:
                    if (b - d) % 2:
                        continue
                    base = p * d + b * (p - 1)
                    moves = [(base, p * k, b), (base - 1, p * k, b - 1)]
                for nd, nk, nb in moves:
                    if nd > max_degree or nk > max_weight:
                        continue
                    census[(nd, nk)] = census.get((nd, nk), 0) + c
                    if nb >= 1:
                        key = (nd, nk, nb)
                        nxt[key] = nxt.get(key, 0) + c
        frontier = nxt
    return DegreeWeightTable(max_degree, max_weight, census)


_factor_cache: dict[tuple, tuple[tuple[int, int, int, str], ...]] = {}


def factor_generators(
    y: GradedBetti,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> tuple[tuple[int, int, int, str], ...]:
    """Generators ``(degree, weight, count, kind)`` of H_*(Omega^j Sigma^j Y)
    as a free graded-commutative algebra, j >= 1: the generator census of
    the atoms, each entry tagged polynomial in characteristic 2 or in even
    degree, exterior otherwise.  Cached by (y, j, characteristic, caps)."""
    y = normalize_betti(y, min_degree=1)
    key = (tuple(sorted(y.items())), j, char.p, max_degree, max_weight)
    cached = _factor_cache.get(key)
    if cached is not None:
        return cached
    atoms = atom_census(y, j, char, max_degree, max_weight)
    census = generator_census(atoms, j, char, max_degree, max_weight)
    result = tuple(
        (d, k, c, POLYNOMIAL if char.is_two or d % 2 == 0 else EXTERIOR)
        for d, k, c in census.items()
    )
    if len(_factor_cache) >= _FACTOR_CACHE_LIMIT:
        _factor_cache.clear()
    _factor_cache[key] = result
    return result


def factor_series(
    y: GradedBetti,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> BiSeries:
    """Poincare series of the free E_j-algebra on reduced Betti data ``y``.

    * j = 0: the module 1 + sum y_d t^d u (every reduced class at weight 1).
    * j >= 1: free graded-commutative algebra on :func:`factor_generators`
      (for j = 1 the tensor algebra, by PBW), solved by
      :func:`~confighom.series.free_commutative` from k A_k = sum_i
      B_i A_{k-i} with B = u d/du log A, which raises IntegrityError naming
      the cell (d, k) whose residual is negative or not a multiple of k.
    """
    if j < 0:
        raise InvalidInputError("loop count j must be >= 0")
    if j >= 1:
        return free_commutative(
            max_degree,
            max_weight,
            factor_generators(y, j, char, max_degree, max_weight),
        )
    entries = {(0, 0): 1}
    for d, c in normalize_betti(y).items():
        if d <= max_degree and 1 <= max_weight:
            entries[(d, 1)] = entries.get((d, 1), 0) + c
    return BiSeries.from_entries(max_degree, max_weight, entries)
