"""Independent verification path: explicit generator enumeration and a
catalog of classical closed-form series.

Nothing here touches the Witt inversion or the census worklist.  Basic
bracket products are enumerated as Lyndon words over the (shifted-graded)
alphabet of letters, bracketed by standard factorization, with the square
[w, w] adjoined for every word of odd shifted degree in the signed
characteristics; operation words are grown by exhaustive search with the
same admissibility grammar the engine documents.  Counting both ways and
comparing is the point: the two implementations share only the grammar,
not code.

The closed-form catalog is computed with coin/subset dynamic programming
from generator lists written down from the literature: it calls neither
the series kernel nor the census, and takes only :class:`BiSeries` and
the field and Betti types from the engine.  Most catalog entries are
degreewise and park their dimensions at weight 0; ``james``,
``stunted_weight2``, ``even_sphere_split`` and ``braid`` carry a weight
grading, and ``even_sphere_split`` and ``braid`` run their coin DP over
both gradings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ConfigurationError, InvalidInputError
from .loops import FieldChar, GradedBetti, normalize_betti
from .series import BiSeries


@dataclass(frozen=True)
class GeneratorDescriptor:
    """One explicit free-algebra generator: a bracket word plus an
    admissible operation word.

    ``letter_degrees`` lists the actual degrees of the letters in word
    order; ``ops`` lists (index, bockstein) units in application order.
    Degree and weight are stored as computed and must be reproducible from
    the data (checked in the test suite).
    """

    bracket: str
    letter_degrees: tuple[int, ...]
    ops: tuple[tuple[int, int], ...]
    degree: int
    weight: int


def _lyndon_words(
    degrees: tuple[int, ...], max_total: int, max_length: int
) -> Iterator[tuple[int, ...]]:
    """All Lyndon words over alphabet indices 0..len(degrees)-1 whose total
    letter degree stays within max_total.  Brute force by design."""

    def grow(word: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
        if word:
            rotations = [word[i:] + word[:i] for i in range(1, len(word))]
            if all(word < rot for rot in rotations):
                yield word
        if len(word) == max_length:
            return
        for letter, deg in enumerate(degrees):
            if total + deg <= max_total:
                yield from grow(word + (letter,), total + deg)

    yield from grow((), 0)


def _standard_bracketing(word: tuple[int, ...], names: list[str]) -> str:
    if len(word) == 1:
        return names[word[0]]
    # longest proper Lyndon suffix gives the standard factorization
    for i in range(1, len(word)):
        suffix = word[i:]
        if all(suffix < suffix[t:] + suffix[:t] for t in range(1, len(suffix))):
            left = _standard_bracketing(word[:i], names)
            right = _standard_bracketing(suffix, names)
            return f"[{left},{right}]"
    raise AssertionError("every Lyndon word of length >= 2 factors")


def _operation_words(
    p: int, j: int, degree: int, max_degree: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All admissible operation words on a class of the given degree,
    pruned by degree only (weights are checked by the caller)."""

    def grow(
        ops: tuple[tuple[int, int], ...], d: int, bmax: int
    ) -> Iterator[tuple[tuple[int, int], ...]]:
        if ops:
            yield ops
        for b in range(1, bmax + 1):
            if p == 2:
                nd = 2 * d + b
                if nd <= max_degree:
                    yield from grow(ops + ((b, 0),), nd, b)
            else:
                if (b - d) % 2:
                    continue
                base = p * d + b * (p - 1)
                for eps in (0, 1):
                    nd = base - eps
                    if nd <= max_degree:
                        yield from grow(ops + ((b, eps),), nd, b - eps)

    yield from grow((), degree, j - 1)


def _op_result(p: int, degree: int, weight: int, ops) -> tuple[int, int]:
    for b, eps in ops:
        degree = p * degree + b * (p - 1) - eps
        weight *= p
    return degree, weight


def enumerate_generators(
    y: GradedBetti,
    j: int,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> list[GeneratorDescriptor]:
    """Explicit witnesses behind the generator census, within the caps.

    Intended for modest caps (degrees up to roughly 25): the enumeration is
    exhaustive on purpose.
    """
    if j < 2:
        raise InvalidInputError("generator enumeration needs j >= 2")
    y = normalize_betti(y, min_degree=1)
    shift = j - 1
    letters: list[int] = []  # actual degree per alphabet symbol
    for d in sorted(y):
        letters.extend([d] * y[d])
    names = [f"x{i + 1}" for i in range(len(letters))]
    shifted = tuple(d + shift for d in letters)

    atoms: list[tuple[str, tuple[int, ...], int, int]] = []
    max_len = min(max_weight, max_degree + shift)
    for word in _lyndon_words(shifted, max_degree + shift, max_len):
        sh_deg = sum(shifted[i] for i in word)
        actual = sh_deg - shift
        letter_degs = tuple(letters[i] for i in word)
        if actual <= max_degree:
            atoms.append(
                (_standard_bracketing(word, names), letter_degs, actual, len(word))
            )
        if not char.is_two and sh_deg % 2 == 1:
            sq_actual = 2 * sh_deg - shift
            if sq_actual <= max_degree and 2 * len(word) <= max_weight:
                inner = _standard_bracketing(word, names)
                atoms.append(
                    (f"[{inner},{inner}]", letter_degs * 2, sq_actual, 2 * len(word))
                )

    out: list[GeneratorDescriptor] = []
    for bracket, letter_degs, degree, length in atoms:
        if length <= max_weight:
            out.append(
                GeneratorDescriptor(bracket, letter_degs, (), degree, length)
            )
        if char.is_zero:
            continue
        for ops in _operation_words(char.p, j, degree, max_degree):
            nd, nk = _op_result(char.p, degree, length, ops)
            if nd <= max_degree and nk <= max_weight:
                out.append(
                    GeneratorDescriptor(bracket, letter_degs, ops, nd, nk)
                )
    out.sort(key=lambda g: (g.degree, g.weight, g.bracket, g.ops))
    return out


def census_from_descriptors(
    descriptors: list[GeneratorDescriptor],
) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for g in descriptors:
        key = (g.degree, g.weight)
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- closed-form catalog ---------------------------------------------------


def _bigraded_counts(
    poly: list[tuple[int, int]],
    ext: list[tuple[int, int]],
    max_degree: int,
    max_weight: int,
) -> list[list[int]]:
    """Monomial counts [degree][weight] of a polynomial algebra on ``poly``
    tensor an exterior algebra on ``ext``, parts given as (degree, weight),
    never both 0.  Parts of weight 0 give a degreewise count, read from
    column 0 by :func:`_degreewise`."""
    dp = [[0] * (max_weight + 1) for _ in range(max_degree + 1)]
    dp[0][0] = 1
    # ascending cells reuse a part any number of times, descending ones once
    for deg, wt in poly:
        for d in range(deg, max_degree + 1):
            for k in range(wt, max_weight + 1):
                dp[d][k] += dp[d - deg][k - wt]
    for deg, wt in ext:
        for d in range(max_degree, deg - 1, -1):
            for k in range(max_weight, wt - 1, -1):
                dp[d][k] += dp[d - deg][k - wt]
    return dp


def _degreewise(
    poly: list[int], ext: list[int], max_degree: int, max_weight: int
) -> BiSeries:
    """The degreewise monomial counts of a polynomial algebra on ``poly``
    tensor an exterior algebra on ``ext`` (part degrees >= 1), at weight 0."""
    counts = _bigraded_counts(
        [(d, 0) for d in poly], [(d, 0) for d in ext], max_degree, 0
    )
    entries = {(d, 0): row[0] for d, row in enumerate(counts) if row[0]}
    return BiSeries.from_entries(max_degree, max_weight, entries)


def classical_series(
    name: str,
    params: Mapping[str, object] | None,
    max_degree: int,
    max_weight: int,
) -> BiSeries:
    """Ground-truth series from the literature.

    names: james(d); omega2_s3_mod2; omega2_s3_modp(p);
    rational_loops_sphere(j, m) for j in {1, 2} and m >= 2;
    stunted_weight2(d, j); even_sphere_split(k, field); braid(field).

    ``braid`` is the homology of all braid groups at once, H_*(B_k(R^2))
    at weight k, which is H_*(C(R^2; S^0)):

    * F2: F2[x_i] with x_i in degree 2^i - 1, weight 2^i (Fuks 1970);
    * odd p: F_p[x_0] tensor the exterior algebra on lambda (degree 1,
      weight 2) and the xi_i (degree 2p^i - 1, weight 2p^i, i >= 1) tensor
      F_p[beta xi_i] (degree 2p^i - 2) (F. Cohen, LNM 533, 1976);
    * Q: Q[x_0] tensor the exterior algebra on lambda (Arnold 1969).

    ``even_sphere_split`` is H_*(Omega^2 S^(2k)) through the splitting
    Omega^2 S^(2k) = Omega S^(2k-1) x Omega^2 S^(4k-1): James' polynomial
    generator (2k - 2, 1) tensor H_*(Omega^2 S^(4k-1)) (F. Cohen, LNM 533,
    1976), its bottom class at weight 1, so m = 4k - 2:

    * F2: polynomial on (2^i m - 1, 2^i), i >= 0;
    * odd p: exterior on (p^i m - 1, p^i), i >= 0, tensor polynomial on
      (p^i m - 2, p^i), i >= 1;
    * Q: exterior on (m - 1, 1).
    """
    params = dict(params or {})
    D, K = max_degree, max_weight

    if name == "james":
        d = int(params.pop("d"))
        if d < 1:
            raise InvalidInputError("james needs d >= 1")
        _done(params, name)
        return BiSeries.from_entries(
            D, K, {(r * d, r): 1 for r in range(min(D // d, K) + 1)},
            is_algebra=True,
        )

    if name == "omega2_s3_mod2":
        _done(params, name)
        parts = []
        part = 1
        while part <= D:
            parts.append(part)
            part = 2 * part + 1
        return _degreewise(parts, [], D, K)

    if name == "omega2_s3_modp":
        p = int(params.pop("p"))
        _done(params, name)
        if p < 3 or p % 2 == 0:
            raise InvalidInputError("omega2_s3_modp needs an odd prime")
        ext, poly = [], []
        q = 1
        while 2 * q - 2 <= D:
            if 2 * q - 1 <= D:
                ext.append(2 * q - 1)
            if q > 1:
                poly.append(2 * q - 2)
            q *= p
        return _degreewise(poly, ext, D, K)

    if name == "rational_loops_sphere":
        j = int(params.pop("j"))
        m = int(params.pop("m"))
        _done(params, name)
        if j not in (1, 2) or m < 2:
            raise InvalidInputError("rational_loops_sphere needs j in {1,2}, m >= 2")
        if j == 1:
            if m % 2:
                return _degreewise([m - 1], [], D, K)
            return _degreewise([2 * m - 2], [m - 1], D, K)
        if m % 2:
            return _degreewise([], [m - 2], D, K)
        if m == 2:
            raise InvalidInputError(
                "double loops on the 2-sphere have no finite closed form here"
            )
        return _degreewise([m - 2], [2 * m - 3], D, K)

    if name == "stunted_weight2":
        d = int(params.pop("d"))
        j = int(params.pop("j"))
        _done(params, name)
        if d < 1 or j < 2:
            raise InvalidInputError("stunted_weight2 needs d >= 1, j >= 2")
        if K < 2:
            raise InvalidInputError("stunted_weight2 needs max_weight >= 2")
        return BiSeries.from_entries(
            D, K, {(x, 2): 1 for x in range(2 * d, min(2 * d + j, D + 1))}
        )

    if name == "even_sphere_split":
        k = int(params.pop("k"))
        field = params.pop("field")
        _done(params, name)
        if k < 2:
            raise InvalidInputError("even_sphere_split needs k >= 2")
        char = field if isinstance(field, FieldChar) else FieldChar.from_name(str(field))
        m = 4 * k - 2
        poly, ext = [(2 * k - 2, 1)], []
        if char.is_zero:
            ext.append((m - 1, 1))
        w = 1
        while not char.is_zero and w <= K:
            if char.is_two:
                poly.append((w * m - 1, w))
            else:
                ext.append((w * m - 1, w))
                if w > 1:
                    poly.append((w * m - 2, w))
            w *= char.p
        counts = _bigraded_counts(poly, ext, D, K)
        return BiSeries(D, K, counts, is_algebra=True)

    if name == "braid":
        field = params.pop("field")
        _done(params, name)
        char = field if isinstance(field, FieldChar) else FieldChar.from_name(str(field))
        poly, ext = [(0, 1)], []
        if char.is_two:
            w = 2
            while w <= K:
                poly.append((w - 1, w))
                w *= 2
        else:
            ext.append((1, 2))
            w = 2 * char.p
            while not char.is_zero and w <= K:
                ext.append((w - 1, w))
                poly.append((w - 2, w))
                w *= char.p
        counts = _bigraded_counts(poly, ext, D, K)
        return BiSeries(D, K, counts, is_algebra=True)

    raise InvalidInputError(f"unknown classical series {name!r}")


def _done(params: dict, name: str) -> None:
    if params:
        raise InvalidInputError(
            f"unexpected parameters for {name!r}: {sorted(params)}"
        )


def diff_report(a: BiSeries, b: BiSeries) -> list[tuple[int, int, int, int]]:
    """Sorted list of differing cells (degree, weight, a value, b value);
    empty exactly when the series agree."""
    if a.caps() != b.caps():
        raise ConfigurationError("diff_report needs series with shared caps")
    rows = []
    for d in range(a.max_degree + 1):
        for k in range(a.max_weight + 1):
            va, vb = a.get(d, k), b.get(d, k)
            if va != vb:
                rows.append((d, k, va, vb))
    return rows
