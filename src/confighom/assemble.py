"""Assembly of the labeled-configuration-space series.

For a compact manifold pair (M, M0) of dimension m_dim with relative Betti
numbers b_q over F, a Euclidean factor R^n (n >= 1) and a label space X,
the homology series of C((M,M0) x R^n; X) is

    prod_{q=0}^{m_dim} factor_series(Sigma^q X, m_dim + n - q, F)^(b_q)

with the configuration-length filtration as weight grading
(:func:`theorem_a`; X must be simply connected, reduced classes in degrees
>= 2).  Each factor is a free graded-commutative algebra (for j = 1 by
Poincare-Birkhoff-Witt), so the product is one, on all factors'
generators counted b_q times each: one kernel call.
:func:`theorem_b` lifts the restriction on X (degree-0 classes allowed):
the same free algebra's weight-k slice is the reduced homology of the
filtration quotient D_k.

The kernel reads the algebra only through its Lambert coefficients, so
both theorems build those, :func:`product_beta`, straight from one atom
census per factor plan and solve them with
``series.free_commutative_from_beta``: no generator is listed on their
path.  :func:`plan_generators` and :func:`product_generators` list the
same census as tagged generators, for the ``generators`` mode, the
Hilton-Milnor check and ``check:ab``'s second route.  ``check:ab`` checks
theorem_a's coefficients against those of the product on S^2 X, its
generators shifted down by 2k degrees at weight k and folded by
``series.weight_log_derivative``: two implementations of the step from
census to coefficients.  It solves tables only on a mismatch.
"""

from __future__ import annotations

from .errors import IntegrityError, InvalidInputError
from .loops import (
    FieldChar,
    GradedBetti,
    atom_census,
    closed_census,
    normalize_betti,
    raised_generators,
    require_int,
    suspend_betti,
)
from .record import Record
from .series import (
    BiSeries,
    free_commutative_from_beta,
    require_caps,
    require_indexable_caps,
    weight_log_derivative,
)


class ProblemSpec(Record):
    """One full problem instance, for :func:`theorem_a` or :func:`theorem_b`.

    ``max_weight`` is mandatory for theorem_b (for disconnected X
    arbitrarily many weights land in each low degree); theorem_a derives
    max_degree // 2 when it is omitted, which loses nothing because weight
    k then only contributes from degree 2k upward.  The fields are checked
    by :meth:`validate`, which the modes call, not on construction.
    """

    __slots__ = (
        "m_dim", "rel_betti", "n", "x_betti", "char", "max_degree", "max_weight"
    )

    def __init__(
        self,
        m_dim: int,
        rel_betti: GradedBetti,
        n: int,
        x_betti: GradedBetti,
        char: FieldChar,
        max_degree: int,
        max_weight: int | None = None,
    ) -> None:
        self.m_dim = m_dim
        self.rel_betti = rel_betti
        self.n = n
        self.x_betti = x_betti
        self.char = char
        self.max_degree = max_degree
        self.max_weight = max_weight

    def validate(self) -> None:
        require_int(self.m_dim, "manifold dim")
        require_int(self.n, "n", minimum=1)
        require_indexable_caps(require_int(self.max_degree, "max_degree"))
        rel = normalize_betti(self.rel_betti)
        if any(q > self.m_dim for q in rel):
            raise InvalidInputError(
                "relative Betti classes must live in degrees 0..m_dim"
            )
        normalize_betti(self.x_betti)
        if self.max_weight is not None:
            require_indexable_caps(require_int(self.max_weight, "max_weight"))
        if not isinstance(self.char, FieldChar):
            raise InvalidInputError(f"char must be a FieldChar; got {self.char!r}")

    def effective_max_weight(self) -> int:
        if self.max_weight is not None:
            return self.max_weight
        return self.max_degree // 2


def factor_plan(
    m_dim: int, rel_betti: GradedBetti, n: int, x_betti: GradedBetti
) -> list[tuple[int, int, GradedBetti, int]]:
    """The loop-space factors of the product, in increasing q.

    Each entry is ``(q, j, y, copies)``: the ``copies`` relative classes in
    degree q each contribute H_*(Omega^j Sigma^j y) with j = m_dim + n - q
    loops on y = Sigma^q X.  A class with j < 1 (q beyond m_dim + n - 1)
    raises InvalidInputError.
    """
    rel = normalize_betti(rel_betti)
    x = normalize_betti(x_betti)
    m = m_dim + n
    plan = []
    for q in sorted(rel):
        j = m - q
        if j < 1:
            raise InvalidInputError(
                f"relative class in degree {q} lies beyond m_dim + n - 1 = {m - 1}"
            )
        plan.append((q, j, suspend_betti(x, q), rel[q]))
    return plan


Generators = list[tuple[int, int, int, str]]
Beta = dict[tuple[int, int], int]


def plan_generators(
    m_dim: int,
    rel_betti: GradedBetti,
    n: int,
    x_betti: GradedBetti,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> list[tuple[int, int, GradedBetti, int, Generators]]:
    """Each factor ``(q, j, y, copies)`` of :func:`factor_plan` with its
    own generators ``(degree, weight, count, kind)``, counted once.

    Factor q applies the degree-(j-1) bracket to Sigma^q X, j = m_dim + n
    - q, so a length-l basic product x_1 ... x_l has degree |x_1| + ... +
    |x_l| + (l-1)(m_dim + n - 1) + q.  Factor q's atoms are therefore the
    first factor's raised by q - q0: one :func:`atom_census`, and one Witt
    solve, serves the whole plan.  Each factor's census is raised, closed
    and tagged by one ``loops.raised_generators`` call on the atoms' dict,
    so the plan's one table is its Witt solve's."""
    plan = factor_plan(m_dim, rel_betti, n, x_betti)
    if not plan:
        return []
    q0, j0, y0, _copies = plan[0]
    atoms = atom_census(y0, j0, char, max_degree, max_weight)
    return [
        (q, j, y, copies,
         raised_generators(atoms, q - q0, j, char, max_degree, max_weight))
        for q, j, y, copies in plan
    ]


def listed_plan(
    m_dim: int,
    rel_betti: GradedBetti,
    n: int,
    x_betti: GradedBetti,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> list[tuple[int, int, GradedBetti, int, Generators | None]]:
    """The factors as generators mode lists them: :func:`plan_generators`,
    unless every factor has j = 1.  A j = 1 factor is listed by its letters,
    not its basic products, so such a plan is :func:`factor_plan` with
    None for generators, and makes no Witt solve."""
    plan = factor_plan(m_dim, rel_betti, n, x_betti)
    if all(j == 1 for _q, j, _y, _copies in plan):
        return [(*factor, None) for factor in plan]
    return plan_generators(m_dim, rel_betti, n, x_betti, char, max_degree, max_weight)


def product_generators(
    m_dim: int,
    rel_betti: GradedBetti,
    n: int,
    x_betti: GradedBetti,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> Generators:
    """Generators ``(degree, weight, count, kind)`` of the whole product:
    those of each factor of :func:`plan_generators`, ``copies`` times."""
    plan = plan_generators(m_dim, rel_betti, n, x_betti, char, max_degree, max_weight)
    return [
        (d, k, c * copies, kind)
        for _q, _j, _y, copies, generators in plan
        for d, k, c, kind in generators
    ]


def product_beta(
    m_dim: int,
    rel_betti: GradedBetti,
    n: int,
    x_betti: GradedBetti,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> Beta:
    """The nonzero Lambert coefficients ``(d, w) -> beta`` of the free
    algebra on :func:`product_generators`, inside the caps, folded from
    the plan's censuses with no generator listed: one :func:`atom_census`
    per plan, each factor's :func:`~confighom.loops.closed_census` raised
    by q - q0, and each entry (d, w, c) adding c * copies * w at (d, w)
    and, where d is odd and the field is not F2 (an exterior generator),
    -2 * c * copies * w at (2d, 2w) inside the caps.  Equal to
    ``weight_log_derivative`` of :func:`product_generators`, which
    ``check:ab`` compares it with."""
    plan = factor_plan(m_dim, rel_betti, n, x_betti)
    beta: Beta = {}
    if not plan:
        return beta
    q0, j0, y0, _copies = plan[0]
    atoms = atom_census(y0, j0, char, max_degree, max_weight)
    exterior = not char.is_two
    for q, j, _y, copies in plan:
        census = closed_census(atoms, q - q0, j, char, max_degree, max_weight)
        for (d, w), c in census.items():
            step = c * copies * w
            beta[d, w] = beta.get((d, w), 0) + step
            if exterior and d % 2 and 2 * d <= max_degree and 2 * w <= max_weight:
                beta[2 * d, 2 * w] = beta.get((2 * d, 2 * w), 0) - 2 * step
    return {key: v for key, v in beta.items() if v}


def factor_product(
    m_dim: int,
    rel_betti: GradedBetti,
    n: int,
    x_betti: GradedBetti,
    char: FieldChar,
    max_degree: int,
    max_weight: int,
) -> BiSeries:
    """The tensor product of the loop-space factors of :func:`factor_plan`,
    the free algebra on :func:`product_generators`: :func:`theorem_b` on
    plain arguments, refusing what it refuses."""
    require_int(max_weight, "max_weight")
    return theorem_b(
        ProblemSpec(m_dim, rel_betti, n, x_betti, char, max_degree, max_weight)
    )


def _solve(max_degree: int, max_weight: int, beta: Beta) -> BiSeries:
    """The free algebra with Lambert coefficients ``beta``, checked to have
    the caps asked for."""
    return require_caps(
        free_commutative_from_beta(max_degree, max_weight, beta), max_degree, max_weight
    )


def _theorem_a_beta(spec: ProblemSpec) -> tuple[int, int, Beta]:
    """The caps and Lambert coefficients of :func:`theorem_a`'s free algebra."""
    spec.validate()
    if any(d < 2 for d in normalize_betti(spec.x_betti)):
        raise InvalidInputError(
            "theorem_a mode requires a simply connected label space: "
            "reduced classes in degrees >= 2 (theorem_b handles any X)"
        )
    D, K = spec.max_degree, spec.effective_max_weight()
    return D, K, product_beta(
        spec.m_dim, spec.rel_betti, spec.n, spec.x_betti, spec.char, D, K
    )


def theorem_a(spec: ProblemSpec) -> BiSeries:
    """Filtration series of C((M,M0) x R^n; X) for simply connected X."""
    return _solve(*_theorem_a_beta(spec))


def theorem_b(spec: ProblemSpec) -> BiSeries:
    """Per-weight homology of the filtration quotients D_k, any label space."""
    spec.validate()
    if spec.max_weight is None:
        raise InvalidInputError("theorem_b mode needs an explicit max_weight cap")
    D, K = spec.max_degree, spec.max_weight
    return _solve(D, K, product_beta(
        spec.m_dim, spec.rel_betti, spec.n, spec.x_betti, spec.char, D, K
    ))


def filtration_table(s: BiSeries) -> list[dict[int, int]]:
    """Row k: Betti numbers of the weight-k slice (the k-adic quotient D_k).

    Summing the rows recovers the input series.
    """
    rows = []
    for k in range(s.max_weight + 1):
        col = s.weight_slice(k)
        rows.append({d: v for d, v in enumerate(col) if v})
    return rows


# -- manifold presets ----------------------------------------------------

_PRESET_PARAMETERS = {
    "sphere": ("m",),
    "torus": ("m",),
    "surface": ("genus",),
    "disk_pair": ("m",),
    "rp": ("m",),
    "cube": ("m",),
    "point": (),
}


def preset_parameters(name: str) -> tuple[str, ...]:
    """The parameters the named manifold preset takes."""
    if not isinstance(name, str) or name not in _PRESET_PARAMETERS:
        known = ", ".join(sorted(_PRESET_PARAMETERS))
        raise InvalidInputError(f"unknown preset {name!r}; known: {known}")
    return _PRESET_PARAMETERS[name]


def preset(
    name: str, char: FieldChar | None = None, **params: int
) -> tuple[int, GradedBetti]:
    """Dimension and relative Betti data of a named manifold (pair).

    sphere(m), torus(m), surface(genus), disk_pair(m) for (D^m, bd D^m),
    rp(m) for RP^m with F2 coefficients, cube(m) for the absolute pair
    (I^m, empty), and point().
    """
    def need(key: str) -> int:
        if key not in params:
            raise InvalidInputError(f"preset {name!r} needs parameter {key!r}")
        return require_int(params[key], f"preset parameter {key!r}")

    extra = set(params) - set(preset_parameters(name))
    if extra:
        raise InvalidInputError(
            f"preset {name!r} takes no parameters {sorted(extra)}"
        )

    if name == "sphere":
        m = need("m")
        if m == 0:
            return 0, {0: 2}
        return m, {0: 1, m: 1}
    if name == "torus":
        m = need("m")
        # the binomial row by a running product: linear steps in m
        row, c = {}, 1
        for q in range(m + 1):
            row[q] = c
            c = c * (m - q) // (q + 1)
        return m, row
    if name == "surface":
        g = need("genus")
        return 2, {0: 1, 1: 2 * g, 2: 1} if g else {0: 1, 2: 1}
    if name == "disk_pair":
        m = need("m")
        return m, {m: 1}
    if name == "rp":
        m = need("m")
        if not isinstance(char, FieldChar) or not char.is_two:
            raise InvalidInputError(
                "preset 'rp' carries F2 Betti data; select the field F2"
            )
        return m, {q: 1 for q in range(m + 1)}
    if name == "cube":
        m = need("m")
        return m, {0: 1}
    return 0, {0: 1}  # point


# -- the A/B coherence suite ----------------------------------------------


class CheckReport(Record):
    """Outcome of a named consistency suite."""

    __slots__ = ("name", "passed", "cases", "failures")

    def __init__(
        self, name: str, passed: bool, cases: int, failures: list[dict] | None = None
    ) -> None:
        self.name = name
        self.passed = passed
        self.cases = cases
        self.failures = [] if failures is None else failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "cases": self.cases,
            "failures": self.failures,
        }


def random_problem_specs(
    seed: int, trials: int, max_degree: int
) -> list[ProblemSpec]:
    """Reproducible random specs with simply connected labels.

    Characteristics cycle through 0, 2 and an odd prime so each suite run
    touches all three.
    """
    import random  # check:ab alone draws specs, so a start does not load it

    rng = random.Random(seed)
    chars = [FieldChar.rational(), FieldChar.mod2(), FieldChar.odd(3)]
    specs = []
    for i in range(trials):
        m_dim = rng.randint(0, 3)
        rel: GradedBetti = {}
        for q in range(m_dim + 1):
            b = rng.choice((0, 0, 1, 1, 2))
            if b:
                rel[q] = b
        if not rel:
            rel[rng.randint(0, m_dim)] = 1
        x: GradedBetti = {}
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(2, 4)
            x[d] = x.get(d, 0) + 1
        specs.append(
            ProblemSpec(
                m_dim=m_dim,
                rel_betti=rel,
                n=rng.randint(1, 3),
                x_betti=x,
                char=chars[i % len(chars)],
                max_degree=max_degree,
                max_weight=max_degree // 2,
            )
        )
    return specs


def _suspended_generators(spec: ProblemSpec) -> Generators:
    """The check's second side, independent of theorem_a's census: the
    generators of the product on S^2 X at degree cap D + 2K, shifted down
    by 2k degrees at weight k (t^d u^k -> t^(d-2k) u^k is a ring
    homomorphism), those landing within D kept.  A generator shifted
    below degree 0 raises IntegrityError naming it."""
    D, K = spec.max_degree, spec.effective_max_weight()
    y = suspend_betti(normalize_betti(spec.x_betti), 2)
    generators = []
    for d, k, c, kind in product_generators(
        spec.m_dim, spec.rel_betti, spec.n, y, spec.char, D + 2 * K, K
    ):
        if d < 2 * k:
            raise IntegrityError(
                "desuspension by 2 per weight sends the generator at "
                f"(d, k) = ({d}, {k}) below degree 0",
                cell=(d, k),
            )
        if d - 2 * k <= D:
            generators.append((d - 2 * k, k, c, kind))
    return generators


def ab_coherence_report(
    seed: int = 0, trials: int = 20, max_degree: int = 30
) -> CheckReport:
    """Check theorem_a == the S^2 X route bigraded-exactly on random specs.

    Each case builds theorem_a's Lambert coefficients, :func:`product_beta`,
    then those of the route, the :func:`weight_log_derivative` dict of
    :func:`_suspended_generators`, and compares them: two implementations
    of the step from census to coefficients.  Within the caps a free
    algebra's table and that dict determine each other (A_0 = 1 recovers
    B from the table, and Moebius inversion recovers beta from B), so the
    tables are equal iff the dicts are, and a case whose dicts agree
    solves nothing.  Only a mismatch solves both tables, from the dicts
    already built, to report the cells that differ, so every verdict and
    report is the one that solving both gives.  A passing case thus never
    runs the kernel's row gate; the route's counts are still checked to
    be >= 0.  Errors are raised in the order theorem_a, then the route.
    """
    for name, v in (("seed", seed), ("trials", trials), ("max_degree", max_degree)):
        require_int(v, name)
    require_indexable_caps(max_degree)
    failures = []
    for idx, spec in enumerate(random_problem_specs(seed, trials, max_degree)):
        D, K, a_beta = _theorem_a_beta(spec)
        b_beta = weight_log_derivative(D, K, _suspended_generators(spec))
        if a_beta == b_beta:
            continue
        a, b = _solve(D, K, a_beta), _solve(D, K, b_beta)
        if a != b:
            mism = sorted(
                (d, k, a.get(d, k), b.get(d, k))
                for d, k, _ in set(a.items()) ^ set(b.items())
            )[:5]
            failures.append(
                {
                    "case": idx,
                    "spec": describe_spec(spec),
                    "first_mismatches": mism,
                }
            )
    return CheckReport(
        name="ab_coherence",
        passed=not failures,
        cases=trials,
        failures=failures,
    )


def describe_spec(spec: ProblemSpec) -> dict:
    return {
        "m_dim": spec.m_dim,
        "rel_betti": {str(q): b for q, b in sorted(spec.rel_betti.items())},
        "n": spec.n,
        "x_betti": {str(d): b for d, b in sorted(spec.x_betti.items())},
        "field": spec.char.name,
        "max_degree": spec.max_degree,
        "max_weight": spec.effective_max_weight(),
    }


def weight_one_slice_expected(
    rel_betti: GradedBetti, x_betti: GradedBetti, max_degree: int
) -> list[int]:
    """Degreewise dimensions of the length-1 configurations, i.e. of the
    smash of M/M0 with X: the convolution of the two reduced Betti tables."""
    rel = normalize_betti(rel_betti)
    x = normalize_betti(x_betti)
    out = [0] * (max_degree + 1)
    for q, b in rel.items():
        for d, c in x.items():
            if q + d <= max_degree:
                out[q + d] += b * c
    return out
