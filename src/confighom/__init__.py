"""Exact homology calculator for labeled configuration spaces
C((M, M0) x R^n; X) over a field, as truncated bigraded Poincare series
(homological degree x configuration-length weight) with integer
coefficients.
"""

__version__ = "0.1.0"

from .errors import (
    CalculatorError,
    ConfigurationError,
    DivergentSeriesError,
    IntegrityError,
    InvalidInputError,
)
from .series import (
    BiSeries,
    EXTERIOR,
    POLYNOMIAL,
    desuspend_by_weight,
    free_commutative,
    inverse_one_minus,
    multiply,
    power_factor,
)
from .witt import DegreeWeightTable, lie_atom_counts
from .loops import (
    FieldChar,
    GradedBetti,
    atom_census,
    factor_series,
    generator_census,
    normalize_betti,
    suspend_betti,
)
from .assemble import (
    CheckReport,
    ProblemSpec,
    ab_coherence_report,
    factor_product,
    filtration_table,
    preset,
    random_problem_specs,
    theorem_a,
    theorem_b,
    weight_one_slice_expected,
)
from .hilton import BasicWord, HiltonReport, basic_words, hilton_milnor_check

__all__ = [
    "BasicWord",
    "BiSeries",
    "CalculatorError",
    "CheckReport",
    "ConfigurationError",
    "DegreeWeightTable",
    "DivergentSeriesError",
    "EXTERIOR",
    "FieldChar",
    "GradedBetti",
    "HiltonReport",
    "IntegrityError",
    "InvalidInputError",
    "POLYNOMIAL",
    "ProblemSpec",
    "ab_coherence_report",
    "atom_census",
    "basic_words",
    "desuspend_by_weight",
    "factor_product",
    "factor_series",
    "filtration_table",
    "free_commutative",
    "generator_census",
    "hilton_milnor_check",
    "inverse_one_minus",
    "lie_atom_counts",
    "multiply",
    "normalize_betti",
    "power_factor",
    "preset",
    "random_problem_specs",
    "suspend_betti",
    "theorem_a",
    "theorem_b",
    "weight_one_slice_expected",
]
