"""Exact homology calculator for labeled configuration spaces
C((M, M0) x R^n; X) over a field, as truncated bigraded Poincare series
(homological degree x configuration-length weight) with integer
coefficients.

The package exports the engine's entry points and the records they
return.  The series references (``multiply``, ``power_factor``,
``inverse_one_minus``, ``desuspend_by_weight``), ``loops.factor_series``,
``loops.generator_census`` and ``assemble``'s check helpers are imported
from their own modules, by the tests and the benchmark's tracer.
"""

__version__ = "0.1.0"

from .errors import CalculatorError, ConfigurationError, IntegrityError, InvalidInputError
from .series import EXTERIOR, POLYNOMIAL, BiSeries, free_commutative
from .witt import DegreeWeightTable, lie_atom_counts
from .loops import FieldChar, GradedBetti, atom_census, normalize_betti, suspend_betti
from .assemble import (
    CheckReport,
    ProblemSpec,
    ab_coherence_report,
    factor_product,
    filtration_table,
    preset,
    theorem_a,
    theorem_b,
)
from .hilton import BasicWord, HiltonReport, basic_words, hilton_milnor_check

__all__ = [
    "BasicWord",
    "BiSeries",
    "CalculatorError",
    "CheckReport",
    "ConfigurationError",
    "DegreeWeightTable",
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
    "factor_product",
    "filtration_table",
    "free_commutative",
    "hilton_milnor_check",
    "lie_atom_counts",
    "normalize_betti",
    "preset",
    "suspend_betti",
    "theorem_a",
    "theorem_b",
]
