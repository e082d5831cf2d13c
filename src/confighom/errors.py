"""Exception hierarchy for the calculator.

Every failure mode maps to one of four classes so the CLI can translate
them into distinct exit codes.
"""


class CalculatorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CalculatorError):
    """Structurally incompatible objects, e.g. series with mismatched caps."""


class InvalidInputError(CalculatorError):
    """Input violates a documented precondition (bad Betti data, bad mode, ...)."""


class DivergentSeriesError(InvalidInputError):
    """A closed form was requested whose truncation would not be finite,
    e.g. a polynomial generator in degree 0."""


class IntegrityError(CalculatorError):
    """An internal consistency check failed.

    This never signals bad user input: it means an algebraic identity the
    engine relies on (nonnegative solved counts, exact divisibility in the
    Witt recurrence, desuspension staying in nonnegative degrees) broke,
    i.e. a bug in the grammar or the caller.

    ``cell`` is the (degree, weight) the check failed at, where it has one:
    the free-algebra residual that broke, or the generator that check:ab's
    S^2 X route would shift below degree 0.
    """

    def __init__(self, message: str, *, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell
