"""Exception types shared across the package."""


class GoldsplitError(Exception):
    """Base class for all package errors."""


class DimensionError(GoldsplitError, ValueError):
    """Operator or vector dimensions do not match."""


class ParameterError(GoldsplitError, ValueError):
    """A scalar parameter is outside its admissible range."""


class DataError(GoldsplitError, ValueError):
    """Input data violates a documented contract (labels, mask values, ...)."""


class ConstructionError(GoldsplitError, ValueError):
    """An operator could not be built from the given payload."""


class ParseError(GoldsplitError, ValueError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ContractError(GoldsplitError, RuntimeError):
    """A runtime contract check failed (e.g. a non-symmetric CG operator)."""


class ConfigError(GoldsplitError, ValueError):
    """Solver configuration rejected; carries every violated constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NumericAbort(GoldsplitError, RuntimeError):
    """A solver produced a non-finite iterate or a zero stepsize; names the
    solver and iteration."""

    def __init__(self, solver, iteration, reason="non-finite iterate"):
        self.solver = solver
        self.iteration = iteration
        super().__init__(f"{solver}: {reason} at iteration {iteration}")


class InsufficientDataError(GoldsplitError, ValueError):
    """Too few usable points for a rate fit."""


class StepsizeWarning(UserWarning):
    """Fixed stepsizes violate the documented region for the chosen scheme."""
