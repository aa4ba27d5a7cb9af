"""Exception types shared across the toolkit."""


class FolmiError(Exception):
    """Base class for all toolkit errors."""


class NonSquareError(FolmiError, ValueError):
    """Matrix was expected to be square."""


class ConvergenceFailureError(FolmiError, RuntimeError):
    """An iterative kernel hit its iteration cap without converging."""


class ShapeMismatchError(FolmiError, ValueError):
    """Operands have inconsistent shapes."""


class BoundViolationError(FolmiError, ValueError):
    """Interval lower bound exceeds upper bound somewhere."""


class OutOfUnitBoxError(FolmiError, ValueError):
    """Uncertainty realization has an entry outside [-1, 1]."""


class AlphaOutOfRangeError(FolmiError, ValueError):
    """Fractional order outside the range the operation supports."""


class IllFormedProblemError(FolmiError, ValueError):
    """LMI problem violates the modeling-layer invariants."""


class LengthMismatchError(FolmiError, ValueError):
    """Value vector length does not match the declared variable count."""


class InfeasibleError(FolmiError, RuntimeError):
    """Synthesis LMI is infeasible or undecidable; ``status`` says which."""

    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


class SingularCertificateError(FolmiError, RuntimeError):
    """Certificate block is too ill-conditioned to invert for recovery."""


class SingularStepError(FolmiError, ValueError):
    """Implicit simulation step matrix is singular."""


class StepTooLargeError(FolmiError, ValueError):
    """Simulation step size is too large for the system's dynamics scale."""


class DomainTooLargeError(FolmiError, ValueError):
    """Argument outside the implemented evaluation domain."""


class ParseError(FolmiError, ValueError):
    """Configuration or controller file could not be parsed."""


class ValidationError(FolmiError, ValueError):
    """Parsed configuration violates a documented invariant."""
