"""Exception types shared across the toolkit.  A :class:`ValidationError`
means that input from outside broke a documented rule, named by its subclass."""


class FolmiError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FolmiError, ValueError):
    """Input from outside the library breaks a documented rule."""


class ParseError(FolmiError, ValueError):
    """Configuration or controller file could not be parsed."""


class NonSquareError(ValidationError):
    """Matrix was expected to be square."""


class ShapeMismatchError(ValidationError):
    """Operands have inconsistent shapes."""


class BoundViolationError(ValidationError):
    """Interval bounds are not a usable [lower, upper] pair."""


class OutOfUnitBoxError(ValidationError):
    """Uncertainty realization has an entry outside [-1, 1]."""


class AlphaOutOfRangeError(ValidationError):
    """Fractional order outside the range the operation supports."""


class LengthMismatchError(ValidationError):
    """Value vector length does not match the declared variable count."""


class DomainTooLargeError(ValidationError):
    """Argument outside the implemented evaluation domain."""


class ConvergenceFailureError(FolmiError, RuntimeError):
    """An iterative kernel hit its iteration cap without converging."""


class DivergenceError(FolmiError, RuntimeError):
    """A simulated state grew past the float range."""


class IllFormedProblemError(FolmiError, ValueError):
    """LMI problem violates the modeling-layer invariants."""


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
