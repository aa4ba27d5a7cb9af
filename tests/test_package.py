import pytest

import folmi
from folmi import errors


def test_every_exported_name_resolves():
    assert len(set(folmi.__all__)) == len(folmi.__all__)
    assert [name for name in folmi.__all__ if not hasattr(folmi, name)] == []
    namespace = {}
    exec("from folmi import *", namespace)
    assert set(folmi.__all__) <= set(namespace)
    assert "sector_margins" in folmi.__all__


@pytest.mark.parametrize("name", [
    "NonSquareError", "ShapeMismatchError", "BoundViolationError",
    "OutOfUnitBoxError", "AlphaOutOfRangeError", "LengthMismatchError",
    "DomainTooLargeError",
])
def test_input_rule_errors_are_validation_errors(name):
    # the command line maps a ValidationError, and only that and a
    # ParseError, to the usage exit code 1
    cls = getattr(errors, name)
    assert issubclass(cls, errors.ValidationError)
    assert issubclass(cls, errors.FolmiError) and issubclass(cls, ValueError)


@pytest.mark.parametrize("name", [
    "IllFormedProblemError", "StepTooLargeError", "SingularStepError",
    "ConvergenceFailureError", "SingularCertificateError", "InfeasibleError",
    "DivergenceError",
])
def test_solver_errors_are_not_validation_errors(name):
    # these exit 4, or 2 for InfeasibleError
    cls = getattr(errors, name)
    assert issubclass(cls, errors.FolmiError)
    assert not issubclass(cls, errors.ValidationError)
