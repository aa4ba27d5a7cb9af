import os
import pathlib
import subprocess
import sys
import textwrap

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


def test_only_numpy_and_the_standard_library_load_at_runtime():
    # in a fresh interpreter, the top-level packages that importing every
    # folmi module adds to those loaded at startup (site may load some, such
    # as certifi); scipy may be installed but is not a dependency
    code = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import importlib, pkgutil, folmi
        names = [m.name for m in pkgutil.iter_modules(folmi.__path__)]
        for name in names:
            importlib.import_module("folmi." + name)
        print(" ".join(names))
        print(" ".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
    """)
    src = pathlib.Path(folmi.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120, check=True)
    modules, loaded = (line.split() for line in run.stdout.splitlines())
    assert {"cli", "lmi", "stability", "synthesis"} <= set(modules)
    assert {"folmi", "numpy"} <= set(loaded)
    allowed = {"folmi", "numpy", *sys.stdlib_module_names}
    assert [name for name in loaded if name not in allowed] == []
