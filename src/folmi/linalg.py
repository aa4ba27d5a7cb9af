"""Dense matrix kernel: input coercion, the fractional-order range check, the
eigenvalues of a stack of matrices and the pseudo-inverse.

All routines operate on plain float64 ``numpy`` arrays.  Matrices stay small
(closed-loop dimensions of a dozen or so), so everything is dense and the
eigensolver is capped at dimension 64.
"""

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    ConvergenceFailureError,
    NonSquareError,
    ValidationError,
)

EIG_DIM_CAP = 64

# Singular values below this fraction of the largest are treated as zero.
PINV_RCOND = 1e-10


def as_matrix(m, name="matrix"):
    """Coerce to a 2-D float64 array and check every entry is finite."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has non-finite entries")
    return a


def check_alpha(alpha):
    """AlphaOutOfRangeError unless the fractional order lies in (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRangeError(f"alpha must lie in (0, 2), got {alpha}")


def require_square(m, name="matrix"):
    a = as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} is {a.shape[0]}x{a.shape[1]}, not square")
    return a


def check_eig_dim(d):
    """ValidationError if a ``d`` x ``d`` matrix exceeds ``EIG_DIM_CAP``."""
    if d > EIG_DIM_CAP:
        raise ValidationError(f"dimension {d} exceeds eigensolver cap {EIG_DIM_CAP}")


def eigvals_stack(stack):
    """Eigenvalues (with multiplicity, unsorted) of each matrix of a real
    (N, d, d) stack, as an (N, d) array.

    One LAPACK call covers the whole stack.  Matrices larger than
    ``EIG_DIM_CAP`` or with non-finite entries are a ``ValidationError``, and a
    LAPACK failure is a :class:`ConvergenceFailureError`.
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NonSquareError(f"expected an (N, d, d) stack, got shape {a.shape}")
    check_eig_dim(a.shape[1])
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix stack has non-finite entries")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc


def pinv(m):
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below ``PINV_RCOND`` times the largest are zeroed, so
    rank-deficient inputs are handled.
    """
    return np.linalg.pinv(as_matrix(m), rcond=PINV_RCOND)
