"""Stability tests for fixed fractional-order system matrices.

Two equivalent routes are provided for D^alpha x = A x with 0 < alpha < 2:

* the eigenvalue sector test (stable iff every eigenvalue satisfies
  |arg(lambda)| > alpha*pi/2), and
* LMI feasibility certificates, split by order regime: a Hermitian
  certificate solved over its real/imaginary parts for 0 < alpha < 1, and
  a 2x2-block symmetric certificate for 1 <= alpha < 2.

Keeping both routes independent lets each validate the other.  The module
also assembles the output-feedback closed-loop matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRangeError, ShapeMismatchError, SolverFailureError
from .linalg import eig_general, eigvals_stack, require_square
from .lmi import (
    LmiProblem,
    SdpStatus,
    Sense,
    SolverConfig,
    block_expr,
    solve_feasibility,
    sym_expr,
)

# Eigenvalues below this magnitude have no usable argument and are
# classified unstable (the sector boundary passes through the origin).
ZERO_EIG_TOL = 1e-12


@dataclass(frozen=True)
class SectorReport:
    """Angular stability margin of a spectrum against the alpha-sector."""

    alpha: float
    eigenvalues: np.ndarray
    margin: float
    stable: bool


@dataclass(frozen=True)
class LmiCertificate:
    """Feasibility verdict plus the matrix witness when one exists."""

    feasible: bool
    x: np.ndarray | None
    solution: object


def _check_alpha(alpha):
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRangeError(f"alpha must lie in (0, 2), got {alpha}")


def _margins(eigs, alpha):
    """Row-wise min |arg| - alpha*pi/2 of an (N, d) eigenvalue array."""
    boundary = alpha * np.pi / 2.0
    if eigs.shape[1] == 0:
        return np.full(eigs.shape[0], np.pi - boundary)
    args = np.abs(np.angle(eigs))
    args[np.abs(eigs) < ZERO_EIG_TOL] = 0.0
    return args.min(axis=1) - boundary


def sector_margins(stack, alpha):
    """Minimal angular margin min_i |arg(lambda_i)| - alpha*pi/2 of every
    matrix of an (N, d, d) stack, as an (N,) array.

    All eigenvalues come from one batched call; :func:`sector_margin` is
    the single-matrix case of the same computation.
    """
    _check_alpha(alpha)
    return _margins(eigvals_stack(stack), alpha)


def sector_margin(a, alpha):
    """Minimal angular margin min_i |arg(lambda_i)| - alpha*pi/2.

    Positive margin means asymptotically stable.  A (near-)zero eigenvalue
    is treated as having argument 0, hence unstable.
    """
    _check_alpha(alpha)
    eigs = eig_general(a)
    margin = float(_margins(eigs[None], alpha)[0])
    return SectorReport(alpha, eigs, margin, margin > 0.0)


def low_alpha_lmi_feasible(a, alpha, solver_cfg=None):
    """LMI stability test for 0 < alpha < 1.

    Searches for a Hermitian X > 0 with Sym(A (rX + conj(r) conj(X))) < 0,
    r = exp(i theta), theta = (1-alpha)*pi/2.  Splitting X into symmetric
    and skew parts turns r X + conj(r X) into the real matrix
    2 cos(theta) X_sym - 2 sin(theta) Y_skew, and positivity of X into
    positivity of the real embedding [[X_sym, -Y_skew], [Y_skew, X_sym]].
    Returns the complex certificate when strictly feasible.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(f"low-alpha analysis LMI needs 0 < alpha < 1, got {alpha}")
    m = require_square(a)
    n = m.shape[0]
    theta = (1.0 - alpha) * np.pi / 2.0
    p = LmiProblem()
    xs = p.declare_symmetric_block(n, "X_sym")
    yk = p.declare_skew_block(n, "Y_skew")
    q = 2.0 * np.cos(theta) * xs.expr() - 2.0 * np.sin(theta) * yk.expr()
    p.add_constraint(sym_expr(m @ q), Sense.NEGATIVE_DEFINITE)
    emb = block_expr([[xs.expr(), -1.0 * yk.expr()], [yk.expr(), xs.expr()]])
    # X >= I is equivalent to X > 0 for this homogeneous system and keeps
    # the certificate scale pinned.
    p.add_constraint(emb - np.eye(2 * n), Sense.POSITIVE_DEFINITE)
    sol = solve_feasibility(p, solver_cfg or SolverConfig())
    if sol.status is SdpStatus.INDETERMINATE:
        raise SolverFailureError("analysis LMI solve was indeterminate")
    if sol.status is not SdpStatus.FEASIBLE:
        return LmiCertificate(False, None, sol)
    x = xs.value(sol.values) + 1j * yk.value(sol.values)
    return LmiCertificate(True, x, sol)


def high_alpha_lmi_feasible(a, alpha, solver_cfg=None):
    """LMI stability test for 1 <= alpha < 2.

    Searches for symmetric X > 0 with
    [[(A^T X + X A) sin(theta), (X A - A^T X) cos(theta)],
     [(A^T X - X A) cos(theta), (A^T X + X A) sin(theta)]] < 0,
    theta = pi - alpha*pi/2.
    """
    if not 1.0 <= alpha < 2.0:
        raise AlphaOutOfRangeError(f"high-alpha analysis LMI needs 1 <= alpha < 2, got {alpha}")
    m = require_square(a)
    n = m.shape[0]
    theta = np.pi - alpha * np.pi / 2.0
    st, ct = np.sin(theta), np.cos(theta)
    p = LmiProblem()
    xb = p.declare_symmetric_block(n, "X")
    x = xb.expr()
    s = m.T @ x + x @ m
    k = x @ m - m.T @ x
    big = block_expr([[st * s, ct * k], [-ct * k, st * s]])
    p.add_constraint(big, Sense.NEGATIVE_DEFINITE)
    p.add_constraint(x - np.eye(n), Sense.POSITIVE_DEFINITE)
    sol = solve_feasibility(p, solver_cfg or SolverConfig())
    if sol.status is SdpStatus.INDETERMINATE:
        raise SolverFailureError("analysis LMI solve was indeterminate")
    if sol.status is not SdpStatus.FEASIBLE:
        return LmiCertificate(False, None, sol)
    return LmiCertificate(True, xb.value(sol.values), sol)


def analysis_feasible(a, alpha, solver_cfg=None):
    """Dispatch to the LMI test matching the order regime."""
    if 0.0 < alpha < 1.0:
        return low_alpha_lmi_feasible(a, alpha, solver_cfg)
    if 1.0 <= alpha < 2.0:
        return high_alpha_lmi_feasible(a, alpha, solver_cfg)
    raise AlphaOutOfRangeError(f"alpha must lie in (0, 2), got {alpha}")


def closed_loop(a, b, c, controller):
    """Augmented closed-loop matrix for output feedback.

    Returns [[A + B Dc C, B Cc], [Bc C, Ac]], which collapses to
    A + B Dc C for a static (order zero) controller.  Given stacks A
    (N, n, n) and B (N, n, l) it returns the (N, n + n_c, n + n_c) stack
    of closed loops, one per plant.
    """
    stacked = np.ndim(a) == 3
    if stacked:
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        if a.shape[1] != a.shape[2]:
            raise ShapeMismatchError(f"A stack {a.shape} is not square")
    else:
        a = require_square(a, "a")[None]
        b = np.atleast_2d(np.asarray(b, float))[None]
    c = np.atleast_2d(np.asarray(c, float))
    count, n = a.shape[0], a.shape[1]
    if b.ndim != 3 or b.shape[:2] != (count, n) or c.shape[1] != n:
        raise ShapeMismatchError(
            f"plant shapes inconsistent: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    l = b.shape[2]
    m = c.shape[0]
    if controller.d_c.shape != (l, m):
        raise ShapeMismatchError(
            f"Dc is {controller.d_c.shape}, expected ({l},{m})"
        )
    n_c = controller.n_c
    if controller.a_c.shape != (n_c, n_c) or controller.b_c.shape != (n_c, m) \
            or controller.c_c.shape != (l, n_c):
        raise ShapeMismatchError("controller block shapes inconsistent")
    out = np.empty((count, n + n_c, n + n_c))
    out[:, :n, :n] = a + b @ controller.d_c @ c
    out[:, :n, n:] = b @ controller.c_c
    out[:, n:, :n] = controller.b_c @ c
    out[:, n:, n:] = controller.a_c
    return out if stacked else out[0]
