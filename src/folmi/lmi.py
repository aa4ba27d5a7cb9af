"""Affine linear-matrix-inequality modeling and a dense feasibility solver.

The modeling layer represents symmetric matrix expressions that are affine
in a flat vector of scalar decision variables.  Structured variable blocks
(symmetric, skew-symmetric, rectangular, scalar) map their entries onto
that flat vector, and :class:`MatExpr` provides enough operator support
(+, -, @ with constants, transpose, scalar multiply, block stacking) to
assemble the synthesis inequalities readably.

Feasibility of a system of strict definiteness constraints is decided by a
log-det barrier method on the epigraph form

    minimize t  s.t.  F_j(x) <= t*I  for all j,  |x_i| <= R_BOX,

where each constraint is oriented so that negative definiteness is the
goal.  The problem is declared FEASIBLE once an interior point reaches
``t <= -eps_margin`` (the point is re-audited before being returned) and
INFEASIBLE once the barrier duality bound proves ``min t > -eps_margin``.
The iteration stops early once ``t <= -max(eps_margin, FEASIBILITY_DEPTH)``.
The box bound ``R_BOX``, the barrier weight's growth factor ``MU_FACTOR``
and ``FEASIBILITY_DEPTH`` are module constants.  Everything is dense and
deterministic; blocks stay well under 100x100 at the scales this toolkit
targets.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllFormedProblemError,
    LengthMismatchError,
)

_SYM_TOL = 1e-9
R_BOX = 1e6
MU_FACTOR = 30.0
# How far below zero t is pushed before accepting (at least eps_margin):
# better-centered certificates without chasing the box-bounded optimum.
FEASIBILITY_DEPTH = 1e-3


class Sense(enum.Enum):
    NEGATIVE_DEFINITE = "negative_definite"
    POSITIVE_DEFINITE = "positive_definite"


class SdpStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


class MatExpr:
    """Matrix expression ``const + sum_i x_i * lin[i]`` with fixed shape."""

    __array_ufunc__ = None  # keep numpy from consuming us in mixed ops

    def __init__(self, rows, cols, const=None, lin=None):
        self.rows = rows
        self.cols = cols
        self.const = (
            np.zeros((rows, cols)) if const is None else np.asarray(const, float)
        )
        if self.const.shape != (rows, cols):
            raise ValueError("constant shape mismatch")
        self.lin = {} if lin is None else lin

    @property
    def shape(self):
        return (self.rows, self.cols)

    @staticmethod
    def wrap(other):
        if isinstance(other, MatExpr):
            return other
        arr = np.atleast_2d(np.asarray(other, float))
        return MatExpr(arr.shape[0], arr.shape[1], arr)

    def __add__(self, other):
        other = MatExpr.wrap(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        lin = {k: v.copy() for k, v in self.lin.items()}
        for k, v in other.lin.items():
            lin[k] = lin[k] + v if k in lin else v
        return MatExpr(self.rows, self.cols, self.const + other.const, lin)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(MatExpr.wrap(other).__neg__())

    def __rsub__(self, other):
        return MatExpr.wrap(other).__add__(self.__neg__())

    def __neg__(self):
        return MatExpr(
            self.rows, self.cols, -self.const, {k: -v for k, v in self.lin.items()}
        )

    def __mul__(self, scalar):
        s = float(scalar)
        return MatExpr(
            self.rows,
            self.cols,
            s * self.const,
            {k: s * v for k, v in self.lin.items()},
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Right-multiplication by a constant matrix."""
        if isinstance(other, MatExpr):
            raise TypeError("product of two variable expressions is not affine")
        r = np.atleast_2d(np.asarray(other, float))
        if r.shape[0] != self.cols:
            raise ValueError(f"shape mismatch {self.shape} @ {r.shape}")
        return MatExpr(
            self.rows,
            r.shape[1],
            self.const @ r,
            {k: v @ r for k, v in self.lin.items()},
        )

    def __rmatmul__(self, other):
        """Left-multiplication by a constant matrix."""
        l = np.atleast_2d(np.asarray(other, float))
        if l.shape[1] != self.rows:
            raise ValueError(f"shape mismatch {l.shape} @ {self.shape}")
        return MatExpr(
            l.shape[0],
            self.cols,
            l @ self.const,
            {k: l @ v for k, v in self.lin.items()},
        )

    @property
    def T(self):
        return MatExpr(
            self.cols,
            self.rows,
            self.const.T.copy(),
            {k: v.T.copy() for k, v in self.lin.items()},
        )

    def value(self, values):
        """Substitute a flat variable vector."""
        out = self.const.copy()
        for k, coeff in self.lin.items():
            out += values[k] * coeff
        return out


def sym_expr(e):
    """``e + e.T`` for a square expression."""
    return e + e.T


def block_expr(grid):
    """Assemble a block matrix expression from a nested list.

    Every entry may be a :class:`MatExpr`, an array, or a scalar (treated
    as 1x1).  Zero-sized blocks are allowed and simply occupy no space,
    which lets one assembly path cover degenerate controller orders.
    """
    grid = [[MatExpr.wrap(e) for e in row] for row in grid]
    n_rows = len(grid)
    n_cols = len(grid[0])
    if any(len(row) != n_cols for row in grid):
        raise ValueError("ragged block grid")
    heights = [row[0].rows for row in grid]
    widths = [grid[0][j].cols for j in range(n_cols)]
    for i, row in enumerate(grid):
        for j, e in enumerate(row):
            if e.rows != heights[i] or e.cols != widths[j]:
                raise ValueError(
                    f"block ({i},{j}) is {e.shape}, expected "
                    f"({heights[i]},{widths[j]})"
                )
    total_r = sum(heights)
    total_c = sum(widths)
    const = np.zeros((total_r, total_c))
    lin = {}
    r0 = 0
    for i, row in enumerate(grid):
        c0 = 0
        for j, e in enumerate(row):
            if e.rows and e.cols:
                const[r0 : r0 + e.rows, c0 : c0 + e.cols] = e.const
                for k, coeff in e.lin.items():
                    if k not in lin:
                        lin[k] = np.zeros((total_r, total_c))
                    lin[k][r0 : r0 + e.rows, c0 : c0 + e.cols] += coeff
            c0 += widths[j]
        r0 += heights[i]
    return MatExpr(total_r, total_c, const, lin)


@dataclass(frozen=True)
class VariableBlock:
    """Handle for a structured block of scalar decision variables."""

    kind: str
    rows: int
    cols: int
    indices: tuple

    def basis(self):
        """Pairs (variable index, basis matrix) spanning the block."""
        out = []
        pos = 0
        if self.kind == "symmetric":
            for i in range(self.rows):
                for j in range(i, self.rows):
                    e = np.zeros((self.rows, self.cols))
                    e[i, j] = 1.0
                    e[j, i] = 1.0
                    out.append((self.indices[pos], e))
                    pos += 1
        elif self.kind == "skew":
            for i in range(self.rows):
                for j in range(i + 1, self.rows):
                    e = np.zeros((self.rows, self.cols))
                    e[i, j] = 1.0
                    e[j, i] = -1.0
                    out.append((self.indices[pos], e))
                    pos += 1
        elif self.kind in ("full", "scalar"):
            for i in range(self.rows):
                for j in range(self.cols):
                    e = np.zeros((self.rows, self.cols))
                    e[i, j] = 1.0
                    out.append((self.indices[pos], e))
                    pos += 1
        else:
            raise ValueError(f"unknown block kind {self.kind}")
        return out

    def expr(self):
        return MatExpr(
            self.rows, self.cols, None, {k: e for k, e in self.basis()}
        )

    def scale(self, matrix):
        """``variable * matrix`` for a scalar block (affine lift)."""
        if self.kind != "scalar":
            raise ValueError("scale() is only defined for scalar blocks")
        m = np.atleast_2d(np.asarray(matrix, float))
        return MatExpr(m.shape[0], m.shape[1], None, {self.indices[0]: m.copy()})

    def value(self, values):
        """Reconstruct the block matrix from a flat variable vector."""
        return self.expr().value(values)


@dataclass(frozen=True)
class AffineMatrixConstraint:
    """One definiteness constraint ``const + sum_i x_i coeffs[i]  (sense) 0``."""

    dim: int
    constant: np.ndarray
    coeffs: dict
    sense: Sense


@dataclass
class LmiProblem:
    """A system of strict LMI constraints over flat scalar variables."""

    num_vars: int = 0
    var_names: list = field(default_factory=list)
    constraints: list = field(default_factory=list)

    def _new_vars(self, count, name):
        start = self.num_vars
        for k in range(count):
            self.var_names.append(f"{name}[{k}]" if count > 1 else name)
        self.num_vars += count
        return tuple(range(start, start + count))

    def declare_symmetric_block(self, dim, name="S"):
        """Symmetric dim x dim block: dim*(dim+1)/2 variables."""
        idx = self._new_vars(dim * (dim + 1) // 2, name)
        return VariableBlock("symmetric", dim, dim, idx)

    def declare_skew_block(self, dim, name="K"):
        """Skew-symmetric block: dim*(dim-1)/2 variables (0 when dim <= 1)."""
        idx = self._new_vars(dim * (dim - 1) // 2, name)
        return VariableBlock("skew", dim, dim, idx)

    def declare_full_block(self, rows, cols, name="T"):
        """Unstructured rows x cols block: rows*cols variables."""
        idx = self._new_vars(rows * cols, name)
        return VariableBlock("full", rows, cols, idx)

    def declare_scalar(self, name="s"):
        idx = self._new_vars(1, name)
        return VariableBlock("scalar", 1, 1, idx)

    def add_constraint(self, expr, sense):
        """Add ``expr (sense) 0`` where expr is a square symmetric MatExpr."""
        if not isinstance(expr, MatExpr):
            expr = MatExpr.wrap(expr)
        if expr.rows != expr.cols or expr.rows == 0:
            raise IllFormedProblemError(
                f"constraint must be square and nonempty, got {expr.shape}"
            )
        mats = [expr.const] + list(expr.lin.values())
        for m in mats:
            scale = 1.0 + np.abs(m).max()
            if np.abs(m - m.T).max() > _SYM_TOL * scale:
                raise IllFormedProblemError("constraint matrices must be symmetric")
        const = 0.5 * (expr.const + expr.const.T)
        coeffs = {k: 0.5 * (v + v.T) for k, v in expr.lin.items() if np.any(v)}
        self.constraints.append(
            AffineMatrixConstraint(expr.rows, const, coeffs, Sense(sense))
        )
        return self.constraints[-1]


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs for the feasibility solver.

    ``eps_margin`` is the strictness margin replacing "< 0".  The algorithm
    is deterministic and never draws randomness.  The variable box bound,
    the barrier weight's growth factor and the acceptance depth are the
    module constants ``R_BOX``, ``MU_FACTOR`` and ``FEASIBILITY_DEPTH``.
    """

    eps_margin: float = 1e-6
    tol: float = 1e-8
    max_iter: int = 200


@dataclass(frozen=True)
class SdpSolution:
    status: SdpStatus
    values: np.ndarray
    achieved_margin: float
    iterations: int
    objective: float


def evaluate_constraint(problem, constraint, values):
    """Substitute values into one constraint.

    Returns ``(matrix, extreme)`` where ``extreme`` is the largest
    eigenvalue for NEGATIVE_DEFINITE constraints and the smallest for
    POSITIVE_DEFINITE ones, so feasibility with margin ``eps`` reads
    ``extreme <= -eps`` resp. ``extreme >= eps``.
    """
    values = np.asarray(values, float)
    if values.shape != (problem.num_vars,):
        raise LengthMismatchError(
            f"expected {problem.num_vars} values, got {values.shape}"
        )
    m = constraint.constant.copy()
    for k, coeff in constraint.coeffs.items():
        m += values[k] * coeff
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    if constraint.sense is Sense.NEGATIVE_DEFINITE:
        return m, float(eigs[-1])
    return m, float(eigs[0])


def constraint_margin(problem, constraint, values):
    """Definiteness margin (positive = satisfied) of one constraint."""
    _, extreme = evaluate_constraint(problem, constraint, values)
    if constraint.sense is Sense.NEGATIVE_DEFINITE:
        return -extreme
    return extreme


class _Block:
    """NEG-oriented constraint with stacked coefficient tensors."""

    def __init__(self, constraint):
        sign = 1.0 if constraint.sense is Sense.NEGATIVE_DEFINITE else -1.0
        self.dim = constraint.dim
        self.const = sign * constraint.constant
        self.var_idx = np.array(sorted(constraint.coeffs), dtype=int)
        if self.var_idx.size:
            self.coeff = np.stack(
                [sign * constraint.coeffs[k] for k in self.var_idx]
            )
        else:
            self.coeff = np.zeros((0, self.dim, self.dim))

    def matrix(self, x):
        m = self.const.copy()
        if self.var_idx.size:
            m += np.tensordot(x[self.var_idx], self.coeff, axes=1)
        return m


def _logdet(s):
    """log det of a symmetric matrix, or None if it is not positive definite."""
    try:
        l = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.sum(np.log(np.diag(l))))


def solve_feasibility(problem, cfg=None):
    """Decide strict feasibility of all constraints simultaneously.

    Runs a short-step barrier method on ``min t : F_j(x) <= t*I`` and
    returns FEASIBLE with a strictly satisfying point, INFEASIBLE with a
    duality-bound certificate that no point reaches margin ``eps_margin``,
    or INDETERMINATE if the iteration budget runs out in the gray zone.
    The result is deterministic for a fixed problem and configuration.
    """
    cfg = cfg or SolverConfig()
    if not problem.constraints:
        raise IllFormedProblemError("problem has no constraints")
    blocks = [_Block(c) for c in problem.constraints]
    n = problem.num_vars
    nu = sum(b.dim for b in blocks) + 2 * n
    depth = max(cfg.eps_margin, FEASIBILITY_DEPTH)

    def point(xv, tv):
        """``(x, t, phi, slacks S_j = t*I - F_j(x))``, or None when the
        point is not strictly feasible; the only place slacks are formed."""
        if np.any(np.abs(xv) >= R_BOX):
            return None
        slacks = []
        phi = 0.0
        for b in blocks:
            s = tv * np.eye(b.dim) - b.matrix(xv)
            ld = _logdet(s)
            if ld is None:
                return None
            phi -= ld
            slacks.append(s)
        phi -= float(np.sum(np.log(R_BOX - xv) + np.log(R_BOX + xv)))
        return xv, tv, phi, slacks

    def newton_step(pt, mu):
        """One damped Newton step on mu*t + phi from the point ``pt``;
        returns the accepted point, squared decrement, and success flag."""
        xv, tv, phi, slacks = pt
        grad = np.zeros(n + 1)
        hess = np.zeros((n + 1, n + 1))
        for b, s in zip(blocks, slacks):
            w = np.linalg.inv(s)
            w = 0.5 * (w + w.T)
            grad[n] -= np.trace(w)
            hess[n, n] += float(np.sum(w * w))
            if b.var_idx.size:
                v = w[None, :, :] @ b.coeff  # stack of V_i = S^-1 A_i
                vflat = v.reshape(v.shape[0], -1)
                vtflat = np.transpose(v, (0, 2, 1)).reshape(v.shape[0], -1)
                grad[b.var_idx] += np.einsum("pii->p", v)
                hess[np.ix_(b.var_idx, b.var_idx)] += vflat @ vtflat.T
                cross = -(vflat @ w.reshape(-1))  # -tr(V_i W), the x-t coupling
                hess[b.var_idx, n] += cross
                hess[n, b.var_idx] += cross
        grad[:n] += 1.0 / (R_BOX - xv) - 1.0 / (R_BOX + xv)
        hess[:n, :n] += np.diag(
            1.0 / (R_BOX - xv) ** 2 + 1.0 / (R_BOX + xv) ** 2
        )
        grad[n] += mu

        jitter = 0.0
        for _ in range(4):
            try:
                l = np.linalg.cholesky(
                    hess + jitter * np.eye(n + 1) if jitter else hess
                )
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 100.0, 1e-12 * (1 + np.abs(hess).max()))
        else:
            return pt, 0.0, False
        step = -np.linalg.solve(l.T, np.linalg.solve(l, grad))
        lam2 = float(-grad @ step)
        if not np.isfinite(lam2) or lam2 < 0:
            return pt, 0.0, False

        f0 = mu * tv + phi
        alpha = 1.0 if lam2 <= 0.9 else 1.0 / (1.0 + np.sqrt(lam2))
        for _ in range(60):
            trial = point(xv + alpha * step[:n], tv + alpha * step[n])
            if trial is not None and mu * trial[1] + trial[2] <= f0 - 0.25 * alpha * lam2:
                return trial, lam2, True
            alpha *= 0.5
        return pt, lam2, False

    t = max(float(np.linalg.eigvalsh(b.const)[-1]) for b in blocks)
    pt = point(np.zeros(n), t + 1.0 + 0.1 * abs(t))
    x, t = pt[:2]
    mu = 1.0 / (1.0 + abs(t))
    iters = 0
    status = SdpStatus.INDETERMINATE
    while iters < cfg.max_iter:
        # center at current mu; a loose decrement suffices for the duality
        # slack used below, and any point at depth already decides FEASIBLE
        for _ in range(50):
            if iters >= cfg.max_iter or t <= -depth:
                break
            pt, lam2, ok = newton_step(pt, mu)
            x, t = pt[:2]
            iters += 1
            if not ok or lam2 <= 1e-2:
                break
        gap = (nu + np.sqrt(nu)) / mu
        if t <= -depth:
            status = SdpStatus.FEASIBLE
            break
        if t - gap > -cfg.eps_margin:
            status = SdpStatus.INFEASIBLE
            break
        if gap <= 0.5 * max(cfg.eps_margin, cfg.tol):
            status = (
                SdpStatus.FEASIBLE
                if t <= -cfg.eps_margin
                else SdpStatus.INFEASIBLE
            )
            break
        mu *= MU_FACTOR
    else:
        status = (
            SdpStatus.FEASIBLE if t <= -cfg.eps_margin else SdpStatus.INDETERMINATE
        )

    margins = [constraint_margin(problem, c, x) for c in problem.constraints]
    achieved = min(margins)
    if status is SdpStatus.FEASIBLE and achieved < cfg.eps_margin:
        # self-audit failed; do not report an invalid certificate
        status = SdpStatus.INDETERMINATE
    return SdpSolution(status, x, achieved, iters, float(t))
