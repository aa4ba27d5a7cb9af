"""Affine linear-matrix-inequality modeling and a dense feasibility solver.

The modeling layer represents matrix expressions that are affine in a flat
vector of scalar decision variables.  A :class:`MatExpr` is one coefficient
stack: its sorted variable indices, their (k, rows, cols) coefficients and a
constant.  Each operator (+, -, @ with constants, transpose, scalar
multiply, block stacking) is a few numpy calls on whole stacks, and a
declared block (symmetric, skew-symmetric, rectangular, scalar) is the
one-hot expression of its new variables.  A constraint keeps the
symmetrized stack of its expression, which the solver uses as it is.

Feasibility of a system of strict definiteness constraints is decided by a
log-det barrier method on the epigraph form

    minimize t  s.t.  F_j(x) <= t*I  for all j,  |x_i| <= R_BOX,

where each constraint is oriented so that negative definiteness is the
goal.  One loop takes one damped Newton step per turn.  It stops once
``t <= -max(eps_margin, FEASIBILITY_DEPTH)``, when a step fails, when the
duality gap falls below ``eps_margin / 2`` or when the iteration budget
runs out.  The weight on t grows once the iterate is centred (squared
Newton decrement at most 1e-2) or 50 steps were taken at that weight.  The
verdict is INFEASIBLE only when the duality bound, taken at a centred
iterate, proves ``min t > -eps_margin``; FEASIBLE when the last iterate
has ``t <= -eps_margin`` and passes its re-audit; INDETERMINATE otherwise.
So a failed step ends in INDETERMINATE unless the iterate already clears
``eps_margin``.
The box bound ``R_BOX``, the barrier weight's growth factor ``MU_FACTOR``
and ``FEASIBILITY_DEPTH`` are module constants.  Everything is dense and
deterministic; the blocks stay well under 100x100 at the scales this
toolkit targets.

At those sizes a Newton step costs numpy calls, not flops, so the hot
paths are written for few calls with unchanged arithmetic: each block
keeps its coefficients as one (p, dim*dim) matrix, forms F(x) with one
matrix-vector product, and reads x and adds its derivatives by slices
when its variables are contiguous, as the synthesis LMI declares them.
Every floating-point operation, in the solver and in the expression
operators, is that of the term-by-term formulas, which the tests keep as
bit-for-bit references.
"""

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllFormedProblemError,
    LengthMismatchError,
    ValidationError,
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


def _union(id_arrays):
    """Sorted union of integer index arrays, by bincount: np.union1d would
    first import numpy.ma."""
    return np.flatnonzero(np.bincount(np.concatenate([np.zeros(0, int)] + id_arrays)))


class MatExpr:
    """Matrix expression ``const + sum_k x[ids[k]] * coeff[k]``: sorted
    variable indices ``ids``, their (len(ids), rows, cols) coefficient stack
    ``coeff`` and the constant ``const``.  Operators build new arrays and
    never write into an operand's, so expressions may share them."""

    __array_ufunc__ = None  # keep numpy from consuming us in mixed ops

    def __init__(self, ids, coeff, const):
        self.ids, self.coeff, self.const = ids, coeff, const
        self.shape = const.shape
        self.rows, self.cols = self.shape

    @staticmethod
    def wrap(other):
        if isinstance(other, MatExpr):
            return other
        const = np.atleast_2d(np.asarray(other, float))
        return MatExpr(np.zeros(0, int), np.zeros((0,) + const.shape), const)

    def __add__(self, other):
        other = MatExpr.wrap(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        ids = _union([self.ids, other.ids])
        # from -0.0, the exact additive identity, a term of one side alone
        # keeps its bits, signed zeros included
        coeff = _spread(self, ids, -0.0) + _spread(other, ids, -0.0)
        return MatExpr(ids, coeff, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(MatExpr.wrap(other).__neg__())

    def __rsub__(self, other):
        return MatExpr.wrap(other).__add__(self.__neg__())

    def __neg__(self):
        return MatExpr(self.ids, -self.coeff, -self.const)

    def __mul__(self, scalar):
        s = float(scalar)
        return MatExpr(self.ids, s * self.coeff, s * self.const)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Right-multiplication by a constant matrix."""
        if isinstance(other, MatExpr):
            raise TypeError("product of two variable expressions is not affine")
        r = np.atleast_2d(np.asarray(other, float))
        return MatExpr(self.ids, self.coeff @ r, self.const @ r)

    def __rmatmul__(self, other):
        """Left-multiplication by a constant matrix."""
        l = np.atleast_2d(np.asarray(other, float))
        return MatExpr(self.ids, l @ self.coeff, l @ self.const)

    @property
    def T(self):
        return MatExpr(self.ids, self.coeff.transpose(0, 2, 1).copy(), self.const.T.copy())

    def scale(self, matrix):
        """``x * matrix`` for a 1x1 expression x with zero constant (a scalar)."""
        if self.shape != (1, 1) or np.any(self.const):
            raise ValueError("scale() is only defined for 1x1 linear expressions")
        m = np.atleast_2d(np.asarray(matrix, float))
        return MatExpr(self.ids, self.coeff * m, np.zeros(m.shape))

    def expr(self):
        """This expression.  Only perfbench's harness test still calls it."""
        return self

    def value(self, values):
        """Substitute a flat variable vector, adding the terms in ``ids`` order."""
        out = self.const.copy()
        for v, coeff in zip(values[self.ids], self.coeff):
            out += v * coeff
        return out


def _spread(e, ids, fill):
    """The coefficient stack of ``e`` on ``ids``, a sorted superset of
    ``e.ids``: ``fill`` for a variable without a term in e, ``fill +=`` the
    coefficient for one with a term.  An empty stack is not scattered, so
    the ids of a zero-sized expression need not be in ``ids``."""
    coeff = np.full((ids.size,) + e.shape, fill)
    if e.coeff.size:
        coeff[np.searchsorted(ids, e.ids)] += e.coeff
    return coeff


def _tile(grid):
    """``np.block`` of a two-level grid of arrays of one ndim >= 2: each row
    joined along the last axis, then the rows along the second-last, as its
    copies, so its bits and its ValueError when heights or widths differ."""
    return np.concatenate([np.concatenate(row, axis=-1) for row in grid], axis=-2)


def block_expr(grid):
    """Assemble a block matrix expression from a nested list, as ``np.block``.

    Every entry may be a :class:`MatExpr`, an array of at most two
    dimensions, or a scalar (treated as 1x1, a 1-D array as one row);
    zero-sized blocks occupy no space, which lets one assembly path cover
    degenerate controller orders.  With no :class:`MatExpr` entry, the
    result is the plain array.  Otherwise the constants and the stacks are
    tiled, spread onto the variables of the non-empty entries with 0.0
    outside the blocks of each variable."""
    if not any(isinstance(e, MatExpr) for row in grid for e in row):
        return _tile([[np.atleast_2d(np.asarray(e, float)) for e in row] for row in grid])
    grid = [[MatExpr.wrap(e) for e in row] for row in grid]
    ids = _union([e.ids for row in grid for e in row if e.const.size])
    return MatExpr(ids, _tile([[_spread(e, ids, 0.0) for e in row] for row in grid]),
                   _tile([[e.const for e in row] for row in grid]))


@dataclass(frozen=True)
class AffineMatrixConstraint:
    """One definiteness constraint ``constant + sum_k x[ids[k]] * stack[k]
    (sense) 0`` over the sorted variable indices ``ids``."""

    dim: int
    constant: np.ndarray
    ids: np.ndarray
    stack: np.ndarray
    sense: Sense

    @property
    def coeffs(self):
        """{variable index: coefficient matrix}, views of ``stack``."""
        return dict(zip(self.ids.tolist(), self.stack))


def _symmetrized(m):
    """``0.5 (M + M^T)`` of each matrix M of a stack, after checking its
    symmetry at the scale of its own largest entry."""
    mt = m.transpose(0, 2, 1)
    scale = 1.0 + np.abs(m).max(axis=(1, 2))
    if np.any(np.abs(m - mt).max(axis=(1, 2)) > _SYM_TOL * scale):
        raise IllFormedProblemError("constraint matrices must be symmetric")
    return 0.5 * (m + mt)


@functools.lru_cache(maxsize=128)
def triu_pairs(dim, k=0):
    """``np.triu_indices(dim, k)`` as read-only arrays, kept for the last 128
    (dim, k): the variable order of a symmetric (k = 0) or skew (k = 1) block."""
    pairs = np.triu_indices(dim, k)
    for a in pairs:
        a.flags.writeable = False
    return pairs


@dataclass
class LmiProblem:
    """A system of strict LMI constraints over flat scalar variables."""

    num_vars: int = 0
    constraints: list = field(default_factory=list)

    def _declare(self, rows, cols, entries, mirror):
        """The expression of a block of new variables: variable k sets entry
        (i[k], j[k]) of ``entries`` = (i, j) to 1 and, unless ``mirror`` is
        None, entry (j[k], i[k]) to ``mirror`` (1 for a symmetric block, -1
        for a skew one)."""
        i, j = entries
        k = np.arange(i.size)
        coeff = np.zeros((k.size, rows, cols))
        coeff[k, i, j] = 1.0
        if mirror is not None:
            coeff[k, j, i] = mirror
        ids, self.num_vars = self.num_vars + k, self.num_vars + k.size
        return MatExpr(ids, coeff, np.zeros((rows, cols)))

    def declare_symmetric_block(self, dim):
        """Symmetric dim x dim block: dim*(dim+1)/2 variables, the upper
        triangle row by row."""
        return self._declare(dim, dim, triu_pairs(dim), 1.0)

    def declare_skew_block(self, dim):
        """Skew-symmetric block: dim*(dim-1)/2 variables (0 when dim <= 1),
        the strict upper triangle row by row."""
        return self._declare(dim, dim, triu_pairs(dim, 1), -1.0)

    def declare_full_block(self, rows, cols):
        """Unstructured rows x cols block: rows*cols variables, row by row."""
        entries = np.indices((rows, cols)).reshape(2, -1)
        return self._declare(rows, cols, entries, None)

    def declare_scalar(self, name=None):
        """A 1x1 block; ``name`` is unused, perfbench's harness test passes one."""
        return self.declare_full_block(1, 1)

    def add_constraint(self, expr, sense):
        """Add ``expr (sense) 0`` where expr is a square symmetric MatExpr
        with finite entries; terms that are all zero are dropped."""
        expr = MatExpr.wrap(expr)
        if expr.rows != expr.cols or expr.rows == 0:
            raise IllFormedProblemError(
                f"constraint must be square and nonempty, got {expr.shape}"
            )
        if not (np.all(np.isfinite(expr.const)) and np.all(np.isfinite(expr.coeff))):
            raise IllFormedProblemError("constraint entries must be finite")
        const, coeff = _symmetrized(expr.const[None])[0], _symmetrized(expr.coeff)
        nonzero = coeff.any(axis=(1, 2))
        self.constraints.append(AffineMatrixConstraint(
            expr.rows, const, expr.ids[nonzero], coeff[nonzero], Sense(sense)))
        return self.constraints[-1]


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs for the feasibility solver.

    ``eps_margin`` is the strictness margin replacing "< 0"; the barrier
    also stops once its duality gap falls below ``eps_margin / 2``.  It must
    be finite and positive, and ``max_iter`` at least 1, or construction
    raises ``ValidationError``.  The algorithm is deterministic and never
    draws randomness.  The variable box bound,
    the barrier weight's growth factor and the acceptance depth are the
    module constants ``R_BOX``, ``MU_FACTOR`` and ``FEASIBILITY_DEPTH``.
    """

    eps_margin: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        # a margin <= 0 would let FEASIBLE certify points that violate "< 0"
        if not (np.isfinite(self.eps_margin) and self.eps_margin > 0):
            raise ValidationError(
                f"'solver.eps_margin' must be finite and > 0, got {self.eps_margin!r}")
        if self.max_iter < 1:
            raise ValidationError(
                f"'solver.max_iter' must be >= 1, got {self.max_iter!r}")


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
    m = MatExpr(constraint.ids, constraint.stack, constraint.constant).value(values)
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return m, float(eigs[-1] if constraint.sense is Sense.NEGATIVE_DEFINITE else eigs[0])


def constraint_margin(problem, constraint, values):
    """Definiteness margin (positive = satisfied) of one constraint."""
    _, extreme = evaluate_constraint(problem, constraint, values)
    return -extreme if constraint.sense is Sense.NEGATIVE_DEFINITE else extreme


class _Block:
    """NEG-oriented constraint with stacked coefficient tensors, and its
    term -log det(t*I - F(x)) of the barrier.

    ``sel`` selects the block's variables in x and the gradient, ``sel2`` in
    the Hessian: slices when they are contiguous, index arrays otherwise.
    """

    def __init__(self, constraint):
        sign = 1.0 if constraint.sense is Sense.NEGATIVE_DEFINITE else -1.0
        self.dim = d = constraint.dim
        self.const = sign * constraint.constant
        self.var_idx = idx = constraint.ids
        p = idx.size
        self.coeff = sign * constraint.stack
        self.flat = self.coeff.reshape(p, d * d)  # sized explicitly for p = 0
        self.eye = np.eye(d)
        if p and idx[-1] - idx[0] == p - 1:
            self.sel = slice(idx[0], idx[0] + p)
            self.sel2 = (self.sel, self.sel)
        else:
            self.sel, self.sel2 = idx, np.ix_(idx, idx)

    def slack(self, x, t):
        """``(S, log det S)`` for the slack S = t*I - F(x), or None when S is
        not positive definite."""
        m = self.const
        if self.var_idx.size:
            m = m + (x[self.sel] @ self.flat).reshape(self.dim, self.dim)
        s = t * self.eye - m
        ld = _logdet(s)
        return None if ld is None else (s, ld)

    def add_derivatives(self, s, grad, hess):
        """Add the gradient and Hessian of -log det S over (x, t), with t
        the last coordinate, at the slack ``s`` returned by :meth:`slack`."""
        n = grad.size - 1
        w = np.linalg.inv(s)
        w = 0.5 * (w + w.T)
        grad[n] -= np.trace(w)
        hess[n, n] += float(np.sum(w * w))
        v = w @ self.coeff  # stack of V_i = S^-1 A_i
        vflat = v.reshape(self.flat.shape)
        vtflat = np.transpose(v, (0, 2, 1)).reshape(self.flat.shape)
        grad[self.sel] += np.einsum("pii->p", v)
        hess[self.sel2] += vflat @ vtflat.T
        cross = -(vflat @ w.reshape(-1))  # -tr(V_i W), the x-t coupling
        hess[self.sel, n] += cross
        hess[n, self.sel] += cross


def _logdet(s):
    """log det of a symmetric matrix, or None if it is not positive definite."""
    try:
        l = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.sum(np.log(l.diagonal())))


def _add_box_derivatives(xv, grad, hess):
    """Add the gradient and Hessian of -sum log(R_BOX -+ x_i) over x, the
    Hessian through a strided view of the first len(x) diagonal entries."""
    n = xv.size
    grad[:n] += 1.0 / (R_BOX - xv) - 1.0 / (R_BOX + xv)
    hess.reshape(-1)[: n * (n + 2) : n + 2] += (
        1.0 / (R_BOX - xv) ** 2 + 1.0 / (R_BOX + xv) ** 2
    )


def solve_feasibility(problem, cfg=None):
    """Decide strict feasibility of all constraints simultaneously.

    Runs a short-step barrier method on ``min t : F_j(x) <= t*I`` and
    returns FEASIBLE with a strictly satisfying point, INFEASIBLE with a
    duality bound, taken at a centred iterate, that no point reaches margin
    ``eps_margin``, or INDETERMINATE if the duality gap closes, a Newton
    step fails or the iteration budget runs out in the gray zone.
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
            slack = b.slack(xv, tv)
            if slack is None:
                return None
            slacks.append(slack[0])
            phi -= slack[1]
        phi -= float(np.sum(np.log(R_BOX - xv) + np.log(R_BOX + xv)))
        return xv, tv, phi, slacks

    def newton_step(pt, mu):
        """One damped Newton step on mu*t + phi from the point ``pt``:
        the accepted point and the squared decrement, or None when the
        Newton system cannot be factored or no trial passes the line
        search."""
        xv, tv, phi, slacks = pt
        grad = np.zeros(n + 1)
        hess = np.zeros((n + 1, n + 1))
        for b, s in zip(blocks, slacks):
            b.add_derivatives(s, grad, hess)
        _add_box_derivatives(xv, grad, hess)
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
            return None
        step = -np.linalg.solve(l.T, np.linalg.solve(l, grad))
        lam2 = float(-grad @ step)
        if not np.isfinite(lam2) or lam2 < 0:
            return None

        f0 = mu * tv + phi
        alpha = 1.0 if lam2 <= 0.9 else 1.0 / (1.0 + np.sqrt(lam2))
        for _ in range(60):
            trial = point(xv + alpha * step[:n], tv + alpha * step[n])
            if trial is not None and mu * trial[1] + trial[2] <= f0 - 0.25 * alpha * lam2:
                return trial, lam2
            alpha *= 0.5
        return None

    t = max(float(np.linalg.eigvalsh(b.const)[-1]) for b in blocks)
    pt = point(np.zeros(n), t + 1.0 + 0.1 * abs(t))
    x, t = pt[:2]
    mu = 1.0 / (1.0 + abs(t))
    iters = steps = 0  # Newton steps in all, and at the current mu
    status = SdpStatus.INDETERMINATE
    while t > -depth and iters < cfg.max_iter:
        iters += 1
        steps += 1
        step = newton_step(pt, mu)
        if step is None:
            break
        pt, lam2 = step
        x, t = pt[:2]
        centred = lam2 <= 1e-2  # loose, but enough for the duality bound
        if t <= -depth or (not centred and steps < 50):
            continue
        gap = (nu + np.sqrt(nu)) / mu
        if centred and t - gap > -cfg.eps_margin:  # proves min t > -eps_margin
            status = SdpStatus.INFEASIBLE
            break
        if gap <= 0.5 * cfg.eps_margin:
            break
        mu *= MU_FACTOR
        steps = 0

    achieved = min(constraint_margin(problem, c, x) for c in problem.constraints)
    # t - gap > -eps_margin excludes t <= -eps_margin; a FEASIBLE point must
    # also pass its re-audit, or the verdict stays INDETERMINATE
    if t <= -cfg.eps_margin and achieved >= cfg.eps_margin:
        status = SdpStatus.FEASIBLE
    return SdpSolution(status, x, achieved, iters, float(t))
