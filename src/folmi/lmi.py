"""Affine linear-matrix-inequality problems and a dense feasibility solver.

A problem's decision variables are one flat vector, laid out in matrix
blocks (symmetric, skew-symmetric, full) by :class:`Layout`; a
:class:`VarBlock` reads its block from any batch of variable vectors.  A
constraint is its constant and one coefficient matrix per variable, which
the solver uses as they are: an affine map F written once on arrays gives
them as F(0) and F(e_k) - F(0) from one batch of the zero vector and the
unit vectors (see :func:`folmi.stability.certificate_lmi`).

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
paths are written for few calls with unchanged arithmetic.  Each block
keeps its coefficients as one (p, dim*dim) matrix, forms F(x) with one
matrix-vector product, and reads x and adds its derivatives by slices
when its variables are contiguous, as the synthesis LMI lays them out.
Each point (the start and every line-search trial) forms its slacks and
its box gaps R_BOX -+ x once, the gaps as one (2, n) array that the box
test, the barrier value and the next step's box terms all read; a Newton
step reuses the slacks of the point it starts from.  The final audit sums
each constraint's terms as one running sum over a stack.  Every
floating-point operation is that of the term-by-term formulas:
``TestBlockBitIdentity`` (tests/test_lmi.py) pins a block's slack and
derivatives and the box terms to them, and ``TestWholeSolveBitIdentity``
pins whole solves (points, iteration counts, statuses, margins) to a
term-by-term reference loop.
"""

import enum
import functools
import math
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


def _tile(grid):
    """``np.block`` of a two-level grid of arrays of one ndim >= 2: each row
    joined along the last axis, then the rows along the second-last, as its
    copies, so its bits and its ValueError when heights or widths differ."""
    return np.concatenate([np.concatenate(row, axis=-1) for row in grid], axis=-2)


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


@dataclass(frozen=True)
class VarBlock:
    """A rows x cols matrix of the variables ``ids``: ids[k] is entry (i[k],
    j[k]) of ``entries`` = (i, j) and, times ``mirror`` (1.0 symmetric, -1.0
    skew, None full), entry (j[k], i[k]); every other entry is 0."""

    ids: np.ndarray
    shape: tuple
    entries: tuple
    mirror: float | None

    def value(self, x):
        """The block at each variable vector of x, shape (..., num_vars), as
        (..., rows, cols).  An entry is ``mirror * x_k + 0.0``: a variable
        at -0.0 gives 0.0, so no zero's sign reaches a constraint's constant."""
        v = x[..., self.ids]
        out = np.zeros(x.shape[:-1] + self.shape)
        i, j = self.entries
        if self.mirror is not None:
            out[..., j, i] = self.mirror * v + 0.0
        out[..., i, j] = v + 0.0
        return out


class Layout:
    """Variable blocks laid out one after another in a flat vector."""

    def __init__(self):
        self.num_vars = 0

    def block(self, rows, cols, k=None):
        """The next :class:`VarBlock`, its entries row by row: all of a rows
        x cols block for ``k`` None, else the upper triangle from diagonal k
        of a square one, symmetric for k = 0 and skew for k = 1."""
        entries = triu_pairs(rows, k) if k is not None else tuple(
            np.indices((rows, cols)).reshape(2, -1))
        ids = np.arange(self.num_vars, self.num_vars + entries[0].size)
        self.num_vars += ids.size
        return VarBlock(ids, (rows, cols), entries, None if k is None else (1.0, -1.0)[k])


@dataclass
class LmiProblem:
    """A system of strict LMI constraints over flat scalar variables."""

    num_vars: int = 0
    constraints: list = field(default_factory=list)

    def add_constraint(self, constant, stack, sense):
        """Add ``constant + sum_k x_k stack[k] (sense) 0`` over the num_vars
        variables, each matrix square, symmetric and finite; terms that are
        all zero are dropped."""
        constant, stack = np.asarray(constant, float), np.asarray(stack, float)
        dim = constant.shape[0] if constant.ndim == 2 else 0
        if not dim or constant.shape != (dim, dim) or stack.shape != (self.num_vars, dim, dim):
            raise IllFormedProblemError(
                f"constraint must be square and nonempty with {self.num_vars} "
                f"terms, got {constant.shape} and {stack.shape}")
        if not (np.all(np.isfinite(constant)) and np.all(np.isfinite(stack))):
            raise IllFormedProblemError("constraint entries must be finite")
        const, coeff = _symmetrized(constant[None])[0], _symmetrized(stack)
        nonzero = coeff.any(axis=(1, 2))
        self.constraints.append(AffineMatrixConstraint(
            dim, const, np.flatnonzero(nonzero), coeff[nonzero], Sense(sense)))
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
    # a running sum over [constant, v_k A_k, ...] adds in the order of
    # m = constant; m += v_k A_k; sum(axis=0) does not: it turns -0.0 into
    # 0.0 and adds 1 x 1 terms pairwise
    terms = np.concatenate([constraint.constant[None],
                            values[constraint.ids, None, None] * constraint.stack])
    m = np.add.accumulate(terms, out=terms)[-1]
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
        grad[n] -= w.trace()
        hess[n, n] += float((w * w).sum())
        v = w @ self.coeff  # stack of V_i = S^-1 A_i
        vflat = v.reshape(self.flat.shape)
        vtflat = v.transpose(0, 2, 1).reshape(self.flat.shape)
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
    return 2.0 * float(np.log(l.diagonal()).sum())


_BOX_SIGNS = np.array([[-1.0], [1.0]])


def _box_gaps(xv):
    """R_BOX - x and R_BOX + x, the rows of one (2, len(x)) array; R_BOX +
    (-1.0 * x) is R_BOX - x bit for bit."""
    return R_BOX + _BOX_SIGNS * xv


def _add_box_derivatives(xv, grad, hess, gaps=None):
    """Add the gradient and Hessian of -sum log(R_BOX -+ x_i) over x, the
    Hessian through a strided view of the first len(x) diagonal entries;
    ``gaps`` is ``_box_gaps(xv)`` when the caller has it."""
    n = xv.size
    gaps = _box_gaps(xv) if gaps is None else gaps
    inv, inv2 = 1.0 / gaps, 1.0 / gaps ** 2
    grad[:n] += inv[0] - inv[1]
    hess.reshape(-1)[: n * (n + 2) : n + 2] += inv2[0] + inv2[1]


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
        """``(x, t, phi, slacks S_j = t*I - F_j(x), box gaps)``, or None
        when the point is not strictly feasible; the only place slacks and
        gaps are formed."""
        gaps = _box_gaps(xv)
        if (gaps <= 0.0).any():  # |x_i| >= R_BOX
            return None
        slacks = []
        phi = 0.0
        for b in blocks:
            slack = b.slack(xv, tv)
            if slack is None:
                return None
            slacks.append(slack[0])
            phi -= slack[1]
        logs = np.log(gaps)
        phi -= float((logs[0] + logs[1]).sum())
        return xv, tv, phi, slacks, gaps

    def newton_step(pt, mu):
        """One damped Newton step on mu*t + phi from the point ``pt``:
        the accepted point and the squared decrement, or None when the
        Newton system cannot be factored or no trial passes the line
        search."""
        xv, tv, phi, slacks, gaps = pt
        grad = np.zeros(n + 1)
        hess = np.zeros((n + 1, n + 1))
        for b, s in zip(blocks, slacks):
            b.add_derivatives(s, grad, hess)
        _add_box_derivatives(xv, grad, hess, gaps)
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
        if not math.isfinite(lam2) or lam2 < 0:
            return None

        f0 = mu * tv + phi
        dx, dt = step[:n], float(step[n])
        alpha = 1.0 if lam2 <= 0.9 else 1.0 / (1.0 + math.sqrt(lam2))
        for _ in range(60):
            trial = point(xv + alpha * dx, tv + alpha * dt)
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
        gap = (nu + math.sqrt(nu)) / mu
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
