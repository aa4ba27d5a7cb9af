"""Interval-uncertain fractional-order plants.

An uncertain plant is described by elementwise interval bounds on its state
and input matrices.  The bounds are split into a midpoint plus a structured
radius factorization ``A = A0 + M_A F_A R_A`` with ``F_A`` diagonal and
bounded by the unit box.  The synthesis lift consumes only M M^T and the
column sums of the radii, as (M M^T, D) (see ``synthesis._lift``).
The certification sweep draws arrays of unit-box scaling rows: vertices
from :func:`vertex_scalings`, seeded uniform samples from
:func:`sample_scalings`, both turned into plant stacks by :func:`realize`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, OutOfUnitBoxError
from .linalg import as_matrix

MAX_VERTICES = 2 ** 24


@dataclass(frozen=True)
class IntervalMatrix:
    """Elementwise interval [lower, upper] over a real matrix."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_matrix(self.lower, "lower")
        hi = as_matrix(self.upper, "upper")
        if lo.shape != hi.shape:
            raise BoundViolationError(
                f"interval bound shapes differ: {lo.shape} vs {hi.shape}"
            )
        if np.any(lo > hi):
            raise BoundViolationError("interval bound: lower > upper somewhere")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def shape(self):
        return self.lower.shape

    @classmethod
    def certain(cls, m):
        """Degenerate interval containing exactly one matrix."""
        a = as_matrix(m)
        return cls(a.copy(), a.copy())


@dataclass(frozen=True)
class UncertainFoltiSystem:
    """Fractional-order plant D^alpha x = A x + B u, y = C x with interval
    A (n x n) and B (n x l) and a certain output matrix C (m x n)."""

    alpha: float
    a: IntervalMatrix
    b: IntervalMatrix
    c: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        c = as_matrix(self.c, "c")
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise ValueError(f"A interval must be square, got {self.a.shape}")
        if self.b.shape[0] != n:
            raise ValueError(
                f"B interval has {self.b.shape[0]} rows, expected {n}"
            )
        if c.shape[1] != n:
            raise ValueError(f"C has {c.shape[1]} columns, expected {n}")
        object.__setattr__(self, "c", c)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def l(self):
        return self.b.shape[1]

    @property
    def m(self):
        return self.c.shape[0]


@dataclass(frozen=True)
class UncertaintyFactors:
    """Midpoint/radius data for an uncertain plant.

    ``m_a`` is n x n^2 and ``r_a`` is n^2 x n with the (i, j) radius entries
    laid out row-major, so ``m_a @ diag(f) @ r_a`` perturbs entry (i, j) by
    ``f[(i, j)] * delta_a[i, j]``.  The B factors are analogous with shapes
    n x (n*l) and (n*l) x l.
    """

    a0: np.ndarray
    delta_a: np.ndarray
    m_a: np.ndarray
    r_a: np.ndarray
    b0: np.ndarray
    delta_b: np.ndarray
    m_b: np.ndarray
    r_b: np.ndarray

    @property
    def n(self):
        return self.a0.shape[0]

    @property
    def l(self):
        return self.b0.shape[1]

    @property
    def is_certain(self):
        return not (np.any(self.delta_a > 0) or np.any(self.delta_b > 0))


@dataclass(frozen=True)
class UncertaintyRealization:
    """Diagonal scalings in [-1, 1] picking one plant from the family."""

    f_a: np.ndarray
    f_b: np.ndarray

    def __post_init__(self):
        fa = np.asarray(self.f_a, dtype=float).reshape(-1)
        fb = np.asarray(self.f_b, dtype=float).reshape(-1)
        if (fa.size and np.abs(fa).max() > 1.0 + 1e-12) or (
            fb.size and np.abs(fb).max() > 1.0 + 1e-12
        ):
            raise OutOfUnitBoxError("realization entry outside [-1, 1]")
        object.__setattr__(self, "f_a", fa)
        object.__setattr__(self, "f_b", fb)


def _radius_factors(delta, unit_dim):
    """Build the (M, R) pair for one radius matrix.

    Columns of M are sqrt(radius) times state-space unit vectors e_i; rows
    of R are sqrt(radius) times e_j in a ``unit_dim``-dimensional space,
    both in row-major (i, j) order.  Zero radii keep their (zero) columns so
    shapes stay exactly n x (rows*cols) and (rows*cols) x unit_dim.
    """
    rows, cols = delta.shape
    m = np.zeros((rows, rows * cols))
    r = np.zeros((rows * cols, unit_dim))
    for i in range(rows):
        for j in range(cols):
            k = i * cols + j
            s = np.sqrt(delta[i, j])
            m[i, k] = s
            r[k, j] = s
    return m, r


def decompose(sys):
    """Midpoint/radius decomposition plus the structured factorization.

    Returns an :class:`UncertaintyFactors` with ``a0 = (lower+upper)/2``,
    ``delta_a = (upper-lower)/2`` and factors satisfying
    ``m_a @ r_a == delta_a`` exactly (same for B).
    """
    a0 = 0.5 * (sys.a.lower + sys.a.upper)
    delta_a = 0.5 * (sys.a.upper - sys.a.lower)
    b0 = 0.5 * (sys.b.lower + sys.b.upper)
    delta_b = 0.5 * (sys.b.upper - sys.b.lower)
    m_a, r_a = _radius_factors(delta_a, sys.n)
    m_b, r_b = _radius_factors(delta_b, sys.l)
    return UncertaintyFactors(a0, delta_a, m_a, r_a, b0, delta_b, m_b, r_b)


def scaling_width(factors):
    """Length of one scaling row [f_a | f_b]: n^2 + n*l."""
    return factors.m_a.shape[1] + factors.m_b.shape[1]


def realize(factors, u):
    """Plant matrices for unit-box scalings.

    ``u`` is an :class:`UncertaintyRealization`, giving one pair (A, B), or
    an (N, n^2 + n*l) array of scaling rows [f_a | f_b], giving the stacks
    A (N, n, n) and B (N, n, l).  Entry (i, j) of A moves by
    ``s * (f * s)`` with ``s = sqrt(delta_a[i, j])``, which is exactly the
    factorized product ``m_a @ (f[:, None] * r_a)``; B likewise.
    """
    na, nb = factors.m_a.shape[1], factors.m_b.shape[1]
    if isinstance(u, UncertaintyRealization):
        if u.f_a.shape != (na,):
            raise ValueError(f"f_a has length {u.f_a.size}, expected {na}")
        if u.f_b.shape != (nb,):
            raise ValueError(f"f_b has length {u.f_b.size}, expected {nb}")
        a, b = realize(factors, np.concatenate([u.f_a, u.f_b])[None])
        return a[0], b[0]
    f = np.asarray(u, dtype=float)
    if f.ndim != 2 or f.shape[1] != na + nb:
        raise ValueError(f"scalings have shape {f.shape}, expected (N, {na + nb})")
    if f.size and np.abs(f).max() > 1.0 + 1e-12:
        raise OutOfUnitBoxError("realization entry outside [-1, 1]")
    sa, sb = np.sqrt(factors.delta_a), np.sqrt(factors.delta_b)
    fa = f[:, :na].reshape(-1, *sa.shape)
    fb = f[:, na:].reshape(-1, *sb.shape)
    return factors.a0 + sa * (fa * sa), factors.b0 + sb * (fb * sb)


def count_vertices(factors):
    """Number of sign-pattern vertices over the strictly positive radii."""
    nnz = int(np.count_nonzero(factors.delta_a > 0)) + int(
        np.count_nonzero(factors.delta_b > 0)
    )
    return 2 ** nnz


def vertex_scalings(factors, lo, hi):
    """Scaling rows [f_a | f_b] of the vertices numbered ``lo`` .. ``hi - 1``.

    Bit ``k`` of a vertex number sets the sign (+1 when the bit is set) of
    the k-th strictly positive radius, A row-major then B; zero-radius
    coordinates stay 0.
    """
    radii = np.concatenate([factors.delta_a.ravel(), factors.delta_b.ravel()])
    active = np.flatnonzero(radii > 0)
    bits = (np.arange(lo, hi)[:, None] >> np.arange(active.size)) & 1
    f = np.zeros((hi - lo, radii.size))
    f[:, active] = 2.0 * bits - 1.0
    return f


def sample_scalings(factors, count, seed, chunk):
    """Yield ``count`` seeded uniform scaling rows [f_a | f_b] in arrays of
    at most ``chunk`` rows.

    The rows are the same whatever the chunk size: one
    ``RandomState(seed)`` stream, f_a then f_b per row.
    """
    rng = np.random.RandomState(seed)
    width = scaling_width(factors)
    for lo in range(0, count, chunk):
        yield rng.uniform(-1.0, 1.0, size=(min(chunk, count - lo), width))
