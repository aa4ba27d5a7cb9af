"""Interval-uncertain fractional-order plants.

An uncertain plant is described by elementwise interval bounds on its state
and input matrices.  The bounds are split into a midpoint plus a structured
radius factorization ``A = A0 + M_A F_A R_A`` with ``F_A`` diagonal and
bounded by the unit box.  The synthesis lift consumes only M M^T and the
column sums of the radii, as (M M^T, D) (see ``synthesis._lift``).
The certification sweep is one stream of unit-box scaling rows from
:func:`sweep_scalings`, which alone decides which rows are swept and in what
order (vertices, then seeded uniform samples, else the center); :func:`realize`
is the one route from scaling rows to plant stacks.
:class:`UncertaintyRealization` names one such row, as the worst case of a
certification report.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, OutOfUnitBoxError, ShapeMismatchError
from .linalg import as_matrix, check_alpha

MAX_VERTICES = 2 ** 24
# Rows per array of the certification sweep.  ``synthesis.certify`` checks
# its stop at the margin floor once per array, so the vertex arrays grow
# fourfold from FIRST_VERTEX_ROWS to SWEEP_CHUNK (8, 32, 128, 512, 512, ...)
# and a failing example2 design stops after 8 rows.  The samples keep
# SWEEP_CHUNK-row arrays: growing them too slowed the passing large-plant
# certify.  A passing 2^16-vertex sweep takes the same time, within noise,
# in 512-row arrays as in 8192-row ones (BENCH_26.json).
FIRST_VERTEX_ROWS = 8
SWEEP_CHUNK = 512


@dataclass(frozen=True)
class IntervalMatrix:
    """Elementwise interval [lower, upper] with finite midpoint and half-width."""

    lower: np.ndarray
    upper: np.ndarray
    # "a" names the bounds a_lower and a_upper in error messages
    name: str = ""

    def __post_init__(self):
        prefix = f"{self.name}_" if self.name else ""
        lo_name, hi_name = prefix + "lower", prefix + "upper"
        lo = as_matrix(self.lower, lo_name)
        hi = as_matrix(self.upper, hi_name)
        if lo.shape != hi.shape:
            raise BoundViolationError(
                f"interval bound shapes differ: {lo_name} {lo.shape} vs {hi_name} {hi.shape}"
            )
        if np.any(lo > hi):
            raise BoundViolationError(f"interval bound: {lo_name} > {hi_name} somewhere")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(lo + hi) & np.isfinite(hi - lo)):
                raise BoundViolationError(
                    f"interval bound: midpoint or half-width of {lo_name} and "
                    f"{hi_name} overflows")
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
    A (n x n) and B (n x l), l >= 1, and a certain output matrix C (m x n)."""

    alpha: float
    a: IntervalMatrix
    b: IntervalMatrix
    c: np.ndarray

    def __post_init__(self):
        check_alpha(self.alpha)
        c = as_matrix(self.c, "c")
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise ShapeMismatchError(f"A interval must be square, got {self.a.shape}")
        if self.b.shape[0] != n:
            raise ShapeMismatchError(
                f"B interval has {self.b.shape[0]} rows, expected {n}"
            )
        if self.b.shape[1] == 0:
            raise ShapeMismatchError(
                "B interval has no columns: the plant needs at least one input")
        if c.shape[1] != n:
            raise ShapeMismatchError(f"C has {c.shape[1]} columns, expected {n}")
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
        _check_unit_box(np.concatenate([fa, fb]))
        object.__setattr__(self, "f_a", fa)
        object.__setattr__(self, "f_b", fb)


def _check_unit_box(f):
    if not np.abs(f).max(initial=0.0) <= 1.0 + 1e-12:  # NaN fails too
        raise OutOfUnitBoxError("realization entry outside [-1, 1]")


def _radius_factors(delta):
    """Build the (M, R) pair for one radius matrix.

    Columns of M are sqrt(radius) times state-space unit vectors e_i; rows
    of R are sqrt(radius) times e_j in a ``cols``-dimensional space, both
    in row-major (i, j) order.  Zero radii keep their (zero) columns so
    shapes stay exactly rows x (rows*cols) and (rows*cols) x cols.
    """
    rows, cols = delta.shape
    k = np.arange(rows * cols)
    s = np.sqrt(delta).ravel()
    m = np.zeros((rows, rows * cols))
    r = np.zeros((rows * cols, cols))
    m[k // cols, k] = s
    r[k, k % cols] = s
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
    m_a, r_a = _radius_factors(delta_a)
    m_b, r_b = _radius_factors(delta_b)
    return UncertaintyFactors(a0, delta_a, m_a, r_a, b0, delta_b, m_b, r_b)


def realize(factors, rows):
    """Plant stacks A (N, n, n) and B (N, n, l) for an (N, n^2 + n*l) array
    of unit-box scaling rows [f_a | f_b].

    Entry (i, j) of A moves by ``s * (f * s)`` with
    ``s = sqrt(delta_a[i, j])``, which is exactly the factorized product
    ``m_a @ (f[:, None] * r_a)``; B likewise.  One realization
    ``(f_a, f_b)`` is the single row ``np.concatenate([f_a, f_b])[None]``.
    """
    na, nb = factors.m_a.shape[1], factors.m_b.shape[1]
    f = np.asarray(rows, dtype=float)
    if f.ndim != 2 or f.shape[1] != na + nb:
        raise ShapeMismatchError(
            f"scalings have shape {f.shape}, expected (N, {na + nb})")
    _check_unit_box(f)
    sa, sb = np.sqrt(factors.delta_a), np.sqrt(factors.delta_b)
    fa = f[:, :na].reshape(-1, *sa.shape)
    fb = f[:, na:].reshape(-1, *sb.shape)
    return factors.a0 + sa * (fa * sa), factors.b0 + sb * (fb * sb)


def sweep_scalings(factors, sample_count, seed):
    """The certification sweep: ``(vertex_count, row_count, arrays)``.

    ``vertex_count`` is 2**k for the k strictly positive radii when that is
    at most ``MAX_VERTICES``, else 0, and ``row_count`` is the number of rows
    ``arrays`` yields, the one row total of the sweep.  ``arrays`` yields the
    scaling rows [f_a | f_b]: first the vertices in number order, where bit
    b of the number sets the sign (+1 when set) of the b-th positive radius,
    A row-major then B, and zero radii stay 0, in arrays of
    ``FIRST_VERTEX_ROWS`` rows growing fourfold up to ``SWEEP_CHUNK``; then
    ``sample_count`` uniform rows of one ``RandomState(seed)`` stream, f_a
    then f_b per row, in arrays of ``SWEEP_CHUNK`` rows, the same rows
    whatever the array sizes.  When neither gives a row, the center row
    comes alone.  A family without a positive radius holds one plant, so it
    is swept as its center alone (vertex 0, all zeros), whatever
    ``sample_count``: no samples are drawn.
    """
    radii = np.concatenate([factors.delta_a.ravel(), factors.delta_b.ravel()])
    active = np.flatnonzero(radii > 0)
    vertex_count = 2 ** active.size if 2 ** active.size <= MAX_VERTICES else 0
    sample_count = sample_count if active.size else 0

    def arrays():
        lo, size = 0, FIRST_VERTEX_ROWS
        while lo < vertex_count:
            size = min(size, SWEEP_CHUNK)
            numbers = np.arange(lo, min(lo + size, vertex_count))
            bits = (numbers[:, None] >> np.arange(active.size)) & 1
            f = np.zeros((numbers.size, radii.size))
            f[:, active] = 2.0 * bits - 1.0
            yield f
            lo, size = lo + size, 4 * size
        if sample_count:
            rng = np.random.RandomState(seed)
            for lo in range(0, sample_count, SWEEP_CHUNK):
                count = min(SWEEP_CHUNK, sample_count - lo)
                yield rng.uniform(-1.0, 1.0, size=(count, radii.size))
        elif vertex_count == 0:
            yield np.zeros((1, radii.size))

    return vertex_count, max(1, vertex_count + sample_count), arrays()
