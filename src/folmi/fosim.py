"""Time-domain simulation of autonomous fractional-order linear systems.

Integrates D^alpha x = A x (Caputo, 0 < alpha < 2) with the implicit
Grunwald-Letnikov scheme on the shifted variable y = x - x(0), for which
the Riemann-Liouville-form GL operator coincides with the Caputo
derivative; for 1 < alpha < 2 the second initial condition is fixed at
x'(0) = 0 (simulation from rest).

The memory is kept in full, with no short-memory truncation and no knob:
step k sums w_j y_{k-j} over every lag 1 <= j <= k.  The lags in each
dyadic band [L, 2L), L = _NEAR, 2 _NEAR, ..., are subtracted ahead for the
next L nodes by one FFT convolution over all states, made at every multiple
of L (the semi-relaxed block convolution of Hairer, Lubich & Schlichte 1985,
"Fast numerical solution of nonlinear Volterra convolution equations", SIAM
J. Sci. Stat. Comput. 6:532); the top band reads only what the nodes up to
the horizon reach.  The lags j < _NEAR are solved a block of nodes at a time
(_BLOCK, fewer for loops of more than _BLOCK_ROWS / _BLOCK states): one
Toeplitz product subtracts the lags that reach before the block, and one
precomputed inverse of the implicit step over the block resolves the lags
inside it.  Each term is summed exactly once, so N steps cost
O(N log^2 N) instead of the O(N^2) of the step-by-step sum.

A scalar Mittag-Leffler evaluator provides an independent analytic oracle
E_alpha(lambda t^alpha) for validating the stepper on (block-)diagonal
systems.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DivergenceError,
    DomainTooLargeError,
    SingularStepError,
    StepTooLargeError,
    ValidationError,
)
from .linalg import check_alpha, require_square

ML_DOMAIN = 50.0

# most steps one simulation may take: the state history alone then holds
# 80 MB per state
MAX_STEPS = 10 ** 7

# log of the largest tolerable series term; beyond this the alternating
# series loses more to cancellation than the asymptotic branch loses to
# truncation, so the branches swap
_SERIES_PEAK_LOG = 14.0

# step guard: h^alpha * spectral_radius(A) above this is meaningless
_STEP_RADIUS_CAP = 100.0

# GL lags below this are solved in blocks of nodes, the rest summed in
# dyadic FFT bands [L, 2L) for L = _NEAR, 2 _NEAR, ...; a power of two.  The
# bands below 512 are call-bound FFTs: at 512 a 20 000-step 6-state loop makes
# 154 FFT calls instead of 624 and runs about 8% faster than at 128, with 256
# and 1024 in between.  The wider near product costs less than those FFTs on
# every loop timed, 1 to 128 states, in the smaller blocks too
_NEAR = 512

# most nodes solved together by one precomputed block inverse; divides _NEAR,
# so the bands fire only at block starts
_BLOCK = 32

# most rows of the block inverse: above _BLOCK_ROWS / _BLOCK states the block
# is halved, down to 2 nodes, until it fits.  Its dense matvec costs
# block * n^2 multiply-adds per node, and past about 256 rows that outweighs
# the per-node Python work it saves (timed on 1- to 64-state loops)
_BLOCK_ROWS = 256

_CSV_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop ``states``, one row per entry of the uniform ``times`` from 0."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final_norm_ratio(self):
        """||x(t_end)|| / ||x(0)|| (inf when starting from zero)."""
        n0 = float(np.linalg.norm(self.states[0]))
        nT = float(np.linalg.norm(self.states[-1]))
        return nT / n0 if n0 > 0 else math.inf


def gl_weights(alpha, count):
    """First ``count`` Grunwald-Letnikov weights for order alpha.

    These are the coefficients of (1 - z)^alpha: w_0 = 1 and
    w_j = w_{j-1} * (1 - (alpha + 1) / j), multiplied in that order.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    factors = np.empty(count)
    factors[0] = 1.0
    factors[1:] = 1.0 - (alpha + 1.0) / np.arange(1, count)
    return np.cumprod(factors)


def _reciprocal_gamma(x):
    """1 / Gamma(x), zero at the poles, via reflection for x <= 0."""
    if x > 0.0:
        try:
            return 1.0 / math.gamma(x)
        except OverflowError:
            return 0.0
    if x == math.floor(x):
        return 0.0
    s = math.sin(math.pi * x)
    try:
        return s * math.gamma(1.0 - x) / math.pi
    except OverflowError:
        return math.inf if s > 0 else -math.inf


def _series_peak_log(alpha, z):
    """Estimated log of the largest term of the defining series."""
    mag = abs(z)
    if mag <= 1.0:
        return 0.0
    log_mag = math.log(mag)
    k_star = max((math.exp(log_mag / alpha) - 1.0) / alpha, 1.0)
    return k_star * log_mag - math.lgamma(alpha * k_star + 1.0)


def _ml_series(alpha, z):
    terms = [1.0]
    log_mag = math.log(abs(z))
    total = 1.0
    for k in range(1, 20000):
        log_term = k * log_mag - math.lgamma(alpha * k + 1.0)
        if log_term > 709.0:  # exp overflow; only reachable for large z > 0
            return math.inf
        term = math.exp(log_term)
        if z < 0.0 and k % 2 == 1:
            term = -term
        terms.append(term)
        total += term
        # term magnitudes are unimodal in k, so a relative cutoff is safe
        if abs(term) < 1e-16 * max(abs(total), 1e-300):
            break
    return math.fsum(terms)


def _ml_asymptotic(alpha, z):
    """Large negative z expansion, optimally truncated at the smallest term."""
    terms = []
    z_pow = 1.0
    prev_mag = math.inf
    for k in range(1, 400):
        z_pow /= z
        rgamma = _reciprocal_gamma(1.0 - alpha * k)
        if rgamma == 0.0:
            continue  # pole of Gamma: the term vanishes identically
        if not math.isfinite(rgamma):
            break
        term = -z_pow * rgamma
        mag = abs(term)
        if mag > prev_mag and k > 2:
            break
        terms.append(term)
        prev_mag = mag
    return math.fsum(terms)


def mittag_leffler(alpha, z):
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1) for real z, 0 < alpha < 2.

    Uses the defining series with exactly-rounded (fsum) accumulation when
    the terms stay small enough for cancellation to be harmless, and the
    standard algebraic large-argument expansion for deeply negative z.
    Arguments beyond |z| = 50 are rejected.
    """
    check_alpha(alpha)
    if abs(z) > ML_DOMAIN:
        raise DomainTooLargeError(f"|z| = {abs(z)} exceeds domain bound {ML_DOMAIN}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        # exact identity; the asymptotic branch cannot represent the
        # exponentially small tail at deeply negative z
        return math.exp(z)
    if z < 0.0 and _series_peak_log(alpha, z) > _SERIES_PEAK_LOG:
        return _ml_asymptotic(alpha, z)
    return _ml_series(alpha, z)


def _block_toeplitz_inverse(step_inv, w):
    """Inverse of the implicit GL step over len(w) consecutive nodes.

    The step is block lower-triangular Toeplitz, with step_inv^-1 on the
    diagonal and w_i I on the i-th subdiagonal, so its inverse is too, with
    blocks R_0 = step_inv and R_i = -step_inv sum_{j=1..i} w_j R_{i-j}.
    """
    b, n = w.size, step_inv.shape[0]
    r = np.empty((b, n, n))
    r2 = r.reshape(b, n * n)
    inv = np.zeros((b, n, b, n))
    for i in range(b):
        # np.tensordot's own (1, i) @ (i, n^2) dot, bit for bit, minus its reshaping
        r[i] = -step_inv @ np.dot(w[i:0:-1][None], r2[:i]).reshape(n, n) if i else step_inv
        inv[i, :, : i + 1] = r[i::-1].transpose(1, 0, 2)
    return inv.reshape(b * n, b * n)


def _near_history(w, block):
    """history[i, m] weighs y_{k-_NEAR+1+m}, row m of ys[k : k + _NEAR - 1], for
    node k + i: w_{_NEAR-1+i-m}, zero from lag _NEAR on.  Row i is a window of
    the reversed weights behind block - 1 zeros, copied C-contiguous."""
    padded = np.concatenate([np.zeros(block - 1), w[_NEAR - 1 : 0 : -1]])
    return sliding_window_view(padded, _NEAR - 1)[block - 1 :: -1].copy()


def _subtract_band(y, w, k, size, hi, spectra):
    """Subtract the lags [size, 2 size) of nodes [k, hi) from y[k:hi].

    They read y_lo .. y_{k-1}, all known, through one circular convolution
    long enough to keep the wrap-around out of rows [k, hi).  A band cut
    short by the horizon reads only the rows and weights its nodes reach.
    """
    lo = max(k - 2 * size + 1, 0)
    src, w_hi = min(k, hi - size), min(2 * size, hi - lo)
    # src - lo rows times w_hi - size weights, read from offset k - size - lo:
    # the shortest power of two at least src + w_hi - k - 1
    length = 1 << (src + w_hi - k - 2).bit_length()
    key = (size, w_hi, length)
    if key not in spectra:
        spectra[key] = np.fft.rfft(w[size:w_hi], length)[:, None]
    spectrum = np.fft.rfft(y[lo:src], length, axis=0)
    spectrum *= spectra[key]
    y[k:hi] -= np.fft.irfft(spectrum, length, axis=0)[k - size - lo : hi - size - lo]


def check_simulate_settings(x0, t_end, h):
    """ValidationError unless the step h is finite and > 0, t_end is finite
    and covers at least one step, t_end / h is finite and rounds to at most
    ``MAX_STEPS`` steps, and x0 is finite."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValidationError(f"simulate step h must be positive and finite, got {h}")
    if not math.isfinite(t_end):
        raise ValidationError(f"simulate t_end must be finite, got {t_end}")
    if t_end < h:
        raise ValidationError(
            f"simulate t_end must cover at least one step, got {t_end} < {h}")
    if not math.isfinite(float(t_end) / float(h)):
        raise ValidationError(f"simulate t_end / h overflows, got {t_end} / {h}")
    steps = round(t_end / h)
    if steps > MAX_STEPS:
        raise ValidationError(
            f"simulate t_end / h = {t_end} / {h} asks for {steps} steps, "
            f"more than the cap of {MAX_STEPS}")
    if not np.all(np.isfinite(x0)):
        raise ValidationError("simulate x0 must be finite")


def simulate(a_cl, alpha, x0, t_end, h):
    """Integrate D^alpha x = a_cl x from x(0) = x0 over round(t_end / h) steps h.

    Implicit GL recursion on y = x - x0:

        (I - h^alpha A) y_k = h^alpha A x0 - sum_{j=1..k} w_j y_{k-j}

    over the full memory, without truncation.  Node 1 is solved alone and
    the later nodes in blocks of _BLOCK, halved while the block spans more
    than _BLOCK_ROWS rows: the lags j < _NEAR that reach before the block
    are subtracted by one Toeplitz product, and a precomputed inverse of the
    step over the block resolves the lags inside it.
    Each dyadic band of lags [L, 2L) is subtracted ahead for L nodes at
    once by one FFT convolution, as soon as the states it needs are known
    (Hairer, Lubich & Schlichte 1985).  Every term is summed exactly once,
    in O(N log^2 N) work for N steps.  Raises ValidationError for an empty
    a_cl, an x0 of the wrong length and settings that
    :func:`check_simulate_settings` rejects, SingularStepError when the
    implicit step matrix is (near) singular, StepTooLargeError when the
    step is far too coarse for the system's eigenvalue scale and
    DivergenceError, naming the time, when a state leaves the float range.
    """
    a = require_square(a_cl, "a_cl")
    if a.size == 0:
        raise ValidationError("a_cl is empty: a closed loop needs at least one state")
    check_alpha(alpha)
    x0 = np.asarray(x0, float).reshape(-1)
    check_simulate_settings(x0, t_end, h)
    n = a.shape[0]
    if x0.size != n:
        raise ValidationError(f"x0 has length {x0.size}, expected {n}")

    h_alpha = h ** alpha
    if h_alpha * float(np.max(np.abs(np.linalg.eigvals(a)))) > _STEP_RADIUS_CAP:
        raise StepTooLargeError(
            "h^alpha * spectral_radius(a_cl) exceeds the usable range; "
            "reduce the step size"
        )
    step_matrix = np.eye(n) - h_alpha * a
    if np.linalg.cond(step_matrix) > 1e14:
        raise SingularStepError("I - h^alpha A is numerically singular")
    step_inv = np.linalg.inv(step_matrix)

    steps = int(round(t_end / h))
    times = np.arange(steps + 1) * h
    w = gl_weights(alpha, max(steps + 1, _NEAR))
    block = _BLOCK
    while block > 2 and block * n > _BLOCK_ROWS:
        block //= 2
    history = _near_history(w, block)
    block_inv = _block_toeplitz_inverse(step_inv, w[:block])
    # Row t of y holds the forcing minus the far lags j >= _NEAR of node t,
    # subtracted ahead by the bands, until its block replaces it with y_t.
    # The _NEAR - 1 rows of ys above y_0 stay zero: the lags that reach
    # before t = 0.
    ys = np.zeros((steps + _NEAR, n))
    y = ys[_NEAR - 1 :]
    spectra = {}
    # a diverging loop overflows to inf and then NaN; checked once at the end
    with np.errstate(over="ignore", invalid="ignore"):
        y[1:] = h_alpha * (a @ x0)
        y[1] = step_inv @ y[1]  # as the one-step recursion does, bit for bit
        for start in range(0, steps + 1, block):
            k, stop = max(start, 2), min(start + block, steps + 1)
            size = _NEAR
            while k % size == 0:
                _subtract_band(y, w, k, size, min(k + size, steps + 1), spectra)
                size *= 2
            b = stop - k
            rhs = y[k:stop] - history[:b] @ ys[k : k + _NEAR - 1]
            y[k:stop] = (block_inv[: b * n, : b * n] @ rhs.reshape(-1)).reshape(b, n)
        states = y + x0[None, :]
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise DivergenceError("simulation diverges: the closed-loop state leaves "
                              f"the float range at t = {times[bad.argmax()]:.9g}")
    return Trajectory(times, states)


def trajectory_to_csv(traj, path):
    """Write ``t,x1,...,xN`` rows with 9 significant digits and LF endings.

    Rows are formatted and written in chunks, which bounds the Python
    floats alive at once.
    """
    n = traj.states.shape[1]
    row = ",".join(["%.9g"] * (n + 1)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
        for lo in range(0, traj.times.size, _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            chunk = np.column_stack([traj.times[lo:hi], traj.states[lo:hi]])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
