import math
import tracemalloc

import numpy as np
import pytest

from folmi.errors import (
    AlphaOutOfRangeError,
    DivergenceError,
    DomainTooLargeError,
    SingularStepError,
    StepTooLargeError,
    ValidationError,
)
from folmi import fosim
from folmi.fosim import (
    MAX_STEPS,
    Trajectory,
    check_simulate_settings,
    gl_weights,
    mittag_leffler,
    simulate,
    trajectory_to_csv,
)


def recurrence_weights(alpha, count):
    """GL weights from the written-out recurrence, one product at a time."""
    w = np.empty(count)
    w[0] = 1.0
    for j in range(1, count):
        w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
    return w


def direct_gl(a, alpha, x0, steps, h):
    """The implicit GL recursion with the memory summed term by term in
    np.longdouble, so that near alpha = 2 its rounding stays well below the
    simulator's; each step is solved in float64 as the simulator does, which
    keeps the first node, with no memory, bit for bit."""
    n = a.shape[0]
    h_alpha = h ** alpha
    w = recurrence_weights(alpha, steps + 1).astype(np.longdouble)
    step_inv = np.linalg.inv(np.eye(n) - h_alpha * a)
    forcing = h_alpha * (a @ x0)
    y = np.zeros((steps + 1, n), np.longdouble)
    for k in range(1, steps + 1):
        y[k] = step_inv @ (forcing - w[k:0:-1] @ y[:k]).astype(float)
    return y.astype(float) + x0


def csv_reference(traj):
    """The row-by-row formatter the CSV writer must reproduce byte for byte."""
    n = traj.states.shape[1]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(n))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.9g}" for v in (t, *row)))
    return ("\n".join(lines) + "\n").encode()


class TestGlWeights:
    def test_alpha_one_is_first_difference(self):
        np.testing.assert_allclose(gl_weights(1.0, 5), [1.0, -1.0, 0.0, 0.0, 0.0])

    def test_alpha_half_hand_values(self):
        np.testing.assert_allclose(gl_weights(0.5, 3), [1.0, -0.5, -0.125])

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0, 1.2, 1.9])
    def test_partial_sums_decay(self, alpha):
        # coefficients of (1-z)^alpha sum to 0 at z = 1; the tail decays
        # like N^-alpha, so only the trend is asserted
        w = gl_weights(alpha, 4000)
        partial = np.cumsum(w)
        assert abs(partial[-1]) <= abs(partial[10]) + 1e-12
        assert abs(partial[-1]) < 0.1

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gl_weights(0.5, 0)

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.75, 0.9, 1.0, 1.3, 1.8, 1.99])
    @pytest.mark.parametrize("count", [1, 2, 3, 129, 20001])
    def test_bit_identical_to_the_recurrence(self, alpha, count):
        assert np.array_equal(gl_weights(alpha, count), recurrence_weights(alpha, count))


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_argument(self):
        assert mittag_leffler(0.37, 0.0) == 1.0

    def test_half_order_erfc_value(self):
        # E_{1/2}(-1) = e * erfc(1); erfc from the standard library is an
        # implementation independent of the series under test
        want = math.e * math.erfc(1.0)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(0.4275836, abs=5e-8)

    def test_half_order_identity_across_branches(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x) covers both the series and the
        # deep-negative asymptotic branch
        for x in np.arange(0.25, 7.1, 0.25):
            got = mittag_leffler(0.5, -x)
            want = math.exp(x * x) * math.erfc(x)
            assert got == pytest.approx(want, rel=2e-6), f"x={x}"

    def test_monotone_decay_on_negative_axis_below_order_one(self):
        # E_alpha(-x) is completely monotone for alpha <= 1
        for alpha in (0.5, 0.75, 1.0):
            vals = [mittag_leffler(alpha, z) for z in np.arange(0.0, -20.0, -0.5)]
            assert all(v > 0 for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_oscillatory_but_bounded_above_order_one(self):
        # between orders 1 and 2 the kernel rings like a damped cosine:
        # sign changes happen but the envelope stays modest and shrinks
        for alpha in (1.2, 1.5):
            vals = np.array(
                [mittag_leffler(alpha, z) for z in np.arange(0.0, -20.0, -0.25)]
            )
            assert (vals < 0).any()
            assert np.abs(vals[1:]).max() < 1.0
            assert np.abs(vals[-20:]).max() < np.abs(vals[:20]).max()

    def test_domain_bound(self):
        with pytest.raises(DomainTooLargeError):
            mittag_leffler(0.8, -51.0)

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRangeError):
            mittag_leffler(2.0, -1.0)


class TestSimulate:
    def test_x0_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValidationError, match="x0 has length 1, expected 2"):
            simulate(-np.eye(2), 0.75, [1.0], 1.0, 0.01)

    def test_classical_limit_matches_exp(self):
        traj = simulate(np.array([[-1.0]]), 1.0, [1.0], 5.0, 1e-3)
        errs = np.abs(traj.states[:, 0] - np.exp(-traj.times))
        assert errs.max() < 1e-3

    def test_fractional_scalar_matches_mittag_leffler(self):
        traj = simulate(np.array([[-1.0]]), 0.75, [1.0], 5.0, 1e-3)
        idx = list(range(1, 60)) + list(range(60, 5001, 25))
        errs = [
            abs(traj.states[k, 0] - mittag_leffler(0.75, -traj.times[k] ** 0.75))
            for k in idx
        ]
        assert max(errs) < 5e-3

    @pytest.mark.parametrize(
        "alpha",
        [
            pytest.param(
                0.5,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="first GL node carries the intrinsic startup error "
                    "|lam| h^alpha (1/Gamma(1+alpha) - 1) ~ 8.1e-3 at lam=-2, "
                    "above the 5e-3 bound; see notes in the simulator module",
                ),
            ),
            0.75,
            1.2,
            1.5,
        ],
    )
    def test_gl_vs_ml_diagonal_family(self, alpha):
        lams = np.array([-2.0, -1.0, -0.5, -0.1])
        traj = simulate(np.diag(lams), alpha, np.ones(4), 5.0, 1e-3)
        idx = list(range(1, 60)) + list(range(60, 5001, 25))
        worst = 0.0
        for j, lam in enumerate(lams):
            for k in idx:
                exact = mittag_leffler(alpha, lam * traj.times[k] ** alpha)
                worst = max(worst, abs(traj.states[k, j] - exact))
        assert worst < 5e-3

    def test_first_node_error_formula(self):
        # the startup deviation of the implicit GL scheme at t = h is
        # lam * h^alpha * (1/Gamma(1+alpha) - 1) + O(h^(2 alpha))
        h, alpha, lam = 1e-3, 0.5, -2.0
        traj = simulate(np.array([[lam]]), alpha, [1.0], 10 * h, h)
        exact = mittag_leffler(alpha, lam * h ** alpha)
        predicted = abs(lam) * h ** alpha * abs(1.0 / math.gamma(1.0 + alpha) - 1.0)
        assert abs(traj.states[1, 0] - exact) == pytest.approx(predicted, rel=0.05)

    def test_linearity(self):
        a = np.array([[-0.5, 0.2], [0.0, -1.0]])
        x1 = np.array([1.0, 0.0])
        x2 = np.array([0.3, -0.7])
        t_end, h, alpha = 2.0, 1e-2, 0.75
        s1 = simulate(a, alpha, x1, t_end, h).states
        s2 = simulate(a, alpha, x2, t_end, h).states
        s12 = simulate(a, alpha, x1 + x2, t_end, h).states
        np.testing.assert_allclose(s12, s1 + s2, atol=1e-10)

    def test_halving_h_reduces_error(self):
        alpha, lam = 0.75, -1.0
        errors = []
        for h in (4e-3, 2e-3, 1e-3):
            traj = simulate(np.array([[lam]]), alpha, [1.0], 4.0, h)
            worst = 0.0
            for k in range(1, traj.times.size, max(1, traj.times.size // 200)):
                exact = mittag_leffler(alpha, lam * traj.times[k] ** alpha)
                worst = max(worst, abs(traj.states[k, 0] - exact))
            errors.append(worst)
        assert errors[0] > errors[1] > errors[2]

    def test_stable_systems_decay(self):
        from folmi.stability import sector_margins

        rng = np.random.RandomState(31)
        checked = 0
        for _ in range(30):
            a = rng.randn(3, 3) - 2.5 * np.eye(3)
            for alpha in (0.75, 1.2):
                if sector_margins(a[None], alpha)[0] <= 0.05:
                    continue
                traj = simulate(a, alpha, np.ones(3), 20.0, 1e-2)
                assert traj.final_norm_ratio < 1.0
                checked += 1
        assert checked >= 10

    def test_singular_step_detected(self):
        h, alpha = 0.1, 0.5
        a = np.eye(2) / h ** alpha  # makes I - h^alpha A exactly zero
        with pytest.raises(SingularStepError):
            simulate(a, alpha, [1.0, 1.0], 1.0, h)

    def test_step_too_large(self):
        with pytest.raises(StepTooLargeError):
            simulate(np.array([[-1e6]]), 1.0, [1.0], 10.0, 1.0)

    def test_a_diverging_loop_is_an_error_naming_the_time(self):
        # example1's center plant under d_c = 5, eigenvalues 6.72 +- 5.06j
        # and 0.55: the states used to overflow to inf at t = 65.79 and NaN
        # after it, behind numpy's RuntimeWarnings, and were returned as is
        a_cl = np.array([[8.5, -7.5, 7.5], [5.25, 6.25, -2.75], [1.25, 2.25, -0.75]])
        with pytest.raises(DivergenceError, match="diverges") as exc:
            simulate(a_cl, 0.75, [1.0, 1.0, 1.0], 100.0, 0.01)
        assert not isinstance(exc.value, ValidationError)
        t = float(str(exc.value).rsplit("t = ", 1)[1])
        assert abs(t - 65.79) <= 0.01
        states = simulate(a_cl, 0.75, [1.0, 1.0, 1.0], 50.0, 0.01).states
        assert np.all(np.isfinite(states)) and np.abs(states).max() > 1e200
        with pytest.raises(DivergenceError, match="t = 0.01$"):  # A x0 overflows
            simulate(np.array([[-2.0]]), 0.75, [1e308], 1.0, 0.01)

    def test_empty_system_rejected(self):
        # used to end in numpy's LinAlgError from the conditioning check
        with pytest.raises(ValueError, match="a_cl is empty"):
            simulate(np.zeros((0, 0)), 0.7, [], 1.0, 0.01)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate(np.eye(1), 0.5, [1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate(np.eye(1), 0.5, [1.0], 1.0, -0.01)
        with pytest.raises(ValueError):
            simulate(np.eye(1), 0.5, [1.0], 0.001, 0.01)
        with pytest.raises(AlphaOutOfRangeError):
            simulate(np.eye(1), 2.1, [1.0], 1.0, 0.01)

    @pytest.mark.parametrize("x0,t_end,h", [
        ([1.0], 1.0, math.nan),
        ([1.0], 1.0, math.inf),
        ([1.0], math.inf, 0.01),
        ([1.0], math.nan, 0.01),
        ([math.nan], 1.0, 0.01),
        ([-math.inf], 1.0, 0.01),
    ])
    def test_non_finite_settings_rejected(self, x0, t_end, h):
        with pytest.raises(ValueError, match="finite"):
            simulate(np.array([[-2.0]]), 0.75, x0, t_end, h)

    @pytest.mark.parametrize("t_end,last", [
        (0.015, 0.02),  # 1.5 steps round up: the last row falls after t_end
        (0.025, 0.02),  # 2.5 steps round to even: it falls before t_end
    ])
    def test_horizon_is_rounded_to_whole_steps(self, t_end, last):
        traj = simulate(np.array([[-2.0]]), 0.75, [1.0], t_end, 0.01)
        assert traj.times.size == 3
        assert traj.times[-1] == last

    def test_step_count_overflow_rejected(self):
        # t_end / h = inf used to end in an OverflowError from int()
        with pytest.raises(ValidationError, match="t_end / h overflows"):
            simulate(np.array([[-2.0]]), 0.75, [1.0], 1e300, 1e-10)

    @pytest.mark.parametrize("t_end,h,steps", [
        ((MAX_STEPS + 1) * 0.5, 0.5, MAX_STEPS + 1),
        # used to end in numpy's "Maximum allowed size exceeded"
        (1e10, 1e-10, 10 ** 20),
    ])
    def test_step_count_past_the_cap_rejected(self, t_end, h, steps):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                simulate(np.array([[-2.0]]), 0.75, [1.0], t_end, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"simulate t_end / h = {t_end} / {h} asks for {steps} steps, "
            f"more than the cap of {MAX_STEPS}")
        assert peak < 2 ** 20  # rejected before any array of that length
        check_simulate_settings([1.0], MAX_STEPS * 0.5, 0.5)  # the cap itself passes


def seeded_loop(n, seed):
    """A stable n x n loop: a random matrix shifted left of its spectrum."""
    rng = np.random.RandomState(seed)
    a = rng.randn(n, n) / math.sqrt(n)
    return a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n), rng.randn(n)


def assert_matches_direct(a, alpha, x0, steps, h):
    got = simulate(a, alpha, x0, steps * h, h).states
    want = direct_gl(a, alpha, x0, steps, h)
    assert got.shape == want.shape
    gap = np.abs(got - want).max(axis=1)
    scale = np.maximum(1.0, np.maximum.accumulate(np.abs(want).max(axis=1)))
    np.testing.assert_array_equal(got[:2], want[:2])  # x_0 and the first node
    assert gap[:41].max() <= 1e-12
    assert np.all(gap <= 1e-10 * scale), (gap / scale).max()


ALPHAS = (0.5, 0.9, 1.3, 1.8)
# The literal horizons keep the existing case ids and seeds where they were;
# NEAR_HORIZONS covers the band edges of the current _NEAR.  Each tuple is
# numbered after every (alpha, horizon) case above it, so cases keep their seeds
HORIZONS = (1, 127, 128, 129, 1000, 5000)
BLOCK_HORIZONS = (fosim._BLOCK - 1, fosim._BLOCK, fosim._BLOCK + 1,
                  2 * fosim._BLOCK + 1, 513)
NEAR_HORIZONS = (fosim._NEAR - 1, fosim._NEAR, 4 * fosim._NEAR + 1)
CASES = [(alpha, steps) for horizons in (HORIZONS, BLOCK_HORIZONS, NEAR_HORIZONS)
         for alpha in ALPHAS for steps in horizons]


class TestDyadicMemory:
    """The blocked near solve and the dyadic FFT summation against the
    term-by-term GL recursion."""

    def test_bands_fire_only_at_block_starts(self):
        assert fosim._NEAR % fosim._BLOCK == 0

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("steps", HORIZONS + BLOCK_HORIZONS + NEAR_HORIZONS)
    def test_matches_direct_sum(self, alpha, steps):
        case = CASES.index((alpha, steps))
        a, x0 = seeded_loop(1 + case % 8, case)  # every n from 1 to 8
        assert_matches_direct(a, alpha, x0, steps, 1e-2)

    @pytest.mark.parametrize("n", [16, 24, 40, 129])
    def test_larger_loops_solve_smaller_blocks(self, n):
        # 16, 8, 4 and 2 nodes per block
        a, x0 = seeded_loop(n, n)
        assert_matches_direct(a, 0.9, x0, 2 * fosim._NEAR + 1, 1e-2)

    def test_near_field_width_is_a_speed_choice(self, monkeypatch):
        a, x0 = seeded_loop(6, 6)
        wide = simulate(a, 1.5, x0, 50.0, 1e-2).states
        monkeypatch.setattr(fosim, "_NEAR", 128)
        narrow = simulate(a, 1.5, x0, 50.0, 1e-2).states
        assert narrow.shape == (5001, 6)
        assert np.all(np.abs(narrow - wide) <= 1e-12 * np.maximum(1.0, np.abs(wide)))

    def test_exponentially_growing_loop(self):
        a = np.array([[0.4, 0.3], [0.0, 0.2]])
        assert_matches_direct(a, 0.9, np.array([1.0, -0.5]), 5000, 1e-2)

    def test_lightly_damped_oscillating_loop(self):
        # eigenvalues 2 exp(+-i theta) just inside the stable sector
        # |arg| > alpha pi / 2
        alpha = 1.3
        theta = alpha * math.pi / 2 + 0.05
        re, im = 2.0 * math.cos(theta), 2.0 * math.sin(theta)
        a = np.array([[re, im], [-im, re]])
        assert_matches_direct(a, alpha, np.array([1.0, 0.0]), 5000, 1e-2)


def tensordot_block_inverse(step_inv, w):
    """The block inverse's recursion with one np.tensordot per block row."""
    b, n = w.size, step_inv.shape[0]
    r = np.empty((b, n, n))
    inv = np.zeros((b, n, b, n))
    for i in range(b):
        r[i] = -step_inv @ np.tensordot(w[i:0:-1], r[:i], axes=1) if i else step_inv
        inv[i, :, : i + 1] = r[i::-1].transpose(1, 0, 2)
    return inv.reshape(b * n, b * n)


def lag_history(w, block, near):
    """The near-history table from its integer lag grid: w at lags below near."""
    lag = near - 1 + np.arange(block)[:, None] - np.arange(near - 1)
    return np.where(lag < near, w[np.minimum(lag, near - 1)], 0.0)


# the nodes per block simulate picks for n states at _BLOCK = 32 and
# _BLOCK_ROWS = 256: all 32 up to 8 states, then halved
BLOCKS = [(n, 32) for n in range(1, 9)] + [(16, 16), (24, 8), (40, 4), (129, 2)]


class TestSetupHelpers:
    """The block-step inverse and the near-history table, bit for bit against
    their written-out references."""

    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    @pytest.mark.parametrize("n,block", BLOCKS)
    def test_block_inverse_matches_the_tensordot_recursion(self, n, block, alpha):
        a, _ = seeded_loop(n, n)
        step_inv = np.linalg.inv(np.eye(n) - 1e-2 ** alpha * a)
        w = gl_weights(alpha, block)
        got = fosim._block_toeplitz_inverse(step_inv, w)
        assert got.shape == (block * n, block * n)
        np.testing.assert_array_equal(got, tensordot_block_inverse(step_inv, w))

    @pytest.mark.parametrize("near", [512, 128])
    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    @pytest.mark.parametrize("block", sorted({b for _, b in BLOCKS}))
    def test_near_history_matches_the_lag_table(self, monkeypatch, block, alpha, near):
        monkeypatch.setattr(fosim, "_NEAR", near)
        w = gl_weights(alpha, near)
        got = fosim._near_history(w, block)
        assert got.shape == (block, near - 1)
        assert got.flags.c_contiguous  # the GEMM of each block reads it in place
        np.testing.assert_array_equal(got, lag_history(w, block, near))


class TestTrajectoryCsv:
    def test_format(self, tmp_path):
        traj = simulate(np.array([[-1.0, 0.0], [0.0, -2.0]]), 0.75, [1.0, 2.0], 0.05, 0.01)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == traj.times.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        # 9 significant digits
        val = float(lines[3].split(",")[1])
        assert f"{val:.9g}" == lines[3].split(",")[1]

    @pytest.mark.parametrize("rows,n", [(2500, 3), (5, 1), (1, 0), (1024, 2), (1025, 2)])
    def test_bytes_match_the_reference_formatter(self, tmp_path, rows, n):
        rng = np.random.RandomState(rows + n)
        states = rng.randn(rows, n) * 10.0 ** rng.randint(-300, 300, (rows, n))
        special = [-1.5, -0.0, 0.0, 5e-324, -2.2e-308, 1.7976931348623157e308,
                   123456789012.0, 1e-7, math.nan, math.inf, -math.inf]
        flat = states.reshape(-1)
        flat[: len(special)] = special[: flat.size]
        traj = Trajectory(np.arange(rows) * 1e-3, states)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        assert path.read_bytes() == csv_reference(traj)
