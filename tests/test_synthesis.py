import hashlib
import json
import logging

import numpy as np
import pytest

import folmi.interval
import folmi.synthesis
from folmi.cli import load_controller, save_controller
from folmi.errors import (
    AlphaOutOfRangeError,
    InfeasibleError,
    ShapeMismatchError,
    SingularCertificateError,
    ValidationError,
)
from folmi.interval import IntervalMatrix, UncertainFoltiSystem, decompose, realize
from folmi.linalg import pinv
from folmi.lmi import (
    R_BOX,
    LmiProblem,
    SdpStatus,
    Sense,
    SolverConfig,
    _Block,
    block_expr,
    constraint_margin,
    evaluate_constraint,
    solve_feasibility,
)
from folmi.stability import (
    _analysis_lmi,
    _regime,
    analysis_feasible,
    certificate_lmi,
    closed_loop,
    margin_floor,
    sector_margins,
)
from folmi.synthesis import (
    DynamicController,
    assemble,
    certify,
    recover,
    synthesize,
)
from tests.test_interval import example1_system, partly_uncertain_system, sweep_rows
from tests.test_stability import reference_margin

EX2_A_LOWER = [[-1.1, -1.5, 3.0], [0.8, -2.6, 0.7], [-1.4, -4.0, -1.2]]
EX2_A_UPPER = [[-0.9, -1.0, 4.0], [1.2, -2.0, 1.3], [-1.0, -3.0, -0.8]]
EX2_B_LOWER = [[1.0], [1.9], [0.9]]
EX2_B_UPPER = [[1.1], [2.0], [1.0]]


def example2_system():
    return UncertainFoltiSystem(
        1.2,
        IntervalMatrix(np.array(EX2_A_LOWER), np.array(EX2_A_UPPER)),
        IntervalMatrix(np.array(EX2_B_LOWER), np.array(EX2_B_UPPER)),
        np.array([[1.0, 0.0, -1.0]]),
    )


def certain_scalar_system(a, b, c, alpha):
    return UncertainFoltiSystem(
        alpha,
        IntervalMatrix.certain(np.array([[a]])),
        IntervalMatrix.certain(np.array([[b]])),
        np.array([[c]]),
    )


def set_block(values, block, matrix):
    """Write a desired block matrix into a flat variable vector."""
    m = np.atleast_2d(np.asarray(matrix, float))
    for k, basis in zip(block.ids, block.coeff):
        weight = float((basis * basis).sum())
        values[k] = float((m * basis).sum()) / weight
    return values


class FakeSolution:
    def __init__(self, values):
        self.values = values
        self.status = SdpStatus.FEASIBLE


class TestControllerType:
    def test_static_factory(self):
        k = DynamicController.static([[-24.86]])
        assert k.n_c == 0
        assert k.a_c.shape == (0, 0)
        assert k.b_c.shape == (0, 1)
        assert k.c_c.shape == (1, 0)

    def test_dict_round_trip(self, tmp_path):
        # to_dict through the controller file and back
        for k in (DynamicController(1, [[-5.55]], [[-0.43]], [[-1.25]], [[-26.55]]),
                  DynamicController.static([[-3.0]])):
            save_controller(k, tmp_path / "k.json")
            k2 = load_controller(tmp_path / "k.json")
            assert k2.n_c == k.n_c
            for name in ("a_c", "b_c", "c_c", "d_c"):
                np.testing.assert_array_equal(getattr(k2, name), getattr(k, name))


def two_entry_scalar_plant(alpha):
    # a scalar plant with two uncertain entries: one lift copy of
    # n + n_c + 2 rows below alpha = 1, two copies from alpha = 1 up
    return UncertainFoltiSystem(
        alpha, IntervalMatrix(np.array([[-1.1]]), np.array([[-0.9]])),
        IntervalMatrix(np.array([[0.9]]), np.array([[1.1]])), np.array([[1.0]]))


class TestAssembleLowAlpha:
    def test_example1_static_order_feasible(self):
        sys = example1_system()
        asm = assemble(decompose(sys), sys.c, 0.75, 0)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE

    def test_example1_order_two_feasible(self):
        sys = example1_system()
        asm = assemble(decompose(sys), sys.c, 0.75, 2)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE

    def test_certain_scalar_reduces_to_core_inequality(self):
        # a = 5, b = 1, c = 1, zero radii: static stabilizability matches a
        # direct sweep of the scalar closed loop a + b*d*c over d
        sys = certain_scalar_system(5.0, 1.0, 1.0, 0.5)
        asm = assemble(decompose(sys), sys.c, 0.5, 0)
        assert "eta" not in asm.blocks
        assert len(asm.problem.constraints) == 2  # core block + P_S positivity
        sol = solve_feasibility(asm.problem)
        sweep_feasible = any(
            reference_margin([[5.0 + d]], 0.5) > 0
            for d in np.arange(-50.0, 10.0, 0.25)
        )
        assert (sol.status is SdpStatus.FEASIBLE) == sweep_feasible
        k = recover(asm, sol)
        assert reference_margin([[5.0 + k.d_c[0, 0]]], 0.5) > 0

    def test_alpha_range(self):
        low, _ = synthesize(two_entry_scalar_plant(0.999), 0, sample_count=5)
        assert np.iscomplexobj(low.p_s) and low.schur_dim == 1 + 2
        sys = example1_system()
        for alpha in (0.0, -0.5):
            with pytest.raises(AlphaOutOfRangeError):
                assemble(decompose(sys), sys.c, alpha, 0)

    def test_negative_order_is_a_validation_error(self):
        sys = example1_system()
        with pytest.raises(ValidationError, match="'n_c' must be >= 0, got -1"):
            assemble(decompose(sys), sys.c, 0.75, -1)


@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.2, 1.8])
def test_analysis_lmi_is_the_synthesis_core(alpha):
    # the certain plant (A, B = 0, C = I) at n_c = 0: at the same P_S
    # values, Sigma and the P_S positivity block of the synthesis LMI are
    # those of the analysis LMI of A, in both order regimes
    rng = np.random.RandomState(23)
    a = rng.randn(3, 3)
    sys = UncertainFoltiSystem(alpha, IntervalMatrix.certain(a),
                               IntervalMatrix.certain(np.zeros((3, 1))), np.eye(3))
    synth = assemble(decompose(sys), sys.c, alpha, 0).problem
    analysis = _analysis_lmi(a, alpha)[1]
    assert len(synth.constraints) == len(analysis.constraints) == 2
    # P_S is declared first in both problems; the synthesis LMI adds T4
    shared = rng.randn(analysis.num_vars)
    x = np.concatenate([shared, rng.randn(synth.num_vars - analysis.num_vars)])
    for mine, theirs in zip(synth.constraints, analysis.constraints):
        got = evaluate_constraint(synth, mine, x)[0]
        want = evaluate_constraint(analysis, theirs, shared)[0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestAssembleHighAlpha:
    def test_example2_static_order_feasible(self):
        sys = example2_system()
        asm = assemble(decompose(sys), sys.c, 1.2, 0)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE

    def test_example2_order_three_feasible(self):
        sys = example2_system()
        asm = assemble(decompose(sys), sys.c, 1.2, 3)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE

    def test_stable_certain_scalar_zero_gain_admissible(self):
        sys = certain_scalar_system(-1.0, 1.0, 1.0, 1.5)
        asm = assemble(decompose(sys), sys.c, 1.5, 0)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE
        k = recover(asm, sol)
        assert reference_margin([[-1.0 + k.d_c[0, 0]]], 1.5) > 0

    def test_alpha_range(self):
        high, _ = synthesize(two_entry_scalar_plant(1.0), 0, sample_count=5)
        assert np.isrealobj(high.p_s) and high.schur_dim == 2 * (1 + 2)
        sys = example2_system()
        for alpha in (2.0, 2.5):
            with pytest.raises(AlphaOutOfRangeError):
                assemble(decompose(sys), sys.c, alpha, 0)



class TestRecoverLowAlpha:
    def test_hand_built_diagonal_case(self):
        # theta = pi/8 (alpha = 0.75): Q = 2 cos(pi/8) X, so T1 = -3.6955 I
        # against X_C = I recovers A_c = -2 I
        sys = example1_system()
        asm = assemble(decompose(sys), sys.c, 0.75, 2)
        v = np.zeros(asm.problem.num_vars)
        set_block(v, asm.blocks["s"][0], np.eye(3))
        set_block(v, asm.blocks["c"][0], np.eye(2))
        set_block(v, asm.blocks["t1"], -3.6955 * np.eye(2))
        k = recover(asm, FakeSolution(v))
        np.testing.assert_allclose(k.a_c, -2.0 * np.eye(2), atol=1e-4)

    def test_zero_t2_gives_zero_bc(self):
        sys = example1_system()
        asm = assemble(decompose(sys), sys.c, 0.75, 1)
        v = np.zeros(asm.problem.num_vars)
        set_block(v, asm.blocks["s"][0], np.diag([1.0, 2.0, 3.0]))
        set_block(v, asm.blocks["c"][0], np.eye(1))
        np.testing.assert_array_equal(
            recover(asm, FakeSolution(v)).b_c, np.zeros((1, 1))
        )

    def test_dc_uses_pseudo_inverse_of_c(self):
        # C = [1 0 1]: pinv factor is [0.5, 0, 0.5]^T
        sys = example1_system()
        asm = assemble(decompose(sys), sys.c, 0.75, 0)
        v = np.zeros(asm.problem.num_vars)
        set_block(v, asm.blocks["s"][0], np.eye(3))
        t4 = np.array([[4.0, 7.0, 2.0]])
        set_block(v, asm.blocks["t4"], t4)
        k = recover(asm, FakeSolution(v))
        q_s = 2.0 * np.cos(np.pi / 8) * np.eye(3)
        want = t4 @ np.linalg.inv(q_s) @ np.array([[0.5], [0.0], [0.5]])
        np.testing.assert_allclose(k.d_c, want, atol=1e-12)

    def test_singular_certificate_is_refused(self):
        # Q_S = 0 at the all-zero point: refused before numpy inverts it
        sys = example1_system()
        asm = assemble(decompose(sys), sys.c, 0.75, 0)
        v = np.zeros(asm.problem.num_vars)
        with pytest.raises(SingularCertificateError, match="Q_S too ill-conditioned"):
            recover(asm, FakeSolution(v))


class TestRecoverHighAlpha:
    def test_scalar_division(self):
        sys = example2_system()
        asm = assemble(decompose(sys), sys.c, 1.2, 2)
        v = np.zeros(asm.problem.num_vars)
        set_block(v, asm.blocks["s"][0], np.eye(3))
        set_block(v, asm.blocks["c"][0], 2.0 * np.eye(2))
        set_block(v, asm.blocks["t1"], -0.2778 * np.eye(2))
        k = recover(asm, FakeSolution(v))
        np.testing.assert_allclose(k.a_c, -0.1389 * np.eye(2), atol=1e-12)

    def test_zero_t3_gives_zero_cc(self):
        sys = example2_system()
        asm = assemble(decompose(sys), sys.c, 1.2, 1)
        v = np.zeros(asm.problem.num_vars)
        set_block(v, asm.blocks["s"][0], np.eye(3))
        set_block(v, asm.blocks["c"][0], np.eye(1))
        np.testing.assert_array_equal(
            recover(asm, FakeSolution(v)).c_c, np.zeros((1, 1))
        )

    def test_dc_pinv_with_sign(self):
        # C = [1 0 -1]: pinv is [0.5, 0, -0.5]^T so T4 = [t 0 0] maps to t/2
        sys = example2_system()
        asm = assemble(decompose(sys), sys.c, 1.2, 0)
        v = np.zeros(asm.problem.num_vars)
        set_block(v, asm.blocks["s"][0], np.eye(3))
        set_block(v, asm.blocks["t4"], np.array([[3.0, 0.0, 0.0]]))
        k = recover(asm, FakeSolution(v))
        assert k.d_c[0, 0] == pytest.approx(1.5, abs=1e-12)


def test_assemble_refuses_an_output_matrix_of_the_wrong_width():
    sys = example1_system()
    with pytest.raises(ShapeMismatchError, match="C has 2 columns, expected 3"):
        assemble(decompose(sys), np.ones((1, 2)), 0.75, 0)


def full_sigma(asm, v):
    """Sigma of the closed-loop expression blockdiag(G, T1) at ``v``: the
    plant rows of the first constraint and the -Sigma(T1) rows of the
    positivity block, interleaved per lift copy as the regime orders them."""
    k, n_c = asm.regime.copies, asm.n_c
    plant = evaluate_constraint(asm.problem, asm.problem.constraints[0], v)[0]
    n = plant.shape[0] // k
    pos = evaluate_constraint(asm.problem, asm.problem.constraints[1], v)[0]
    start = 2 * (n + n_c) // k  # after P_S - I and P_C - I
    ctrl = -pos[start:start + k * n_c, start:start + k * n_c]
    d = n + n_c
    out = np.zeros((k * d, k * d))
    for i in range(k):
        for j in range(k):
            out[i * d:i * d + n, j * d:j * d + n] = plant[i * n:(i + 1) * n, j * n:(j + 1) * n]
            out[i * d + n:(i + 1) * d, j * d + n:(j + 1) * d] = \
                ctrl[i * n_c:(i + 1) * n_c, j * n_c:(j + 1) * n_c]
    return out


class TestAssemblyStructure:
    """The core blocks must coincide with the independently assembled
    closed-loop analysis forms whenever recovery is exact (square
    invertible C makes the pseudo-inverse a true inverse).  The plant rows
    of Sigma are the first constraint and its controller rows, -Sigma(T1),
    sit in the positivity block."""

    def _certain_square_plant(self, alpha, shift=0.0):
        rng = np.random.RandomState(8)
        n, l = 3, 2
        a = rng.randn(n, n) - shift * np.eye(n)
        b = rng.randn(n, l)
        c = rng.randn(n, n) + 3.0 * np.eye(n)
        return UncertainFoltiSystem(
            alpha, IntervalMatrix.certain(a), IntervalMatrix.certain(b), c
        )

    def test_low_alpha_sigma_is_closed_loop_analysis_form(self):
        sys_ = self._certain_square_plant(0.6)
        n_c = 2
        asm = assemble(decompose(sys_), sys_.c, 0.6, n_c)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE
        k = recover(asm, sol)
        v = sol.values
        theta = asm.regime.theta
        q_s = 2 * np.cos(theta) * asm.blocks["s"][0].value(v) \
            - 2 * np.sin(theta) * asm.blocks["s"][1].value(v)
        q_c = 2 * np.cos(theta) * asm.blocks["c"][0].value(v) \
            - 2 * np.sin(theta) * asm.blocks["c"][1].value(v)
        q = np.block([
            [q_s, np.zeros((3, n_c))],
            [np.zeros((n_c, 3)), q_c],
        ])
        a_cl = closed_loop(sys_.a.lower, sys_.b.lower, sys_.c, k)
        analysis_form = a_cl @ q + q.T @ a_cl.T
        np.testing.assert_allclose(analysis_form, full_sigma(asm, v), atol=1e-10)

    def test_high_alpha_sigma_is_rotated_analysis_form(self):
        sys_ = self._certain_square_plant(1.4, shift=2.0)
        n_c = 2
        asm = assemble(decompose(sys_), sys_.c, 1.4, n_c)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE
        k = recover(asm, sol)
        v = sol.values
        p_s = asm.blocks["s"][0].value(v)
        p_c = asm.blocks["c"][0].value(v)
        p = np.block([
            [p_s, np.zeros((3, n_c))],
            [np.zeros((n_c, 3)), p_c],
        ])
        a_cl = closed_loop(sys_.a.lower, sys_.b.lower, sys_.c, k)
        st, ct = np.sin(asm.regime.theta), np.cos(asm.regime.theta)
        g_s = a_cl @ p + p @ a_cl.T
        g_k = a_cl @ p - p @ a_cl.T
        analysis_form = np.block([[g_s * st, g_k * ct], [-g_k * ct, g_s * st]])
        np.testing.assert_allclose(analysis_form, full_sigma(asm, v), atol=1e-10)

    def test_schur_lift_consistent_on_uncertain_path(self):
        # eliminating the multiplier block by hand must reproduce the
        # quadratic bound Sigma + eta M M^T + (1/eta) R^T R < 0
        sys_ = example1_system()
        asm = assemble(decompose(sys_), sys_.c, 0.75, 1)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE
        big = asm.problem.constraints[0].constant.copy()
        for idx, coeff in asm.problem.constraints[0].coeffs.items():
            big += sol.values[idx] * coeff
        d = 3  # the n plant rows of Sigma; the 4 lift rows follow at every n_c
        top_left = big[:d, :d]
        r = big[d:, :d]
        eta = float(asm.blocks["eta"].value(sol.values)[0, 0])
        np.testing.assert_allclose(big[d:, d:], -eta * np.eye(big.shape[0] - d), atol=1e-12)
        schur = top_left + (r.T @ r) / eta
        assert np.linalg.eigvalsh(0.5 * (schur + schur.T)).max() < 0


class TestCertify:
    def test_reference_static_controller_passes(self):
        report = certify(
            example1_system(), DynamicController.static([[-24.86]]),
            sample_count=100, seed=3,
        )
        assert report.vertex_count == 2048
        assert report.sample_count == 100
        assert report.vertices_exhaustive
        assert report.min_sector_margin > 0
        assert report.nominal_status is SdpStatus.FEASIBLE
        assert report.passed

    def test_reference_first_order_controller_passes(self):
        k = DynamicController(1, [[-5.55]], [[-0.43]], [[-1.25]], [[-26.55]])
        report = certify(example1_system(), k, sample_count=100, seed=3)
        assert report.passed

    def test_zero_controller_fails_on_unstable_plant(self):
        report = certify(
            example1_system(), DynamicController.static([[0.0]]),
            sample_count=10, seed=0,
        )
        assert not report.passed
        assert report.min_sector_margin < 0

    @pytest.mark.parametrize("alpha", [0.75, 1.2])
    @pytest.mark.parametrize("a", [
        [[-1.0, 1.0], [0.0, -1.0]],  # defective Jordan block: cond(V) ~ 1e16
        [[0.5, 1.0], [0.0, -1.0]],  # unstable: fails the audit
    ])
    def test_fallback_to_the_barrier(self, a, alpha):
        sys = UncertainFoltiSystem(alpha, IntervalMatrix.certain(np.array(a)),
                                   IntervalMatrix.certain(np.zeros((2, 1))),
                                   np.array([[1.0, 0.0]]))
        report = certify(sys, DynamicController.static([[0.0]]), sample_count=0)
        barrier = analysis_feasible(np.array(a), alpha)
        assert report.nominal_route == "barrier"
        assert report.nominal_status is barrier.solution.status
        assert (report.nominal_status is SdpStatus.FEASIBLE) is (barrier.x is not None)

    def test_indeterminate_barrier_flips_to_audited_feasible(self):
        # the one verdict the closed form may change: with one Newton step
        # the barrier is INDETERMINATE (nominal_lmi_ok was False), while the
        # audited closed form proves the same LMI feasible
        k = DynamicController.static([[-24.86]])
        cfg = SolverConfig(max_iter=1)
        sys = example1_system()
        factors = decompose(sys)
        a_cl0 = closed_loop(factors.a0, factors.b0, sys.c, k)
        barrier = analysis_feasible(a_cl0, 0.75, cfg)
        assert barrier.x is None
        assert barrier.solution.status is SdpStatus.INDETERMINATE
        report = certify(sys, k, sample_count=10, seed=0, solver_cfg=cfg)
        assert report.nominal_route == "closed_form"
        assert report.nominal_status is SdpStatus.FEASIBLE
        assert report.nominal_status is SdpStatus.FEASIBLE and report.passed


def count_swept_rows(monkeypatch):
    """Row counts of the stacks ``certify`` passes to ``sector_margins``."""
    counts = []

    def counting(stack, alpha):
        counts.append(len(stack))
        return sector_margins(stack, alpha)

    monkeypatch.setattr(folmi.synthesis, "sector_margins", counting)
    return counts


def certain_example1_system():
    """example1 with both bounds at their midpoints: one plant."""
    sys = example1_system()
    a0 = 0.5 * (sys.a.lower + sys.a.upper)
    b0 = 0.5 * (sys.b.lower + sys.b.upper)
    return UncertainFoltiSystem(sys.alpha, IntervalMatrix.certain(a0),
                                IntervalMatrix.certain(b0), sys.c)


class TestCertainFamilySweep:
    def test_certain_plant_sweeps_its_center_once(self, monkeypatch):
        sys, k = certain_example1_system(), DynamicController.static([[-2.0]])
        margin, worst = reference_sweep(sys, k, 500, 3)
        counts = count_swept_rows(monkeypatch)
        report = certify(sys, k, sample_count=500, seed=3)
        assert counts == [1]
        assert (report.vertex_count, report.sample_count) == (1, 500)
        assert report.vertices_exhaustive
        assert report.nominal_route == "closed_form"
        np.testing.assert_array_equal(report.worst_realization.f_a, np.zeros(9))
        np.testing.assert_array_equal(report.worst_realization.f_b, np.zeros(3))
        factors = decompose(sys)
        a_cl0 = closed_loop(factors.a0, factors.b0, sys.c, k)
        assert report.min_sector_margin == sector_margins(a_cl0[None], sys.alpha)[0]
        # the 501-row sweep of the same plant has the same worst case
        assert abs(report.min_sector_margin - margin) <= 1e-9
        assert not worst[0].any() and not worst[1].any()

    def test_partly_uncertain_family_stops_at_the_floor(self, monkeypatch):
        # vertex 0 already reaches the margin floor -0.9*pi/2, so the sweep
        # stops after the first 8-row array, with the full sweep's answer
        sys = partly_uncertain_system()
        k = DynamicController.static([[0.1], [-0.2]])
        counts = count_swept_rows(monkeypatch)
        report = certify(sys, k, sample_count=40, seed=8)
        assert report.vertex_count == 256 and counts == [8]
        assert report.min_sector_margin == margin_floor(0.9)
        margin, _ = reference_sweep(sys, k, 40, 8)
        assert abs(report.min_sector_margin - margin) <= 1e-9

    def test_partly_uncertain_family_above_the_floor_sweeps_every_row(
            self, monkeypatch):
        sys = partly_uncertain_system()
        k = DynamicController(1, [[-1.3]], [[-6.8]], [[-4.0], [-1.3]], [[-1.1], [-0.5]])
        swept = []

        def recording(factors, rows):
            swept.append(rows)
            return folmi.interval.realize(factors, rows)

        monkeypatch.setattr(folmi.synthesis, "realize", recording)
        counts = count_swept_rows(monkeypatch)
        report = certify(sys, k, sample_count=40, seed=8)
        assert report.vertex_count == 256 and sum(counts) == 256 + 40
        rows = np.concatenate(swept)
        np.testing.assert_array_equal(
            rows[256:], np.random.RandomState(8).uniform(-1.0, 1.0, size=(40, 15)))
        margin, _ = reference_sweep(sys, k, 40, 8)
        assert abs(report.min_sector_margin - margin) <= 1e-9
        assert margin_floor(0.9) < report.min_sector_margin < 0.0


def reference_sweep(sys, controller, sample_count, seed):
    """(min margin, worst (f_a, f_b)) of the one-at-a-time sweep.

    Vertices and samples are rebuilt here, not taken from the sweep under
    test: bit k of vertex number v sets the sign (+1 when set) of the k-th
    positive radius, A row-major then B, and each sample draws f_a then f_b
    from one ``RandomState(seed)`` stream.  Each plant is the factorized
    product A = A0 + M_A diag(f_a) R_A (B likewise) and each margin comes
    from :func:`reference_margin`.
    """
    factors = decompose(sys)
    radii = np.concatenate([factors.delta_a.ravel(), factors.delta_b.ravel()])
    active = [k for k in range(radii.size) if radii[k] > 0]
    na, nb = factors.delta_a.size, factors.delta_b.size
    realizations = []
    for v in range(2 ** len(active)):
        f = np.zeros(radii.size)
        for bit, k in enumerate(active):
            f[k] = 1.0 if (v >> bit) & 1 else -1.0
        realizations.append((f[:na], f[na:]))
    rng = np.random.RandomState(seed)
    for _ in range(sample_count):
        f_a = rng.uniform(-1.0, 1.0, size=na)
        f_b = rng.uniform(-1.0, 1.0, size=nb)
        realizations.append((f_a, f_b))
    min_margin, worst = np.inf, None
    for f_a, f_b in realizations:
        a = factors.a0 + factors.m_a @ (f_a[:, None] * factors.r_a)
        b = factors.b0 + factors.m_b @ (f_b[:, None] * factors.r_b)
        margin = reference_margin(closed_loop(a, b, sys.c, controller), sys.alpha)
        if margin < min_margin:
            min_margin, worst = margin, (f_a, f_b)
    return min_margin, worst


def seeded_plant_and_controller(alpha, seed):
    """n=3, l=2, m=2 plant with some zero radii (9 uncertain entries for
    seeds 21 and 22) and a random order-2 controller."""
    rng = np.random.RandomState(seed)
    a_lo, b_lo = rng.randn(3, 3), rng.randn(3, 2)
    radius_a = 0.2 * (rng.rand(3, 3) < 0.75)
    radius_b = 0.1 * (rng.rand(3, 2) < 0.5)
    sys = UncertainFoltiSystem(
        alpha,
        IntervalMatrix(a_lo, a_lo + radius_a),
        IntervalMatrix(b_lo, b_lo + radius_b),
        rng.randn(2, 3),
    )
    k = DynamicController(2, -np.eye(2) + 0.3 * rng.randn(2, 2), rng.randn(2, 2),
                          rng.randn(2, 2), rng.randn(2, 2))
    return sys, k


@pytest.fixture(scope="module")
def fixture_designs():
    """(name, system, synthesize result, report) of both fixtures at n_c 0-3,
    designed with 20 samples from seed 0."""
    designs = []
    for tag, sys in (("example1", example1_system()), ("example2", example2_system())):
        for n_c in range(4):
            result, report = synthesize(sys, n_c, sample_count=20, seed=0)
            designs.append((f"{tag}-nc{n_c}", sys, result, report))
    return designs


@pytest.fixture(scope="module")
def sweep_cases(fixture_designs):
    """Fixture designs at n_c 0-3 plus one seeded plant per alpha regime."""
    cases = [(name, sys, result.controller) for name, sys, result, _ in fixture_designs]
    for alpha, seed in ((0.6, 21), (1.4, 22)):
        sys, k = seeded_plant_and_controller(alpha, seed)
        cases.append((f"seeded-{alpha}", sys, k))
    return cases


def assert_same_report(r1, r2):
    assert r1.min_sector_margin == r2.min_sector_margin
    np.testing.assert_array_equal(r1.worst_realization.f_a, r2.worst_realization.f_a)
    np.testing.assert_array_equal(r1.worst_realization.f_b, r2.worst_realization.f_b)
    assert (r1.vertex_count, r1.sample_count,
            r1.nominal_status is SdpStatus.FEASIBLE, r1.passed,
            r1.vertices_exhaustive) == (r2.vertex_count, r2.sample_count,
                                        r2.nominal_status is SdpStatus.FEASIBLE,
                                        r2.passed, r2.vertices_exhaustive)


class TestBatchedSweep:
    def test_matches_one_at_a_time_sweep(self, sweep_cases):
        for name, sys, k in sweep_cases:
            report = certify(sys, k, sample_count=60, seed=5)
            margin, worst = reference_sweep(sys, k, 60, 5)
            assert abs(report.min_sector_margin - margin) <= 1e-9, name
            assert np.array_equal(report.worst_realization.f_a, worst[0]), name
            assert np.array_equal(report.worst_realization.f_b, worst[1]), name
            assert report.vertex_count == 2 ** int(
                np.count_nonzero(sys.a.upper > sys.a.lower)
                + np.count_nonzero(sys.b.upper > sys.b.lower)
            ), name

    def test_chunk_size_does_not_change_the_report(self, sweep_cases, monkeypatch):
        chosen = [sweep_cases[0], sweep_cases[5], sweep_cases[-1]]
        full = [certify(sys, k, sample_count=30, seed=2) for _, sys, k in chosen]
        for chunk in (7, 1):
            monkeypatch.setattr(folmi.interval, "SWEEP_CHUNK", chunk)
            for report, (_, sys, k) in zip(full, chosen):
                assert_same_report(report, certify(sys, k, sample_count=30, seed=2))
        # one row per array: example2 at n_c = 1 stops at row 4, the first
        # to reach the floor, which is also the full sweep's worst row; at
        # the default sizes it stops after the first, 8-row array
        counts = count_swept_rows(monkeypatch)
        _, sys, k = sweep_cases[5]
        certify(sys, k, sample_count=30, seed=2)
        assert counts == [1] * 5
        monkeypatch.setattr(folmi.interval, "SWEEP_CHUNK", 512)
        counts.clear()
        certify(sys, k, sample_count=30, seed=2)
        assert counts == [8]
        _, rows = sweep_rows(decompose(sys), 30, 2)
        np.testing.assert_array_equal(full[1].worst_realization.f_a, rows[4, :9])
        np.testing.assert_array_equal(full[1].worst_realization.f_b, rows[4, 9:])

    def test_a_tie_keeps_the_first_row(self, monkeypatch):
        # under d_c = 0 the closed loop is A whatever B, so every row ties
        sys = UncertainFoltiSystem(0.5, IntervalMatrix.certain([[-1.0]]),
                                   IntervalMatrix([[1.0]], [[2.0]]), [[1.0]])
        for chunk in (512, 7, 1):
            monkeypatch.setattr(folmi.interval, "SWEEP_CHUNK", chunk)
            report = certify(sys, DynamicController.static([[0.0]]), sample_count=5)
            np.testing.assert_array_equal(report.worst_realization.f_b, [-1.0])

    def test_empty_sweep_checks_the_center(self, caplog, monkeypatch):
        # 30 uncertain entries: 2^30 vertices exceed the cap, and no samples
        n = 5
        a0 = -np.eye(n) + 0.1 * np.triu(np.ones((n, n)), 1)
        sys = UncertainFoltiSystem(
            0.8,
            IntervalMatrix(a0 - 0.01, a0 + 0.01),
            IntervalMatrix(np.full((n, 1), -0.01), np.full((n, 1), 0.01)),
            np.eye(n)[:1],
        )
        k = DynamicController.static([[0.0]])
        with caplog.at_level(logging.INFO, logger="folmi.synthesis"):
            report = certify(sys, k, sample_count=0)
        assert not report.vertices_exhaustive
        assert report.vertex_count == 0 and report.sample_count == 0
        center = reference_margin(decompose(sys).a0, 0.8)
        assert report.min_sector_margin == center
        json.dumps(report.min_sector_margin, allow_nan=False)
        np.testing.assert_array_equal(report.worst_realization.f_a, np.zeros(n * n))
        np.testing.assert_array_equal(report.worst_realization.f_b, np.zeros(n))
        assert report.passed
        assert any("samples only" in r.getMessage() and r.levelno == logging.INFO
                   for r in caplog.records)

        unstable = UncertainFoltiSystem(0.8, IntervalMatrix(-sys.a.upper, -sys.a.lower),
                                        sys.b, sys.c)
        report = certify(unstable, k, sample_count=0)
        assert report.min_sector_margin < 0 and not report.passed

        # the default 500 samples come in one array
        counts = count_swept_rows(monkeypatch)
        assert certify(sys, k).passed and counts == [500]


@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0, 1.2, 1.9])
def test_margin_floor_is_the_lowest_sector_margin(alpha):
    # an eigenvalue on the positive real axis or at the origin
    floor = margin_floor(alpha).hex()
    assert floor == sector_margins(np.array([[[1.0]]]), alpha)[0].hex()
    assert floor == sector_margins(np.zeros((1, 1, 1)), alpha)[0].hex()


class TestFloorStop:
    def test_failing_designs_stop_after_one_array(self, fixture_designs, monkeypatch):
        for name, sys, result, _ in fixture_designs[4:]:
            counts = count_swept_rows(monkeypatch)
            report = certify(sys, result.controller)
            assert counts == [8], name
            assert report.vertex_count == 4096 and report.vertices_exhaustive, name
            assert report.min_sector_margin == margin_floor(1.2), name

    def test_passing_design_sweeps_every_row(self, fixture_designs, monkeypatch):
        name, sys, result, _ = fixture_designs[0]
        counts = count_swept_rows(monkeypatch)
        report = certify(sys, result.controller)
        assert name == "example1-nc0" and report.passed
        assert counts == [8, 32, 128, 512, 512, 512, 344, 500]

    def test_stop_is_logged(self, fixture_designs, caplog):
        _, sys, result, _ = fixture_designs[4]
        with caplog.at_level(logging.INFO, logger="folmi.synthesis"):
            certify(sys, result.controller)
        assert [r.getMessage() for r in caplog.records
                if r.name == "folmi.synthesis" and r.levelno == logging.INFO] == [
            "sweep stopped at the margin floor after 8 of 4596 rows"]

    @pytest.mark.parametrize("first", [0, 7, 8, 100, 600])
    def test_planted_floor_row_stops_within_the_bound(self, first, monkeypatch):
        # the closed loop of vertex v is the scalar (1023 - 2 first) +
        # sum_j (2 bit_j(v) - 1) 2^j = 2 (v - first): vertex `first` is the
        # first with an eigenvalue at the origin, every later one positive
        sys = UncertainFoltiSystem(1.2, IntervalMatrix.certain([[1023.0 - 2 * first]]),
                                   IntervalMatrix(-np.ones((1, 10)), np.ones((1, 10))),
                                   [[1.0]])
        k = DynamicController.static(2.0 ** np.arange(10)[:, None])
        counts = count_swept_rows(monkeypatch)
        report = certify(sys, k)
        assert report.vertex_count == 1024
        assert sum(counts) <= min(4 * first + 8, first + 512)
        # the report of sweeping every row in one array
        factors = decompose(sys)
        _, rows = sweep_rows(factors, 500, 0)
        margins = sector_margins(closed_loop(*realize(factors, rows), sys.c, k), 1.2)
        i = int(np.argmin(margins))
        assert i == first and margins[i] == margin_floor(1.2)
        assert report.min_sector_margin == margins[i]
        np.testing.assert_array_equal(report.worst_realization.f_a, rows[i, :1])
        np.testing.assert_array_equal(report.worst_realization.f_b, rows[i, 1:])


class TestSynthesize:
    def test_example1_low_orders_certify(self):
        sys = example1_system()
        for n_c in (0, 1):
            result, report = synthesize(sys, n_c, sample_count=100, seed=0)
            assert result.solution.status is SdpStatus.FEASIBLE
            assert result.controller.n_c == n_c
            assert report.passed
            assert result.eta is not None and result.eta > 0

    def test_certain_stable_scalar_trivial(self):
        sys = certain_scalar_system(-1.0, 1.0, 1.0, 1.5)
        result, report = synthesize(sys, 0, sample_count=10, seed=0)
        assert report.passed
        assert result.eta is None  # no uncertainty multiplier on this path

    def test_uncontrollable_unstable_plant_infeasible(self):
        sys = certain_scalar_system(5.0, 0.0, 1.0, 0.5)
        with pytest.raises(InfeasibleError):
            synthesize(sys, 0, sample_count=10, seed=0)

    def test_realness_of_recovered_controller(self):
        sys = example1_system()
        result, _ = synthesize(sys, 2, sample_count=20, seed=0)
        for block in (result.controller.a_c, result.controller.b_c,
                      result.controller.c_c, result.controller.d_c):
            assert np.isrealobj(block)

    def test_recovery_scale_invariance(self):
        # scaling the whole certificate leaves the controller unchanged
        sys = example1_system()
        factors = decompose(sys)
        asm = assemble(factors, sys.c, 0.75, 1)
        sol = solve_feasibility(asm.problem)
        assert sol.status is SdpStatus.FEASIBLE
        k1 = recover(asm, sol)
        k2 = recover(asm, FakeSolution(sol.values * 7.5))
        np.testing.assert_allclose(k1.a_c, k2.a_c, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(k1.d_c, k2.d_c, rtol=1e-9, atol=1e-12)

    def test_solved_certificates_reverify(self):
        sys = example1_system()
        result, _ = synthesize(sys, 0, sample_count=20, seed=0)
        cfg = SolverConfig()
        for c in result.problem.constraints:
            assert constraint_margin(result.problem, c, result.solution.values) >= cfg.eps_margin

    @pytest.mark.parametrize("system,passed", [
        (example1_system, True), (example2_system, False),
    ])
    def test_one_solve_and_one_certification_per_design(
            self, monkeypatch, system, passed):
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(folmi.synthesis, name, wrapped)

        spy("decompose", folmi.synthesis.decompose)
        spy("solve_feasibility", folmi.synthesis.solve_feasibility)
        spy("_certify", folmi.synthesis._certify)
        _, report = synthesize(system(), 0, sample_count=10, seed=0)
        assert report.passed is passed
        # one decomposition, shared by the assembly and the certify sweep
        assert calls == ["decompose", "solve_feasibility", "_certify"]

    def test_failed_certification_is_reported_not_hidden(self):
        # the second example's plant family admits no robust static gain,
        # so the recovered static controller must come back flagged
        sys = example2_system()
        try:
            result, report = synthesize(sys, 0, sample_count=50, seed=0)
        except InfeasibleError:
            pytest.fail("the synthesis LMI itself is feasible for example 2")
        assert result.solution.status is SdpStatus.FEASIBLE
        assert not report.passed
        assert report.min_sector_margin < 0


@pytest.mark.parametrize("kwargs,name", [
    ({"sample_count": -5}, "'sample_count'"),
    ({"seed": -1}, "'seed'"),
    ({"seed": 2 ** 32}, "'seed'"),
])
@pytest.mark.parametrize("entry", ["certify", "synthesize"])
def test_invalid_sweep_settings_raise_before_any_work(monkeypatch, entry, kwargs, name):
    def never(*args, **kwargs):
        raise AssertionError("worked despite an invalid certify setting")

    for stage in ("solve_feasibility", "assemble", "realize"):
        monkeypatch.setattr(folmi.synthesis, stage, never)
    sys = example1_system()
    with pytest.raises(ValidationError, match=name):
        if entry == "certify":
            certify(sys, DynamicController.static([[-24.86]]), **kwargs)
        else:
            synthesize(sys, 0, **kwargs)


def full_lift_schur(factors, asm, v, sigma):
    """The Schur block with one lift row per uncertain entry, rebuilt
    from ``factors.r_a`` / ``factors.r_b`` at the decision vector ``v``."""
    b = asm.blocks
    if asm.alpha < 1.0:
        x, y = b["s"]
        cert = 2.0 * np.cos(asm.regime.theta) * x.value(v) \
            - 2.0 * np.sin(asm.regime.theta) * y.value(v)
        copies = 1
    else:
        cert = b["s"][0].value(v)
        copies = 2
    eta = float(b["eta"].value(v)[0, 0])
    r = np.kron(np.eye(copies), np.vstack([factors.r_a @ cert,
                                           factors.r_b @ b["t4"].value(v)]))
    mmt = factors.m_a @ factors.m_a.T + factors.m_b @ factors.m_b.T
    top = sigma + eta * np.kron(np.eye(copies), mmt)
    return np.block([[top, r.T], [r, -eta * np.eye(r.shape[0])]]), eta


def oriented(problem, constraint, v):
    """Constraint matrix at ``v``, negated for POSITIVE_DEFINITE."""
    m, _ = evaluate_constraint(problem, constraint, v)
    return m if constraint.sense is Sense.NEGATIVE_DEFINITE else -m


def separate_positivity(asm):
    """The synthesis LMI of ``asm`` with its positivity block split, from
    the same variable handles, into the separate constraints eta > 0,
    P_S - I > 0 and (n_c > 0) P_C - I > 0 and -Sigma(T1) > 0 after the
    Schur block."""
    old = LmiProblem(asm.problem.num_vars, asm.problem.constraints[:1])
    b, positive = asm.blocks, Sense.POSITIVE_DEFINITE
    if "eta" in b:
        old.add_constraint(b["eta"], positive)
    old.add_constraint(asm.regime.positivity(b["s"]), positive)
    if asm.n_c:
        old.add_constraint(asm.regime.positivity(b["c"]), positive)
        old.add_constraint(-1.0 * asm.regime.sigma(b["t1"]), positive)
    return old


def layout_digest(problem):
    """sha256 prefix of the ids, constant and stack bytes of every constraint."""
    h = hashlib.sha256()
    for c in problem.constraints:
        for part in (c.ids, c.constant, c.stack):
            h.update(part.tobytes())
    return h.hexdigest()[:16]


def barrier(mats, t):
    """-sum_j logdet(t I - F_j)."""
    total = 0.0
    for f in mats:
        sign, logdet = np.linalg.slogdet(t * np.eye(f.shape[0]) - f)
        assert sign > 0
        total -= logdet
    return total


def lift_plant(alpha, kind):
    """Uncertain plants for the lift equivalence: the two fixtures, an
    n=6, l=2 plant with every entry uncertain, and an n=4, l=2 plant whose
    radii have all-zero columns (A columns 1 and 3, B column 0)."""
    if kind == "example1":
        return example1_system()
    if kind == "example2":
        return example2_system()
    rng = np.random.RandomState(31)
    if kind == "n6":
        n, l = 6, 2
        radius_a, radius_b = 0.05 * rng.rand(n, n) + 0.01, 0.05 * rng.rand(n, l) + 0.01
    else:
        n, l = 4, 2
        radius_a = 0.1 * rng.rand(n, n) * (rng.rand(n, n) < 0.7)
        radius_a[:, [1, 3]] = 0.0
        radius_b = 0.1 * rng.rand(n, l)
        radius_b[:, 0] = 0.0
    a_lo, b_lo = rng.randn(n, n), rng.randn(n, l)
    return UncertainFoltiSystem(
        alpha,
        IntervalMatrix(a_lo, a_lo + radius_a),
        IntervalMatrix(b_lo, b_lo + radius_b),
        rng.randn(2, n),
    )


LIFT_CASES = [
    (0.75, "example1"), (1.2, "example2"), (0.7, "n6"), (1.3, "n6"),
    (0.6, "zero-columns"), (1.4, "zero-columns"),
]


def verdict_plant(seed, alpha):
    """n = 3, l = 1 plant with radii up to a seeded U(0, 0.12) level, so
    that some synthesis LMIs are infeasible."""
    rng = np.random.RandomState(seed)
    a0, b0 = rng.randn(3, 3), rng.randn(3, 1)
    level = rng.uniform(0.0, 0.12)
    ra, rb = level * rng.rand(3, 3), level * rng.rand(3, 1)
    return UncertainFoltiSystem(alpha, IntervalMatrix(a0 - ra, a0 + ra),
                                IntervalMatrix(b0 - rb, b0 + rb), rng.randn(2, 3))


class TestCompressedLift:
    """The compressed lift is the full one-row-per-entry lift up to an
    orthogonal change of basis; the rows it drops reappear as -eta
    eigenvalues, so under eta > 0 both lifts decide the same LMI."""

    @pytest.mark.parametrize("n_c", [0, 2])
    @pytest.mark.parametrize("alpha,kind", LIFT_CASES)
    def test_full_lift_spectrum_and_barrier(self, alpha, kind, n_c):
        sys_ = lift_plant(alpha, kind)
        factors = decompose(sys_)
        asm = assemble(factors, sys_.c, alpha, n_c)
        # the core inequality of the same midpoint plant, no uncertainty:
        # same variables except eta, dropped by its index
        certain = decompose(UncertainFoltiSystem(
            alpha, IntervalMatrix.certain(factors.a0),
            IntervalMatrix.certain(factors.b0), sys_.c))
        core = assemble(certain, sys_.c, alpha, n_c).problem
        eta_idx = asm.blocks["eta"].ids[0]
        assert core.num_vars == asm.problem.num_vars - 1

        copies = 1 if alpha < 1.0 else 2
        kept = int(np.count_nonzero(factors.delta_a.sum(axis=0))
                   + np.count_nonzero(factors.delta_b.sum(axis=0)))
        q = copies * (sys_.n ** 2 + sys_.n * sys_.l)
        d = copies * sys_.n
        schur, positivity = asm.problem.constraints[:2]
        assert schur.dim == d + copies * kept
        # P_S, P_C, Sigma(T1), eta
        assert positivity.dim == 2 * (sys_.n + n_c) // copies + copies * n_c + 1

        rng = np.random.RandomState(4)
        for _ in range(3):
            v = rng.randn(asm.problem.num_vars)
            v[eta_idx] = 0.1 + abs(v[eta_idx])
            sigma, _ = evaluate_constraint(core, core.constraints[0], np.delete(v, eta_idx))
            full, eta = full_lift_schur(factors, asm, v, sigma)
            assert full.shape == (d + q, d + q)
            comp = oriented(asm.problem, schur, v)
            want = np.sort(np.concatenate([
                np.linalg.eigvalsh(comp), np.full(q - copies * kept, -eta)]))
            got = np.linalg.eigvalsh(full)
            scale = np.abs(got).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)

            # the Schur block's barrier term: the dropped rows add
            # -log(t + eta) each, so the compressed solve's barrier differs
            # from the full lift's while its feasible set does not
            t = np.linalg.eigvalsh(full)[-1] + 0.5
            dropped = (q - copies * kept) * np.log(t + eta)
            b_comp, b_full = barrier([comp], t), barrier([full], t)
            assert abs(b_comp - dropped - b_full) <= 1e-10 * abs(b_full)

    def test_full_lift_gives_the_same_verdict(self):
        # the full lift assembled by certificate_lmi itself, with
        # D = blockdiag(R_A, R_B), against the compressed one on seeded
        # plants in both regimes at n_c = 0 and 1
        statuses = set()
        for seed in range(500, 532):
            alpha, n_c = (0.75, 1.3)[seed % 2], (seed // 2) % 2
            sys_ = verdict_plant(seed, alpha)
            factors = decompose(sys_)
            compressed = solve_feasibility(assemble(factors, sys_.c, alpha, n_c).problem)
            d = np.block([[factors.r_a, np.zeros((9, 1))], [np.zeros((3, 3)), factors.r_b]])
            problem, _ = certificate_lmi(_regime(alpha), factors.a0, factors.b0, n_c,
                                         (folmi.synthesis._lift(factors)[0], d))
            copies = 1 if alpha < 1.0 else 2
            assert problem.constraints[0].dim == copies * (3 + 12)
            assert problem.constraints[1].dim == 2 * (3 + n_c) // copies + copies * n_c + 1
            full = solve_feasibility(problem)
            assert full.status is compressed.status, seed
            statuses.add(compressed.status)
        assert statuses == {SdpStatus.FEASIBLE, SdpStatus.INFEASIBLE}

    def test_schur_dimension_of_the_large_plant(self):
        # n = 6, l = 2 at alpha >= 1: two copies of the n rows of Sigma
        # and of the 8 kept lift rows, in place of 2 * 48 lift rows, at
        # every n_c; the 2 n_c rows of Sigma(T1) join the positivity block
        sys_ = lift_plant(1.3, "n6")
        for n_c in (0, 2):
            asm = assemble(decompose(sys_), sys_.c, 1.3, n_c)
            assert asm.problem.constraints[0].dim == 2 * 6 + 2 * 8
            assert asm.problem.constraints[1].dim == 6 + n_c + 2 * n_c + 1


# layout_digest of the problems whose positivity block is P_S - I alone,
# as they were when P_C - I and eta > 0 were separate constraints
UNMERGED_DIGESTS = {
    0.5: {"analysis": "c485a2f20796dc5e", "certain": "8e7357f6ad95c6d7"},
    1.5: {"analysis": "85237405a498bc64", "certain": "74387e0439956eb7"},
}


class TestPositivityBlock:
    """P_S - I, P_C - I, -Sigma(T1) and eta > 0 are the diagonal blocks of
    one POSITIVE_DEFINITE constraint: the log det of a block-diagonal slack is
    the sum of its blocks' log dets (Boyd & Vandenberghe 2004, Convex
    Optimization, 11.6), so the barrier, the feasible set and the solver's
    duality bound are those of the separate constraints."""

    @pytest.mark.parametrize("n_c", range(4))
    @pytest.mark.parametrize("system", [example1_system, example2_system])
    def test_lifted_problems_have_two_blocks(self, system, n_c):
        sys_ = system()
        asm = assemble(decompose(sys_), sys_.c, sys_.alpha, n_c)
        _, positivity = asm.problem.constraints
        assert positivity.sense is Sense.POSITIVE_DEFINITE
        # eta is the last diagonal entry, and no other variable enters its
        # row; the constant there is 0
        (eta,) = asm.blocks["eta"].ids
        last = np.zeros((positivity.dim, positivity.dim))
        last[-1, -1] = 1.0
        coeffs = positivity.coeffs
        np.testing.assert_array_equal(coeffs.pop(eta), last)
        assert not any(c[-1].any() for c in coeffs.values())
        assert not positivity.constant[-1].any()

    @pytest.mark.parametrize("alpha", sorted(UNMERGED_DIGESTS))
    def test_unmerged_problems_are_unchanged(self, alpha):
        # the analysis LMI and a certain n_c = 0 problem add P_S - I as it is
        rng = np.random.RandomState(23)
        a, b, c = rng.randn(3, 3), rng.randn(3, 1), rng.randn(2, 3)
        sys_ = UncertainFoltiSystem(alpha, IntervalMatrix.certain(a),
                                    IntervalMatrix.certain(b), c)
        got = {"analysis": layout_digest(_analysis_lmi(a, alpha)[1]),
               "certain": layout_digest(assemble(decompose(sys_), c, alpha, 0).problem)}
        assert got == UNMERGED_DIGESTS[alpha]

    @pytest.mark.parametrize("n_c", range(4))
    @pytest.mark.parametrize("system", [example1_system, example2_system])
    def test_barrier_and_margin_are_those_of_the_parts(self, system, n_c):
        sys_ = system()
        asm = assemble(decompose(sys_), sys_.c, sys_.alpha, n_c)
        merged = asm.problem.constraints[1]
        old = separate_positivity(asm)
        parts = old.constraints[1:]
        per = 2 if sys_.alpha < 1.0 else 1  # rows per certificate row
        copies = asm.regime.copies  # rows of Sigma(T1) per row of T1
        assert [c.dim for c in parts] == \
            [1, per * sys_.n] + [per * n_c, copies * n_c] * (n_c > 0)
        rng = np.random.RandomState(n_c)
        for _ in range(5):
            x = rng.randn(asm.problem.num_vars)
            t = np.linalg.eigvalsh(oriented(asm.problem, merged, x))[-1] + 0.1 + rng.rand()
            lds = [_Block(c).slack(x, t)[1] for c in parts]
            ld = _Block(merged).slack(x, t)[1]
            assert abs(ld - sum(lds)) <= 1e-12 * sum(abs(v) for v in lds)
            margins = [constraint_margin(old, c, x) for c in parts]
            got = constraint_margin(asm.problem, merged, x)
            assert abs(got - min(margins)) <= 1e-12 * max(abs(v) for v in margins)

    def test_separate_blocks_take_the_same_steps(self):
        # the plants of test_full_lift_gives_the_same_verdict
        statuses = set()
        for seed in range(500, 532):
            alpha, n_c = (0.75, 1.3)[seed % 2], (seed // 2) % 2
            sys_ = verdict_plant(seed, alpha)
            asm = assemble(decompose(sys_), sys_.c, alpha, n_c)
            old = separate_positivity(asm)
            assert len(old.constraints) == 3 + 2 * n_c
            new, was = solve_feasibility(asm.problem), solve_feasibility(old)
            assert (new.status, new.iterations) == (was.status, was.iterations), seed
            statuses.add(new.status)
        assert statuses == {SdpStatus.FEASIBLE, SdpStatus.INFEASIBLE}


def full_controller_lmi(regime, a0, b0, n_c, lift):
    """The synthesis LMI over the full controller model, as it was assembled
    before T2 and T3 were dropped: P_S, P_C and T1..T4 declared in that
    order, then eta; G = [[[A0 B0] Z], [T2 T1]] with Z = [[Q_S, 0], [T4,
    T3]], so the controller rows of Sigma sit inside the Schur block beside
    MM^T padded with n_c zero rows, and blockdiag(P_S - I, P_C - I, eta)
    > 0.  The reference for the assembly of :func:`certificate_lmi`."""
    n, l = b0.shape
    p = LmiProblem()
    blocks = {"s": regime.declare(p, n), "c": regime.declare(p, n_c),
              "t1": p.declare_full_block(n_c, n_c),
              "t2": p.declare_full_block(n_c, n),
              "t3": p.declare_full_block(l, n_c),
              "t4": p.declare_full_block(l, n)}
    z = block_expr([[regime.q_expr(blocks["s"]), np.zeros((n, n_c))],
                    [blocks["t4"], blocks["t3"]]])
    g = block_expr([[np.hstack([a0, b0]) @ z],
                    [block_expr([[blocks["t2"], blocks["t1"]]])]])
    mmt, d = lift
    k = regime.copies
    eta = blocks["eta"] = p.declare_scalar()
    pad = np.zeros((n + n_c, n + n_c))
    pad[:n, :n] = mmt
    dz = d @ z
    zeros = np.zeros(dz.shape)
    r = block_expr([[dz if i == j else zeros for j in range(k)] for i in range(k)])
    p.add_constraint(block_expr([
        [regime.sigma(g) + eta.scale(np.kron(np.eye(k), pad)), r.T],
        [r, -1.0 * eta.scale(np.eye(r.rows))],
    ]), Sense.NEGATIVE_DEFINITE)
    pos = [regime.positivity(blocks["s"]), regime.positivity(blocks["c"]), eta]
    p.add_constraint(block_expr(
        [[a if a is b else np.zeros((a.rows, b.cols)) for b in pos] for a in pos]),
        Sense.POSITIVE_DEFINITE)
    return p, blocks


def barrier_value(problem, x, t):
    """The solver's barrier at (x, t): -log det(t I - F_j(x)) of every
    NEG-oriented constraint, and the box terms."""
    lds = [_Block(c).slack(x, t) for c in problem.constraints]
    assert all(ld is not None for ld in lds)
    box = np.sum(np.log(R_BOX - x) + np.log(R_BOX + x))
    return -sum(ld[1] for ld in lds) - box


class TestDroppedLifts:
    """The reflection x_c -> -x_c maps (T2, T3) to -(T2, T3) and keeps the
    spectrum of every constraint of the full controller LMI, so its barrier
    never leaves T2 = T3 = 0 (Gatermann & Parrilo 2004).  On that subspace
    the full LMI is the plant's Schur block beside Sigma(T1) < 0, which
    ``certificate_lmi`` moves into the positivity block."""

    def test_full_controller_lmi_takes_the_same_steps(self):
        # the plants of test_full_lift_gives_the_same_verdict, at n_c 1-3
        statuses = set()
        for seed in range(500, 532):
            alpha, n_c = (0.75, 1.3)[seed % 2], 1 + (seed // 2) % 3
            sys_ = verdict_plant(seed, alpha)
            factors = decompose(sys_)
            asm = assemble(factors, sys_.c, alpha, n_c)
            full, handles = full_controller_lmi(asm.regime, factors.a0, factors.b0, n_c,
                                                folmi.synthesis._lift(factors))
            new, was = solve_feasibility(asm.problem), solve_feasibility(full)
            assert new.status is was.status, seed
            if new.status is SdpStatus.FEASIBLE:
                assert new.iterations == was.iterations, seed
            for name in ("t2", "t3"):
                assert not np.any(handles[name].value(was.values)), (seed, name)
            statuses.add(new.status)
        assert statuses == {SdpStatus.FEASIBLE, SdpStatus.INFEASIBLE}

    @pytest.mark.parametrize("n_c", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.75, 1.3])
    def test_barrier_is_that_of_the_full_lmi_at_zero_t2_t3(self, alpha, n_c):
        sys_ = verdict_plant(500 + n_c, alpha)
        factors = decompose(sys_)
        asm = assemble(factors, sys_.c, alpha, n_c)
        full, handles = full_controller_lmi(asm.regime, factors.a0, factors.b0, n_c,
                                            folmi.synthesis._lift(factors))
        pairs = [(a.ids, b.ids) for name in ("s", "c")
                 for a, b in zip(asm.blocks[name], handles[name])]
        pairs += [(asm.blocks[name].ids, handles[name].ids) for name in ("t1", "t4", "eta")]
        # the box terms of the dropped T2 and T3 at zero
        dropped = 2 * (n_c * sys_.n + sys_.l * n_c) * np.log(R_BOX)
        rng = np.random.RandomState(n_c)
        for _ in range(5):
            x = rng.randn(asm.problem.num_vars)
            y = np.zeros(full.num_vars)
            for mine, theirs in pairs:
                y[theirs] = x[mine]
            t = max(np.linalg.eigvalsh(oriented(asm.problem, c, x))[-1]
                    for c in asm.problem.constraints) + 0.1 + rng.rand()
            got, want = barrier_value(asm.problem, x, t), barrier_value(full, y, t)
            assert abs(got - dropped - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("lifted", [False, True])
    @pytest.mark.parametrize("n_c", range(4))
    @pytest.mark.parametrize("alpha", [0.75, 1.3])
    def test_every_block_selects_its_variables_by_slice(self, alpha, n_c, lifted):
        sys_ = verdict_plant(510, alpha)
        factors = decompose(sys_)
        lift = folmi.synthesis._lift(factors) if lifted else None
        problem, _ = certificate_lmi(_regime(alpha), factors.a0, factors.b0, n_c, lift)
        problems = [problem, _analysis_lmi(factors.a0, alpha)[1]]
        for p in problems:
            assert len(p.constraints) == 2
            assert all(isinstance(_Block(c).sel, slice) for c in p.constraints)

    @pytest.mark.parametrize("certain", [False, True])
    @pytest.mark.parametrize("n_c", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.75, 1.3])
    def test_recover_writes_zero_b_c_and_c_c_when_l_differs_from_m(
            self, alpha, n_c, certain):
        # verdict_plant has l = 1 input and m = 2 outputs
        for seed in (0, 1):
            sys_ = verdict_plant(seed, alpha)
            factors = decompose(sys_)
            if certain:
                factors = decompose(UncertainFoltiSystem(
                    alpha, IntervalMatrix.certain(factors.a0),
                    IntervalMatrix.certain(factors.b0), sys_.c))
            asm = assemble(factors, sys_.c, alpha, n_c)
            sol = solve_feasibility(asm.problem)
            assert sol.status is SdpStatus.FEASIBLE, seed
            k = recover(asm, sol)
            assert (k.b_c.shape, k.c_c.shape) == ((n_c, 2), (1, n_c)), seed
            for m in (k.b_c, k.c_c):
                assert not m.any() and not np.signbit(m).any(), seed
            v, b = sol.values, asm.blocks
            qs_inv = np.linalg.inv(asm.regime.q_expr(b["s"]).value(v))
            np.testing.assert_array_equal(
                k.d_c, b["t4"].value(v) @ qs_inv @ pinv(sys_.c), err_msg=str(seed))


# (min_sector_margin, passed, worst f_a, worst f_b, solver_iterations,
# schur_dim) of synthesize(sys, n_c, sample_count=20, seed=0), whose Schur
# block holds the plant rows of Sigma and one lift row per nonzero radius
# column sum, so schur_dim is the same at every n_c, beside one positivity
# block blockdiag(P_S - I, P_C - I, -Sigma(T1), eta) > 0.
# Signs of the worst vertex are written "+", "-", and "0" for a zero radius.
GOLDEN = {
    "example1-nc0": (0.2000995550625635, True, "-++-++-++", "++0", 32, 7),
    "example1-nc1": (0.19980552126455664, True, "-++-++-++", "++0", 35, 7),
    "example1-nc2": (0.1994011102431381, True, "-++-++-++", "++0", 37, 7),
    "example1-nc3": (0.19934565759397005, True, "-++-++-++", "++0", 40, 7),
    "example2-nc0": (-1.8849555921538759, False, "--+------", "---", 23, 14),
    "example2-nc1": (-1.8849555921538759, False, "--+------", "---", 24, 14),
    "example2-nc2": (-1.8849555921538759, False, "+-+------", "---", 26, 14),
    "example2-nc3": (-1.8849555921538759, False, "--+------", "---", 27, 14),
}


def signs(text):
    return np.array([{"+": 1.0, "-": -1.0, "0": 0.0}[ch] for ch in text])


class TestGoldenAnswers:
    def test_fixture_designs_match_the_full_lift_answers(self, fixture_designs):
        assert [name for name, *_ in fixture_designs] == list(GOLDEN)
        for name, _, result, report in fixture_designs:
            margin, passed, f_a, f_b, iterations, schur_dim = GOLDEN[name]
            assert abs(report.min_sector_margin - margin) <= 1e-9, name
            assert report.passed is passed, name
            np.testing.assert_array_equal(report.worst_realization.f_a, signs(f_a),
                                          err_msg=name)
            np.testing.assert_array_equal(report.worst_realization.f_b, signs(f_b),
                                          err_msg=name)
            assert (result.solution.iterations, result.schur_dim) == \
                (iterations, schur_dim), name
            assert report.nominal_route == "closed_form", name
            assert report.nominal_status is SdpStatus.FEASIBLE, name

    def test_dynamic_designs_are_static(self, fixture_designs):
        # the flip x_c -> -x_c maps (T2, T3) to -(T2, T3) and keeps the
        # spectrum of every constraint; the barrier starts on its fixed
        # subspace and stays there, so each n_c >= 1 design is a static gain
        # beside a controller state that is neither driven nor read
        dynamic = [(name, result) for name, _, result, _ in fixture_designs
                   if result.controller.n_c]
        assert len(dynamic) == 6
        for name, result in dynamic:
            k = result.controller
            for m in (k.b_c, k.c_c):
                assert m.size and not np.any(m), name
