import json
import logging

import numpy as np
import pytest

import folmi.synthesis
from folmi.errors import (
    AlphaOutOfRangeError,
    InfeasibleError,
    SolverFailureError,
    ValidationError,
)
from folmi.interval import (
    IntervalMatrix,
    UncertainFoltiSystem,
    UncertaintyRealization,
    decompose,
    realize,
)
from folmi.lmi import (
    SdpStatus,
    Sense,
    SolverConfig,
    constraint_margin,
    evaluate_constraint,
    solve_feasibility,
)
from folmi.stability import analysis_feasible, closed_loop, sector_margin
from folmi.synthesis import (
    DynamicController,
    assemble,
    certify,
    recover,
    synthesize,
)
from tests.test_interval import example1_system

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
    for k, basis in block.basis():
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

    def test_dict_round_trip(self):
        k = DynamicController(1, [[-5.55]], [[-0.43]], [[-1.25]], [[-26.55]])
        k2 = DynamicController.from_dict(k.to_dict())
        np.testing.assert_array_equal(k.a_c, k2.a_c)
        np.testing.assert_array_equal(k.d_c, k2.d_c)
        k0 = DynamicController.static([[-3.0]])
        k02 = DynamicController.from_dict(k0.to_dict())
        assert k02.n_c == 0
        np.testing.assert_array_equal(k0.d_c, k02.d_c)


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
            sector_margin([[5.0 + d]], 0.5).stable
            for d in np.arange(-50.0, 10.0, 0.25)
        )
        assert (sol.status is SdpStatus.FEASIBLE) == sweep_feasible
        k = recover(asm, sol)
        assert sector_margin([[5.0 + k.d_c[0, 0]]], 0.5).stable

    def test_alpha_range(self):
        low, _ = synthesize(two_entry_scalar_plant(0.999), 0, sample_count=5)
        assert np.iscomplexobj(low.p_s) and low.schur_dim == 1 + 2
        sys = example1_system()
        for alpha in (0.0, -0.5):
            with pytest.raises(AlphaOutOfRangeError):
                assemble(decompose(sys), sys.c, alpha, 0)


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
        assert sector_margin([[-1.0 + k.d_c[0, 0]]], 1.5).stable

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


class TestAssemblyStructure:
    """The core blocks must coincide with the independently assembled
    closed-loop analysis forms whenever recovery is exact (square
    invertible C makes the pseudo-inverse a true inverse)."""

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
        sigma = asm.problem.constraints[0].constant.copy()
        for idx, coeff in asm.problem.constraints[0].coeffs.items():
            sigma += v[idx] * coeff
        np.testing.assert_allclose(analysis_form, sigma, atol=1e-10)

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
        sigma = asm.problem.constraints[0].constant.copy()
        for idx, coeff in asm.problem.constraints[0].coeffs.items():
            sigma += v[idx] * coeff
        np.testing.assert_allclose(analysis_form, sigma, atol=1e-10)

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
        d = 3 + 1  # n + n_c
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
        assert report.nominal_lmi_ok
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
        assert report.nominal_lmi_ok is barrier.feasible

    def test_indeterminate_barrier_flips_to_audited_feasible(self):
        # the one verdict the closed form may change: with one Newton step
        # the barrier is INDETERMINATE (nominal_lmi_ok was False), while the
        # audited closed form proves the same LMI feasible
        k = DynamicController.static([[-24.86]])
        cfg = SolverConfig(max_iter=1)
        sys = example1_system()
        factors = decompose(sys)
        with pytest.raises(SolverFailureError):
            analysis_feasible(closed_loop(factors.a0, factors.b0, sys.c, k), 0.75, cfg)
        report = certify(sys, k, sample_count=10, seed=0, solver_cfg=cfg)
        assert report.nominal_route == "closed_form"
        assert report.nominal_status is SdpStatus.FEASIBLE
        assert report.nominal_lmi_ok and report.passed


def reference_sweep(sys, controller, sample_count, seed):
    """(min margin, worst realization) of the one-at-a-time sweep.

    Vertices and samples are rebuilt here, not taken from the sweep under
    test: bit k of vertex number v sets the sign (+1 when set) of the k-th
    positive radius, A row-major then B, and each sample draws f_a then f_b
    from one ``RandomState(seed)`` stream.
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
        realizations.append(UncertaintyRealization(f[:na], f[na:]))
    rng = np.random.RandomState(seed)
    for _ in range(sample_count):
        f_a = rng.uniform(-1.0, 1.0, size=na)
        f_b = rng.uniform(-1.0, 1.0, size=nb)
        realizations.append(UncertaintyRealization(f_a, f_b))
    min_margin, worst = np.inf, None
    for u in realizations:
        a, b = realize(factors, u)
        margin = sector_margin(closed_loop(a, b, sys.c, controller), sys.alpha).margin
        if margin < min_margin:
            min_margin, worst = margin, u
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
    assert (r1.vertex_count, r1.sample_count, r1.nominal_lmi_ok, r1.passed,
            r1.vertices_exhaustive) == (r2.vertex_count, r2.sample_count,
                                        r2.nominal_lmi_ok, r2.passed,
                                        r2.vertices_exhaustive)


class TestBatchedSweep:
    def test_matches_one_at_a_time_sweep(self, sweep_cases):
        for name, sys, k in sweep_cases:
            report = certify(sys, k, sample_count=60, seed=5)
            margin, worst = reference_sweep(sys, k, 60, 5)
            assert abs(report.min_sector_margin - margin) <= 1e-9, name
            assert np.array_equal(report.worst_realization.f_a, worst.f_a), name
            assert np.array_equal(report.worst_realization.f_b, worst.f_b), name
            assert report.vertex_count == 2 ** int(
                np.count_nonzero(sys.a.upper > sys.a.lower)
                + np.count_nonzero(sys.b.upper > sys.b.lower)
            ), name

    def test_chunk_size_does_not_change_the_report(self, sweep_cases, monkeypatch):
        chosen = [sweep_cases[0], sweep_cases[5], sweep_cases[-1]]
        full = [certify(sys, k, sample_count=30, seed=2) for _, sys, k in chosen]
        monkeypatch.setattr(folmi.synthesis, "SWEEP_CHUNK", 7)
        for report, (_, sys, k) in zip(full, chosen):
            assert_same_report(report, certify(sys, k, sample_count=30, seed=2))

    def test_empty_sweep_checks_the_center(self, caplog):
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
        center = sector_margin(decompose(sys).a0, 0.8).margin
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


class TestSynthesize:
    def test_example1_low_orders_certify(self):
        sys = example1_system()
        for n_c in (0, 1):
            result, report = synthesize(sys, n_c, sample_count=100, seed=0)
            assert result.solver_status is SdpStatus.FEASIBLE
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

    def test_change_of_variables_round_trip_low_alpha(self):
        sys = example1_system()
        result, report = synthesize(sys, 1, sample_count=50, seed=0)
        theta = (1.0 - 0.75) * np.pi / 2.0
        q_c = 2.0 * np.cos(theta) * result.p_c.real - 2.0 * np.sin(theta) * result.p_c.imag
        t1_back = result.controller.a_c @ q_c
        assert np.abs(t1_back - result.t1).max() <= 1e-8 * (1 + np.abs(result.t1).max())
        t3_back = result.controller.c_c @ q_c
        assert np.abs(t3_back - result.t3).max() <= 1e-8 * (1 + np.abs(result.t3).max())

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
            assert constraint_margin(result.problem, c, result.values) >= cfg.eps_margin

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

        spy("solve_feasibility", folmi.synthesis.solve_feasibility)
        spy("certify", folmi.synthesis.certify)
        _, report = synthesize(system(), 0, sample_count=10, seed=0)
        assert report.passed is passed
        assert calls == ["solve_feasibility", "certify"]

    def test_failed_certification_is_reported_not_hidden(self):
        # the second example's plant family admits no robust static gain,
        # so the recovered static controller must come back flagged
        sys = example2_system()
        try:
            result, report = synthesize(sys, 0, sample_count=50, seed=0)
        except InfeasibleError:
            pytest.fail("the synthesis LMI itself is feasible for example 2")
        assert result.solver_status is SdpStatus.FEASIBLE
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
    """The synthesis block with one lift row per uncertain entry, rebuilt
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
    n, n_c = factors.n, asm.n_c
    eta = float(b["eta"].value(v)[0, 0])
    t3, t4 = b["t3"].value(v), b["t4"].value(v)
    r_one = np.block([
        [factors.r_a @ cert, np.zeros((n * n, n_c))],
        [factors.r_b @ t4, factors.r_b @ t3],
    ])
    r = np.kron(np.eye(copies), r_one)
    mmt = np.zeros((n + n_c, n + n_c))
    mmt[:n, :n] = factors.m_a @ factors.m_a.T + factors.m_b @ factors.m_b.T
    top = sigma + eta * np.kron(np.eye(copies), mmt)
    return np.block([[top, r.T], [r, -eta * np.eye(r.shape[0])]]), eta


def oriented(problem, constraint, v):
    """Constraint matrix at ``v``, negated for POSITIVE_DEFINITE."""
    m, _ = evaluate_constraint(problem, constraint, v)
    return m if constraint.sense is Sense.NEGATIVE_DEFINITE else -m


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


class TestCompressedLift:
    """The compressed lift is the full one-row-per-entry lift up to an
    orthogonal change of basis; the rows it drops reappear as -eta
    eigenvalues, and the enlarged eta block keeps the barrier equal."""

    @pytest.mark.parametrize("n_c", [0, 2])
    @pytest.mark.parametrize("alpha,kind", LIFT_CASES)
    def test_full_lift_spectrum_and_barrier(self, alpha, kind, n_c):
        sys_ = lift_plant(alpha, kind)
        factors = decompose(sys_)
        asm = assemble(factors, sys_.c, alpha, n_c)
        # the core inequality of the same midpoint plant, no uncertainty:
        # same variables except eta, which every assembly declares last
        certain = decompose(UncertainFoltiSystem(
            alpha, IntervalMatrix.certain(factors.a0),
            IntervalMatrix.certain(factors.b0), sys_.c))
        core = assemble(certain, sys_.c, alpha, n_c).problem
        eta_idx = asm.blocks["eta"].indices[0]
        assert eta_idx == asm.problem.num_vars - 1 == core.num_vars

        copies = 1 if alpha < 1.0 else 2
        kept = int(np.count_nonzero(factors.delta_a.sum(axis=0))
                   + np.count_nonzero(factors.delta_b.sum(axis=0)))
        q = copies * (sys_.n ** 2 + sys_.n * sys_.l)
        d = copies * (sys_.n + n_c)
        schur, eta_block = asm.problem.constraints[:2]
        assert schur.dim == d + copies * kept
        assert eta_block.dim == 1 + q - copies * kept

        rng = np.random.RandomState(4)
        for _ in range(3):
            v = rng.randn(asm.problem.num_vars)
            v[eta_idx] = 0.1 + abs(v[eta_idx])
            sigma, _ = evaluate_constraint(core, core.constraints[0], v[:eta_idx])
            full, eta = full_lift_schur(factors, asm, v, sigma)
            assert full.shape == (d + q, d + q)
            comp = oriented(asm.problem, schur, v)
            want = np.sort(np.concatenate([
                np.linalg.eigvalsh(comp), np.full(q - copies * kept, -eta)]))
            got = np.linalg.eigvalsh(full)
            scale = np.abs(got).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)

            rest = [oriented(asm.problem, c, v) for c in asm.problem.constraints[2:]]
            compressed = [comp, oriented(asm.problem, eta_block, v)] + rest
            uncompressed = [full, np.array([[-eta]])] + rest
            assert sum(f.shape[0] for f in compressed) == \
                sum(f.shape[0] for f in uncompressed)
            t = max(np.linalg.eigvalsh(f)[-1] for f in uncompressed) + 0.5
            b_comp, b_full = barrier(compressed, t), barrier(uncompressed, t)
            assert abs(b_comp - b_full) <= 1e-10 * abs(b_full)

    def test_schur_dimension_of_the_large_plant(self):
        # n = 6, l = 2 at alpha >= 1: two copies of n + n_c rows of Sigma
        # and of the 8 kept lift rows, in place of 2 * 48 lift rows
        sys_ = lift_plant(1.3, "n6")
        for n_c in (0, 2):
            asm = assemble(decompose(sys_), sys_.c, 1.3, n_c)
            assert asm.problem.constraints[0].dim == 2 * (6 + n_c) + 2 * 8
            assert asm.problem.constraints[1].dim == 1 + 2 * 40


# (min_sector_margin, passed, worst f_a, worst f_b) of synthesize(sys, n_c,
# sample_count=20, seed=0) with the one-row-per-entry lift, then the
# (solver_iterations, schur_dim) of the compressed lift's final solve.
# Signs of the worst vertex are written "+", "-", and "0" for a zero radius.
GOLDEN = {
    "example1-nc0": (0.1999717907563221, True, "-++-++-++", "++0", 39, 7),
    "example1-nc1": (0.19974327504726164, True, "-++-++-++", "++0", 41, 8),
    "example1-nc2": (0.1995941534371728, True, "-++-++-++", "++0", 43, 9),
    "example1-nc3": (0.19950333824935473, True, "-++-++-++", "++0", 45, 10),
    "example2-nc0": (-1.8849555921538759, False, "+-+------", "---", 30, 14),
    "example2-nc1": (-1.8849555921538759, False, "+-+------", "---", 31, 16),
    "example2-nc2": (-1.8849555921538759, False, "+-+------", "---", 32, 18),
    "example2-nc3": (-1.8849555921538759, False, "+--------", "---", 32, 20),
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
            assert (result.solver_iterations, result.schur_dim) == \
                (iterations, schur_dim), name
            assert report.nominal_route == "closed_form", name
            assert report.nominal_status is SdpStatus.FEASIBLE, name
