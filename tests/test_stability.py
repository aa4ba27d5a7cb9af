import numpy as np
import pytest

from folmi.errors import (
    AlphaOutOfRangeError,
    ConvergenceFailureError,
    NonSquareError,
    ShapeMismatchError,
)
import folmi.stability
from folmi.lmi import (
    R_BOX,
    LmiProblem,
    SdpStatus,
    constraint_margin,
    evaluate_constraint,
    solve_feasibility,
)
from folmi.stability import (
    EIGENBASIS_COND_CAP,
    _regime,
    analysis_feasible,
    certificate_lmi,
    closed_form_certificate,
    closed_loop,
    sector_margins,
)
from folmi.synthesis import DynamicController

EX1_A0 = np.array([
    [2.25, -7.5, 1.25],
    [9.25, 6.25, 1.25],
    [1.25, 2.25, -0.75],
])
EX1_B0 = np.array([[1.25], [-0.8], [0.0]])
EX1_C = np.array([[1.0, 0.0, 1.0]])
EX2_A0 = np.array([[-1.0, -1.25, 3.5], [1.0, -2.3, 1.0], [-1.2, -3.5, -1.0]])
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def margin(a, alpha):
    """Sector margin of one matrix: the one-matrix stack of sector_margins."""
    return sector_margins(np.asarray(a, dtype=float)[None], alpha)[0]


def reference_margin(a, alpha):
    """min |arg(lambda)| - alpha*pi/2 of one matrix, written apart from the
    library: numpy.linalg.eigvals, and an eigenvalue of modulus below 1e-12
    counts as argument 0."""
    args = [0.0 if abs(z) < 1e-12 else abs(np.angle(z))
            for z in np.linalg.eigvals(np.asarray(a, dtype=float))]
    return min(args) - alpha * np.pi / 2.0


class TestSectorMargin:
    def test_stable_scalar(self):
        assert margin([[-1.0]], 0.75) == pytest.approx(np.pi - 0.375 * np.pi)

    def test_rotation_matrix_both_regimes(self):
        assert margin(ROTATION, 0.75) == pytest.approx(np.pi / 2 - 0.375 * np.pi)
        assert margin(ROTATION, 0.75) > 0
        assert margin(ROTATION, 1.2) == pytest.approx(np.pi / 2 - 0.6 * np.pi)
        assert margin(ROTATION, 1.2) < 0

    def test_example2_midpoint_unstable(self):
        assert margin(EX2_A0, 1.2) < 0

    def test_example1_midpoint_unstable(self):
        assert margin(EX1_A0, 0.75) < 0

    def test_zero_eigenvalue_is_unstable(self):
        assert margin(np.zeros((2, 2)), 0.5) == pytest.approx(-0.25 * np.pi)

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRangeError):
            margin(np.eye(2), 2.5)


class TestLowAlphaLmi:
    def test_stable_scalar_feasible(self):
        cert = analysis_feasible(np.array([[-1.0]]), 0.5)
        assert cert.x is not None
        assert cert.x.real[0, 0] > 0

    def test_unstable_scalar_infeasible(self):
        assert analysis_feasible(np.array([[1.0]]), 0.5).x is None

    def test_alpha_range(self):
        # just below alpha = 1 the certificate is Hermitian, X + iY
        assert np.iscomplexobj(analysis_feasible([[-1.0]], 0.999).x)
        for alpha in (0.0, -0.5):
            with pytest.raises(AlphaOutOfRangeError):
                analysis_feasible(np.eye(2), alpha)

    def test_certificate_satisfies_inequality(self):
        a = np.array([[-2.0, 1.0, 0.0], [0.0, -1.0, 0.5], [0.3, 0.0, -1.5]])
        alpha = 0.6
        cert = analysis_feasible(a, alpha)
        assert cert.x is not None
        self._check_low_alpha_certificate(a, alpha, cert.x)

    @staticmethod
    def _check_low_alpha_certificate(a, alpha, x, scale=1.0):
        theta = (1.0 - alpha) * np.pi / 2.0
        x = scale * x
        # X must be Hermitian positive definite
        np.testing.assert_allclose(x, x.conj().T, atol=1e-9)
        assert np.linalg.eigvalsh(x).min() > 0
        r = np.exp(1j * theta)
        q = r * x + np.conj(r) * np.conj(x)
        np.testing.assert_allclose(q.imag, np.zeros_like(q.imag), atol=1e-9)
        lmi = q.real.T @ a.T + a @ q.real
        assert np.linalg.eigvalsh(0.5 * (lmi + lmi.T)).max() <= -1e-6 * scale

    def test_certificate_scaling_invariance(self):
        a = np.array([[-1.0, 0.4], [0.0, -0.8]])
        cert = analysis_feasible(a, 0.3)
        for scale in (0.5, 3.0, 100.0):
            self._check_low_alpha_certificate(a, 0.3, cert.x, scale)

    def test_oracle_agreement(self):
        rng = np.random.RandomState(21)
        for alpha in (0.3, 0.75):
            for _ in range(40):
                a = rng.randn(3, 3)
                m = margin(a, alpha)
                if abs(m) <= 1e-3:
                    continue
                assert (analysis_feasible(a, alpha).x is not None) == (m > 0)


class TestHighAlphaLmi:
    def test_stable_scalar_feasible(self):
        assert analysis_feasible(np.array([[-1.0]]), 1.5).x is not None

    def test_rotation_infeasible_at_alpha_12(self):
        # eigenvalues at |arg| = pi/2 sit inside the 0.6 pi boundary
        assert analysis_feasible(ROTATION, 1.2).x is None

    def test_alpha_one_uses_high_alpha_regime(self):
        assert analysis_feasible(np.array([[-1.0]]), 1.0).x is not None

    def test_alpha_range(self):
        # from alpha = 1 up the certificate is the real symmetric P
        assert np.isrealobj(analysis_feasible([[-1.0]], 1.0).x)
        for alpha in (2.0, 2.5):
            with pytest.raises(AlphaOutOfRangeError):
                analysis_feasible(np.eye(2), alpha)

    def test_certificate_satisfies_inequality(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        alpha = 1.5
        cert = analysis_feasible(a, alpha)
        assert cert.x is not None
        self._check_high_alpha_certificate(a, alpha, cert.x)

    @staticmethod
    def _check_high_alpha_certificate(a, alpha, x, scale=1.0):
        x = scale * x
        theta = np.pi - alpha * np.pi / 2.0
        assert np.linalg.eigvalsh(x).min() > 0
        s = a @ x + x @ a.T
        k = a @ x - x @ a.T
        big = np.block([
            [s * np.sin(theta), k * np.cos(theta)],
            [-k * np.cos(theta), s * np.sin(theta)],
        ])
        assert np.linalg.eigvalsh(0.5 * (big + big.T)).max() <= -1e-6 * scale

    def test_certificate_scaling_invariance(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        cert = analysis_feasible(a, 1.2)
        for scale in (0.5, 3.0, 100.0):
            self._check_high_alpha_certificate(a, 1.2, cert.x, scale)

    def test_oracle_agreement(self):
        rng = np.random.RandomState(22)
        for alpha in (1.2, 1.8):
            for _ in range(40):
                a = rng.randn(3, 3)
                m = margin(a, alpha)
                if abs(m) <= 1e-3:
                    continue
                assert (analysis_feasible(a, alpha).x is not None) == (m > 0)


# (status, Newton iterations) of analysis_feasible on the matrices
# randn(3, 3) - 1.5 I drawn from RandomState(5), ten per alpha.  The counts
# pin the barrier path of each regime on the operand A itself; A^T, though
# it decides the same question, takes other steps.
ANALYSIS_PINS = {
    0.3: [("FEASIBLE", 6), ("FEASIBLE", 9), ("FEASIBLE", 10), ("FEASIBLE", 8),
          ("FEASIBLE", 11), ("FEASIBLE", 9), ("INFEASIBLE", 68), ("INFEASIBLE", 68),
          ("INFEASIBLE", 67), ("INFEASIBLE", 68)],
    0.75: [("FEASIBLE", 11), ("FEASIBLE", 12), ("FEASIBLE", 14), ("FEASIBLE", 13),
           ("FEASIBLE", 13), ("FEASIBLE", 12), ("INFEASIBLE", 70), ("INFEASIBLE", 70),
           ("INFEASIBLE", 67), ("INFEASIBLE", 69)],
    1.2: [("FEASIBLE", 8), ("INFEASIBLE", 68), ("FEASIBLE", 11), ("FEASIBLE", 9),
          ("FEASIBLE", 11), ("FEASIBLE", 11), ("INFEASIBLE", 69), ("INFEASIBLE", 70),
          ("INFEASIBLE", 67), ("INFEASIBLE", 69)],
    1.8: [("INFEASIBLE", 63), ("INFEASIBLE", 66), ("INFEASIBLE", 66), ("FEASIBLE", 7),
          ("FEASIBLE", 15), ("INFEASIBLE", 63), ("INFEASIBLE", 67), ("INFEASIBLE", 66),
          ("INFEASIBLE", 64), ("INFEASIBLE", 66)],
}


@pytest.mark.parametrize("alpha", list(ANALYSIS_PINS))
def test_analysis_solves_are_pinned(alpha):
    rng = np.random.RandomState(5)
    got = []
    for _ in ANALYSIS_PINS[alpha]:
        sol = analysis_feasible(rng.randn(3, 3) - 1.5 * np.eye(3), alpha).solution
        got.append((sol.status.name, sol.iterations))
    assert got == ANALYSIS_PINS[alpha]


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.2, 1.6])
@pytest.mark.parametrize("factor,status", [
    (0.5, SdpStatus.FEASIBLE), (0.9, SdpStatus.FEASIBLE),
    (1.1, SdpStatus.INFEASIBLE), (1.5, SdpStatus.INFEASIBLE),
])
def test_lifted_scalar_analysis_threshold(alpha, factor, status):
    # a = a0 + rho f rho, |f| <= 1, with l = 0 and n_c = 0: eliminating eta
    # from the scalar-multiplier lift leaves a0 + rho^2 < 0 below alpha = 1
    # and a0 sin(theta) + rho^2 < 0, theta = pi - alpha pi/2, from alpha = 1 up
    a0, regime = -1.0, _regime(alpha)
    threshold = -a0 if alpha < 1.0 else -a0 * np.sin(np.pi - alpha * np.pi / 2.0)
    rho = np.sqrt(factor * threshold)
    p, blocks = certificate_lmi(regime, np.array([[a0]]), np.zeros((1, 0)), 0,
                                (np.array([[rho * rho]]), np.array([[rho]])))
    k = regime.copies
    assert "eta" in blocks
    # the Schur block, then P_S - I (2 rows below alpha = 1) beside eta
    assert [c.dim for c in p.constraints[:2]] == [2 * k, 2 // k + 1]
    assert solve_feasibility(p).status is status


def lmi_audit(a, alpha, eps):
    """The closed-form audit through the analysis LMI: ``(outcome, values)``
    with the eigenbasis candidate written into the problem's variables by
    projection on each variable's coefficient, scaled, and every constraint
    audited by constraint_margin."""
    regime, p, blocks = folmi.stability._analysis_lmi(a, alpha)
    vals, vecs = np.linalg.eig(np.asarray(a, float))
    if not np.linalg.cond(vecs) <= EIGENBASIS_COND_CAP:
        return "cond", None
    x = np.zeros(p.num_vars)
    for block, part in zip(blocks["s"], regime.eigen_certificate(vals, vecs)):
        basis = block.value(np.eye(p.num_vars))  # the block of each unit vector
        for k in block.ids:
            x[k] = np.sum(basis[k] * part) / np.sum(basis[k] * basis[k])
    sigma, pos = (constraint_margin(p, c, x) for c in p.constraints)
    if sigma > 0.0 and pos > -1.0:
        x *= 2.0 * max((1.0 + eps) / (pos + 1.0), eps / sigma)
    margins = [constraint_margin(p, c, x) for c in p.constraints]
    accepted = min(margins) >= eps and np.abs(x).max() < R_BOX
    return "accepted" if accepted else "rejected", x


def audit_corpus(count):
    """``(a, alpha, kind)``: n = 2..8, alpha uniform in (0.05, 1.95), cycling
    through two kinds of shifted random matrices, a defective kind (one 2x2
    Jordan block) and a borderline kind (a conjugate pair at angle
    alpha*pi/2 + d from the positive real axis, d = +-1e-3 or +-1e-7)."""
    rng = np.random.RandomState(16)
    for i in range(count):
        n, alpha, kind = rng.randint(2, 9), rng.uniform(0.05, 1.95), i % 4
        s = rng.randn(n, n)
        j = np.diag(-rng.uniform(0.2, 2.0, n))
        if kind < 2:
            a = rng.randn(n, n) - rng.uniform(0.0, 3.0) * np.eye(n)
        else:
            if kind == 2:
                j[1, 1], j[0, 1] = j[0, 0], 1.0
            else:
                theta = alpha * np.pi / 2 + (1e-3, -1e-3, 1e-7, -1e-7)[(i // 4) % 4]
                c, sn = np.cos(theta), np.sin(theta)
                j[:2, :2] = rng.uniform(0.5, 2.0) * np.array([[c, sn], [-sn, c]])
            a = s @ j @ np.linalg.inv(s)
        yield a, alpha, kind


@pytest.mark.parametrize("audit", [
    lambda a: analysis_feasible(a, 0.5),
    lambda a: closed_form_certificate(a, 1.5, 1e-6),
])
def test_a_non_square_matrix_is_refused(audit):
    with pytest.raises(NonSquareError, match="is 1x2, not square"):
        audit([[1.0, 2.0]])


class TestClosedFormCertificate:
    def test_numeric_audit_matches_the_lmi_audit(self):
        # the same verdict on every matrix; the same values bit for bit
        # wherever P - I or a well-separated Sigma sets the scale, and on
        # borderline matrices, where eps / margin(Sigma) does, up to the
        # rounding of Sigma amplified by |Sigma| / margin(Sigma)
        outcomes = {}
        for a, alpha, kind in audit_corpus(600):
            outcome, ref = lmi_audit(a, alpha, 1e-6)
            cert = closed_form_certificate(a, alpha, 1e-6)
            assert (cert is not None) == (outcome == "accepted"), (kind, alpha)
            outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
            if cert is None:
                continue
            values = cert.solution.values
            if kind < 3:
                assert values.tobytes() == ref.tobytes()
                continue
            p = folmi.stability._analysis_lmi(a, alpha)[1]
            sigma, extreme = evaluate_constraint(p, p.constraints[0], ref)
            amplification = np.abs(np.linalg.eigvalsh(sigma)).max() / -extreme
            rel = np.abs(values - ref).max() / np.abs(ref).max()
            assert rel <= 1e-13 * amplification
        assert outcomes == {
            (0, "accepted"): 60, (0, "rejected"): 90,
            (1, "accepted"): 54, (1, "rejected"): 96,
            (2, "cond"): 125, (2, "rejected"): 25,
            (3, "accepted"): 53, (3, "rejected"): 97,
        }

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.2, 1.8])
    def test_a_passing_audit_builds_no_problem(self, monkeypatch, alpha):
        def refuse(*args, **kwargs):
            raise AssertionError("an LmiProblem was built")

        monkeypatch.setattr(LmiProblem, "__init__", refuse)
        cert = closed_form_certificate(np.array([[-3.0, 0.5], [-0.5, -3.0]]), alpha, 1e-6)
        assert cert.solution.status is SdpStatus.FEASIBLE
        with pytest.raises(AssertionError, match="LmiProblem"):
            analysis_feasible(np.array([[-1.0]]), alpha)

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.2, 1.8])
    def test_regime_code_on_a_batch_matches_each_matrix(self, alpha):
        # q_expr, sigma and positivity on a (B, n, n) batch, as the LMI is
        # built, give the bits of the same calls on each matrix, as the
        # audit runs them, signed zeros included
        regime, rng = _regime(alpha), np.random.RandomState(27)
        for n in (0, 1, 2, 3, 5):
            parts = [rng.randn(6, n, n) for _ in range(2 if alpha < 1.0 else 1)]
            g = rng.randn(6, n, n)
            for m in parts + [g]:
                m[rng.rand(*m.shape) < 0.3] = -0.0
            for call, arg in ((regime.q_expr, parts), (regime.positivity, parts),
                              (regime.sigma, g)):
                got = call(arg)
                for b in range(6):
                    one = call([part[b] for part in arg] if arg is parts else arg[b])
                    assert got[b].shape == one.shape
                    assert got[b].tobytes() == one.tobytes()

    def test_sound_on_seeded_matrices(self):
        # 200 matrices randn(n, n) - s I, n = 2..7, s uniform in [0, 2),
        # cycling through four orders; 66 are barrier-FEASIBLE
        rng = np.random.RandomState(2026)
        eps = 1e-6
        outcomes = {}
        for i in range(200):
            n, alpha = rng.randint(2, 8), (0.3, 0.75, 1.2, 1.8)[i % 4]
            a = rng.randn(n, n) - rng.uniform(0.0, 2.0) * np.eye(n)
            cert = closed_form_certificate(a, alpha, eps)
            status = analysis_feasible(a, alpha).solution.status
            key = (cert is not None, status)
            outcomes[key] = outcomes.get(key, 0) + 1
            if cert is None:
                continue
            assert status is not SdpStatus.INFEASIBLE, (i, alpha)
            p, _ = certificate_lmi(_regime(alpha), a, np.zeros((n, 0)), 0)
            x = cert.solution.values
            assert np.abs(x).max() < R_BOX
            assert min(constraint_margin(p, c, x) for c in p.constraints) >= eps
            if alpha < 1.0:
                TestLowAlphaLmi._check_low_alpha_certificate(a, alpha, cert.x)
            else:
                TestHighAlphaLmi._check_high_alpha_certificate(a, alpha, cert.x)
        # the closed form accepts every barrier-FEASIBLE matrix, down to a
        # sector margin of 0.0037 at alpha = 0.3
        assert outcomes == {
            (True, SdpStatus.FEASIBLE): 66,
            (False, SdpStatus.INFEASIBLE): 134,
        }

    def test_near_edge_pair_gets_a_derived_weight(self):
        # example1's midpoints under d_c = -2: the pair 3.29 +- 8.27j sits
        # 0.0139 rad inside the alpha = 0.75 sector, where the conjugate
        # weight must stay below -cos(phi + theta) / cos(phi - theta) < 0.1
        a = closed_loop(EX1_A0, EX1_B0, EX1_C, DynamicController.static([[-2.0]]))
        assert 0.0 < margin(a, 0.75) < 0.02
        theta, phi = 0.125 * np.pi, np.abs(np.angle(np.linalg.eigvals(a))).max()
        assert -np.cos(phi + theta) / np.cos(phi - theta) < 0.1
        cert = closed_form_certificate(a, 0.75, 1e-6)
        assert cert.solution.status is SdpStatus.FEASIBLE
        TestLowAlphaLmi._check_low_alpha_certificate(a, 0.75, cert.x)

    @pytest.mark.parametrize("alpha", [0.75, 1.2])
    def test_defective_jordan_block_falls_back(self, alpha, caplog):
        with caplog.at_level("INFO", logger="folmi.stability"):
            assert closed_form_certificate([[-1.0, 1.0], [0.0, -1.0]], alpha, 1e-6) is None
        assert "cond(V)" in caplog.text

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.2, 1.8])
    def test_unstable_matrix_fails_the_audit(self, alpha, caplog):
        a = np.array([[0.5, 1.0], [0.0, -1.0]])  # eigenvalue 0.5 > 0
        with caplog.at_level("INFO", logger="folmi.stability"):
            assert closed_form_certificate(a, alpha, 1e-6) is None
        assert "failed its audit" in caplog.text
        assert "margins Sigma -" in caplog.text

    def test_certificate_regimes(self):
        # Hermitian below alpha = 1, real symmetric from alpha = 1 up, as
        # the barrier's certificates
        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        assert np.iscomplexobj(closed_form_certificate(a, 0.75, 1e-6).x)
        cert = closed_form_certificate(a, 1.2, 1e-6)
        assert np.isrealobj(cert.x)
        assert cert.solution.status is SdpStatus.FEASIBLE
        assert cert.solution.iterations == 0


class TestClosedFormTiling:
    """The audit's grids are tiled by concatenation and its index pairs come
    from the cache: the certificate keeps the bits it had with np.block and
    np.triu_indices."""

    @staticmethod
    def reference(monkeypatch, a, alpha):
        with monkeypatch.context() as m:
            m.setattr(folmi.stability, "_tile", np.block)
            m.setattr(folmi.stability, "triu_pairs", np.triu_indices)
            return closed_form_certificate(a, alpha, 1e-6)

    @pytest.mark.parametrize("alpha", [0.75, 1.2])
    def test_certificate_bits_match_the_np_block_reference(self, monkeypatch, alpha):
        rng = np.random.RandomState(35)
        accepted = 0
        for _ in range(60):
            n = rng.randint(1, 7)
            a = rng.randn(n, n) - rng.uniform(0.0, 3.0) * np.eye(n)
            a[rng.rand(n, n) < 0.2] = -0.0
            got, want = closed_form_certificate(a, alpha, 1e-6), self.reference(
                monkeypatch, a, alpha)
            assert (got is None) == (want is None)
            if got is None:
                continue
            accepted += 1
            assert got.x.dtype == want.x.dtype and got.x.tobytes() == want.x.tobytes()
            assert got.solution.values.tobytes() == want.solution.values.tobytes()
            assert (got.solution.achieved_margin, got.solution.objective) == \
                (want.solution.achieved_margin, want.solution.objective)
        assert accepted >= 20


class TestSectorMargins:
    def test_matches_single_matrix_margins(self):
        rng = np.random.RandomState(8)
        stack = rng.randn(40, 4, 4)
        stack[3] = 0.0  # zero eigenvalues count as unstable
        stack[5] = np.diag([-1e-13, -1.0, -2.0, -3.0])  # argument 0 by the zero rule
        for alpha in (0.4, 1.0, 1.7):
            got = sector_margins(stack, alpha)
            assert got.shape == (40,)
            want = [reference_margin(m, alpha) for m in stack]
            np.testing.assert_array_equal(got, want)
        assert sector_margins(stack, 0.5)[3] == pytest.approx(-0.25 * np.pi)

    def test_empty_matrices_have_the_full_margin(self):
        np.testing.assert_allclose(
            sector_margins(np.zeros((3, 0, 0)), 0.5), [0.75 * np.pi] * 3
        )

    def test_validation(self):
        with pytest.raises(AlphaOutOfRangeError):
            sector_margins(np.zeros((1, 2, 2)), 2.0)
        with pytest.raises(ValueError):
            sector_margins(np.zeros((1, 65, 65)), 0.5)
        with pytest.raises(ValueError):
            sector_margins(np.full((1, 2, 2), np.nan), 0.5)

    def test_lapack_failure_maps_to_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceFailureError):
            sector_margins(np.eye(2)[None], 0.5)


class TestClosedLoop:
    def test_zero_static_controller_returns_plant(self):
        k = DynamicController.static(np.zeros((1, 1)))
        np.testing.assert_array_equal(
            closed_loop(EX1_A0, EX1_B0, EX1_C, k), EX1_A0
        )

    def test_reference_static_gain_stabilizes_center(self):
        k = DynamicController.static([[-24.86]])
        a_cl = closed_loop(EX1_A0, EX1_B0, EX1_C, k)
        assert a_cl.shape == (3, 3)
        assert margin(a_cl, 0.75) > 0

    def test_reference_first_order_controller_stabilizes_center(self):
        k = DynamicController(1, [[-5.55]], [[-0.43]], [[-1.25]], [[-26.55]])
        a_cl = closed_loop(EX1_A0, EX1_B0, EX1_C, k)
        assert a_cl.shape == (4, 4)
        assert margin(a_cl, 0.75) > 0

    def test_block_structure_matches_direct_construction(self):
        rng = np.random.RandomState(12)
        for _ in range(20):
            n, l, m, n_c = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
            a = rng.randn(n, n)
            b = rng.randn(n, l)
            c = rng.randn(m, n)
            k = DynamicController(
                n_c, rng.randn(n_c, n_c), rng.randn(n_c, m),
                rng.randn(l, n_c), rng.randn(l, m),
            )
            got = closed_loop(a, b, c, k)
            want = np.zeros((n + n_c, n + n_c))
            want[:n, :n] = a + b @ k.d_c @ c
            want[:n, n:] = b @ k.c_c
            want[n:, :n] = k.b_c @ c
            want[n:, n:] = k.a_c
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.RandomState(13)
        a = rng.randn(6, 3, 3)
        b = rng.randn(6, 3, 2)
        c = rng.randn(2, 3)
        for n_c in (0, 2):
            k = DynamicController(
                n_c, rng.randn(n_c, n_c), rng.randn(n_c, 2),
                rng.randn(2, n_c), rng.randn(2, 2),
            )
            got = closed_loop(a, b, c, k)
            assert got.shape == (6, 3 + n_c, 3 + n_c)
            for i in range(6):
                np.testing.assert_array_equal(got[i], closed_loop(a[i], b[i], c, k))
        with pytest.raises(ShapeMismatchError):
            closed_loop(a, b[:5], c, k)
        # both forms reject a non-square or non-finite A the same way
        bad = a.copy()
        bad[2, 1, 0] = np.nan
        for a_, b_ in ((a, b), (a[0], b[0])):
            with pytest.raises(ShapeMismatchError):
                closed_loop(a_[..., :2], b_, c, k)
        for a_, b_ in ((bad, b), (bad[2], b[2])):
            with pytest.raises(ValueError, match="non-finite"):
                closed_loop(a_, b_, c, k)

    def test_shape_mismatch(self):
        k = DynamicController.static([[1.0, 0.0]])  # expects m = 2
        with pytest.raises(ShapeMismatchError):
            closed_loop(EX1_A0, EX1_B0, EX1_C, k)
