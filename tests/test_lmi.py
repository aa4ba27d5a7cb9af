import numpy as np
import pytest

import folmi.lmi
import folmi.stability
from folmi.errors import IllFormedProblemError, LengthMismatchError
from folmi.interval import decompose
from folmi.lmi import (
    LmiProblem,
    SdpStatus,
    Sense,
    SolverConfig,
    block_expr,
    constraint_margin,
    evaluate_constraint,
    solve_feasibility,
    sym_expr,
)
from folmi.stability import analysis_feasible
from folmi.synthesis import assemble
from tests.test_interval import example1_system


class TestVariableBlocks:
    def test_symmetric_count_and_sharing(self):
        p = LmiProblem()
        s = p.declare_symmetric_block(2, "S")
        assert p.num_vars == 3
        values = np.array([1.0, 2.0, 3.0])
        m = s.value(values)
        # entry (0,1) and (1,0) come from the same variable
        assert m[0, 1] == m[1, 0] == 2.0
        np.testing.assert_array_equal(m, [[1.0, 2.0], [2.0, 3.0]])

    def test_skew_counts(self):
        p = LmiProblem()
        k = p.declare_skew_block(2, "K")
        assert p.num_vars == 1
        m = k.value(np.array([4.0]))
        np.testing.assert_array_equal(m, [[0.0, 4.0], [-4.0, 0.0]])

    def test_skew_dim_one_has_no_variables(self):
        p = LmiProblem()
        k = p.declare_skew_block(1, "K")
        assert p.num_vars == 0
        np.testing.assert_array_equal(k.value(np.zeros(0)), [[0.0]])

    def test_full_and_scalar(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 3, "T")
        s = p.declare_scalar("eta")
        assert p.num_vars == 7
        v = np.arange(7.0)
        np.testing.assert_array_equal(t.value(v), [[0, 1, 2], [3, 4, 5]])
        assert s.value(v)[0, 0] == 6.0


class TestExpressions:
    def test_algebra_matches_numpy(self):
        # composite expressions evaluated at random points agree with plain
        # numpy on the reconstructed blocks
        rng = np.random.RandomState(0)
        for _ in range(25):
            p = LmiProblem()
            s = p.declare_symmetric_block(3, "S")
            t = p.declare_full_block(3, 2, "T")
            left = rng.randn(2, 3)
            shift = rng.randn(2, 3)
            v = rng.randn(p.num_vars)
            sm, tm = s.value(v), t.value(v)
            e = left @ s.expr() - t.expr().T * 2.0 + shift
            want = left @ sm - 2.0 * tm.T + shift
            np.testing.assert_allclose(e.value(v), want, atol=1e-12)

    def test_block_expr_layout(self):
        p = LmiProblem()
        s = p.declare_symmetric_block(2, "S")
        v = np.array([1.0, 2.0, 3.0])
        big = block_expr([[s.expr(), -1.0 * s.expr()], [np.zeros((1, 2)), np.ones((1, 2))]])
        out = big.value(v)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out[:2, :2], s.value(v))
        np.testing.assert_array_equal(out[:2, 2:], -s.value(v))
        np.testing.assert_array_equal(out[2], [0.0, 0.0, 1.0, 1.0])

    def test_block_expr_zero_sized_blocks(self):
        p = LmiProblem()
        s = p.declare_symmetric_block(2, "S")
        t = p.declare_full_block(0, 2, "T")
        big = block_expr([[s.expr(), t.expr().T], [t.expr(), np.zeros((0, 0))]])
        assert big.shape == (2, 2)

    def test_sym_expr(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 2, "T")
        v = np.arange(4.0)
        np.testing.assert_array_equal(
            sym_expr(t.expr()).value(v), t.value(v) + t.value(v).T
        )


class TestConstraints:
    def test_rejects_asymmetric(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 2, "T")
        with pytest.raises(IllFormedProblemError):
            p.add_constraint(t.expr(), Sense.NEGATIVE_DEFINITE)

    def test_rejects_empty_or_rectangular(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 3, "T")
        with pytest.raises(IllFormedProblemError):
            p.add_constraint(t.expr(), Sense.NEGATIVE_DEFINITE)

    def test_evaluate_constant_at_zero(self):
        p = LmiProblem()
        x = p.declare_scalar("x")
        c = p.add_constraint(x.expr() - np.array([[2.0]]), Sense.NEGATIVE_DEFINITE)
        m, extreme = evaluate_constraint(p, c, np.zeros(1))
        np.testing.assert_array_equal(m, [[-2.0]])
        assert extreme == -2.0

    def test_evaluate_length_mismatch(self):
        p = LmiProblem()
        x = p.declare_scalar("x")
        c = p.add_constraint(x.expr(), Sense.POSITIVE_DEFINITE)
        with pytest.raises(LengthMismatchError):
            evaluate_constraint(p, c, np.zeros(3))

    def test_evaluate_exact_arithmetic(self):
        p = LmiProblem()
        x = p.declare_scalar("x")
        c = p.add_constraint(
            x.scale(np.diag([1.0, 2.0])) - np.diag([5.0, 5.0]),
            Sense.NEGATIVE_DEFINITE,
        )
        m, extreme = evaluate_constraint(p, c, np.array([1.0]))
        np.testing.assert_array_equal(m, np.diag([-4.0, -3.0]))
        assert extreme == -3.0


class TestSolver:
    def test_scalar_feasible(self):
        p = LmiProblem()
        x = p.declare_scalar("x")
        p.add_constraint(x.expr() - np.array([[1.0]]), Sense.NEGATIVE_DEFINITE)
        sol = solve_feasibility(p)
        assert sol.status is SdpStatus.FEASIBLE
        assert sol.achieved_margin >= 1e-6

    def test_contradictory_scalar_infeasible(self):
        p = LmiProblem()
        x = p.declare_scalar("x")
        p.add_constraint(-1.0 * x.expr(), Sense.NEGATIVE_DEFINITE)  # x > 0
        p.add_constraint(x.expr(), Sense.NEGATIVE_DEFINITE)  # x < 0
        sol = solve_feasibility(p)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_scalar_analysis_style_lmi(self):
        # scalar analytic check: -4 cos(pi/4) X < 0 admits X = 1
        theta = np.pi / 4
        p = LmiProblem()
        xs = p.declare_symmetric_block(1, "X")
        q = 2.0 * np.cos(theta) * xs.expr()
        a = np.array([[-1.0]])
        p.add_constraint(sym_expr(a @ q), Sense.NEGATIVE_DEFINITE)
        p.add_constraint(xs.expr(), Sense.POSITIVE_DEFINITE)
        sol = solve_feasibility(p)
        assert sol.status is SdpStatus.FEASIBLE
        x = xs.value(sol.values)[0, 0]
        assert x > 0
        assert -4.0 * np.cos(theta) * x < 0

    def test_no_constraints_rejected(self):
        with pytest.raises(IllFormedProblemError):
            solve_feasibility(LmiProblem())

    def test_feasible_solution_passes_all_margins(self):
        rng = np.random.RandomState(4)
        p = LmiProblem()
        s = p.declare_symmetric_block(3, "S")
        g = rng.randn(3, 3)
        p.add_constraint(sym_expr((g - 3 * np.eye(3)) @ s.expr()), Sense.NEGATIVE_DEFINITE)
        p.add_constraint(s.expr() - np.eye(3), Sense.POSITIVE_DEFINITE)
        cfg = SolverConfig()
        sol = solve_feasibility(p, cfg)
        assert sol.status is SdpStatus.FEASIBLE
        for c in p.constraints:
            assert constraint_margin(p, c, sol.values) >= cfg.eps_margin

    def test_determinism(self):
        def run():
            p = LmiProblem()
            s = p.declare_symmetric_block(2, "S")
            a = np.array([[-1.0, 2.0], [0.0, -3.0]])
            p.add_constraint(sym_expr(a @ s.expr()), Sense.NEGATIVE_DEFINITE)
            p.add_constraint(s.expr() - np.eye(2), Sense.POSITIVE_DEFINITE)
            return solve_feasibility(p, SolverConfig())

        s1, s2 = run(), run()
        assert s1.status == s2.status
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_eps_monotonicity(self):
        # growing eps_margin can only lose feasibility, never gain it;
        # the window -1e-3 < x < 1e-4 admits margins up to ~5.5e-4
        def status_at(eps):
            p = LmiProblem()
            x = p.declare_scalar("x")
            p.add_constraint(x.expr() - np.array([[1e-4]]), Sense.NEGATIVE_DEFINITE)
            p.add_constraint(-1.0 * x.expr() - np.array([[1e-3]]), Sense.NEGATIVE_DEFINITE)
            return solve_feasibility(p, SolverConfig(eps_margin=eps)).status

        order = [status_at(e) for e in (1e-6, 1e-4, 1e-2)]
        seen_infeasible = False
        for st in order:
            if st is not SdpStatus.FEASIBLE:
                seen_infeasible = True
            else:
                assert not seen_infeasible, "feasibility returned after being lost"
        assert order[0] is SdpStatus.FEASIBLE
        assert order[-1] is not SdpStatus.FEASIBLE


def assert_slacks_factored_once(monkeypatch, module, run):
    """Spy on Cholesky while ``run()`` makes one ``module.solve_feasibility``
    call and check that no slack matrix is factored twice; the (n+1)-square
    Newton systems are told apart by their size."""
    problems, factored = [], []
    cholesky, solve = np.linalg.cholesky, module.solve_feasibility

    def spy_cholesky(a):
        factored.append((a.shape, a.tobytes()))
        return cholesky(a)

    def spy_solve(problem, cfg=None):
        problems.append(problem)
        return solve(problem, cfg)

    monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
    monkeypatch.setattr(module, "solve_feasibility", spy_solve)
    run()
    (problem,) = problems
    newton = (problem.num_vars + 1,) * 2
    assert all((c.dim, c.dim) != newton for c in problem.constraints)
    slacks = [b for shape, b in factored if shape != newton]
    assert len(slacks) > 10
    refactored = len(slacks) - len(set(slacks))
    assert refactored == 0


class TestSingleEvaluation:
    """Each barrier iterate's slacks S_j = t*I - F_j(x) are formed and
    factored once: a Newton step reuses those of the point the previous
    line search accepted."""

    def test_analysis_solve(self, monkeypatch):
        a = np.random.RandomState(5).randn(3, 3)  # unstable: an INFEASIBLE solve
        assert_slacks_factored_once(
            monkeypatch, folmi.stability, lambda: analysis_feasible(a, 0.3))

    def test_uncertain_synthesis_solve(self, monkeypatch):
        sys = example1_system()
        asm = assemble(decompose(sys), sys.c, sys.alpha, 1)
        assert_slacks_factored_once(
            monkeypatch, folmi.lmi, lambda: folmi.lmi.solve_feasibility(asm.problem))
