import numpy as np
import pytest

import folmi.lmi
import folmi.stability
from folmi.errors import IllFormedProblemError, LengthMismatchError, ValidationError
from folmi.interval import decompose
from folmi.lmi import (
    AffineMatrixConstraint,
    LmiProblem,
    SdpStatus,
    Sense,
    SolverConfig,
    _Block,
    block_expr,
    constraint_margin,
    evaluate_constraint,
    solve_feasibility,
    sym_expr,
)
from folmi.stability import analysis_feasible
from folmi.synthesis import assemble
from tests.test_interval import example1_system
from tests.test_synthesis import example2_system


def constraint_of(dim, constant, coeffs, sense):
    """The AffineMatrixConstraint of ``constant + sum_k x_k coeffs[k]``."""
    ids = sorted(coeffs)
    stack = np.array([coeffs[k] for k in ids], float).reshape(len(ids), dim, dim)
    return AffineMatrixConstraint(dim, constant, np.array(ids, dtype=int), stack, sense)


class TestVariableBlocks:
    def test_symmetric_count_and_sharing(self):
        p = LmiProblem()
        s = p.declare_symmetric_block(2)
        assert p.num_vars == 3
        values = np.array([1.0, 2.0, 3.0])
        m = s.value(values)
        # entry (0,1) and (1,0) come from the same variable
        assert m[0, 1] == m[1, 0] == 2.0
        np.testing.assert_array_equal(m, [[1.0, 2.0], [2.0, 3.0]])

    def test_skew_counts(self):
        p = LmiProblem()
        k = p.declare_skew_block(2)
        assert p.num_vars == 1
        m = k.value(np.array([4.0]))
        np.testing.assert_array_equal(m, [[0.0, 4.0], [-4.0, 0.0]])

    def test_skew_dim_one_has_no_variables(self):
        p = LmiProblem()
        k = p.declare_skew_block(1)
        assert p.num_vars == 0
        np.testing.assert_array_equal(k.value(np.zeros(0)), [[0.0]])

    @pytest.mark.parametrize("declare,order,mirror", [
        # variable k sets entry order[k] to 1 and its transpose to mirror
        (lambda p: p.declare_symmetric_block(3),
         [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)], 1.0),
        (lambda p: p.declare_skew_block(3), [(0, 1), (0, 2), (1, 2)], -1.0),
        (lambda p: p.declare_full_block(2, 3),
         [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)], None),
    ])
    def test_variable_order(self, declare, order, mirror):
        p = LmiProblem()
        p.declare_scalar()
        block = declare(p)
        assert p.num_vars == 1 + len(order)
        for k, (i, j) in enumerate(order, start=1):
            want = np.zeros((block.rows, block.cols))
            if mirror is not None:
                want[j, i] = mirror
            want[i, j] = 1.0
            np.testing.assert_array_equal(block.value(np.eye(p.num_vars)[k]), want)

    def test_full_and_scalar(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 3)
        s = p.declare_scalar()
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
            s = p.declare_symmetric_block(3)
            t = p.declare_full_block(3, 2)
            left = rng.randn(2, 3)
            shift = rng.randn(2, 3)
            v = rng.randn(p.num_vars)
            sm, tm = s.value(v), t.value(v)
            e = left @ s - t.T * 2.0 + shift
            want = left @ sm - 2.0 * tm.T + shift
            np.testing.assert_allclose(e.value(v), want, atol=1e-12)

    def test_block_expr_layout(self):
        p = LmiProblem()
        s = p.declare_symmetric_block(2)
        v = np.array([1.0, 2.0, 3.0])
        big = block_expr([[s, -1.0 * s], [np.zeros((1, 2)), np.ones((1, 2))]])
        out = big.value(v)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out[:2, :2], s.value(v))
        np.testing.assert_array_equal(out[:2, 2:], -s.value(v))
        np.testing.assert_array_equal(out[2], [0.0, 0.0, 1.0, 1.0])

    def test_block_expr_zero_sized_blocks(self):
        p = LmiProblem()
        s = p.declare_symmetric_block(2)
        t = p.declare_full_block(0, 2)
        big = block_expr([[s, t.T], [t, np.zeros((0, 0))]])
        assert big.shape == (2, 2)

    def test_reflected_operators(self):
        # an array on the left of + and - hands the expression to __radd__
        # and __rsub__
        p = LmiProblem()
        s = p.declare_symmetric_block(2)
        shift = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal((shift + s).value(v), shift + s.value(v))
        np.testing.assert_array_equal((shift - s).value(v), shift - s.value(v))

    def test_sym_expr(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 2)
        v = np.arange(4.0)
        np.testing.assert_array_equal(
            sym_expr(t).value(v), t.value(v) + t.value(v).T
        )


class TestConstraints:
    def test_rejects_asymmetric(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 2)
        with pytest.raises(IllFormedProblemError):
            p.add_constraint(t, Sense.NEGATIVE_DEFINITE)

    def test_rejects_empty_or_rectangular(self):
        p = LmiProblem()
        t = p.declare_full_block(2, 3)
        with pytest.raises(IllFormedProblemError):
            p.add_constraint(t, Sense.NEGATIVE_DEFINITE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["constant", "coefficient"])
    def test_rejects_non_finite_entries(self, where, bad):
        # a NaN fails no symmetry comparison, so finiteness is checked alone
        p = LmiProblem()
        x = p.declare_scalar()
        m = np.eye(2)
        m[0, 0] = bad
        expr = x.scale(np.eye(2)) - m if where == "constant" else x.scale(m)
        assert np.all(np.isfinite(expr.coeff if where == "constant" else expr.const))
        with pytest.raises(IllFormedProblemError, match="finite"):
            p.add_constraint(expr, Sense.NEGATIVE_DEFINITE)
        assert p.constraints == []

    def test_evaluate_constant_at_zero(self):
        p = LmiProblem()
        x = p.declare_scalar()
        c = p.add_constraint(x - np.array([[2.0]]), Sense.NEGATIVE_DEFINITE)
        m, extreme = evaluate_constraint(p, c, np.zeros(1))
        np.testing.assert_array_equal(m, [[-2.0]])
        assert extreme == -2.0

    def test_evaluate_length_mismatch(self):
        p = LmiProblem()
        x = p.declare_scalar()
        c = p.add_constraint(x, Sense.POSITIVE_DEFINITE)
        with pytest.raises(LengthMismatchError):
            evaluate_constraint(p, c, np.zeros(3))

    def test_evaluate_exact_arithmetic(self):
        p = LmiProblem()
        x = p.declare_scalar()
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
        x = p.declare_scalar()
        p.add_constraint(x - np.array([[1.0]]), Sense.NEGATIVE_DEFINITE)
        sol = solve_feasibility(p)
        assert sol.status is SdpStatus.FEASIBLE
        assert sol.achieved_margin >= 1e-6

    def test_contradictory_scalar_infeasible(self):
        p = LmiProblem()
        x = p.declare_scalar()
        p.add_constraint(-1.0 * x, Sense.NEGATIVE_DEFINITE)  # x > 0
        p.add_constraint(x, Sense.NEGATIVE_DEFINITE)  # x < 0
        sol = solve_feasibility(p)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_gap_exit_without_a_proof_is_indeterminate(self):
        # the one point has margin exactly eps_margin, which t approaches
        # but never reaches; when the duality gap closed after 13 steps this
        # used to read INFEASIBLE, which only the duality bound may prove
        p = LmiProblem()
        p.add_constraint(np.array([[-1e-6]]), Sense.NEGATIVE_DEFINITE)
        sol = solve_feasibility(p)
        assert sol.status is SdpStatus.INDETERMINATE
        assert sol.iterations == 13
        assert sol.achieved_margin == 1e-6

    @pytest.mark.parametrize("max_iter,status,iterations", [
        (50, SdpStatus.INDETERMINATE, 50),
        (51, SdpStatus.INDETERMINATE, 51),
        (57, SdpStatus.INDETERMINATE, 57),
        (200, SdpStatus.INFEASIBLE, 68),
    ])
    def test_a_cut_budget_proves_nothing_off_centre(self, max_iter, status, iterations):
        # an unstable matrix: the full budget proves the analysis LMI
        # INFEASIBLE after 68 steps; cut at 50 or 51 steps, the duality test
        # used to run at the uncentred last iterate and read INFEASIBLE
        a = np.random.RandomState(0).randn(3, 3)
        sol = analysis_feasible(a, 0.75, SolverConfig(max_iter=max_iter)).solution
        assert (sol.status, sol.iterations) == (status, iterations)

    def test_a_failed_newton_step_is_indeterminate(self, monkeypatch):
        # no factorization of the (num_vars + 1)-square Newton system
        # succeeds, so the first step fails and ends the solve at a point
        # that does not clear eps_margin; the 1x1 slack still factors
        p = LmiProblem()
        x = p.declare_scalar()
        p.add_constraint(x - np.array([[1.0]]), Sense.NEGATIVE_DEFINITE)
        assert solve_feasibility(p).status is SdpStatus.FEASIBLE
        cholesky = np.linalg.cholesky

        def newton_fails(m):
            if m.shape == (p.num_vars + 1, p.num_vars + 1):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", newton_fails)
        sol = solve_feasibility(p)
        assert (sol.status, sol.iterations) == (SdpStatus.INDETERMINATE, 1)

    def test_scalar_analysis_style_lmi(self):
        # scalar analytic check: -4 cos(pi/4) X < 0 admits X = 1
        theta = np.pi / 4
        p = LmiProblem()
        xs = p.declare_symmetric_block(1)
        q = 2.0 * np.cos(theta) * xs
        a = np.array([[-1.0]])
        p.add_constraint(sym_expr(a @ q), Sense.NEGATIVE_DEFINITE)
        p.add_constraint(xs, Sense.POSITIVE_DEFINITE)
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
        s = p.declare_symmetric_block(3)
        g = rng.randn(3, 3)
        p.add_constraint(sym_expr((g - 3 * np.eye(3)) @ s), Sense.NEGATIVE_DEFINITE)
        p.add_constraint(s - np.eye(3), Sense.POSITIVE_DEFINITE)
        cfg = SolverConfig()
        sol = solve_feasibility(p, cfg)
        assert sol.status is SdpStatus.FEASIBLE
        for c in p.constraints:
            assert constraint_margin(p, c, sol.values) >= cfg.eps_margin

    def test_determinism(self):
        def run():
            p = LmiProblem()
            s = p.declare_symmetric_block(2)
            a = np.array([[-1.0, 2.0], [0.0, -3.0]])
            p.add_constraint(sym_expr(a @ s), Sense.NEGATIVE_DEFINITE)
            p.add_constraint(s - np.eye(2), Sense.POSITIVE_DEFINITE)
            return solve_feasibility(p, SolverConfig())

        s1, s2 = run(), run()
        assert s1.status == s2.status
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_eps_monotonicity(self):
        # growing eps_margin can only lose feasibility, never gain it;
        # the window -1e-3 < x < 1e-4 admits margins up to ~5.5e-4
        def status_at(eps):
            p = LmiProblem()
            x = p.declare_scalar()
            p.add_constraint(x - np.array([[1e-4]]), Sense.NEGATIVE_DEFINITE)
            p.add_constraint(-1.0 * x - np.array([[1e-3]]), Sense.NEGATIVE_DEFINITE)
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

    @pytest.mark.parametrize("settings", [
        {"eps_margin": -1.0}, {"eps_margin": 0.0}, {"eps_margin": float("nan")},
        {"eps_margin": float("inf")}, {"eps_margin": float("-inf")},
        {"eps_margin": -0.0}, {"eps_margin": -1e-300},
        {"max_iter": 0}, {"max_iter": -5},
    ])
    def test_out_of_range_settings_are_rejected(self, settings):
        # with eps_margin = -1 the infeasible pair x + 1 < 0, x > 0 used to
        # be reported FEASIBLE at margin -0.5
        with pytest.raises(ValidationError, match=f"'solver.{next(iter(settings))}'"):
            SolverConfig(**settings)


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


def reference_slack(b, x, t):
    """The slack t*I - F(x) as formed through np.tensordot."""
    m = b.const.copy()
    if b.var_idx.size:
        m += np.tensordot(x[b.var_idx], b.coeff, axes=1)
    return t * np.eye(b.dim) - m


def reference_derivatives(b, s, grad, hess):
    """The barrier gradient and Hessian through w[None], np.ix_ and
    fancy-indexed cross terms."""
    n = grad.size - 1
    w = np.linalg.inv(s)
    w = 0.5 * (w + w.T)
    grad[n] -= np.trace(w)
    hess[n, n] += float(np.sum(w * w))
    if b.var_idx.size:
        v = w[None, :, :] @ b.coeff
        vflat = v.reshape(v.shape[0], -1)
        vtflat = np.transpose(v, (0, 2, 1)).reshape(v.shape[0], -1)
        grad[b.var_idx] += np.einsum("pii->p", v)
        hess[np.ix_(b.var_idx, b.var_idx)] += vflat @ vtflat.T
        cross = -(vflat @ w.reshape(-1))
        hess[b.var_idx, n] += cross
        hess[n, b.var_idx] += cross


def reference_box(xv, grad, hess):
    """The box-barrier terms with the Hessian diagonal built by np.diag."""
    n = xv.size
    grad[:n] += 1.0 / (folmi.lmi.R_BOX - xv) - 1.0 / (folmi.lmi.R_BOX + xv)
    hess[:n, :n] += np.diag(
        1.0 / (folmi.lmi.R_BOX - xv) ** 2 + 1.0 / (folmi.lmi.R_BOX + xv) ** 2
    )


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


BIT_IDENTITY_BLOCKS = ("schur", "eta", "positivity_s", "positivity_c", "no_variables")


def bit_identity_blocks():
    """``{name: (problem size, constraint)}``: the example1 n_c = 1 blocks
    and a constant block with no variables."""
    sys_ = example1_system()
    problem = assemble(decompose(sys_), sys_.c, sys_.alpha, 1).problem
    empty = constraint_of(
        3, -np.eye(3) - 0.1 * np.ones((3, 3)), {}, Sense.NEGATIVE_DEFINITE)
    n = problem.num_vars
    return dict(zip(BIT_IDENTITY_BLOCKS,
                    [(n, c) for c in problem.constraints] + [(4, empty)]))


class TestBlockBitIdentity:
    """The barrier terms of a block are the same bits as the tensordot /
    np.ix_ / np.diag formulas, whichever way its variables are laid out."""

    def test_the_cases_cover_every_layout(self):
        cases = {name: c for name, (_, c) in bit_identity_blocks().items()}
        blocks = {name: _Block(c) for name, c in cases.items()}
        # 18 of the 19 variables: not contiguous, selected by index arrays
        assert blocks["schur"].var_idx.size == 18
        assert isinstance(blocks["schur"].sel, np.ndarray)
        assert isinstance(blocks["positivity_s"].sel, slice)
        assert cases["positivity_s"].sense is Sense.POSITIVE_DEFINITE
        # one variable, with a zero constant (eta > 0) or a nonzero one
        assert blocks["eta"].var_idx.size == blocks["eta"].dim == 1
        assert not np.any(blocks["eta"].const)
        assert blocks["positivity_c"].var_idx.size == 1
        assert blocks["no_variables"].var_idx.size == 0

    @pytest.mark.parametrize("name", BIT_IDENTITY_BLOCKS)
    def test_slack_and_derivatives(self, name):
        n, constraint = bit_identity_blocks()[name]
        b = _Block(constraint)
        rng = np.random.RandomState(BIT_IDENTITY_BLOCKS.index(name))
        for _ in range(5):
            x = rng.randn(n)
            f = -reference_slack(b, x, 0.0)  # F(x), oriented
            t = float(np.linalg.eigvalsh(f)[-1]) + 0.1 + rng.rand()
            s, ld = b.slack(x, t)
            s_ref = reference_slack(b, x, t)
            assert_same_bits(s, s_ref)
            assert ld == 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(s_ref)))))
            grad, hess = rng.randn(n + 1), rng.randn(n + 1, n + 1)
            grad_ref, hess_ref = grad.copy(), hess.copy()
            b.add_derivatives(s, grad, hess)
            reference_derivatives(b, s_ref, grad_ref, hess_ref)
            assert_same_bits(grad, grad_ref)
            assert_same_bits(hess, hess_ref)

    @pytest.mark.parametrize("n", [0, 1, 5, 19])
    def test_box_terms(self, n):
        # from zero, as a Newton step starts, the terms are not swamped by
        # the entries they are added to; x runs up to the box's edge
        rng = np.random.RandomState(n)
        xv = rng.uniform(-1.0, 1.0, n) * folmi.lmi.R_BOX * 10.0 ** -rng.randint(0, 9, n)
        grad, hess = np.zeros(n + 1), np.zeros((n + 1, n + 1))
        grad_ref, hess_ref = grad.copy(), hess.copy()
        folmi.lmi._add_box_derivatives(xv, grad, hess)
        reference_box(xv, grad_ref, hess_ref)
        assert_same_bits(grad, grad_ref)
        assert_same_bits(hess, hess_ref)


def term_table(expr):
    """An expression's terms as {None: constant, k: coefficient of x_k}."""
    return {None: expr.const, **dict(zip(expr.ids.tolist(), expr.coeff))}


def reference_constraint(expr, sense):
    """``add_constraint`` term by term: each matrix's symmetry check,
    symmetrization and zero test on its own."""
    for m in term_table(expr).values():
        scale = 1.0 + np.abs(m).max()
        if np.abs(m - m.T).max() > folmi.lmi._SYM_TOL * scale:
            raise IllFormedProblemError("constraint matrices must be symmetric")
    coeffs = {k: 0.5 * (v + v.T) for k, v in term_table(expr).items()
              if k is None or np.any(v)}
    const = coeffs.pop(None)
    return constraint_of(expr.rows, const, coeffs, Sense(sense))


def assert_same_constraint(c, ref):
    assert (c.dim, c.sense) == (ref.dim, ref.sense)
    assert_same_bits(c.constant, ref.constant)
    assert list(c.coeffs) == list(ref.coeffs)  # the order evaluation sums in
    for k in ref.coeffs:
        assert_same_bits(c.coeffs[k], ref.coeffs[k])


class TestBatchedConstraint:
    """``add_constraint`` checks, symmetrizes and filters the stacked term
    table in one pass, with the per-term results bit for bit."""

    @pytest.mark.parametrize("kind", ["example1", "example2"])
    def test_assembled_constraints_match_the_per_term_reference(self, monkeypatch, kind):
        add, checked = LmiProblem.add_constraint, []

        def spy(problem, expr, sense):
            c = add(problem, expr, sense)
            assert_same_constraint(c, reference_constraint(expr, sense))
            checked.append(c.dim)
            return c

        monkeypatch.setattr(LmiProblem, "add_constraint", spy)
        sys_ = {"example1": example1_system, "example2": example2_system}[kind]()
        factors = decompose(sys_)
        for n_c in range(4):
            assemble(factors, sys_.c, sys_.alpha, n_c)
        folmi.stability._analysis_lmi(factors.a0, sys_.alpha)
        assert len(checked) == 3 + 3 * 4 + 2  # n_c = 0 has no P_C block

    @pytest.mark.parametrize("position", [0, 7, 15])
    def test_one_asymmetric_term_among_many_is_rejected(self, position):
        # the tolerance scales with each term's own largest entry: an
        # asymmetry of 1e-6 passes beside entries of 1e6, not beside ones
        p = LmiProblem()
        s = p.declare_symmetric_block(4)
        big = 1e6 * s
        assert len(term_table(big)) == 11
        skewed = np.zeros((4, 4))
        skewed[0, 1] = 1e-6
        xs = [p.declare_scalar() for _ in range(16)]
        e = big + 1e-4 * np.eye(4)
        for k, x in enumerate(xs):
            e = e + x.scale(skewed if k == position else np.eye(4))
        with pytest.raises(IllFormedProblemError, match="symmetric"):
            p.add_constraint(e, Sense.NEGATIVE_DEFINITE)
        with pytest.raises(IllFormedProblemError, match="symmetric"):
            reference_constraint(e, Sense.NEGATIVE_DEFINITE)
        # the same asymmetry on a term of scale 1e6 is within tolerance
        skewed[0, 0] = 1e6
        tolerated = big
        for x in xs:
            tolerated = tolerated + x.scale(skewed)
        c = p.add_constraint(tolerated, Sense.NEGATIVE_DEFINITE)
        assert_same_constraint(c, reference_constraint(tolerated, Sense.NEGATIVE_DEFINITE))

    def test_all_zero_terms_are_dropped(self):
        p = LmiProblem()
        t = p.declare_full_block(3, 3)
        s = p.declare_symmetric_block(3)
        x = p.declare_scalar()
        zero = sym_expr(t @ np.zeros((3, 3)))  # nine all-zero terms
        e = zero + s - x.scale(np.eye(3)) + np.zeros((3, 3))
        assert len(term_table(e)) == 1 + 9 + 6 + 1
        c = p.add_constraint(e, Sense.NEGATIVE_DEFINITE)
        assert list(c.coeffs) == list(s.ids) + list(x.ids)
        assert not np.any(c.constant)  # the constant is kept, zero or not
        assert_same_constraint(c, reference_constraint(e, Sense.NEGATIVE_DEFINITE))


def table_sum(a, b):
    """Two term tables added term by term: shared terms summed, every other
    term kept as it is."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return out


def table_block(grid):
    """block_expr term by term: the constant filled from -0.0 and each
    variable's matrix from 0.0, and every nonempty block added into them."""
    heights = [row[0][None].shape[0] for row in grid]
    widths = [t[None].shape[1] for t in grid[0]]
    r0, c0 = np.cumsum([0] + heights), np.cumsum([0] + widths)
    out = {None: np.full((r0[-1], c0[-1]), -0.0)}
    for i, row in enumerate(grid):
        for j, table in enumerate(row):
            if heights[i] and widths[j]:
                for k, v in table.items():
                    if k not in out:
                        out[k] = np.zeros(out[None].shape)
                    out[k][r0[i]:r0[i + 1], c0[j]:c0[j + 1]] += v
    return out


def random_expr(rng, shape):
    """An expression over a random subset of 6 variables whose constant and
    coefficients mix values with +0.0 and -0.0 entries."""
    ids = np.flatnonzero(rng.rand(6) < 0.5)
    m = rng.randn(ids.size + 1, *shape) * (rng.rand(ids.size + 1, *shape) < 0.5)
    m[rng.rand(*m.shape) < 0.3] = -0.0
    return folmi.lmi.MatExpr(ids, m[1:], m[0])


def assert_same_table(got, want):
    assert sorted(got, key=str) == sorted(want, key=str)
    for k in want:
        assert_same_bits(got[k], want[k])


class TestStackedOperators:
    """Sums and block stacking on coefficient stacks give the bits of the
    term-by-term formulas, signed zeros included."""

    def test_sum(self):
        rng = np.random.RandomState(4)
        for _ in range(200):
            a, b = random_expr(rng, (3, 2)), random_expr(rng, (3, 2))
            assert_same_table(term_table(a + b), table_sum(term_table(a), term_table(b)))
            assert_same_table(term_table(a - b),
                              table_sum(term_table(a), term_table(-1.0 * b)))

    def test_block_stacking(self):
        rng = np.random.RandomState(5)
        for _ in range(100):
            rows, cols = rng.randint(0, 3, 2), rng.randint(0, 3, 3)
            grid = [[random_expr(rng, (h, w)) for w in cols] for h in rows]
            want = table_block([[term_table(e) for e in row] for row in grid])
            assert_same_table(term_table(block_expr(grid)), want)
