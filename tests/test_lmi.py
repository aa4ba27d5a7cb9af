import numpy as np
import pytest

import folmi.lmi
import folmi.stability
from folmi.errors import IllFormedProblemError, LengthMismatchError, ValidationError
from folmi.interval import decompose
from folmi.lmi import (
    AffineMatrixConstraint,
    Layout,
    LmiProblem,
    SdpStatus,
    Sense,
    SolverConfig,
    _Block,
    _tile,
    constraint_margin,
    evaluate_constraint,
    solve_feasibility,
)
from folmi.stability import analysis_feasible
from folmi.synthesis import assemble
from tests.test_interval import example1_system
from tests.test_stability import ANALYSIS_PINS
from tests.test_synthesis import add_affine, example2_system, separate_positivity

NEG, POS = Sense.NEGATIVE_DEFINITE, Sense.POSITIVE_DEFINITE


def constraint_of(dim, constant, coeffs, sense):
    """The AffineMatrixConstraint of ``constant + sum_k x_k coeffs[k]``."""
    ids = sorted(coeffs)
    stack = np.array([coeffs[k] for k in ids], float).reshape(len(ids), dim, dim)
    return AffineMatrixConstraint(dim, np.asarray(constant, float), np.array(ids, dtype=int),
                                  stack, sense)


class TestVariableBlocks:
    def test_symmetric_count_and_sharing(self):
        layout = Layout()
        s = layout.block(2, 2, 0)
        assert layout.num_vars == 3
        m = s.value(np.array([1.0, 2.0, 3.0]))
        # entry (0,1) and (1,0) come from the same variable
        assert m[0, 1] == m[1, 0] == 2.0
        np.testing.assert_array_equal(m, [[1.0, 2.0], [2.0, 3.0]])

    def test_skew_counts(self):
        layout = Layout()
        k = layout.block(2, 2, 1)
        assert layout.num_vars == 1
        np.testing.assert_array_equal(k.value(np.array([4.0])), [[0.0, 4.0], [-4.0, 0.0]])

    @pytest.mark.parametrize("dim", [0, 1])
    def test_skew_dim_at_most_one_has_no_variables(self, dim):
        layout = Layout()
        k = layout.block(dim, dim, 1)
        assert layout.num_vars == k.ids.size == 0
        np.testing.assert_array_equal(k.value(np.zeros(0)), np.zeros((dim, dim)))

    @pytest.mark.parametrize("args,order,mirror", [
        # variable k sets entry order[k] to 1 and its transpose to mirror
        ((3, 3, 0), [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)], 1.0),
        ((3, 3, 1), [(0, 1), (0, 2), (1, 2)], -1.0),
        ((2, 3), [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)], None),
    ])
    def test_variable_order(self, args, order, mirror):
        layout = Layout()
        layout.block(1, 1)
        block = layout.block(*args)
        assert layout.num_vars == 1 + len(order)
        assert block.ids.tolist() == list(range(1, 1 + len(order)))
        for k, (i, j) in enumerate(order, start=1):
            want = np.zeros(block.shape)
            if mirror is not None:
                want[j, i] = mirror
            want[i, j] = 1.0
            np.testing.assert_array_equal(block.value(np.eye(layout.num_vars)[k]), want)

    def test_full_and_scalar(self):
        layout = Layout()
        t = layout.block(2, 3)
        s = layout.block(1, 1)
        assert layout.num_vars == 7
        v = np.arange(7.0)
        np.testing.assert_array_equal(t.value(v), [[0, 1, 2], [3, 4, 5]])
        assert s.value(v)[0, 0] == 6.0

    @pytest.mark.parametrize("args", [(3, 3, 0), (3, 3, 1), (2, 3)])
    def test_a_batch_reads_each_vector(self, args):
        # leading axes of x are kept, and an entry is mirror * x + 0.0: a
        # -0.0 variable reads 0.0, as the sum of one-hot terms from 0.0 did
        layout = Layout()
        layout.block(2, 2)
        block = layout.block(*args)
        rng = np.random.RandomState(3)
        x = rng.randn(2, 5, layout.num_vars)
        x[rng.rand(*x.shape) < 0.3] = -0.0
        got = block.value(x)
        assert got.shape == (2, 5) + block.shape
        for b in np.ndindex(2, 5):
            assert got[b].tobytes() == block.value(x[b]).tobytes()
        assert not np.signbit(got[got == 0.0]).any()


class TestConstraints:
    def test_rejects_asymmetric(self):
        full = Layout().block(2, 2)
        with pytest.raises(IllFormedProblemError, match="symmetric"):
            LmiProblem(4).add_constraint(np.zeros((2, 2)), full.value(np.eye(4)), NEG)

    @pytest.mark.parametrize("constant,stack", [
        (np.zeros((2, 3)), np.zeros((1, 2, 3))),   # rectangular
        (np.zeros((0, 0)), np.zeros((1, 0, 0))),   # empty
        (np.zeros(2), np.zeros((1, 2))),           # not a matrix
        (np.eye(2), np.zeros((2, 2, 2))),          # a term per variable of 2
        (np.eye(2), np.zeros((1, 3, 3))),          # terms of another size
    ])
    def test_rejects_ill_shaped(self, constant, stack):
        p = LmiProblem(1)
        with pytest.raises(IllFormedProblemError, match="square and nonempty with 1 terms"):
            p.add_constraint(constant, stack, NEG)
        assert p.constraints == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["constant", "coefficient"])
    def test_rejects_non_finite_entries(self, where, bad):
        # a NaN fails no symmetry comparison, so finiteness is checked alone
        p = LmiProblem(1)
        m = np.eye(2)
        m[0, 0] = bad
        constant, stack = -np.eye(2), np.eye(2)[None]
        if where == "constant":
            constant = -m
        else:
            stack = m[None]
        with pytest.raises(IllFormedProblemError, match="finite"):
            p.add_constraint(constant, stack, NEG)
        assert p.constraints == []

    def test_evaluate_constant_at_zero(self):
        p = LmiProblem(1)
        c = p.add_constraint([[-2.0]], [[[1.0]]], NEG)
        m, extreme = evaluate_constraint(p, c, np.zeros(1))
        np.testing.assert_array_equal(m, [[-2.0]])
        assert extreme == -2.0

    def test_evaluate_length_mismatch(self):
        p = LmiProblem(1)
        c = p.add_constraint([[0.0]], [[[1.0]]], POS)
        with pytest.raises(LengthMismatchError):
            evaluate_constraint(p, c, np.zeros(3))

    def test_evaluate_exact_arithmetic(self):
        p = LmiProblem(1)
        c = p.add_constraint(-np.diag([5.0, 5.0]), np.diag([1.0, 2.0])[None], NEG)
        m, extreme = evaluate_constraint(p, c, np.array([1.0]))
        np.testing.assert_array_equal(m, np.diag([-4.0, -3.0]))
        assert extreme == -3.0


def scalar_problem(*constraints):
    """A one-variable problem of ``x * coefficient + constant (NEG) 0`` per
    (coefficient, constant) pair."""
    return LmiProblem(1, [constraint_of(1, [[const]], {0: [[coeff]]}, NEG)
                          for coeff, const in constraints])


def lyapunov_problem(a):
    """A S + S A^T < 0 and S - I > 0 over a symmetric S."""
    layout = Layout()
    s = layout.block(len(a), len(a), 0)
    p = LmiProblem(layout.num_vars)
    add_affine(p, lambda x: a @ s.value(x) + (a @ s.value(x)).T, NEG)
    add_affine(p, lambda x: s.value(x) - np.eye(len(a)), POS)
    return p


class TestSolver:
    def test_scalar_feasible(self):
        sol = solve_feasibility(scalar_problem((1.0, -1.0)))  # x - 1 < 0
        assert sol.status is SdpStatus.FEASIBLE
        assert sol.achieved_margin >= 1e-6

    def test_contradictory_scalar_infeasible(self):
        sol = solve_feasibility(scalar_problem((-1.0, 0.0), (1.0, 0.0)))  # x > 0, x < 0
        assert sol.status is SdpStatus.INFEASIBLE

    def test_gap_exit_without_a_proof_is_indeterminate(self):
        # the one point has margin exactly eps_margin, which t approaches
        # but never reaches; when the duality gap closed after 13 steps this
        # used to read INFEASIBLE, which only the duality bound may prove
        p = LmiProblem()
        p.add_constraint([[-1e-6]], np.zeros((0, 1, 1)), NEG)
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
        p = scalar_problem((1.0, -1.0))
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
        layout = Layout()
        xs = layout.block(1, 1, 0)
        a = np.array([[-1.0]])

        def sigma(x):
            aq = a @ (2.0 * np.cos(theta) * xs.value(x))
            return aq + aq.T

        p = LmiProblem(layout.num_vars)
        add_affine(p, sigma, NEG)
        add_affine(p, xs.value, POS)
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
        g = rng.randn(3, 3) - 3 * np.eye(3)
        p = lyapunov_problem(g)
        cfg = SolverConfig()
        sol = solve_feasibility(p, cfg)
        assert sol.status is SdpStatus.FEASIBLE
        for c in p.constraints:
            assert constraint_margin(p, c, sol.values) >= cfg.eps_margin

    def test_determinism(self):
        def run():
            p = lyapunov_problem(np.array([[-1.0, 2.0], [0.0, -3.0]]))
            return solve_feasibility(p, SolverConfig())

        s1, s2 = run(), run()
        assert s1.status == s2.status
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_eps_monotonicity(self):
        # growing eps_margin can only lose feasibility, never gain it;
        # the window -1e-3 < x < 1e-4 admits margins up to ~5.5e-4
        def status_at(eps):
            p = scalar_problem((1.0, -1e-4), (-1.0, -1e-3))
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


BIT_IDENTITY_BLOCKS = ("schur", "eta", "positivity_s", "positivity_c", "no_variables",
                       "positivity", "scattered")


def bit_identity_blocks():
    """``{name: (problem size, constraint)}``: the two blocks of the example1
    n_c = 1 problem (the Schur block and "positivity"), its eta > 0, P_S - I
    and P_C - I built as separate constraints from the same variables, a
    constant block with no variables, and blockdiag(P_C - I, eta) > 0,
    whose two variables are not adjacent."""
    sys_ = example1_system()
    asm = assemble(decompose(sys_), sys_.c, sys_.alpha, 1)
    schur, positivity = asm.problem.constraints
    empty = constraint_of(
        3, -np.eye(3) - 0.1 * np.ones((3, 3)), {}, Sense.NEGATIVE_DEFINITE)
    n = asm.problem.num_vars
    eta, pos_s, pos_c = separate_positivity(asm).constraints[1:4]

    def pos_c_eta(x):
        pos_c = asm.regime.positivity([b.value(x) for b in asm.blocks["c"]])  # 2 x 2
        return np.block([[pos_c, np.zeros((2, 1))],
                         [np.zeros((1, 2)), asm.blocks["eta"].value(x)]])

    scattered = add_affine(LmiProblem(n), pos_c_eta, POS)
    blocks = [schur, eta, pos_s, pos_c, empty, positivity, scattered]
    return {name: (4 if c is empty else n, c) for name, c in zip(BIT_IDENTITY_BLOCKS, blocks)}


class TestBlockBitIdentity:
    """The barrier terms of a block are the same bits as the tensordot /
    np.ix_ / np.diag formulas, whichever way its variables are laid out."""

    def test_the_cases_cover_every_layout(self):
        cases = {name: c for name, (_, c) in bit_identity_blocks().items()}
        blocks = {name: _Block(c) for name, c in cases.items()}
        # of the 15 variables P_C, T1, P_S, eta, T4: P_S, eta and T4 (13)
        # in the Schur block and P_C, T1, P_S and eta (12) in "positivity",
        # each selected by a slice
        assert blocks["schur"].var_idx.tolist() == list(range(2, 15))
        assert isinstance(blocks["schur"].sel, slice)
        assert blocks["positivity"].var_idx.tolist() == list(range(12))
        assert isinstance(blocks["positivity"].sel, slice)
        assert isinstance(blocks["positivity_s"].sel, slice)
        # P_C and eta alone: not contiguous, selected by index arrays
        assert blocks["scattered"].var_idx.tolist() == [0, 11]
        assert isinstance(blocks["scattered"].sel, np.ndarray)
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


def reference_evaluate(constraint, values):
    """``(matrix, extreme eigenvalue)`` of a constraint at ``values``, its
    terms added one at a time: m = constant; m += v_k A_k."""
    m = constraint.constant.copy()
    for v, coeff in zip(values[constraint.ids], constraint.stack):
        m += v * coeff
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return m, float(eigs[-1] if constraint.sense is NEG else eigs[0])


def reference_solve(problem, cfg=None):
    """``solve_feasibility`` written term by term: the slacks, derivatives
    and box terms of the references above, each box quantity formed where
    it is used, np.* calls throughout and the audit of reference_evaluate."""
    cfg = cfg or SolverConfig()
    r_box = folmi.lmi.R_BOX
    blocks = [_Block(c) for c in problem.constraints]
    n = problem.num_vars
    nu = sum(b.dim for b in blocks) + 2 * n
    depth = max(cfg.eps_margin, folmi.lmi.FEASIBILITY_DEPTH)

    def point(xv, tv):
        if np.any(np.abs(xv) >= r_box):
            return None
        slacks, phi = [], 0.0
        for b in blocks:
            s = reference_slack(b, xv, tv)
            try:
                l = np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                return None
            slacks.append(s)
            phi -= 2.0 * float(np.sum(np.log(np.diag(l))))
        phi -= float(np.sum(np.log(r_box - xv) + np.log(r_box + xv)))
        return xv, tv, phi, slacks

    def newton_step(pt, mu):
        xv, tv, phi, slacks = pt
        grad, hess = np.zeros(n + 1), np.zeros((n + 1, n + 1))
        for b, s in zip(blocks, slacks):
            reference_derivatives(b, s, grad, hess)
        reference_box(xv, grad, hess)
        grad[n] += mu
        jitter = 0.0
        for _ in range(4):
            try:
                l = np.linalg.cholesky(hess + jitter * np.eye(n + 1) if jitter else hess)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 100.0, 1e-12 * (1 + np.abs(hess).max()))
        else:
            return None
        step = -np.linalg.solve(l.T, np.linalg.solve(l, grad))
        lam2 = float(-grad @ step)
        if not np.isfinite(lam2) or lam2 < 0:
            return None
        f0 = mu * tv + phi
        alpha = 1.0 if lam2 <= 0.9 else 1.0 / (1.0 + np.sqrt(lam2))
        for _ in range(60):
            trial = point(xv + alpha * step[:n], tv + alpha * step[n])
            if trial is not None and mu * trial[1] + trial[2] <= f0 - 0.25 * alpha * lam2:
                return trial, lam2
            alpha *= 0.5
        return None

    t = max(float(np.linalg.eigvalsh(b.const)[-1]) for b in blocks)
    pt = point(np.zeros(n), t + 1.0 + 0.1 * abs(t))
    x, t = pt[:2]
    mu = 1.0 / (1.0 + abs(t))
    iters = steps = 0
    status = SdpStatus.INDETERMINATE
    while t > -depth and iters < cfg.max_iter:
        iters += 1
        steps += 1
        step = newton_step(pt, mu)
        if step is None:
            break
        pt, lam2 = step
        x, t = pt[:2]
        centred = lam2 <= 1e-2
        if t <= -depth or (not centred and steps < 50):
            continue
        gap = (nu + np.sqrt(nu)) / mu
        if centred and t - gap > -cfg.eps_margin:
            status = SdpStatus.INFEASIBLE
            break
        if gap <= 0.5 * cfg.eps_margin:
            break
        mu *= folmi.lmi.MU_FACTOR
        steps = 0
    margins = []
    for c in problem.constraints:
        extreme = reference_evaluate(c, x)[1]
        margins.append(-extreme if c.sense is NEG else extreme)
    achieved = min(margins)
    if t <= -cfg.eps_margin and achieved >= cfg.eps_margin:
        status = SdpStatus.FEASIBLE
    return folmi.lmi.SdpSolution(status, x, achieved, iters, float(t))


WHOLE_SOLVE_GROUPS = ("example1", "example2", "analysis-0.3", "analysis-0.75",
                      "analysis-1.2", "analysis-1.8", "scattered", "backtracking")
# (seed, scale exponent, alpha) of analysis problems whose line search
# halves the step once; the problems above all take their first trial
BACKTRACKING = ((3, 1, 0.3), (7, 0, 0.75), (13, 0, 1.8))


def whole_solve_cases(group):
    """``[(problem, cfg)]`` of a group: a fixture's synthesis LMIs at n_c =
    0-3 (example1's n_c = 1 once more under a budget cut to 5 steps), the
    analysis problems of ANALYSIS_PINS at one alpha or of BACKTRACKING, or
    example1's n_c = 1 Schur block beside eta > 0, P_S - I > 0 and
    blockdiag(P_C - I, eta) > 0, the last on the variables 0 and 11 only."""
    if group in ("example1", "example2"):
        sys_ = {"example1": example1_system, "example2": example2_system}[group]()
        factors = decompose(sys_)
        cases = [(assemble(factors, sys_.c, sys_.alpha, n_c).problem, None)
                 for n_c in range(4)]
        if group == "example1":
            cases.append((cases[1][0], SolverConfig(max_iter=5)))
        return cases
    if group == "scattered":
        blocks = bit_identity_blocks()
        n = blocks["schur"][0]
        names = ("schur", "eta", "positivity_s", "scattered")
        return [(LmiProblem(n, [blocks[name][1] for name in names]), None)]
    if group == "backtracking":
        return [(folmi.stability._analysis_lmi(
            np.random.RandomState(seed).randn(3, 3) * 10.0 ** e, alpha)[1], None)
            for seed, e, alpha in BACKTRACKING]
    alpha = float(group.split("-")[1])
    rng = np.random.RandomState(5)  # the matrices test_analysis_solves_are_pinned draws
    return [(folmi.stability._analysis_lmi(rng.randn(3, 3) - 1.5 * np.eye(3), alpha)[1], None)
            for _ in ANALYSIS_PINS[alpha]]


def assert_same_solution(sol, ref):
    assert sol.values.tobytes() == ref.values.tobytes()
    assert (sol.iterations, sol.status) == (ref.iterations, ref.status)
    assert sol.achieved_margin.hex() == ref.achieved_margin.hex()
    assert sol.objective.hex() == ref.objective.hex()


class TestWholeSolveBitIdentity:
    """A whole solve, from the first point to the audit, is the term-by-term
    reference loop bit for bit: the same points, iteration counts, statuses,
    margins and objectives."""

    @pytest.mark.parametrize("group", WHOLE_SOLVE_GROUPS)
    def test_solution_matches_the_reference_loop(self, group):
        statuses = set()
        for problem, cfg in whole_solve_cases(group):
            sol = solve_feasibility(problem, cfg)
            assert_same_solution(sol, reference_solve(problem, cfg))
            statuses.add(sol.status)
        if group.startswith("analysis"):
            # a centred INFEASIBLE exit, after the barrier weight has grown
            assert SdpStatus.INFEASIBLE in statuses
        if group == "example1":
            assert SdpStatus.INDETERMINATE in statuses  # the cut budget

    def test_the_cases_cover_both_selections_and_a_halved_step(self, monkeypatch):
        (problem, _), = whole_solve_cases("scattered")
        sels = [_Block(c).sel for c in problem.constraints]
        assert isinstance(sels[0], slice) and isinstance(sels[-1], np.ndarray)
        # each point forms its box gaps once: the start, then one per trial
        points = []
        gaps = folmi.lmi._box_gaps
        monkeypatch.setattr(folmi.lmi, "_box_gaps", lambda xv: points.append(1) or gaps(xv))
        for problem, cfg in whole_solve_cases("backtracking"):
            points.clear()
            iterations = solve_feasibility(problem, cfg).iterations
            assert len(points) > iterations + 1


class TestEvaluateConstraint:
    """``evaluate_constraint`` adds a constraint's terms in the order of
    m = constant; m += v_k A_k, whatever the size, layout or sense."""

    @pytest.mark.parametrize("sense", [NEG, POS])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_matches_the_term_by_term_sum(self, dim, sense):
        rng = np.random.RandomState(dim)
        for p in (0, 1, 2, 3, 9, 20) * 10:
            n = 2 * p + 3
            ids = np.sort(rng.choice(n, p, replace=False))
            scales = 10.0 ** rng.randint(-8, 9, (p + 1, 1, 1))
            terms = rng.randn(p + 1, dim, dim) * scales
            terms = terms + terms.transpose(0, 2, 1)
            zeros = rng.rand(p + 1, dim, dim) < 0.3
            terms[zeros | zeros.transpose(0, 2, 1)] = -0.0
            values = rng.randn(n) * 10.0 ** rng.randint(-8, 9, n)
            values[rng.rand(n) < 0.2] = -0.0
            c = AffineMatrixConstraint(dim, terms[0], ids, terms[1:], sense)
            m, extreme = evaluate_constraint(LmiProblem(n), c, values)
            m_ref, extreme_ref = reference_evaluate(c, values)
            assert_same_bits(m, m_ref)
            assert extreme.hex() == extreme_ref.hex()
            assert not np.shares_memory(m, c.constant)


def reference_constraint(constant, stack, sense):
    """``add_constraint`` term by term: each matrix's symmetry check,
    symmetrization and zero test on its own."""
    terms = {None: np.asarray(constant, float), **dict(enumerate(np.asarray(stack, float)))}
    for m in terms.values():
        scale = 1.0 + np.abs(m).max()
        if np.abs(m - m.T).max() > folmi.lmi._SYM_TOL * scale:
            raise IllFormedProblemError("constraint matrices must be symmetric")
    coeffs = {k: 0.5 * (v + v.T) for k, v in terms.items() if k is None or np.any(v)}
    const = coeffs.pop(None)
    return constraint_of(len(const), const, coeffs, Sense(sense))


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

        def spy(problem, constant, stack, sense):
            c = add(problem, constant, stack, sense)
            assert_same_constraint(c, reference_constraint(constant, stack, sense))
            checked.append(c.dim)
            return c

        monkeypatch.setattr(LmiProblem, "add_constraint", spy)
        sys_ = {"example1": example1_system, "example2": example2_system}[kind]()
        factors = decompose(sys_)
        for n_c in range(4):
            assemble(factors, sys_.c, sys_.alpha, n_c)
        folmi.stability._analysis_lmi(factors.a0, sys_.alpha)
        assert len(checked) == 2 * 4 + 2  # a Schur and a positivity block each

    @pytest.mark.parametrize("position", [0, 7, 15])
    def test_one_asymmetric_term_among_many_is_rejected(self, position):
        # the tolerance scales with each term's own largest entry: an
        # asymmetry of 1e-6 passes beside entries of 1e6, not beside ones;
        # a symmetric 4 x 4 block of 10 variables, then 16 scalars
        p = LmiProblem(26)
        big = 1e6 * Layout().block(4, 4, 0).value(np.eye(26))
        skewed = np.zeros((4, 4))
        skewed[0, 1] = 1e-6
        stack = big.copy()
        stack[10:] = np.eye(4)
        stack[10 + position] = skewed
        with pytest.raises(IllFormedProblemError, match="symmetric"):
            p.add_constraint(1e-4 * np.eye(4), stack, NEG)
        with pytest.raises(IllFormedProblemError, match="symmetric"):
            reference_constraint(1e-4 * np.eye(4), stack, NEG)
        # the same asymmetry on a term of scale 1e6 is within tolerance
        skewed[0, 0] = 1e6
        stack[10:] = skewed
        c = p.add_constraint(np.zeros((4, 4)), stack, NEG)
        assert_same_constraint(c, reference_constraint(np.zeros((4, 4)), stack, NEG))

    def test_all_zero_terms_are_dropped(self):
        # a full 3 x 3 block times zero (nine all-zero terms), a symmetric
        # block and a scalar times -I
        layout = Layout()
        t, s, x = layout.block(3, 3), layout.block(3, 3, 0), layout.block(1, 1)
        eye = np.eye(layout.num_vars)
        stack = -0.0 * t.value(eye) + s.value(eye) - x.value(eye) * np.eye(3)
        assert stack.shape == (16, 3, 3) and not stack[:9].any()
        p = LmiProblem(layout.num_vars)
        c = p.add_constraint(np.zeros((3, 3)), stack, NEG)
        assert list(c.coeffs) == list(s.ids) + list(x.ids)
        assert not np.any(c.constant)  # the constant is kept, zero or not
        assert_same_constraint(c, reference_constraint(np.zeros((3, 3)), stack, NEG))


class TestConcatenatedTiling:
    """Grids are tiled by concatenation with np.block's bits and its one
    shape rule, on matrices and on batches of them; the upper-triangle index
    pairs are made once."""

    def test_grids_match_np_block(self):
        rng = np.random.RandomState(35)
        for _ in range(400):
            batch = ((), (3,))[rng.randint(2)]
            heights = rng.randint(0, 3, rng.randint(1, 4))
            width = rng.randint(0, 5)
            grid = []
            for h in heights:
                # each row splits the width its own way, empty parts included
                cuts = np.sort(rng.randint(0, width + 1, rng.randint(0, 3)))
                widths = np.diff(np.concatenate([[0], cuts, [width]]))
                row = [rng.randn(*batch, h, w) for w in widths]
                for m in row:
                    m[rng.rand(*m.shape) < 0.3] = -0.0
                grid.append(row)
            got, want = _tile(grid), np.block(grid)
            assert got.flags.c_contiguous
            assert_same_bits(got, want)

    @pytest.mark.parametrize("grid", [
        [[np.ones((2, 2)), np.ones((1, 2))]],              # heights differ in a row
        [[np.ones((2, 2))], [np.ones((1, 3))]],            # rows' widths differ
        [[np.ones((1, 2)), np.ones((1, 1))], [np.ones((1, 2))]],  # one row widened
        [[np.zeros((0, 2)), np.zeros((1, 0))]],            # empty heights differ
        [[np.ones((2, 2, 2))], [np.ones((3, 2, 2))]],      # batches differ
        [[]],                                              # an empty row
        [],                                                # no rows
    ], ids=["heights", "widths", "widened", "empty-heights", "batches",
            "empty-row", "no-rows"])
    def test_grids_that_do_not_tile_raise_value_error(self, grid):
        with pytest.raises(ValueError):
            np.block(grid)
        with pytest.raises(ValueError):
            _tile(grid)

    @pytest.mark.parametrize("dim", [0, 1, 2, 5])
    def test_index_pairs_are_cached_read_only(self, dim):
        for k in (0, 1):
            pairs = folmi.lmi.triu_pairs(dim, k)
            assert pairs is folmi.lmi.triu_pairs(dim, k)
            for got, want in zip(pairs, np.triu_indices(dim, k)):
                assert_same_bits(got, want)
                assert not got.flags.writeable
            # the laid-out variables follow the cached pairs, row by row
            block = Layout().block(dim, dim, k)
            assert block.entries is pairs
            rows, cols = pairs
            assert block.ids.tolist() == list(range(rows.size))
            for v, (i, j) in enumerate(zip(rows, cols)):
                assert block.value(np.eye(rows.size)[v])[i, j] == 1.0
