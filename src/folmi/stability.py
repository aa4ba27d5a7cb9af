"""Stability tests for fixed fractional-order system matrices.

Two equivalent routes are provided for D^alpha x = A x with 0 < alpha < 2:

* the eigenvalue sector test (stable iff every eigenvalue satisfies
  |arg(lambda)| > alpha*pi/2), and
* an LMI feasibility certificate: the synthesis inequality of
  :func:`certificate_lmi` without input or controller.  Each order regime
  (a Hermitian certificate solved over its real/imaginary parts for
  0 < alpha < 1, a 2x2-block symmetric one for 1 <= alpha < 2) is one
  private regime object, chosen from alpha in :func:`_regime` and shared
  with the synthesis assembly and controller recovery.

Keeping both routes independent lets each validate the other.  The LMI of a
diagonalizable matrix also has an audited certificate built from its
eigenbasis.  The module also assembles the output-feedback closed-loop matrix.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRangeError, ShapeMismatchError, SolverFailureError
from .linalg import eig_general, eigvals_stack, require_square
from .lmi import (
    R_BOX,
    LmiProblem,
    SdpSolution,
    SdpStatus,
    Sense,
    SolverConfig,
    block_expr,
    constraint_margin,
    solve_feasibility,
    sym_expr,
)

# Eigenvalues below this magnitude have no usable argument and are
# classified unstable (the sector boundary passes through the origin).
ZERO_EIG_TOL = 1e-12
# Eigenbases conditioned worse than this are left to the barrier solver.
EIGENBASIS_COND_CAP = 1e8
# Weights of conjugate eigenvectors tried in turn by the closed form below alpha = 1.
CONJUGATE_WEIGHTS = (0.05, 0.2, 0.01)

log = logging.getLogger("folmi.stability")


@dataclass(frozen=True)
class SectorReport:
    """Angular stability margin of a spectrum against the alpha-sector."""

    alpha: float
    eigenvalues: np.ndarray
    margin: float
    stable: bool


@dataclass(frozen=True)
class LmiCertificate:
    """Feasibility verdict plus the matrix witness when one exists."""

    feasible: bool
    x: np.ndarray | None
    solution: object


def _check_alpha(alpha):
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRangeError(f"alpha must lie in (0, 2), got {alpha}")


def _margins(eigs, alpha):
    """Row-wise min |arg| - alpha*pi/2 of an (N, d) eigenvalue array."""
    boundary = alpha * np.pi / 2.0
    if eigs.shape[1] == 0:
        return np.full(eigs.shape[0], np.pi - boundary)
    args = np.abs(np.angle(eigs))
    args[np.abs(eigs) < ZERO_EIG_TOL] = 0.0
    return args.min(axis=1) - boundary


def sector_margins(stack, alpha):
    """Minimal angular margin min_i |arg(lambda_i)| - alpha*pi/2 of every
    matrix of an (N, d, d) stack, as an (N,) array.

    All eigenvalues come from one batched call; :func:`sector_margin` is
    the single-matrix case of the same computation.
    """
    _check_alpha(alpha)
    return _margins(eigvals_stack(stack), alpha)


def sector_margin(a, alpha):
    """Minimal angular margin min_i |arg(lambda_i)| - alpha*pi/2.

    Positive margin means asymptotically stable.  A (near-)zero eigenvalue
    is treated as having argument 0, hence unstable.
    """
    _check_alpha(alpha)
    eigs = eig_general(a)
    margin = float(_margins(eigs[None], alpha)[0])
    return SectorReport(alpha, eigs, margin, margin > 0.0)


class _HermitianRegime:
    """0 < alpha < 1: Hermitian certificate P = X + iY > 0, searched through
    its symmetric part X and skew part Y, with theta = (1-alpha)*pi/2.

    Q = r P + conj(r P) = 2 cos(theta) X - 2 sin(theta) Y (r = exp(i theta))
    is real, and positivity of P is that of its real embedding
    [[X, -Y], [Y, X]].
    """

    copies = 1

    def __init__(self, alpha):
        self.theta = (1.0 - alpha) * np.pi / 2.0
        self._cs, self._sn = 2.0 * np.cos(self.theta), 2.0 * np.sin(self.theta)

    def declare(self, p, dim, name):
        return (p.declare_symmetric_block(dim, f"X_{name}"),
                p.declare_skew_block(dim, f"Y_{name}"))

    def q_expr(self, cert):
        x, y = cert
        return self._cs * x.expr() - self._sn * y.expr()

    def positivity(self, cert):
        x, y = cert
        emb = block_expr([[x.expr(), -1.0 * y.expr()], [y.expr(), x.expr()]])
        return emb - np.eye(2 * x.rows)

    def value(self, cert, values):
        x, y = cert
        return x.value(values) + 1j * y.value(values)

    def sigma(self, g):
        """Sym(G) for the closed-loop expression G = A_cl Q."""
        return sym_expr(g)

    def analysis_operand(self, a):
        return a

    def eigen_certificates(self, vals, vecs):
        """P = V D V^H, D = 1 on Im(lambda) >= 0 and a conjugate weight w on the
        rest: Sigma = V diag(2 Re(lambda_k (r d_k + conj(r) d_conj(k)))) V^H."""
        for w in CONJUGATE_WEIGHTS:
            yield (vecs * np.where(vals.imag >= 0.0, 1.0, w)) @ vecs.conj().T


class _SymmetricRegime:
    """1 <= alpha < 2: symmetric certificate P > 0 with theta =
    pi - alpha*pi/2; Q = P, and Sigma is the rotated 2x2 block of the
    symmetric and skew parts of G = A_cl P (two lift copies)."""

    copies = 2

    def __init__(self, alpha):
        self.theta = np.pi - alpha * np.pi / 2.0

    def declare(self, p, dim, name):
        return (p.declare_symmetric_block(dim, f"P_{name}"),)

    def q_expr(self, cert):
        return cert[0].expr()

    def positivity(self, cert):
        return cert[0].expr() - np.eye(cert[0].rows)

    def value(self, cert, values):
        return cert[0].value(values)

    def sigma(self, g):
        """[[G_s sin(theta), G_k cos(theta)], [-G_k cos(theta), G_s sin(theta)]]
        with G_s = G + G^T and G_k = G - G^T."""
        diag, off = np.sin(self.theta) * sym_expr(g), np.cos(self.theta) * (g - g.T)
        return block_expr([[diag, off], [-off, diag]])

    def analysis_operand(self, a):
        """A^T: Sigma then reads [[S st, -K ct], [K ct, S st]] with
        S = A^T P + P A and K = P A - A^T P, the usual form of this test.
        A itself would decide the same question (A^T has A's spectrum) but
        takes different barrier steps."""
        return a.T

    def eigen_certificates(self, vals, vecs):
        """P = W^H W, W = V^-1, real for real A: congruence by I_2 (x) W
        splits Sigma into one 2x2 block per eigenvalue."""
        w = np.linalg.inv(vecs)
        yield w.conj().T @ w


def _regime(alpha):
    """The certificate regime of the order alpha."""
    _check_alpha(alpha)
    return _HermitianRegime(alpha) if alpha < 1.0 else _SymmetricRegime(alpha)


def certificate_lmi(regime, a0, b0, n_c, lift=None):
    """Variables and constraints of the LMI of ``regime`` for the plant
    (A0, B0) under an output-feedback controller of order n_c.

    Declares the certificates P_S (n x n) and P_C (n_c x n_c) and the
    controller lifts T1 (n_c x n_c), T2 (n_c x n), T3 (l x n_c) and
    T4 (l x n).  With Q_S the regime's Q map of P_S and the plant-side
    expression Z = [[Q_S, 0], [T4, T3]], the closed-loop expression is
    G = [[[A0 B0] Z], [[T2 T1]]], and the inequality is Sigma(G) < 0
    followed by the positivity blocks (normalized to >= I, equivalent by
    homogeneity, which pins the certificate scale).

    ``lift = (MM^T, D, extra)`` replaces Sigma < 0 by its robust form for
    the plants [A B] = [A0 B0] + M F R, |F| <= 1, with MM^T (n x n) and a
    right factor R = U D whose U has orthonormal columns, so only D (n + l
    columns) enters: with k = regime.copies and a multiplier eta, the Schur
    block [[Sigma + eta I_k (x) MM^T, (I_k (x) D Z)^T], [I_k (x) D Z,
    -eta I]] < 0, then eta I of size 1 + k * extra, where ``extra`` is the
    number of rows R has beyond D.  Returns the problem and a dict of the
    variable handles: "s", "c" (certificates), "t1".."t4", and "eta" when
    lifted.
    """
    n, l = b0.shape
    p = LmiProblem()
    blocks = {"s": regime.declare(p, n, "S"), "c": regime.declare(p, n_c, "C"),
              "t1": p.declare_full_block(n_c, n_c, "T1"),
              "t2": p.declare_full_block(n_c, n, "T2"),
              "t3": p.declare_full_block(l, n_c, "T3"),
              "t4": p.declare_full_block(l, n, "T4")}
    z = block_expr([[regime.q_expr(blocks["s"]), np.zeros((n, n_c))],
                    [blocks["t4"].expr(), blocks["t3"].expr()]])
    g = block_expr([[np.hstack([a0, b0]) @ z],
                    [block_expr([[blocks["t2"].expr(), blocks["t1"].expr()]])]])
    sigma = regime.sigma(g)
    if lift is None:
        p.add_constraint(sigma, Sense.NEGATIVE_DEFINITE)
    else:
        mmt, d, extra = lift
        k = regime.copies
        eta = blocks["eta"] = p.declare_scalar("eta")
        pad = np.zeros((n + n_c, n + n_c))
        pad[:n, :n] = mmt
        dz = d @ z
        zeros = np.zeros(dz.shape)
        r = block_expr([[dz if i == j else zeros for j in range(k)] for i in range(k)])
        p.add_constraint(block_expr([
            [sigma + eta.scale(np.kron(np.eye(k), pad)), r.T],
            [r, -1.0 * eta.scale(np.eye(r.rows))],
        ]), Sense.NEGATIVE_DEFINITE)
        p.add_constraint(eta.scale(np.eye(1 + k * extra)), Sense.POSITIVE_DEFINITE)
    p.add_constraint(regime.positivity(blocks["s"]), Sense.POSITIVE_DEFINITE)
    if n_c > 0:
        p.add_constraint(regime.positivity(blocks["c"]), Sense.POSITIVE_DEFINITE)
    return p, blocks


def analysis_feasible(a, alpha, solver_cfg=None):
    """LMI stability test of D^alpha x = A x for 0 < alpha < 2.

    The certain-plant LMI of :func:`certificate_lmi` with no input (l = 0)
    and no controller (n_c = 0): a Hermitian X > 0 with
    Sym(A (rX + conj(r) conj(X))) < 0, r = exp(i theta),
    theta = (1-alpha)*pi/2, below alpha = 1, and a symmetric X > 0 with
    [[(A^T X + X A) sin(theta), (X A - A^T X) cos(theta)],
     [(A^T X - X A) cos(theta), (A^T X + X A) sin(theta)]] < 0 up to the
    sign of the skew blocks, theta = pi - alpha*pi/2, from alpha = 1 up.
    Returns the certificate (complex Hermitian or real symmetric) when
    strictly feasible.
    """
    regime = _regime(alpha)
    m = require_square(a)
    p, blocks = certificate_lmi(regime, regime.analysis_operand(m),
                                np.zeros((m.shape[0], 0)), 0)
    sol = solve_feasibility(p, solver_cfg or SolverConfig())
    if sol.status is SdpStatus.INDETERMINATE:
        raise SolverFailureError("analysis LMI solve was indeterminate")
    if sol.status is not SdpStatus.FEASIBLE:
        return LmiCertificate(False, None, sol)
    return LmiCertificate(True, regime.value(blocks["s"], sol.values), sol)


def closed_form_certificate(a, alpha, eps_margin):
    """Audited eigenbasis certificate of the analysis LMI of ``a``, or None.

    Each candidate P of the regime (Chilali & Gahinet 1996; Sabatier, Moze &
    Farges 2010), scaled so that Sigma and P - I clear ``eps_margin``, is
    written into the :func:`analysis_feasible` problem and accepted only if
    every constraint margin is >= ``eps_margin`` and every |x| < R_BOX, so
    the barrier could not prove that problem INFEASIBLE.  None (reason
    logged at INFO) when no candidate passes or cond(V) > EIGENBASIS_COND_CAP.
    """
    regime = _regime(alpha)
    m = require_square(a)
    vals, vecs = np.linalg.eig(m)
    cond = np.linalg.cond(vecs)
    if not cond <= EIGENBASIS_COND_CAP:
        log.info("closed-form certificate: cond(V) = %.3g; using the barrier", cond)
        return None
    p, blocks = certificate_lmi(regime, regime.analysis_operand(m),
                                np.zeros((m.shape[0], 0)), 0)
    failures = []
    for candidate in regime.eigen_certificates(vals, vecs):
        x = np.zeros(p.num_vars)
        # blocks (X, Y) = (Re P, Im P) below alpha = 1; zip drops Im P above
        for block, part in zip(blocks["s"], (candidate.real, candidate.imag)):
            for k, basis in block.basis():
                x[k] = np.sum(basis * part) / np.sum(basis * basis)
        # unit-scale margins of Sigma < 0 and of P - I > 0 (lambda_min(P) - 1)
        sigma, pos = (constraint_margin(p, c, x) for c in p.constraints)
        if sigma > 0.0 and pos > -1.0:
            x *= 2.0 * max((1.0 + eps_margin) / (pos + 1.0), eps_margin / sigma)
        margins = [constraint_margin(p, c, x) for c in p.constraints]
        low, top = min(margins), np.abs(x).max()
        if low >= eps_margin and top < R_BOX:
            sol = SdpSolution(SdpStatus.FEASIBLE, x, low, 0, -low)
            return LmiCertificate(True, regime.value(blocks["s"], x), sol)
        failures.append("margins Sigma %.3g, P %.3g; max |x| %.3g" % (*margins, top))
    log.info("closed-form certificate failed its audit (%s); using the barrier",
             "; ".join(failures))
    return None


def closed_loop(a, b, c, controller):
    """Augmented closed-loop matrix for output feedback.

    Returns [[A + B Dc C, B Cc], [Bc C, Ac]], which collapses to
    A + B Dc C for a static (order zero) controller.  Given stacks A
    (N, n, n) and B (N, n, l) it returns the (N, n + n_c, n + n_c) stack
    of closed loops, one per plant.
    """
    stacked = np.ndim(a) == 3
    if stacked:
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        if a.shape[1] != a.shape[2]:
            raise ShapeMismatchError(f"A stack {a.shape} is not square")
    else:
        a = require_square(a, "a")[None]
        b = np.atleast_2d(np.asarray(b, float))[None]
    c = np.atleast_2d(np.asarray(c, float))
    count, n = a.shape[0], a.shape[1]
    if b.ndim != 3 or b.shape[:2] != (count, n) or c.shape[1] != n:
        raise ShapeMismatchError(
            f"plant shapes inconsistent: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    l = b.shape[2]
    m = c.shape[0]
    if controller.d_c.shape != (l, m):
        raise ShapeMismatchError(
            f"Dc is {controller.d_c.shape}, expected ({l},{m})"
        )
    n_c = controller.n_c
    if controller.a_c.shape != (n_c, n_c) or controller.b_c.shape != (n_c, m) \
            or controller.c_c.shape != (l, n_c):
        raise ShapeMismatchError("controller block shapes inconsistent")
    out = np.empty((count, n + n_c, n + n_c))
    out[:, :n, :n] = a + b @ controller.d_c @ c
    out[:, :n, n:] = b @ controller.c_c
    out[:, n:, :n] = controller.b_c @ c
    out[:, n:, n:] = controller.a_c
    return out if stacked else out[0]
