"""Stability tests for fixed fractional-order system matrices.

Two equivalent routes are provided for D^alpha x = A x with 0 < alpha < 2:

* the eigenvalue sector test (stable iff every eigenvalue satisfies
  |arg(lambda)| > alpha*pi/2), run on a whole (N, d, d) stack of matrices
  by :func:`sector_margins`, and
* an LMI feasibility certificate: the synthesis inequality of
  :func:`certificate_lmi` without input or controller.  Each order regime
  (a Hermitian certificate solved over its real/imaginary parts for
  0 < alpha < 1, a 2x2-block symmetric one for 1 <= alpha < 2) is one
  private regime object, chosen from alpha in :func:`_regime` and shared
  with the synthesis assembly and controller recovery.

Keeping both routes independent lets each validate the other.  The LMI of a
diagonalizable matrix also has a certificate built from its eigenbasis and
audited on numbers by the same regime code.  Both LMI routes return their
verdict as a status.  The module also assembles the output-feedback closed
loop of a plant or a plant stack.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .linalg import check_alpha, eigvals_stack, require_square
from .lmi import (
    R_BOX,
    LmiProblem,
    SdpSolution,
    SdpStatus,
    Sense,
    block_expr,
    solve_feasibility,
    triu_pairs,
)

# Eigenvalues below this magnitude have no usable argument and are
# classified unstable (the sector boundary passes through the origin).
ZERO_EIG_TOL = 1e-12
# Eigenbases conditioned worse than this are left to the barrier solver.
EIGENBASIS_COND_CAP = 1e8

log = logging.getLogger("folmi.stability")


@dataclass(frozen=True)
class LmiCertificate:
    """The solver's :class:`folmi.lmi.SdpSolution`, whose status is the
    verdict, plus the certificate ``x``, None unless that status is FEASIBLE."""

    x: np.ndarray | None
    solution: SdpSolution


def sector_margins(stack, alpha):
    """Minimal angular margin min_i |arg(lambda_i)| - alpha*pi/2 of every
    matrix of an (N, d, d) stack, as an (N,) array.

    All eigenvalues come from one batched call.  Positive margin means
    asymptotically stable; a (near-)zero eigenvalue is treated as having
    argument 0, hence unstable.  One matrix ``a`` is the stack
    ``np.asarray(a)[None]``.
    """
    floor = margin_floor(alpha)
    eigs = eigvals_stack(stack)
    args = np.abs(np.angle(eigs))
    args[np.abs(eigs) < ZERO_EIG_TOL] = 0.0
    return args.min(axis=1, initial=np.pi) + floor  # pi for a 0x0 matrix


def margin_floor(alpha):
    """-alpha*pi/2, the margin of an eigenvalue of argument 0 and the lowest
    that :func:`sector_margins` returns, which adds it to every |arg|."""
    check_alpha(alpha)
    return -(alpha * np.pi / 2.0)


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

    def declare(self, p, dim):
        return p.declare_symmetric_block(dim), p.declare_skew_block(dim)

    def q_expr(self, cert):
        x, y = cert
        return self._cs * x - self._sn * y

    def positivity(self, cert):
        x, y = cert
        return block_expr([[x, -1.0 * y], [y, x]]) - np.eye(2 * x.shape[0])

    def value(self, parts):
        x, y = parts
        return x + 1j * y

    def sigma(self, g):
        """Sym(G) for the closed-loop expression G = A_cl Q."""
        return g + g.T

    def eigen_certificate(self, vals, vecs):
        """(X, Y), exactly symmetric and skew, of P = V D V^H, D = 1 on
        Im(lambda) >= 0 and w on the conjugates: Sigma = V diag(2 Re(lambda_k
        (r d_k + conj(r) d_conj(k)))) V^H, whose entry is negative iff
        w cos(phi - theta) < -cos(phi + theta), phi = |arg(lambda)|; w is
        0.05, or half the bound on w where it is positive and below 0.1."""
        phi = np.abs(np.angle(vals))
        lo, hi = -np.cos(phi + self.theta), np.cos(phi - self.theta)
        w = np.full(len(vals), 0.05)
        near = (lo > 0.0) & (lo < 0.1 * hi)
        w[near] = 0.5 * lo[near] / hi[near]
        p = (vecs * np.where(vals.imag >= 0.0, 1.0, w)) @ vecs.conj().T
        return 0.5 * (p.real + p.real.T), 0.5 * (p.imag - p.imag.T)


class _SymmetricRegime:
    """1 <= alpha < 2: symmetric certificate P > 0 with theta =
    pi - alpha*pi/2; Q = P, and Sigma is the rotated 2x2 block of the
    symmetric and skew parts of G = A_cl P (two lift copies), which for
    the analysis LMI of A are A P + P A^T and A P - P A^T."""

    copies = 2

    def __init__(self, alpha):
        self.theta = np.pi - alpha * np.pi / 2.0

    def declare(self, p, dim):
        return (p.declare_symmetric_block(dim),)

    def q_expr(self, cert):
        return cert[0]

    def positivity(self, cert):
        return cert[0] - np.eye(cert[0].shape[0])

    def value(self, parts):
        return parts[0]

    def sigma(self, g):
        """[[G_s sin(theta), G_k cos(theta)], [-G_k cos(theta), G_s sin(theta)]]
        with G_s = G + G^T and G_k = G - G^T."""
        diag, off = np.sin(self.theta) * (g + g.T), np.cos(self.theta) * (g - g.T)
        return block_expr([[diag, off], [-off, diag]])

    def eigen_certificate(self, vals, vecs):
        """(P,), exactly symmetric, for P = Re(V V^H), which is V V^H for
        real A: congruence by I_2 (x) V splits Sigma into one 2x2 block per
        eigenvalue, negative iff Re(lambda) sin(theta) + |Im(lambda)|
        cos(theta) < 0."""
        p = (vecs @ vecs.conj().T).real
        return (0.5 * (p + p.T),)


def _regime(alpha):
    """The certificate regime of the order alpha.  Its methods take the
    certificate's parts, (X, Y) or (P,): expressions or arrays, arrays in value()."""
    check_alpha(alpha)
    return _HermitianRegime(alpha) if alpha < 1.0 else _SymmetricRegime(alpha)


# a product that overflows leaves an inf or NaN entry, which add_constraint
# reports as the one error, without numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def certificate_lmi(regime, a0, b0, n_c, lift=None):
    """Variables and constraints of the LMI of ``regime`` for the plant
    (A0, B0) under an output-feedback controller of order n_c.

    Declares the certificate P_C (n_c x n_c), the controller lift T1
    (n_c x n_c), the certificate P_S (n x n), eta when lifted, and the lift
    T4 (l x n), in that order, so that each barrier block's variables are
    one contiguous run.  T2 (n_c x n) and T3 (l x n_c) are not declared:
    the reflection x_c -> -x_c maps (T2, T3) to -(T2, T3) and keeps every
    constraint's spectrum, so the barrier never leaves T2 = T3 = 0.  There,
    with Q_S the regime's Q map of P_S and Z = [[Q_S], [T4]], Sigma of the
    closed loop is blockdiag(Sigma(G), Sigma(T1)), G = [A0 B0] Z, up to a
    permutation: the LMI is Sigma(G) < 0 and one positivity block
    blockdiag(P_S - I, P_C - I, -Sigma(T1)) > 0, without its empty parts at
    n_c = 0 (certificates normalized to >= I, equivalent by homogeneity,
    which pins the certificate scale).

    ``lift = (MM^T, D)`` replaces Sigma < 0 by its robust form for the
    plants [A B] = [A0 B0] + M F R, |F| <= 1, with MM^T (n x n) and a right
    factor R = U D whose U has orthonormal columns, so only D (n + l
    columns) enters: with k = regime.copies and a multiplier eta, the Schur
    block [[Sigma + eta I_k (x) MM^T, (I_k (x) D Z)^T], [I_k (x) D Z,
    -eta I]] < 0, and eta > 0 is the positivity block's last diagonal
    entry.  Returns the problem and a dict of the variable handles: "s",
    "c" (certificates), "t1", "t4", and "eta" when lifted.
    """
    n, l = b0.shape
    p = LmiProblem()
    blocks = {"c": regime.declare(p, n_c), "t1": p.declare_full_block(n_c, n_c),
              "s": regime.declare(p, n)}
    if lift is not None:
        eta = blocks["eta"] = p.declare_scalar()
    blocks["t4"] = p.declare_full_block(l, n)
    z = block_expr([[regime.q_expr(blocks["s"])], [blocks["t4"]]])
    sigma = regime.sigma(np.hstack([a0, b0]) @ z)
    pos = [regime.positivity(blocks["s"]), regime.positivity(blocks["c"]),
           -1.0 * regime.sigma(blocks["t1"])]
    if lift is None:
        p.add_constraint(sigma, Sense.NEGATIVE_DEFINITE)
    else:
        mmt, d = lift
        k = regime.copies
        dz = d @ z
        zeros = np.zeros(dz.shape)
        r = block_expr([[dz if i == j else zeros for j in range(k)] for i in range(k)])
        p.add_constraint(block_expr([
            [sigma + eta.scale(np.kron(np.eye(k), mmt)), r.T],
            [r, -1.0 * eta.scale(np.eye(r.rows))],
        ]), Sense.NEGATIVE_DEFINITE)
        pos.append(eta)
    # one barrier block: a block-diagonal slack's log det is its blocks' sum
    pos = [a for a in pos if a.rows]
    p.add_constraint(pos[0] if len(pos) == 1 else block_expr(
        [[a if a is b else np.zeros((a.rows, b.cols)) for b in pos] for a in pos]),
        Sense.POSITIVE_DEFINITE)
    return p, blocks


def _analysis_lmi(a, alpha):
    """``(regime, problem, blocks)`` of the analysis LMI of ``a``."""
    regime, m = _regime(alpha), require_square(a)
    p, blocks = certificate_lmi(regime, m, np.zeros((m.shape[0], 0)), 0)
    return regime, p, blocks


def analysis_feasible(a, alpha, solver_cfg=None):
    """LMI stability test of D^alpha x = A x for 0 < alpha < 2.

    The certain-plant LMI of :func:`certificate_lmi` with no input (l = 0)
    and no controller (n_c = 0), on the operand A itself: a Hermitian X > 0
    with Sym(A (rX + conj(r) conj(X))) < 0, r = exp(i theta),
    theta = (1-alpha)*pi/2, below alpha = 1, and a symmetric X > 0 with
    [[(A X + X A^T) sin(theta), (A X - X A^T) cos(theta)],
     [(X A^T - A X) cos(theta), (A X + X A^T) sin(theta)]] < 0,
    theta = pi - alpha*pi/2, from alpha = 1 up.
    Returns the certificate (complex Hermitian or real symmetric) when
    strictly feasible, else None with the INFEASIBLE or INDETERMINATE status.
    """
    regime, p, blocks = _analysis_lmi(a, alpha)
    sol = solve_feasibility(p, solver_cfg)
    if sol.status is not SdpStatus.FEASIBLE:
        return LmiCertificate(None, sol)
    return LmiCertificate(regime.value([b.value(sol.values) for b in blocks["s"]]), sol)


def closed_form_certificate(a, alpha, eps_margin):
    """Audited eigenbasis certificate of the analysis LMI of ``a``, or None.

    The eigenbasis certificate P of the regime (Chilali & Gahinet 1996;
    Sabatier, Moze & Farges 2010), scaled so that Sigma and P - I clear
    ``eps_margin``, is audited by the regime's own code run on P's arrays,
    with no LMI problem or MatExpr built: Sigma and P - I must have margins
    >= ``eps_margin``, and the :func:`analysis_feasible` variables at P,
    which the solution holds in that problem's order, |x| < R_BOX, so the
    barrier could not prove that problem INFEASIBLE.  None (reason logged at
    INFO) when P fails that audit or cond(V) > EIGENBASIS_COND_CAP.
    """
    regime, m = _regime(alpha), require_square(a)
    vals, vecs = np.linalg.eig(m)
    cond = np.linalg.cond(vecs)
    if not cond <= EIGENBASIS_COND_CAP:
        log.info("closed-form certificate: cond(V) = %.3g; using the barrier", cond)
        return None
    parts = regime.eigen_certificate(vals, vecs)
    # the variables in declare()'s order: the upper triangle of X (or P),
    # then the strict upper triangle of Y
    x = np.concatenate([part[triu_pairs(len(m), k)] for k, part in enumerate(parts)])

    def margins(scale):
        """Margins of Sigma < 0 and of P - I > 0 at the certificate scale * P."""
        cert = [scale * part for part in parts]
        sigma, pos = regime.sigma(m @ regime.q_expr(cert)), regime.positivity(cert)
        return -np.linalg.eigvalsh(sigma)[-1], np.linalg.eigvalsh(pos)[0]

    sigma, pos = margins(1.0)  # pos = lambda_min(P) - 1
    scale = 1.0
    if sigma > 0.0 and pos > -1.0:
        scale = 2.0 * max((1.0 + eps_margin) / (pos + 1.0), eps_margin / sigma)
    found, x = margins(scale), scale * x
    low, top = min(found), np.abs(x).max()
    if low >= eps_margin and top < R_BOX:
        sol = SdpSolution(SdpStatus.FEASIBLE, x, low, 0, -low)
        return LmiCertificate(regime.value([scale * part for part in parts]), sol)
    log.info("closed-form certificate failed its audit (margins Sigma %.3g, "
             "P %.3g; max |x| %.3g); using the barrier", *found, top)
    return None


def closed_loop(a, b, c, controller):
    """Augmented closed-loop matrix for output feedback.

    Returns [[A + B Dc C, B Cc], [Bc C, Ac]], which collapses to
    A + B Dc C for a static (order zero) controller.  One body serves A
    (n, n), B (n, l) and stacks A (N, n, n), B (N, n, l), which give the
    (N, n + n_c, n + n_c) stack of closed loops.  A non-square A is a
    ShapeMismatchError and a non-finite A a ValidationError in either form.
    """
    a, b, c = (np.atleast_2d(np.asarray(m, float)) for m in (a, b, c))
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ShapeMismatchError(f"A {a.shape} is not square")
    if not np.all(np.isfinite(a)):
        raise ValidationError("A has non-finite entries")
    if b.shape[:-1] != a.shape[:-1] or c.shape[1] != n:
        raise ShapeMismatchError(
            f"plant shapes inconsistent: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    l, m = b.shape[-1], c.shape[0]
    if controller.d_c.shape != (l, m):
        raise ShapeMismatchError(
            f"Dc is {controller.d_c.shape}, expected ({l},{m})"
        )
    n_c = controller.n_c
    out = np.empty(a.shape[:-2] + (n + n_c, n + n_c))
    out[..., :n, :n] = a + b @ controller.d_c @ c
    out[..., :n, n:] = b @ controller.c_c
    out[..., n:, :n] = controller.b_c @ c
    out[..., n:, n:] = controller.a_c
    return out
