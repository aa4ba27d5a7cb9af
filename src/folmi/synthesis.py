"""Fixed-order robust output-feedback synthesis for interval FO-LTI plants.

The synthesis conditions are sufficient LMIs obtained from the analysis
certificates by a change of variables T1..T4 absorbing the controller
matrices, with the interval uncertainty handled through its structured
factorization, a scalar multiplier eta, and a Schur-complement lift.  The
lift is compressed to one row per nonzero column sum of the radii (at most
n + l rows, doubled for 1 <= alpha < 2) instead of one per uncertain entry;
the eta > 0 block carries the dropped rows, so the barrier solve is that of
the full lift.  One assembly covers both order regimes (0 < alpha < 1 with
a Hermitian certificate, 1 <= alpha < 2 with a symmetric one): the regime
object of :mod:`folmi.stability` supplies the certificate, its Q map and
positivity, and the core inequality, which is also the analysis LMI.
Plants with zero radii reduce to that certain-system core inequality.

Controller matrices are recovered from a feasible point by inverting the
change of variables through the certificate blocks and the pseudo-inverse
of the output matrix.  The pseudo-inverse step is exact only when the
T2/T4 blocks happen to lie in the row space of C, so every recovered
controller is certified a posteriori against the interval family (vertex
sweep plus random samples plus the nominal analysis LMI, decided by an
audited closed-form certificate with the barrier solve as fallback) and is
never accepted on LMI feasibility alone.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    FolmiError,
    InfeasibleError,
    ShapeMismatchError,
    SingularCertificateError,
    ValidationError,
)
from .interval import (
    MAX_VERTICES,
    UncertaintyRealization,
    count_vertices,
    decompose,
    realize,
    sample_scalings,
    scaling_width,
    vertex_scalings,
)
from .linalg import as_matrix, pinv
from .lmi import (
    LmiProblem,
    SdpStatus,
    SolverConfig,
    solve_feasibility,
)
from .stability import (
    _regime,
    analysis_feasible,
    certificate_lmi,
    closed_form_certificate,
    closed_loop,
    sector_margins,
)

COND_CAP = 1e12
# Scaling rows per closed-loop stack in the certification sweep.
SWEEP_CHUNK = 8192

log = logging.getLogger("folmi.synthesis")


@dataclass(frozen=True)
class DynamicController:
    """Output-feedback controller of fixed order n_c.

    D^alpha x_c = Ac x_c + Bc y,  u = Cc x_c + Dc y.  A static controller
    has n_c = 0 with empty Ac/Bc/Cc and only the feedthrough Dc active.
    """

    n_c: int
    a_c: np.ndarray
    b_c: np.ndarray
    c_c: np.ndarray
    d_c: np.ndarray

    def __post_init__(self):
        d_c = as_matrix(self.d_c, "d_c")
        l, m = d_c.shape
        n_c = self.n_c
        a_c = np.asarray(self.a_c, float).reshape(n_c, n_c)
        b_c = np.asarray(self.b_c, float).reshape(n_c, m)
        c_c = np.asarray(self.c_c, float).reshape(l, n_c)
        for name, arr in (("a_c", a_c), ("b_c", b_c), ("c_c", c_c)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "a_c", a_c)
        object.__setattr__(self, "b_c", b_c)
        object.__setattr__(self, "c_c", c_c)
        object.__setattr__(self, "d_c", d_c)

    @classmethod
    def static(cls, d_c):
        d = np.atleast_2d(np.asarray(d_c, float))
        return cls(0, np.zeros((0, 0)), np.zeros((0, d.shape[1])),
                   np.zeros((d.shape[0], 0)), d)

    def to_dict(self):
        return {
            "n_c": self.n_c,
            "a_c": self.a_c.tolist(),
            "b_c": self.b_c.tolist(),
            "c_c": self.c_c.tolist(),
            "d_c": self.d_c.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            int(d["n_c"]),
            np.asarray(d["a_c"], float),
            np.asarray(d["b_c"], float),
            np.asarray(d["c_c"], float),
            np.asarray(d["d_c"], float),
        )


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of sweeping a controller over the uncertainty family; the
    nominal LMI verdict ``nominal_status`` came from ``nominal_route``."""

    vertex_count: int
    sample_count: int
    min_sector_margin: float
    worst_realization: UncertaintyRealization
    nominal_lmi_ok: bool
    passed: bool
    vertices_exhaustive: bool
    nominal_route: str
    nominal_status: SdpStatus


@dataclass(frozen=True)
class SynthesisResult:
    """Feasible point of a synthesis LMI plus the recovered controller.

    ``eta`` is None on the certain-system (zero radii) path, where no
    uncertainty multiplier exists.  ``p_s`` is complex Hermitian on the
    0 < alpha < 1 path and real symmetric otherwise.  ``schur_dim`` is the
    dimension of the synthesis inequality (the lifted Schur block, or Sigma
    on the certain path).
    """

    controller: DynamicController
    eta: float | None
    p_s: np.ndarray
    p_c: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    solver_status: SdpStatus
    alpha: float
    values: np.ndarray
    problem: LmiProblem
    solver_iterations: int
    achieved_margin: float
    schur_dim: int


@dataclass
class _Assembly:
    """LmiProblem plus the regime and variable handles needed for recovery."""

    problem: LmiProblem
    regime: object
    alpha: float
    n_c: int
    c: np.ndarray
    blocks: dict


def _check_synthesis_shapes(factors, c, n_c):
    c = as_matrix(c, "c")
    if c.shape[1] != factors.n:
        raise ShapeMismatchError(f"C has {c.shape[1]} columns, expected {factors.n}")
    if n_c < 0:
        raise ValueError(f"n_c must be >= 0, got {n_c}")
    return c


def _lift(factors):
    """The robust lift (MM^T, D, extra) of :func:`certificate_lmi`.

    MM^T = M_A M_A^T + M_B M_B^T, and D = diag(sqrt(column sums of
    [Delta_A Delta_B])) without its zero rows, so at most n + l rows.  Each
    row of the radius factor R_A (see ``interval._radius_factors``) is a
    scaled unit vector, so R_A = U_A D_A with orthonormal columns in U_A
    (likewise R_B = U_B D_B), and the full lift [[R_A Q_S, 0], [R_B T4,
    R_B T3]] of n^2 + n*l rows equals U D Z with Z = [[Q_S, 0], [T4, T3]].
    The full Schur block is therefore orthogonally similar to
    blockdiag(compressed block, -eta I) with one -eta row per dropped row,
    so both have the same feasible set and logdet(tI - F_full) =
    logdet(tI - F_comp) + (rows dropped) log(t + eta).  The eta > 0
    constraint carries that dropped multiplicity, ``extra`` = n^2 + n*l -
    rows(D) per copy; barrier value, gradient, Hessian, the sum of
    constraint dimensions and the smallest margin are then those of the
    full lift, and the solver takes the same steps up to rounding.
    """
    n, l = factors.n, factors.l
    sums = np.hstack([factors.delta_a, factors.delta_b]).sum(axis=0)
    d = np.diag(np.sqrt(sums))[sums > 0]
    mmt = factors.m_a @ factors.m_a.T + factors.m_b @ factors.m_b.T
    return mmt, d, n * n + n * l - d.shape[0]


def assemble(factors, c, alpha, n_c):
    """Synthesis LMI for 0 < alpha < 2.

    Decision variables: the certificates P_S (n x n) and P_C (n_c x n_c)
    of the order regime (Hermitian, through their real and imaginary
    parts, below alpha = 1; symmetric from alpha = 1 up), controller lifts
    T1..T4, and the multiplier eta.  With Q_S the regime's Q map of P_S
    (2 cos(theta) X_S - 2 sin(theta) Y_S, resp. P_S), the certain-plant
    core is Sigma of the closed-loop expression
    G = [[A0 Q_S + B0 T4, B0 T3], [T2, T1]]: Sym(G) below alpha = 1, and
    the rotated block [[G_s sin(theta), G_k cos(theta)], [-G_k cos(theta),
    G_s sin(theta)]] of its symmetric and skew parts from alpha = 1 up
    (see :func:`folmi.stability.certificate_lmi`).

    The uncertainty enters through the robust lift of
    :func:`folmi.stability.certificate_lmi`, with M = [[M_A, M_B], [0, 0]]
    and the compressed right factor D [[Q_S, 0], [T4, T3]] per diagonal
    copy of G in Sigma (one below alpha = 1, two from alpha = 1 up), and a
    multiplier eta; :func:`_lift` builds its data and says why the
    compression leaves the feasible set and the barrier of the full lift
    unchanged.  On the certain path (all radii zero) only Sigma < 0 and the
    positivity blocks are emitted.
    """
    regime = _regime(alpha)
    c = _check_synthesis_shapes(factors, c, n_c)
    lift = None if factors.is_certain else _lift(factors)
    problem, blocks = certificate_lmi(regime, factors.a0, factors.b0, n_c, lift)
    return _Assembly(problem, regime, alpha, n_c, c, blocks)


def _invert_certificate(q, what):
    if q.shape[0] == 0:
        return np.zeros((0, 0))
    if np.linalg.cond(q) > COND_CAP:
        raise SingularCertificateError(f"{what} too ill-conditioned to invert")
    return np.linalg.inv(q)


def recover(assembly, solution):
    """Invert the change of variables.

    Ac = T1 Qc^-1, Bc = T2 Qs^-1 C^+, Cc = T3 Qc^-1, Dc = T4 Qs^-1 C^+
    with Q the regime's Q map of the certificate (2 cos(theta) X -
    2 sin(theta) Y below alpha = 1, P from alpha = 1 up), real by
    construction.
    """
    v = solution.values
    b = assembly.blocks
    q_expr = assembly.regime.q_expr
    qs_inv = _invert_certificate(q_expr(b["s"]).value(v), "Q_S")
    qc_inv = _invert_certificate(q_expr(b["c"]).value(v), "Q_C")
    c_pinv = pinv(assembly.c)
    d_c = b["t4"].value(v) @ qs_inv @ c_pinv
    if assembly.n_c == 0:
        return DynamicController.static(d_c)
    a_c = b["t1"].value(v) @ qc_inv
    b_c = b["t2"].value(v) @ qs_inv @ c_pinv
    c_c = b["t3"].value(v) @ qc_inv
    return DynamicController(assembly.n_c, a_c, b_c, c_c, d_c)


def _result_from(assembly, solution, controller):
    v = solution.values
    b = assembly.blocks
    eta = float(b["eta"].value(v)[0, 0]) if "eta" in b else None
    return SynthesisResult(
        controller=controller,
        eta=eta,
        p_s=assembly.regime.value(b["s"], v),
        p_c=assembly.regime.value(b["c"], v),
        t1=b["t1"].value(v),
        t2=b["t2"].value(v),
        t3=b["t3"].value(v),
        t4=b["t4"].value(v),
        solver_status=solution.status,
        alpha=assembly.alpha,
        values=v,
        problem=assembly.problem,
        solver_iterations=solution.iterations,
        achieved_margin=solution.achieved_margin,
        schur_dim=assembly.problem.constraints[0].dim,
    )


def check_sweep_settings(sample_count, seed, prefix=""):
    """ValidationError unless ``sample_count`` >= 0 and ``seed`` lies in
    [0, 2**32), the seeds of the sample stream; ``prefix`` qualifies the
    names in the message."""
    if sample_count < 0:
        raise ValidationError(
            f"'{prefix}sample_count' must be >= 0, got {sample_count}")
    if not 0 <= seed < 2 ** 32:
        raise ValidationError(f"'{prefix}seed' must lie in [0, 2**32), got {seed}")


def _sweep_scalings(factors, vertex_count, sample_count, seed):
    """Scaling rows in sweep order, at most ``SWEEP_CHUNK`` per array.

    Vertices ``0 .. vertex_count - 1`` first, then ``sample_count`` seeded
    samples; when both are empty, the center realization alone, so every
    verdict rests on at least one eigenvalue check.
    """
    for lo in range(0, vertex_count, SWEEP_CHUNK):
        yield vertex_scalings(factors, lo, min(lo + SWEEP_CHUNK, vertex_count))
    if sample_count > 0:
        yield from sample_scalings(factors, sample_count, seed, SWEEP_CHUNK)
    elif vertex_count == 0:
        yield np.zeros((1, scaling_width(factors)))


def certify(sys, controller, sample_count=500, seed=0, solver_cfg=None):
    """Sweep a controller over the uncertainty family and the nominal LMI.

    Checks the sector margin of the closed loop at every vertex of the
    interval family (when at most 2^24 exist; otherwise samples only and
    the report says so) plus ``sample_count`` seeded uniform interior
    realizations, and decides the analysis LMI of the center closed loop by
    the audited :func:`folmi.stability.closed_form_certificate`, falling back
    to the barrier solve of ``analysis_feasible``.  With neither vertices nor
    samples the center realization is swept.  ``passed`` requires every
    margin positive and the nominal LMI feasible.  Vertex checking does not
    prove stability of the continuous family, which is why interior samples
    are always included.

    Realizations are swept in arrays of ``SWEEP_CHUNK`` scaling rows: one
    stack of closed loops and one batched eigenvalue call per array.  The
    worst realization is the first one reaching the minimal margin.
    Raises :class:`ValidationError` for a negative ``sample_count`` or a
    ``seed`` outside [0, 2**32) before sweeping anything.
    """
    check_sweep_settings(sample_count, seed)
    factors = decompose(sys)
    total = count_vertices(factors)
    exhaustive = total <= MAX_VERTICES
    vertex_count = total if exhaustive else 0
    if not exhaustive:
        log.info("%d vertices exceed the cap of %d; sweeping samples only",
                 total, MAX_VERTICES)

    min_margin = np.inf
    worst = None
    for f in _sweep_scalings(factors, vertex_count, sample_count, seed):
        a, b = realize(factors, f)
        margins = sector_margins(closed_loop(a, b, sys.c, controller), sys.alpha)
        i = int(np.argmin(margins))
        if margins[i] < min_margin:
            min_margin = float(margins[i])
            worst = f[i].copy()
    a_cl0 = closed_loop(factors.a0, factors.b0, sys.c, controller)
    route, status = "closed_form", SdpStatus.FEASIBLE
    eps_margin = (solver_cfg or SolverConfig()).eps_margin
    if closed_form_certificate(a_cl0, sys.alpha, eps_margin) is None:
        route = "barrier"
        try:
            status = analysis_feasible(a_cl0, sys.alpha, solver_cfg).solution.status
        except FolmiError:
            status = SdpStatus.INDETERMINATE
    passed = bool(min_margin > 0.0) and status is SdpStatus.FEASIBLE
    na = factors.m_a.shape[1]
    return CertificationReport(
        vertex_count=vertex_count,
        sample_count=sample_count,
        min_sector_margin=min_margin,
        worst_realization=UncertaintyRealization(worst[:na], worst[na:]),
        nominal_lmi_ok=status is SdpStatus.FEASIBLE,
        passed=passed,
        vertices_exhaustive=exhaustive,
        nominal_route=route,
        nominal_status=status,
    )


def synthesize(sys, n_c, solver_cfg=None, sample_count=500, seed=0):
    """Design and certify a fixed-order controller for an interval plant.

    One pass: assembles and solves the synthesis LMI, recovers the
    controller, and certifies it a posteriori.  A controller failing
    certification is returned with ``passed = False``, never hidden.
    Raises :class:`InfeasibleError` when the LMI itself is infeasible or
    undecidable, and :class:`ValidationError` for certify settings that
    :func:`certify` rejects, before assembling anything.
    """
    check_sweep_settings(sample_count, seed)
    asm = assemble(decompose(sys), sys.c, sys.alpha, n_c)
    sol = solve_feasibility(asm.problem, solver_cfg)
    if sol.status is not SdpStatus.FEASIBLE:
        raise InfeasibleError(
            f"synthesis LMI {sol.status.value} for n_c={n_c}, alpha={sys.alpha}"
        )
    controller = recover(asm, sol)
    report = certify(sys, controller, sample_count, seed, solver_cfg)
    return _result_from(asm, sol, controller), report
