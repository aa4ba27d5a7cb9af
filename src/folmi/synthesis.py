"""Fixed-order robust output-feedback synthesis for interval FO-LTI plants.

The synthesis conditions are sufficient LMIs obtained from the analysis
certificates by a change of variables T1 and T4 absorbing the controller
matrices, with the interval uncertainty handled through its structured
factorization, a scalar multiplier eta, and a Schur-complement lift.  The
lift is compressed to one row per nonzero column sum of the radii (at most
n + l rows, doubled for 1 <= alpha < 2) instead of one per uncertain entry,
with the same feasible set as the full lift.  One assembly covers both
order regimes (0 < alpha < 1 with a Hermitian certificate, 1 <= alpha < 2
with a symmetric one): the regime object of :mod:`folmi.stability`
supplies the certificate, its Q map and positivity, and the core
inequality, which is also the analysis LMI.
Plants with zero radii reduce to that certain-system core inequality.

Controller matrices are recovered from a feasible point by inverting the
change of variables through the certificate blocks and the pseudo-inverse
of the output matrix, with B_c = C_c = 0 (see :func:`recover`).  The
pseudo-inverse step is exact only when T4 happens to lie in the row space
of C, so every recovered controller is certified a posteriori against the
interval family (vertex sweep plus random samples plus the nominal
analysis LMI, decided by an audited closed-form certificate with the
barrier solve as fallback) and is never accepted on LMI feasibility alone.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError,
    ShapeMismatchError,
    SingularCertificateError,
    ValidationError,
)
from .interval import (
    MAX_VERTICES,
    UncertaintyRealization,
    decompose,
    realize,
    sweep_scalings,
)
from .linalg import as_matrix, check_eig_dim, pinv
from .lmi import (
    LmiProblem,
    SdpSolution,
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
    margin_floor,
    sector_margins,
)

COND_CAP = 1e12

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
        check_order(self.n_c)
        d_c = as_matrix(self.d_c, "d_c")
        (l, m), n_c = d_c.shape, self.n_c
        for name, shape in (("a_c", (n_c, n_c)), ("b_c", (n_c, m)), ("c_c", (l, n_c))):
            entries = np.asarray(getattr(self, name), float)
            if entries.size != shape[0] * shape[1]:
                raise ShapeMismatchError(
                    f"'{name}' has {entries.size} entries, expected "
                    f"{shape[0]}x{shape[1]}")
            object.__setattr__(self, name, as_matrix(entries.reshape(shape), name))
        object.__setattr__(self, "d_c", d_c)

    @classmethod
    def static(cls, d_c):
        d = np.atleast_2d(np.asarray(d_c, float))
        return cls(0, np.zeros((0, 0)), np.zeros((0, d.shape[1])),
                   np.zeros((d.shape[0], 0)), d)

    def to_dict(self):
        return {"n_c": self.n_c, **{k: getattr(self, k).tolist()
                                    for k in ("a_c", "b_c", "c_c", "d_c")}}


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of sweeping a controller over the uncertainty family; ``passed``
    needs every margin > 0 and ``nominal_status``, from ``nominal_route``, FEASIBLE."""

    vertex_count: int
    sample_count: int
    min_sector_margin: float
    worst_realization: UncertaintyRealization
    passed: bool
    vertices_exhaustive: bool
    nominal_route: str
    nominal_status: SdpStatus


@dataclass(frozen=True)
class SynthesisResult:
    """Feasible point of a synthesis LMI plus the recovered controller.

    ``solution`` is the solver's FEASIBLE :class:`folmi.lmi.SdpSolution`,
    with its iterations, achieved margin and point.  ``eta`` is None on the
    certain-system (zero radii) path, where no uncertainty multiplier exists.
    ``p_s`` is complex Hermitian on the 0 < alpha < 1 path and real symmetric
    otherwise.  ``schur_dim``, the same at every n_c, is the dimension of
    the plant's synthesis inequality (the lifted Schur block, or Sigma on
    the certain path).
    """

    controller: DynamicController
    eta: float | None
    p_s: np.ndarray
    p_c: np.ndarray
    t1: np.ndarray
    solution: SdpSolution
    alpha: float
    problem: LmiProblem
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


def check_order(n_c):
    """ValidationError unless the controller order ``n_c`` is >= 0."""
    if n_c < 0:
        raise ValidationError(f"'n_c' must be >= 0, got {n_c}")


def _lift(factors):
    """The robust lift (MM^T, D) of :func:`certificate_lmi`.

    MM^T = M_A M_A^T + M_B M_B^T, and D = diag(sqrt(column sums of
    [Delta_A Delta_B])) without its zero rows, so at most n + l rows.  Each
    row of the radius factor R_A (see ``interval._radius_factors``) is a
    scaled unit vector, so R_A = U_A D_A with orthonormal columns in U_A
    (likewise R_B = U_B D_B), and the full lift [[R_A Q_S], [R_B T4]] of
    n^2 + n*l rows equals U D Z, so only the right factor D Z enters.
    The full Schur block is therefore orthogonally similar to
    blockdiag(compressed block, -eta I) with one -eta row per dropped row,
    and under eta > 0 both lifts decide the same LMI.
    """
    sums = np.hstack([factors.delta_a, factors.delta_b]).sum(axis=0)
    d = np.diag(np.sqrt(sums))[sums > 0]
    return factors.m_a @ factors.m_a.T + factors.m_b @ factors.m_b.T, d


def assemble(factors, c, alpha, n_c):
    """Synthesis LMI for 0 < alpha < 2: :func:`folmi.stability.certificate_lmi`
    of the regime of alpha for the center plant (A0, B0) and order n_c.

    Its variables are the certificates P_S and P_C, the lifts T1 and T4 (no
    T2, T3: B_c = C_c = 0) and, when a radius is positive, the multiplier eta
    of the robust lift, whose data :func:`_lift` builds and whose
    compression it shows to keep the feasible set of the full lift.  On the
    certain path (all radii zero) only Sigma < 0 and the positivity block
    are emitted.
    """
    regime = _regime(alpha)
    check_order(n_c)
    c = as_matrix(c, "c")
    if c.shape[1] != factors.n:
        raise ShapeMismatchError(f"C has {c.shape[1]} columns, expected {factors.n}")
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

    Ac = T1 Qc^-1, Dc = T4 Qs^-1 C^+, Bc = Cc = 0
    with Q the regime's Q map of the certificate (2 cos(theta) X -
    2 sin(theta) Y below alpha = 1, P from alpha = 1 up), real by
    construction.  Bc and Cc are the zeros of the lifts T2 = T3 = 0 that
    the LMI's reflection symmetry fixes (see
    :func:`folmi.stability.certificate_lmi`), empty at n_c = 0 as in
    :meth:`DynamicController.static`.
    """
    v = solution.values
    b = assembly.blocks
    q_expr = assembly.regime.q_expr
    qs_inv = _invert_certificate(q_expr([x.value(v) for x in b["s"]]), "Q_S")
    qc_inv = _invert_certificate(q_expr([x.value(v) for x in b["c"]]), "Q_C")
    d_c = b["t4"].value(v) @ qs_inv @ pinv(assembly.c)
    (l, m), n_c = d_c.shape, assembly.n_c
    return DynamicController(n_c, b["t1"].value(v) @ qc_inv, np.zeros((n_c, m)),
                             np.zeros((l, n_c)), d_c)


def _result_from(assembly, solution, controller):
    v = solution.values
    b = assembly.blocks
    eta = float(b["eta"].value(v)[0, 0]) if "eta" in b else None
    return SynthesisResult(
        controller=controller,
        eta=eta,
        p_s=assembly.regime.value([x.value(v) for x in b["s"]]),
        p_c=assembly.regime.value([x.value(v) for x in b["c"]]),
        t1=b["t1"].value(v),
        solution=solution,
        alpha=assembly.alpha,
        problem=assembly.problem,
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


def certify(sys, controller, sample_count=500, seed=0, solver_cfg=None):
    """Sweep a controller over the uncertainty family and the nominal LMI.

    Checks the sector margin of the closed loop at every vertex of the
    interval family (when at most 2^24 exist; otherwise samples only and
    the report says so) plus ``sample_count`` seeded uniform interior
    realizations, and decides the analysis LMI of the center closed loop by
    the audited :func:`folmi.stability.closed_form_certificate`, falling back
    to the barrier solve of ``analysis_feasible``.  With neither vertices nor
    samples the center realization is swept.  A family without a positive
    radius holds one plant and is swept as its center alone, whatever
    ``sample_count``; the report's ``sample_count`` still echoes the
    request.  ``passed`` requires every margin positive and the nominal LMI
    feasible.  Vertex checking does not prove stability of the continuous
    family, which is why interior samples are included whenever an entry
    is uncertain.

    The rows and their order come from :func:`folmi.interval.sweep_scalings`:
    one stack of closed loops and one batched eigenvalue call per array.
    The worst realization is the first one reaching the minimal margin.
    The sweep stops after the array where the minimum reaches
    :func:`folmi.stability.margin_floor`: no later row can go lower and a
    tie never replaces the first row at the minimum, so the report is that
    of the full sweep.  The stop is checked per array, and the vertex arrays
    grow 8, 32, 128, 512, 512, ..., so a first floor row at vertex r (from
    0) stops the sweep after at most min(4r + 8, r + 512) rows.  The stop is
    logged at INFO with the rows swept and ``sweep_scalings``' row total.
    Raises :class:`ValidationError` for a negative ``sample_count``, a
    ``seed`` outside [0, 2**32) or a closed loop past the eigensolver cap
    before sweeping anything.
    """
    check_sweep_settings(sample_count, seed)
    check_eig_dim(sys.n + controller.n_c)
    return _certify(sys, decompose(sys), controller, sample_count, seed, solver_cfg)


def _certify(sys, factors, controller, sample_count, seed, solver_cfg):
    """:func:`certify` on the checked settings and ``decompose(sys)``'s
    ``factors``, which :func:`synthesize` has already made."""
    vertex_count, row_count, arrays = sweep_scalings(factors, sample_count, seed)
    if vertex_count == 0:
        log.info("vertices exceed the cap of %d; sweeping samples only", MAX_VERTICES)

    min_margin, worst, swept = np.inf, None, 0
    for f in arrays:
        a, b = realize(factors, f)
        margins = sector_margins(closed_loop(a, b, sys.c, controller), sys.alpha)
        i = int(np.argmin(margins))
        if margins[i] < min_margin:
            min_margin, worst = float(margins[i]), f[i].copy()
        swept += len(f)
        if min_margin == margin_floor(sys.alpha):
            log.info("sweep stopped at the margin floor after %d of %d rows",
                     swept, row_count)
            break
    a_cl0 = closed_loop(factors.a0, factors.b0, sys.c, controller)
    eps_margin = (solver_cfg or SolverConfig()).eps_margin
    route, cert = "closed_form", closed_form_certificate(a_cl0, sys.alpha, eps_margin)
    if cert is None:
        route, cert = "barrier", analysis_feasible(a_cl0, sys.alpha, solver_cfg)
    status = cert.solution.status
    na = factors.m_a.shape[1]
    return CertificationReport(
        vertex_count=vertex_count,
        sample_count=sample_count,
        min_sector_margin=min_margin,
        worst_realization=UncertaintyRealization(worst[:na], worst[na:]),
        passed=bool(min_margin > 0.0) and status is SdpStatus.FEASIBLE,
        vertices_exhaustive=vertex_count > 0,
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
    :func:`certify` rejects or a closed loop past the eigensolver cap,
    before assembling anything.
    """
    check_sweep_settings(sample_count, seed)
    check_eig_dim(sys.n + n_c)
    factors = decompose(sys)
    asm = assemble(factors, sys.c, sys.alpha, n_c)
    sol = solve_feasibility(asm.problem, solver_cfg)
    if sol.status is not SdpStatus.FEASIBLE:
        raise InfeasibleError(
            f"synthesis LMI {sol.status.value} for n_c={n_c}, alpha={sys.alpha}",
            sol.status,
        )
    controller = recover(asm, sol)
    report = _certify(sys, factors, controller, sample_count, seed, solver_cfg)
    return _result_from(asm, sol, controller), report
