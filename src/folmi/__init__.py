"""folmi: LMI-based robust output-feedback synthesis, certification, and
simulation for fractional-order linear systems with interval uncertainty."""

from .interval import (
    IntervalMatrix,
    UncertainFoltiSystem,
    UncertaintyFactors,
    UncertaintyRealization,
    decompose,
    realize,
)
from .lmi import (
    AffineMatrixConstraint,
    LmiProblem,
    SdpSolution,
    SdpStatus,
    Sense,
    SolverConfig,
    evaluate_constraint,
    solve_feasibility,
)
from .fosim import Trajectory, gl_weights, mittag_leffler, simulate, trajectory_to_csv
from .stability import analysis_feasible, closed_loop, sector_margins
from .synthesis import (
    CertificationReport,
    DynamicController,
    SynthesisResult,
    assemble,
    certify,
    recover,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "IntervalMatrix",
    "UncertainFoltiSystem",
    "UncertaintyFactors",
    "UncertaintyRealization",
    "decompose",
    "realize",
    "AffineMatrixConstraint",
    "LmiProblem",
    "SdpSolution",
    "SdpStatus",
    "Sense",
    "SolverConfig",
    "evaluate_constraint",
    "solve_feasibility",
    "Trajectory",
    "gl_weights",
    "mittag_leffler",
    "simulate",
    "trajectory_to_csv",
    "analysis_feasible",
    "closed_loop",
    "sector_margins",
    "CertificationReport",
    "DynamicController",
    "SynthesisResult",
    "assemble",
    "certify",
    "recover",
    "synthesize",
]
