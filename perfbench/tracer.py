"""Spans and counters recorded around folmi's public functions.

The wrappers live here, outside the package: :class:`Instruments` replaces a
function under every module name its callers look it up by (``from .x
import f`` binds a second name) and puts the originals back on
:meth:`Instruments.uninstall`.  A name a later version of folmi no longer
defines is skipped and listed in :attr:`Instruments.missing`.

Untraced rounds install only the solve recorder that the correctness gate
needs.  Traced rounds also record one span per call: name, start, end,
parent span, design id and a few counters read off the arguments and
result.  Spans stay in memory; :func:`layer_metrics` turns one round of
them into the per-layer figures.
"""

import importlib
from time import perf_counter

# (module, attribute, span name)
TRACED = (
    ("folmi.cli", "parse_config", "cli.parse_config"),
    ("folmi.cli", "load_controller", "cli.load_controller"),
    ("folmi.cli", "cmd_synth", "cli.cmd_synth"),
    ("folmi.cli", "cmd_check", "cli.cmd_check"),
    ("folmi.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("folmi.cli", "synthesize", "synthesis.synthesize"),
    ("folmi.cli", "certify", "synthesis.certify"),
    ("folmi.cli", "decompose", "interval.decompose"),
    ("folmi.cli", "closed_loop", "stability.closed_loop"),
    ("folmi.cli", "simulate", "fosim.simulate"),
    ("folmi.cli", "trajectory_to_csv", "fosim.trajectory_to_csv"),
    ("folmi.synthesis", "certify", "synthesis.certify"),
    ("folmi.synthesis", "assemble_low_alpha", "synthesis.assemble"),
    ("folmi.synthesis", "assemble_high_alpha", "synthesis.assemble"),
    ("folmi.synthesis", "recover_low_alpha", "synthesis.recover"),
    ("folmi.synthesis", "recover_high_alpha", "synthesis.recover"),
    ("folmi.synthesis", "solve_feasibility", "lmi.synth.solve"),
    ("folmi.synthesis", "decompose", "interval.decompose"),
    ("folmi.synthesis", "enumerate_vertices", "interval.enumerate_vertices"),
    ("folmi.synthesis", "sample_uniform", "interval.sample_uniform"),
    ("folmi.synthesis", "realize", "interval.realize"),
    ("folmi.synthesis", "closed_loop", "stability.closed_loop"),
    ("folmi.synthesis", "sector_margin", "stability.sector_margin"),
    ("folmi.synthesis", "analysis_feasible", "stability.analysis_feasible"),
    ("folmi.stability", "solve_feasibility", "lmi.analysis.solve"),
)

# The solve recorder runs in every round, traced or not.
SOLVES = {"lmi.synth.solve": "synth", "lmi.analysis.solve": "analysis"}

# Per-layer metric -> (unit, which direction is better).  Every ``*_computed``
# figure is computed from shapes, not measured.
PER_LAYER = {
    "certify.vertex_sweep_s": ("s", "lower"),
    "certify.sample_sweep_s": ("s", "lower"),
    "certify.s_per_realization": ("s", "lower"),
    "certify.realizations": ("count", "lower"),
    "interval.enumerate_s": ("s", "lower"),
    "interval.vertices": ("count", "lower"),
    "interval.sample_s": ("s", "lower"),
    "interval.realize_calls": ("count", "lower"),
    "interval.realize_s": ("s", "lower"),
    "interval.decompose_s": ("s", "lower"),
    "stability.sector_calls": ("count", "lower"),
    "stability.sector_s": ("s", "lower"),
    "stability.closed_loop_s": ("s", "lower"),
    "stability.analysis_calls": ("count", "lower"),
    "stability.analysis_s": ("s", "lower"),
    "lmi.synth.solve_s": ("s", "lower"),
    "lmi.synth.newton_iters": ("count", "lower"),
    "lmi.synth.s_per_newton": ("s", "lower"),
    "lmi.analysis.solve_s": ("s", "lower"),
    "lmi.analysis.newton_iters": ("count", "lower"),
    "lmi.analysis.s_per_newton": ("s", "lower"),
    "lmi.newton_flops_computed": ("flop", "lower"),
    "lmi.newton_gflops_achieved": ("GFLOP/s", "higher"),
    "lmi.status.feasible": ("count", "higher"),
    "lmi.status.infeasible": ("count", "lower"),
    "lmi.status.indeterminate": ("count", "lower"),
    "lmi.achieved_margin_min": ("1", "higher"),
    "synthesis.assemble_s": ("s", "lower"),
    "synthesis.recover_s": ("s", "lower"),
    "synthesis.schur_dim_max": ("rows", "lower"),
    "synthesis.num_vars_max": ("count", "lower"),
    "synthesis.attempts": ("count", "lower"),
    "synthesis.retry_ratio": ("ratio", "lower"),
    "synthesis.certified_ratio": ("ratio", "higher"),
    "synthesis.certify_share": ("ratio", "lower"),
    "fosim.steps": ("count", "higher"),
    "fosim.simulate_s": ("s", "lower"),
    "fosim.steps_per_s": ("1/s", "higher"),
    "fosim.tail_flops_computed": ("flop", "lower"),
    "fosim.tail_bytes_computed": ("B", "lower"),
    "fosim.csv_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Span record fields.
NAME, START, END, PARENT, JOB, ATTRS = range(6)


def newton_step_flops(problem):
    """Floating-point operations of one barrier Newton step, from shapes.

    Per constraint block of dimension d with p variables: the inverse and
    two Cholesky factorizations (8/3 d^3), the products S^-1 A_i (2 p d^3)
    and the Hessian block (2 p^2 d^2); then the Cholesky factorization of
    the (n+1)-square Newton system ((n+1)^3 / 3).
    """
    total = (problem.num_vars + 1) ** 3 / 3.0
    for c in problem.constraints:
        d, p = c.dim, len(c.coeffs)
        total += 8.0 / 3.0 * d ** 3 + 2.0 * p * d ** 3 + 2.0 * p * p * d * d
    return total


def gl_tail_counts(steps, n):
    """(flops, bytes) of the full-memory GL tail sums, from shapes.

    Step k multiplies k weights into a k x n history block: 2 k n flops and
    8 k (n + 1) bytes read.
    """
    pairs = steps * (steps + 1) / 2.0
    return 2.0 * n * pairs, 8.0 * (n + 1) * pairs


def _problem_and_cfg(args, kwargs):
    """``(problem, cfg)`` of a ``solve_feasibility(problem, cfg=None)`` call."""
    problem = args[0] if args else kwargs["problem"]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return problem, cfg


def _solve_attrs(args, kwargs, sol):
    problem, _ = _problem_and_cfg(args, kwargs)
    return {
        "iters": sol.iterations,
        "status": sol.status.name,
        "margin": float(sol.achieved_margin),
        "dim_max": max(c.dim for c in problem.constraints),
        "num_vars": problem.num_vars,
        "flops": sol.iterations * newton_step_flops(problem),
    }


def _simulate_attrs(args, kwargs, traj):
    return {"steps": int(traj.times.size - 1), "n": int(traj.states.shape[1])}


ATTRS_OF = {
    "lmi.synth.solve": _solve_attrs,
    "lmi.analysis.solve": _solve_attrs,
    "interval.enumerate_vertices": lambda a, k, out: {"count": len(out)},
    "interval.sample_uniform": lambda a, k, out: {"count": len(out)},
    "synthesis.synthesize": lambda a, k, out: {"passed": bool(out[1].passed)},
    "fosim.simulate": _simulate_attrs,
}

# Generators are drained inside their span so the span covers the work.
MATERIALIZE = {"interval.enumerate_vertices"}


class Instruments:
    """Installs and removes the recording wrappers.

    ``solves`` collects ``(kind, problem, cfg, solution)`` for every LMI
    solve since the caller last cleared it; ``spans`` collects span records
    while traced; ``job`` is the design id stamped on new spans.
    """

    def __init__(self):
        self.spans = []
        self.solves = []
        self.job = -1
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self, traced):
        if self._saved:
            raise RuntimeError("instruments already installed")
        self.missing = []
        for module_name, attr, name in TRACED:
            if not traced and name not in SOLVES:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            wrapper = self._span_wrapper if traced else self._solve_wrapper
            setattr(module, attr, wrapper(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _solve_wrapper(self, name, fn):
        kind = SOLVES[name]
        solves = self.solves

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            solves.append((kind, *_problem_and_cfg(args, kwargs), sol))
            return sol

        return wrapper

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS_OF.get(name)
        materialize = name in MATERIALIZE
        kind = SOLVES.get(name)
        solves = self.solves

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = list(out)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                rec[ATTRS] = attrs_of(args, kwargs, out)
            if kind is not None:
                solves.append((kind, *_problem_and_cfg(args, kwargs), out))
            return iter(out) if materialize else out

        return wrapper


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [
        (rec[END] - rec[START]) - covered(rec[START], rec[END], kids)
        for rec, kids in zip(spans, children)
    ]


def ratio(num, den):
    """``num / den``, or 0.0 when nothing was measured (``den == 0``)."""
    return num / den if den else 0.0


def _sweep_split(spans, children, certify_idx):
    """Vertex and sample sweep seconds inside one certify span.

    Realization i is timed from the start of its ``realize`` call to the
    end of its ``sector_margin`` call; the first ``count_vertices`` of them
    are vertices, the rest samples.
    """
    vertices = 0
    realize, sector = [], []
    for i in children[certify_idx]:
        name = spans[i][NAME]
        if name == "interval.enumerate_vertices":
            vertices += spans[i][ATTRS]["count"]
        elif name == "interval.realize":
            realize.append(spans[i])
        elif name == "stability.sector_margin":
            sector.append(spans[i])
    per = [s[END] - r[START] for r, s in zip(realize, sector)]
    return sum(per[:vertices]), sum(per[vertices:]), len(per)


def layer_metrics(spans, wall):
    """Per-layer figures of one traced round.

    ``wall`` is the round's traced wall time: the summed duration of the
    user commands, measured by the caller around each command.
    """
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    own = self_times(spans)

    dur = {}
    calls = {}
    for rec in spans:
        dur[rec[NAME]] = dur.get(rec[NAME], 0.0) + rec[END] - rec[START]
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1

    def d(name):
        return dur.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def attr_sum(name, key):
        return sum(r[ATTRS][key] for r in spans if r[NAME] == name and r[ATTRS])

    vertex_s = sample_s = 0.0
    realizations = 0
    certify_in_synth = 0.0
    designs = retried = attempts = certified = 0
    for i, rec in enumerate(spans):
        if rec[NAME] == "synthesis.certify":
            v, s, count = _sweep_split(spans, children, i)
            vertex_s += v
            sample_s += s
            realizations += count
            parent = rec[PARENT]
            if parent >= 0 and spans[parent][NAME] == "synthesis.synthesize":
                certify_in_synth += rec[END] - rec[START]
        elif rec[NAME] == "synthesis.synthesize":
            tries = sum(spans[c][NAME] == "lmi.synth.solve" for c in children[i])
            designs += 1
            attempts += tries
            retried += tries > 1
            certified += bool(rec[ATTRS] and rec[ATTRS]["passed"])

    solves = [r for r in spans if r[NAME] in SOLVES and r[ATTRS]]
    synth_solves = [r[ATTRS] for r in solves if r[NAME] == "lmi.synth.solve"]
    statuses = [r[ATTRS]["status"] for r in solves]
    feasible_margins = [
        r[ATTRS]["margin"] for r in solves if r[ATTRS]["status"] == "FEASIBLE"
    ]
    flops = sum(r[ATTRS]["flops"] for r in solves)
    solve_s = d("lmi.synth.solve") + d("lmi.analysis.solve")
    synth_iters = attr_sum("lmi.synth.solve", "iters")
    analysis_iters = attr_sum("lmi.analysis.solve", "iters")

    sims = [r[ATTRS] for r in spans if r[NAME] == "fosim.simulate" and r[ATTRS]]
    steps = sum(a["steps"] for a in sims)
    tail = [gl_tail_counts(a["steps"], a["n"]) for a in sims]

    cmd_self = sum(
        own[i] for i, r in enumerate(spans) if r[NAME].startswith("cli.cmd_")
    )
    roots = sum(r[END] - r[START] for r in spans if r[PARENT] < 0)

    return {
        "certify.vertex_sweep_s": vertex_s,
        "certify.sample_sweep_s": sample_s,
        "certify.s_per_realization": ratio(vertex_s + sample_s, realizations),
        "certify.realizations": realizations,
        "interval.enumerate_s": d("interval.enumerate_vertices"),
        "interval.vertices": attr_sum("interval.enumerate_vertices", "count"),
        "interval.sample_s": d("interval.sample_uniform"),
        "interval.realize_calls": n("interval.realize"),
        "interval.realize_s": d("interval.realize"),
        "interval.decompose_s": d("interval.decompose"),
        "stability.sector_calls": n("stability.sector_margin"),
        "stability.sector_s": d("stability.sector_margin"),
        "stability.closed_loop_s": d("stability.closed_loop"),
        "stability.analysis_calls": n("stability.analysis_feasible"),
        "stability.analysis_s": d("stability.analysis_feasible"),
        "lmi.synth.solve_s": d("lmi.synth.solve"),
        "lmi.synth.newton_iters": synth_iters,
        "lmi.synth.s_per_newton": ratio(d("lmi.synth.solve"), synth_iters),
        "lmi.analysis.solve_s": d("lmi.analysis.solve"),
        "lmi.analysis.newton_iters": analysis_iters,
        "lmi.analysis.s_per_newton": ratio(d("lmi.analysis.solve"), analysis_iters),
        "lmi.newton_flops_computed": flops,
        "lmi.newton_gflops_achieved": ratio(flops, solve_s) / 1e9,
        "lmi.status.feasible": statuses.count("FEASIBLE"),
        "lmi.status.infeasible": statuses.count("INFEASIBLE"),
        "lmi.status.indeterminate": statuses.count("INDETERMINATE"),
        "lmi.achieved_margin_min": min(feasible_margins, default=0.0),
        "synthesis.assemble_s": d("synthesis.assemble"),
        "synthesis.recover_s": d("synthesis.recover"),
        "synthesis.schur_dim_max": max((a["dim_max"] for a in synth_solves), default=0),
        "synthesis.num_vars_max": max((a["num_vars"] for a in synth_solves), default=0),
        "synthesis.attempts": attempts,
        "synthesis.retry_ratio": ratio(retried, designs),
        "synthesis.certified_ratio": ratio(certified, attempts),
        "synthesis.certify_share": ratio(certify_in_synth, d("synthesis.synthesize")),
        "fosim.steps": steps,
        "fosim.simulate_s": d("fosim.simulate"),
        "fosim.steps_per_s": ratio(steps, d("fosim.simulate")),
        "fosim.tail_flops_computed": sum(f for f, _ in tail),
        "fosim.tail_bytes_computed": sum(b for _, b in tail),
        "fosim.csv_s": d("fosim.trajectory_to_csv"),
        "cli.parse_s": d("cli.parse_config"),
        "cli.self_s": cmd_self,
        "trace.span_coverage": ratio(roots, wall),
    }
