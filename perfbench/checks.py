"""The benchmark's own correctness gate.

Each answer folmi gives is recomputed here by a route that does not call
the code being timed:

* certification margins with one batched ``numpy.linalg.eigvals`` call over
  the same vertices and seeded samples that ``certify`` sweeps;
* every FEASIBLE solver point re-audited with ``lmi.evaluate_constraint``;
* the first GL steps of every trajectory from the recursion written out
  here, and the oracle trajectory against ``fosim.mittag_leffler``.

Functions return a list of problems found; an empty list means the answer
checks out.
"""

import csv

import numpy as np

MARGIN_TOL = 1e-9
# Certification verdicts are compared with the nominal LMI only where the
# center closed loop is clearly stable or clearly unstable.
NOMINAL_CLEAR = 0.05
MAX_VERTICES = 2 ** 24
ZERO_EIG_TOL = 1e-12
GL_PREFIX_STEPS = 40
# The CSV keeps nine significant digits.
CSV_RTOL = 1e-8
# Same bound as the repository's GL-versus-Mittag-Leffler tests.
ORACLE_TOL = 5e-3
ORACLE_DOMAIN = 50.0
_CHUNK = 8192


def _unit_box_draws(delta_a, delta_b, sample_count, seed):
    """Scalings (f_a, f_b) in the order ``certify`` sweeps them.

    Vertices first, sign bit ``b`` of pattern ``p`` on the b-th entry with a
    positive radius (A row-major, then B); then ``sample_count`` uniform
    draws of ``numpy.random.RandomState(seed)``, each f_a then f_b.
    """
    na, nb = delta_a.size, delta_b.size
    active = np.flatnonzero(np.concatenate([delta_a.ravel(), delta_b.ravel()]) > 0)
    parts = []
    vertex_count = 0
    if 2 ** active.size <= MAX_VERTICES:
        vertex_count = 2 ** active.size
        bits = (np.arange(vertex_count)[:, None] >> np.arange(active.size)) & 1
        f = np.zeros((vertex_count, na + nb))
        f[:, active] = 2.0 * bits - 1.0
        parts.append(f)
    if sample_count > 0:
        rng = np.random.RandomState(seed)
        parts.append(rng.uniform(-1.0, 1.0, size=(sample_count, na + nb)))
    f = np.concatenate(parts) if parts else np.zeros((0, na + nb))
    return f[:, :na], f[:, na:], vertex_count


def closed_loops(a, b, c, ctrl):
    """Stack of [[A + B Dc C, B Cc], [Bc C, Ac]] for stacks A (N,n,n), B (N,n,l)."""
    core = a + (b @ ctrl["d_c"]) @ c
    n_c = ctrl["a_c"].shape[0]
    if n_c == 0:
        return core
    count, n = a.shape[0], a.shape[1]
    out = np.empty((count, n + n_c, n + n_c))
    out[:, :n, :n] = core
    out[:, :n, n:] = b @ ctrl["c_c"]
    out[:, n:, :n] = ctrl["b_c"] @ c
    out[:, n:, n:] = ctrl["a_c"]
    return out


def sector_margins(stack, alpha):
    """min_i |arg(lambda_i)| - alpha*pi/2 for every matrix of the stack."""
    eigs = np.linalg.eigvals(stack)
    args = np.abs(np.angle(eigs))
    args[np.abs(eigs) < ZERO_EIG_TOL] = 0.0
    return args.min(axis=1) - alpha * np.pi / 2.0


def controller_arrays(ctrl):
    """Controller file dict as float arrays of the documented shapes."""
    d_c = np.atleast_2d(np.asarray(ctrl["d_c"], float))
    l, m = d_c.shape
    n_c = int(ctrl["n_c"])
    return {
        "a_c": np.asarray(ctrl["a_c"], float).reshape(n_c, n_c),
        "b_c": np.asarray(ctrl["b_c"], float).reshape(n_c, m),
        "c_c": np.asarray(ctrl["c_c"], float).reshape(l, n_c),
        "d_c": d_c,
    }


def recompute_certification(config, ctrl, sample_count, seed):
    """(min margin over vertices and samples, margin of the center loop)."""
    a0 = 0.5 * (config.a_lower + config.a_upper)
    b0 = 0.5 * (config.b_lower + config.b_upper)
    delta_a = 0.5 * (config.a_upper - config.a_lower)
    delta_b = 0.5 * (config.b_upper - config.b_lower)
    # entry (i, j) moves by sqrt(r) * (f * sqrt(r)), the factorized product
    sa, sb = np.sqrt(delta_a), np.sqrt(delta_b)
    fa, fb, _ = _unit_box_draws(delta_a, delta_b, sample_count, seed)
    worst = np.inf
    for lo in range(0, fa.shape[0], _CHUNK):
        ua = fa[lo : lo + _CHUNK].reshape(-1, *a0.shape)
        ub = fb[lo : lo + _CHUNK].reshape(-1, *b0.shape)
        stack = closed_loops(a0 + sa * (ua * sa), b0 + sb * (ub * sb), config.c, ctrl)
        worst = min(worst, float(sector_margins(stack, config.alpha).min()))
    center = closed_loops(a0[None], b0[None], config.c, ctrl)
    return worst, float(sector_margins(center, config.alpha)[0])


def check_certification(config, ctrl, cert, sample_count, seed):
    """Compare a report's ``certification`` block with the recomputation."""
    mine, center = recompute_certification(config, ctrl, sample_count, seed)
    problems = []
    reported = cert["min_sector_margin"]
    if not abs(mine - reported) <= MARGIN_TOL:
        problems.append(f"min sector margin {reported!r} but recomputed {mine!r}")
    verdict = bool(mine > 0.0) and bool(cert["nominal_lmi_ok"])
    if verdict != bool(cert["passed"]):
        problems.append(f"verdict {cert['passed']} but recomputed {verdict}")
    if abs(center) > NOMINAL_CLEAR and (center > 0) != bool(cert["nominal_lmi_ok"]):
        problems.append(
            f"nominal LMI ok={cert['nominal_lmi_ok']} but center margin {center:.3g}"
        )
    return problems, mine


def audit_solves(solves, evaluate_constraint, default_cfg):
    """Every FEASIBLE point must satisfy every constraint by ``eps_margin``."""
    problems = []
    for kind, problem, cfg, sol in solves:
        if sol.status.name != "FEASIBLE":
            continue
        eps = (cfg or default_cfg).eps_margin
        for j, c in enumerate(problem.constraints):
            _, extreme = evaluate_constraint(problem, c, sol.values)
            margin = -extreme if c.sense.name == "NEGATIVE_DEFINITE" else extreme
            if not margin >= eps:
                problems.append(
                    f"{kind} solve reported FEASIBLE but constraint {j} has "
                    f"margin {margin:.3g} < {eps:g}"
                )
    return problems


def read_trajectory(path):
    """(header, rows) of a trajectory CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def gl_prefix(a_cl, alpha, x0, h, steps):
    """States x_0..x_steps of the implicit GL recursion on y = x - x0."""
    n = a_cl.shape[0]
    h_alpha = h ** alpha
    w = np.ones(steps + 1)
    for j in range(1, steps + 1):
        w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
    step = np.linalg.inv(np.eye(n) - h_alpha * a_cl)
    y = np.zeros((steps + 1, n))
    for k in range(1, steps + 1):
        memory = sum(w[j] * y[k - j] for j in range(1, k + 1))
        y[k] = step @ (h_alpha * (a_cl @ x0) - memory)
    return y + x0


def check_trajectory(config, ctrl, report, path):
    """Shape, finiteness, the first GL steps and the reported norm ratio."""
    sim = config.simulate
    a0 = 0.5 * (config.a_lower + config.a_upper)
    b0 = 0.5 * (config.b_lower + config.b_upper)
    a_cl = closed_loops(a0[None], b0[None], config.c, ctrl)[0]
    x0 = np.asarray(sim["x0"], float).reshape(-1)
    x0 = np.concatenate([x0, np.zeros(a_cl.shape[0] - x0.size)])
    h = float(sim["h"])
    steps = int(round(float(sim["t_end"]) / h))
    header, rows = read_trajectory(path)
    problems = []
    want = ["t"] + [f"x{i + 1}" for i in range(a_cl.shape[0])]
    if header != want:
        return [f"CSV header {header[:4]}... is not {want[:4]}..."], rows
    if rows.shape != (steps + 1, len(want)):
        return [f"CSV has shape {rows.shape}, expected {(steps + 1, len(want))}"], rows
    if report["simulation"]["steps"] != steps:
        problems.append(f"report says {report['simulation']['steps']} steps, not {steps}")
    if not np.all(np.isfinite(rows)):
        problems.append("CSV has non-finite values")
    k = min(GL_PREFIX_STEPS, steps)
    ref = gl_prefix(a_cl, config.alpha, x0, h, k)
    err = np.abs(rows[: k + 1, 1:] - ref)
    if np.any(err > CSV_RTOL * (1.0 + np.abs(ref))):
        problems.append(f"first {k} GL steps differ by up to {err.max():.3g}")
    if not np.allclose(rows[:, 0], np.arange(steps + 1) * h, rtol=CSV_RTOL, atol=0.0):
        problems.append("CSV time column is not k*h")
    n0 = np.linalg.norm(rows[0, 1:])
    ratio = np.linalg.norm(rows[-1, 1:]) / n0
    reported = report["simulation"]["final_norm_ratio"]
    if not abs(ratio - reported) <= 1e-6 * max(abs(reported), 1e-300) + 1e-12:
        problems.append(f"final norm ratio {reported!r} but CSV gives {ratio!r}")
    return problems, rows


def oracle_error(rows, alpha, lambdas, mittag_leffler):
    """Largest |GL - E_alpha(lambda t^alpha)| over the checked nodes.

    Nodes are the first 59 steps and every 25th after them, as in the
    repository's tests, wherever |lambda t^alpha| stays in the oracle's
    domain; the states start at 1.
    """
    steps = rows.shape[0] - 1
    nodes = list(range(1, min(60, steps + 1))) + list(range(60, steps + 1, 25))
    worst = 0.0
    for j, lam in enumerate(lambdas):
        for k in nodes:
            z = lam * rows[k, 0] ** alpha
            if abs(z) > ORACLE_DOMAIN:
                break
            worst = max(worst, abs(rows[k, j + 1] - mittag_leffler(alpha, z)))
    return worst
