"""Seeded inputs for the benchmark workloads.

Every workload is a list of :class:`Job` objects run in a closed loop by one
caller.  A design job runs ``synth`` and then ``check`` and ``simulate`` on
the designed controller, the way a user runs ``folmi synth``, ``folmi check``
and ``folmi simulate`` in turn.  A stored-controller job only simulates.

The inputs depend on the seed alone: :func:`make_jobs` writes the same bytes
for the same seed.  The program sees only the written problem files and the
``--nc`` / ``--seed`` values a user would pass.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fixtures", "large-plant", "long-sim")

FIXTURES = ("example1", "example2")
FIXTURE_ORDERS = (0, 1, 2, 3)

# n=6, l=2, m=2 with every entry of A and B uncertain: 2^48 vertices, so
# certification falls back to interior samples and the barrier solve on the
# 54-112 row Schur blocks dominates synthesis.
LARGE_N, LARGE_L, LARGE_M = 6, 2, 2
LARGE_ALPHAS = (0.75, 1.2)
# Eight distinct plants per regime, plant p designed at order p % 3: more
# plants average out how much solver work one plant needs.
LARGE_PLANTS_PER_ALPHA = 8
LARGE_ORDERS = (0, 1, 2)
# Radius of every entry: LARGE_RADIUS * (1 + |midpoint| / 2).  Small enough
# that the scalar-multiplier lift stayed feasible on all 640 plants of seeds
# 1-40 (at 0.01, 2 of them were infeasible).
LARGE_RADIUS = 0.005

# (n, alpha) of the long-horizon closed loops; both order regimes.
LONG_SIM_SYSTEMS = ((3, 0.6), (4, 1.3), (5, 0.8), (6, 1.5))
LONG_SIM_L = 2
LONG_SIM_H = 0.01
LONG_SIM_STEPS = 20000
LONG_SIM_FAMILY_SEED = 1000
# Diagonal system checked against the Mittag-Leffler oracle.
ORACLE_N = 3
ORACLE_H = 1e-3
ORACLE_STEPS = 20000


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work.

    ``design`` jobs synthesize a controller into ``controller`` and check it
    before simulating; other jobs simulate the stored ``controller``.
    ``oracle`` holds ``alpha`` and the diagonal ``lambdas`` of a system whose
    trajectory is compared with the Mittag-Leffler function.
    """

    name: str
    config: str
    n_c: int
    seed: int
    design: bool
    controller: str
    csv: str
    oracle: dict | None = None


def _rng(seed):
    return np.random.RandomState(seed % 2 ** 32)


def program_seed(seed):
    """The ``--seed`` value handed to folmi (its sampler takes < 2^32)."""
    return seed % 2 ** 31


def _write_json(path, data):
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _stable_matrix(rng, n, re_range, im_range):
    """Random real n x n matrix with spectrum in the given left-half box.

    Conjugate pairs and real eigenvalues are mixed; the eigenvector basis is
    an orthogonal matrix times a diagonal with condition number below 2.
    """
    d = np.zeros((n, n))
    k = 0
    while k < n:
        re = -rng.uniform(*re_range)
        if k + 1 < n and rng.uniform() < 0.5:
            im = rng.uniform(*im_range)
            d[k : k + 2, k : k + 2] = [[re, im], [-im, re]]
            k += 2
        else:
            d[k, k] = re
            k += 1
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = q @ np.diag(rng.uniform(0.7, 1.4, n))
    return s @ d @ np.linalg.inv(s)


def _open_loop_unstable(a0, alpha):
    eigs = np.linalg.eigvals(a0)
    return float(np.min(np.abs(np.angle(eigs)))) < alpha * np.pi / 2.0


def _destabilized(rng, a_cl, b0, c, alpha, gain):
    """``A0 = A_cl - B0 K C`` for the first random K that leaves A0 open-loop
    unstable in the alpha sense; K's scale grows by 10% per rejected draw,
    so the loop ends.  The static output gain K stabilizes A0 by
    construction."""
    while True:
        k = gain * rng.normal(size=(b0.shape[1], c.shape[0]))
        a0 = a_cl - b0 @ k @ c
        if _open_loop_unstable(a0, alpha):
            return a0
        gain *= 1.1


def large_plant_problem(rng, alpha):
    """Problem file for one n=6, l=2, m=2 plant with all 48 entries uncertain.

    The midpoint admits a stabilizing static gain with margin and the radii
    are small, so the synthesis LMI is feasible at every order.
    """
    c = rng.normal(size=(LARGE_M, LARGE_N))
    c /= np.linalg.norm(c, axis=1)[:, None]
    a_cl = _stable_matrix(rng, LARGE_N, (1.0, 3.0), (0.0, 1.0))
    b0 = rng.normal(size=(LARGE_N, LARGE_L))
    b0 /= np.linalg.norm(b0, axis=0)
    a0 = _destabilized(rng, a_cl, b0, c, alpha, 3.0)
    da = LARGE_RADIUS * (1.0 + 0.5 * np.abs(a0))
    db = LARGE_RADIUS * (1.0 + 0.5 * np.abs(b0))
    return {
        "alpha": alpha,
        "a_lower": (a0 - da).tolist(),
        "a_upper": (a0 + da).tolist(),
        "b_lower": (b0 - db).tolist(),
        "b_upper": (b0 + db).tolist(),
        "c": c.tolist(),
        "n_c": 0,
        "simulate": {"x0": [1.0] * LARGE_N, "t_end": 10.0, "h": 0.01},
    }


def long_sim_problem(rng, n, alpha):
    """Certain plant with an invertible square output matrix.

    With ``C`` invertible the static controller recovered from the synthesis
    LMI is exact, so the designed closed loop has its spectrum inside the
    alpha-sector and stays bounded over the long horizon.

    The plant is a fixed one per (n, alpha), drawn from
    ``LONG_SIM_FAMILY_SEED``, seen in state coordinates rotated by a random
    orthogonal Q from ``rng``, with a random x0.  A rotation leaves the
    synthesis and certification work unchanged, so the seed changes the
    trajectories but not the cost of the short design commands that this
    workload runs besides the simulations.
    """
    base = _rng(LONG_SIM_FAMILY_SEED + n)
    q, _ = np.linalg.qr(base.normal(size=(n, n)))
    c = q @ np.diag(base.uniform(0.7, 1.4, n))
    a_cl = _stable_matrix(base, n, (0.5, 2.0), (0.2, 1.0))
    b0 = base.normal(size=(n, LONG_SIM_L))
    b0 /= np.linalg.norm(b0, axis=0)
    a0 = _destabilized(base, a_cl, b0, c, alpha, 1.0)
    rot, _ = np.linalg.qr(rng.normal(size=(n, n)))
    x0 = rng.uniform(-1.0, 1.0, n)
    return {
        "alpha": alpha,
        "a_lower": (rot @ a0 @ rot.T).tolist(),
        "a_upper": (rot @ a0 @ rot.T).tolist(),
        "b_lower": (rot @ b0).tolist(),
        "b_upper": (rot @ b0).tolist(),
        "c": (c @ rot.T).tolist(),
        "n_c": 0,
        "simulate": {
            "x0": (x0 / np.linalg.norm(x0)).tolist(),
            "t_end": LONG_SIM_STEPS * LONG_SIM_H,
            "h": LONG_SIM_H,
        },
    }


def oracle_problem(rng):
    """Diagonal certain plant simulated under a zero static controller."""
    alpha = float(rng.uniform(0.7, 1.6))
    lambdas = sorted(float(-rng.uniform(0.1, 2.0)) for _ in range(ORACLE_N))
    eye = np.eye(ORACLE_N).tolist()
    problem = {
        "alpha": alpha,
        "a_lower": np.diag(lambdas).tolist(),
        "a_upper": np.diag(lambdas).tolist(),
        "b_lower": [[0.0]] * ORACLE_N,
        "b_upper": [[0.0]] * ORACLE_N,
        "c": eye,
        "n_c": 0,
        "simulate": {
            "x0": [1.0] * ORACLE_N,
            "t_end": ORACLE_STEPS * ORACLE_H,
            "h": ORACLE_H,
        },
    }
    controller = {"n_c": 0, "a_c": [], "b_c": [], "c_c": [],
                  "d_c": [[0.0] * ORACLE_N]}
    return problem, controller, {"alpha": alpha, "lambdas": lambdas}


def make_jobs(workload, seed, workdir):
    """Write the workload's inputs for ``seed`` under ``workdir``; return jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = _rng(seed)
    pseed = program_seed(seed)
    jobs = []

    def design(name, config, n_c):
        jobs.append(Job(name, config, n_c, pseed, True,
                        os.path.join(workdir, f"{name}.controller.json"),
                        os.path.join(workdir, f"{name}.csv")))

    if workload == "fixtures":
        for fixture in FIXTURES:
            for n_c in FIXTURE_ORDERS:
                design(f"{fixture}-nc{n_c}", fixture, n_c)
    elif workload == "large-plant":
        for alpha in LARGE_ALPHAS:
            for p in range(LARGE_PLANTS_PER_ALPHA):
                path = os.path.join(workdir, f"plant-a{alpha}-{p}.json")
                _write_json(path, large_plant_problem(rng, alpha))
                n_c = LARGE_ORDERS[p % len(LARGE_ORDERS)]
                design(f"plant-a{alpha}-{p}-nc{n_c}", path, n_c)
    elif workload == "long-sim":
        for n, alpha in LONG_SIM_SYSTEMS:
            path = os.path.join(workdir, f"loop-n{n}-a{alpha}.json")
            _write_json(path, long_sim_problem(rng, n, alpha))
            design(f"loop-n{n}-a{alpha}", path, 0)
        problem, controller, oracle = oracle_problem(rng)
        path = os.path.join(workdir, "oracle.json")
        ctrl = os.path.join(workdir, "oracle.controller.json")
        _write_json(path, problem)
        _write_json(ctrl, controller)
        jobs.append(Job("oracle", path, 0, pseed, False, ctrl,
                        os.path.join(workdir, "oracle.csv"), oracle))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
