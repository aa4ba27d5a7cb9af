import os

import numpy as np
import pytest

from perfbench import workloads
from perfbench.workloads import WORKLOADS, make_jobs


def _contents(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def _strip_dir(jobs, directory):
    return [
        (j.name, j.config.replace(str(directory), ""), j.n_c, j.seed, j.design,
         j.oracle)
        for j in jobs
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = make_jobs(workload, 7, str(tmp_path / "a"))
    b = make_jobs(workload, 7, str(tmp_path / "b"))
    assert _contents(tmp_path / "a") == _contents(tmp_path / "b")
    assert _strip_dir(a, tmp_path / "a") == _strip_dir(b, tmp_path / "b")


@pytest.mark.parametrize("workload", ["large-plant", "long-sim"])
def test_other_seed_gives_other_inputs(tmp_path, workload):
    make_jobs(workload, 7, str(tmp_path / "a"))
    make_jobs(workload, 8, str(tmp_path / "b"))
    assert _contents(tmp_path / "a") != _contents(tmp_path / "b")


def test_seed_reaches_the_program(tmp_path):
    jobs = make_jobs("fixtures", 2 ** 40 + 5, str(tmp_path))
    assert {j.seed for j in jobs} == {workloads.program_seed(2 ** 40 + 5)}
    assert workloads.program_seed(2 ** 40 + 5) < 2 ** 31
    assert [(j.config, j.n_c) for j in jobs] == [
        (f, n) for f in ("example1", "example2") for n in range(4)
    ]


def _sector_unstable(a, alpha):
    return np.min(np.abs(np.angle(np.linalg.eigvals(a)))) < alpha * np.pi / 2


def test_large_plants_are_fully_uncertain_and_open_loop_unstable():
    rng = workloads._rng(3)
    for alpha in workloads.LARGE_ALPHAS:
        p = workloads.large_plant_problem(rng, alpha)
        a_lo, a_hi = np.array(p["a_lower"]), np.array(p["a_upper"])
        b_lo, b_hi = np.array(p["b_lower"]), np.array(p["b_upper"])
        assert a_lo.shape == (6, 6) and b_lo.shape == (6, 2)
        assert np.array(p["c"]).shape == (2, 6)
        assert np.all(a_hi > a_lo) and np.all(b_hi > b_lo)  # 48 uncertain entries
        assert _sector_unstable(0.5 * (a_lo + a_hi), alpha)


def test_large_plant_covers_both_regimes_and_orders(tmp_path):
    jobs = make_jobs("large-plant", 1, str(tmp_path))
    for alpha in workloads.LARGE_ALPHAS:
        orders = {j.n_c for j in jobs if f"-a{alpha}-" in j.name}
        assert orders == set(workloads.LARGE_ORDERS)
    assert all(j.design for j in jobs)


def test_long_sim_loops_are_certain_with_invertible_output(tmp_path):
    jobs = make_jobs("long-sim", 1, str(tmp_path))
    import json

    for job in jobs:
        with open(job.config) as fh:
            p = json.load(fh)
        assert p["a_lower"] == p["a_upper"] and p["b_lower"] == p["b_upper"]
        c = np.array(p["c"])
        assert c.shape[0] == c.shape[1]
        assert np.linalg.cond(c) < 1e3
        steps = round(p["simulate"]["t_end"] / p["simulate"]["h"])
        assert steps >= 10000
    oracle = [j for j in jobs if j.oracle]
    assert len(oracle) == 1 and not oracle[0].design
    assert all(lam < 0 for lam in oracle[0].oracle["lambdas"])
