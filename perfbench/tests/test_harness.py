import json
import os

import numpy as np
import pytest

from folmi import cli, fosim, lmi
from folmi.fosim import simulate
from perfbench import checks, run, tracer
from perfbench.harness import Round, Runner
from perfbench.reference import Reference
from perfbench.workloads import make_jobs


@pytest.fixture(scope="module")
def fixture_round(tmp_path_factory):
    """One verified untraced round and one traced round of example1 at n_c=1."""
    jobs = [j for j in make_jobs("fixtures", 4, str(tmp_path_factory.mktemp("w")))
            if j.name == "example1-nc1"]
    runner = Runner(jobs, tracer.Instruments(), Reference())
    return jobs[0], runner.run_round(traced=False), runner.run_round(traced=True)


def test_traced_and_untraced_rounds_give_identical_digests(fixture_round):
    _, untraced, traced = fixture_round
    assert untraced.failures == [] and traced.failures == []
    assert untraced.records == traced.records
    assert run.digest(untraced.records) == run.digest(traced.records)
    assert untraced.spans is None and traced.spans
    record = untraced.records["example1-nc1"]
    assert record["synth"]["passed"] and record["synth"]["vertices"] == 2048
    assert record["synth"]["solves"][0][0] == "synth"
    assert set(untraced.times["example1-nc1"]) == {"synth", "check", "simulate"}
    assert untraced.factor > 0 and traced.factor > 0


def test_traced_spans_cover_the_commands(fixture_round):
    _, _, traced = fixture_round
    m = tracer.layer_metrics(traced.spans, traced.wall)
    assert m["trace.span_coverage"] > 0.9
    assert m["synthesis.attempts"] == 1 and m["synthesis.retry_ratio"] == 0.0
    assert m["interval.vertices"] == 2 * 2048  # synth's certify and check's
    assert m["fosim.steps"] == 1000


def test_gate_rejects_a_wrong_margin_or_verdict(fixture_round):
    job, _, _ = fixture_round
    config = cli.parse_config(job.config)
    with open(job.controller) as fh:
        ctrl = checks.controller_arrays(json.load(fh))
    report, _ = cli.cmd_check(config, cli.load_controller(job.controller))
    cert = report["certification"]
    ok, mine = checks.check_certification(config, ctrl, cert, 500, 0)
    assert ok == [] and abs(mine - cert["min_sector_margin"]) <= 1e-9
    shifted = dict(cert, min_sector_margin=cert["min_sector_margin"] + 1e-6)
    assert checks.check_certification(config, ctrl, shifted, 500, 0)[0]
    flipped = dict(cert, passed=not cert["passed"])
    assert checks.check_certification(config, ctrl, flipped, 500, 0)[0]


def test_gate_rejects_a_feasible_point_that_violates_a_constraint():
    p = lmi.LmiProblem()
    x = p.declare_scalar("x")
    p.add_constraint(x.expr() - 1.0, lmi.Sense.POSITIVE_DEFINITE)
    good = lmi.SdpSolution(lmi.SdpStatus.FEASIBLE, np.array([2.0]), 1.0, 3, -1.0)
    bad = lmi.SdpSolution(lmi.SdpStatus.FEASIBLE, np.array([0.5]), -0.5, 3, -1.0)
    cfg = lmi.SolverConfig()
    assert checks.audit_solves([("synth", p, cfg, good)], lmi.evaluate_constraint, cfg) == []
    assert checks.audit_solves([("synth", p, cfg, bad)], lmi.evaluate_constraint, cfg)


def test_gl_prefix_matches_the_simulator():
    a = np.array([[-0.5, 0.3], [-0.2, -1.0]])
    x0 = np.array([1.0, -0.5])
    traj = simulate(a, 0.8, x0, 0.3, 0.01)
    np.testing.assert_allclose(checks.gl_prefix(a, 0.8, x0, 0.01, 30), traj.states,
                               rtol=1e-12, atol=1e-14)


def test_gate_rejects_a_tampered_trajectory(fixture_round, tmp_path):
    job, _, _ = fixture_round
    config = cli.parse_config(job.config)
    with open(job.controller) as fh:
        ctrl = checks.controller_arrays(json.load(fh))
    report, _ = cli.cmd_simulate(config, cli.load_controller(job.controller), job.csv)
    assert checks.check_trajectory(config, ctrl, report, job.csv)[0] == []
    with open(job.csv) as fh:
        lines = fh.read().splitlines()
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    lines[5] = ",".join(fields)
    tampered = os.path.join(tmp_path, "t.csv")
    with open(tampered, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.check_trajectory(config, ctrl, report, tampered)[0]


def test_oracle_error_is_small_for_a_diagonal_system():
    lambdas = [-1.0, -0.3]
    traj = simulate(np.diag(lambdas), 1.2, np.ones(2), 5.0, 1e-3)
    rows = np.column_stack([traj.times, traj.states])
    err = checks.oracle_error(rows, 1.2, lambdas, fosim.mittag_leffler)
    assert 0.0 < err < checks.ORACLE_TOL


def test_digest_change_between_runs_of_the_same_code_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert run.compare_digest("fixtures", 1, "d1", "code1") == []
    assert run.compare_digest("fixtures", 1, "d1", "code1") == []
    assert run.compare_digest("fixtures", 1, "d2", "code1")
    # other code may give other answers; its digest becomes the reference
    assert run.compare_digest("fixtures", 1, "d2", "code2") == []
    assert run.compare_digest("fixtures", 1, "d2", "code2") == []


def test_command_seconds_are_scaled_by_the_speed_factor():
    slow = Round(False, times={"a": {"synth": 2.0}}, factor=0.5)
    fast = Round(False, times={"a": {"synth": 1.2}}, factor=1.0)
    assert run.median_per_job([slow, fast], "synth") == {"a": pytest.approx(1.1)}
    assert run.throughput([slow, fast], "synth", lambda name: 1) == pytest.approx(1 / 1.1)
