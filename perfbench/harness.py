"""The closed loop: one caller runs each job's commands back to back.

A command is what one ``folmi`` invocation does in-process: parse the
problem file (``cli.parse_config``), apply the ``--nc`` / ``--seed`` values,
load the controller file where the command takes one, and run
``cli.cmd_synth``, ``cli.cmd_check`` or ``cli.cmd_simulate``.  Each command
is timed from before the parse to the return of ``cmd_*``; checking its
answer happens afterwards, outside the timed region.  The machine's speed
is gauged with :class:`reference.Reference` before every job and after the
last one, also outside the timed region, and the round's times are scaled
by the median gauge.

The first round verifies every answer with :mod:`checks`.  Every round
builds an exact-count record per job; a record that differs from the first
round's is a failure, so later rounds are held to the verified answers.
"""

import json
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from folmi import cli, fosim, lmi

from . import checks
from .reference import NOMINAL_S

# Documented outcomes of a command; anything else is a failure.
EXPECTED_CODES = {"synth": (0, 2, 3), "check": (0, 3), "simulate": (0,)}


def _round9(x):
    return round(float(x), 9)


def _sig9(x):
    return float(f"{float(x):.9g}")


@dataclass
class Round:
    """What one pass over the jobs produced."""

    traced: bool
    times: dict = field(default_factory=dict)  # job -> command -> seconds
    # NOMINAL_S over the round's median gauge; a command's seconds times
    # this read as at the nominal speed
    factor: float = 1.0
    steps: dict = field(default_factory=dict)  # job -> GL steps simulated
    records: dict = field(default_factory=dict)  # job -> command -> record
    failures: list = field(default_factory=list)
    failed: set = field(default_factory=set)  # (job, command) that failed
    attempted: int = 0
    oracle_error: float | None = None
    spans: list | None = None

    @property
    def wall(self):
        return sum(sum(t.values()) for t in self.times.values())

    def fail(self, job, command, message):
        self.failed.add((job.name, command))
        self.failures.append(f"{job.name} {command}: {message}")


class Runner:
    """Runs rounds of ``jobs`` through ``folmi.cli``."""

    def __init__(self, jobs, instruments, gauge):
        self.jobs = jobs
        self.instruments = instruments
        self.gauge = gauge  # a reference.Reference
        self.reference = None

    def run_round(self, traced):
        """One pass over every job; the first pass is also verified."""
        verify = self.reference is None
        rnd = Round(traced)
        inst = self.instruments
        inst.spans = []
        gauges = [self.gauge.seconds()]
        inst.install(traced)
        try:
            for index, job in enumerate(self.jobs):
                inst.job = index
                rnd.times[job.name] = {}
                rnd.records[job.name] = {}
                self._run_job(rnd, job, verify)
                gauges.append(self.gauge.seconds())
        finally:
            inst.uninstall()
        rnd.factor = NOMINAL_S / statistics.median(gauges)
        if traced:
            rnd.spans = inst.spans
        inst.spans = []
        if verify:
            self.reference = rnd.records
        else:
            for job in self.jobs:
                for command, record in rnd.records[job.name].items():
                    if record != self.reference[job.name].get(command):
                        rnd.fail(job, command, "answer differs from the first "
                                 f"round: {json.dumps(record, sort_keys=True)}")
        return rnd

    def _configure(self, job):
        """``cli.parse_config`` plus what ``--nc`` and ``--seed`` set."""
        config = cli.parse_config(job.config)
        config.n_c = job.n_c
        config.solver["seed"] = job.seed
        config.certify["seed"] = job.seed
        return config

    def _command(self, rnd, job, command, call):
        """Time one command; returns its report, or None when it failed."""
        rnd.attempted += 1
        self.instruments.solves.clear()
        start = perf_counter()
        try:
            report, code = call()
        except Exception:  # a benchmark boundary: record and keep going
            rnd.fail(job, command, "raised\n" + traceback.format_exc())
            return None
        rnd.times[job.name][command] = perf_counter() - start
        if code not in EXPECTED_CODES[command]:
            rnd.fail(job, command, f"exit code {code}: {report.get('detail', '')}")
            return None
        return report

    def _solve_record(self):
        return [
            [kind, sol.iterations, sol.status.name]
            for kind, _, _, sol in self.instruments.solves
        ]

    def _audit(self, rnd, job, command):
        for problem in checks.audit_solves(
            self.instruments.solves,
            lmi.evaluate_constraint,
            lmi.SolverConfig(),
        ):
            rnd.fail(job, command, problem)

    def _run_job(self, rnd, job, verify):
        if job.design:
            report = self._command(
                rnd, job, "synth",
                lambda: cli.cmd_synth(self._configure(job), job.controller),
            )
            if report is None:
                return
            record = {"status": report["status"], "solves": self._solve_record()}
            rnd.records[job.name]["synth"] = record
            if report["status"] == "INFEASIBLE":
                return
            cert = report["certification"]
            record.update(self._cert_record(cert))
            if verify:
                self._audit(rnd, job, "synth")
                config = self._configure(job)
                with open(job.controller) as fh:
                    stored = json.load(fh)
                if stored != report["synthesis"]["controller"]:
                    rnd.fail(job, "synth", "controller file differs from the report")
                ctrl = checks.controller_arrays(stored)
                problems, _ = checks.check_certification(
                    config, ctrl, cert, config.certify_config()["sample_count"], job.seed
                )
                for problem in problems:
                    rnd.fail(job, "synth", problem)

            report = self._command(
                rnd, job, "check",
                lambda: cli.cmd_check(
                    self._configure(job), cli.load_controller(job.controller)
                ),
            )
            if report is None:
                return
            check = self._cert_record(report["certification"])
            check["solves"] = self._solve_record()
            rnd.records[job.name]["check"] = check
            if verify:
                self._audit(rnd, job, "check")
                if check["margin"] != record["margin"]:
                    rnd.fail(job, "check", "margin differs from the synth report")
                problems, _ = checks.check_certification(
                    config, ctrl, report["certification"],
                    config.certify_config()["sample_count"], job.seed,
                )
                for problem in problems:
                    rnd.fail(job, "check", problem)

        report = self._command(
            rnd, job, "simulate",
            lambda: cli.cmd_simulate(
                cli.parse_config(job.config), cli.load_controller(job.controller), job.csv
            ),
        )
        if report is None:
            return
        sim = report["simulation"]
        rnd.steps[job.name] = sim["steps"]
        rnd.records[job.name]["simulate"] = {
            "steps": sim["steps"],
            "final_norm_ratio": _sig9(sim["final_norm_ratio"]),
        }
        if verify:
            config = cli.parse_config(job.config)
            with open(job.controller) as fh:
                ctrl = checks.controller_arrays(json.load(fh))
            problems, rows = checks.check_trajectory(config, ctrl, report, job.csv)
            for problem in problems:
                rnd.fail(job, "simulate", problem)
            if job.oracle is not None and rows.size:
                err = checks.oracle_error(
                    rows, job.oracle["alpha"], job.oracle["lambdas"],
                    fosim.mittag_leffler,
                )
                rnd.oracle_error = err
                if not err <= checks.ORACLE_TOL:
                    rnd.fail(job, "simulate", f"GL vs Mittag-Leffler error {err:.3g}")

    @staticmethod
    def _cert_record(cert):
        worst = cert["worst_realization"]
        return {
            "passed": bool(cert["passed"]),
            "nominal": bool(cert["nominal_lmi_ok"]),
            "vertices": cert["vertex_count"],
            "samples": cert["sample_count"],
            "margin": _round9(cert["min_sector_margin"]),
            "worst": [_round9(v) for v in worst["f_a"] + worst["f_b"]],
        }
