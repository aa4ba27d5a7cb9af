"""Batch command-line front end.

Subcommands: ``synth`` (design + certify + write controller), ``check``
(certify a given controller), ``simulate`` (closed-loop trajectory CSV),
``decompose`` (uncertainty factorization dump).  Problem definitions are
JSON files; the packaged fixtures ``example1`` and ``example2`` can be
referenced by name.  Reports are JSON and embed the full configuration so
a run can be reproduced from its report alone.  Exit code 0 means the
certification passed; documented nonzero codes cover the failure modes.
"""

import argparse
import json
import logging
import math
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .errors import FolmiError, InfeasibleError, ParseError, ValidationError
from .fosim import check_simulate_settings, simulate, trajectory_to_csv
from .interval import IntervalMatrix, UncertainFoltiSystem, decompose
from .lmi import SdpStatus, SolverConfig
from .stability import closed_loop
from .synthesis import (
    DynamicController,
    certify,
    check_order,
    check_sweep_settings,
    synthesize,
)

log = logging.getLogger("folmi")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CERTIFICATION_FAILED = 3
EXIT_SOLVER_ERROR = 4

_STATUS_EXIT = {"PASSED": EXIT_OK, "OK": EXIT_OK, "INFEASIBLE": EXIT_INFEASIBLE,
                "CERTIFICATION_FAILED": EXIT_CERTIFICATION_FAILED,
                "SOLVER_ERROR": EXIT_SOLVER_ERROR}

_FIXTURES = ("example1", "example2")


@dataclass
class ProblemConfig:
    """Validated problem definition plus solver/certify/simulate settings."""

    alpha: float
    a_lower: np.ndarray
    a_upper: np.ndarray
    b_lower: np.ndarray
    b_upper: np.ndarray
    c: np.ndarray
    n_c: int = 0
    solver: dict = field(default_factory=dict)
    certify: dict = field(default_factory=dict)
    simulate: dict | None = None
    raw: dict = field(default_factory=dict)
    _plant: UncertainFoltiSystem | None = field(default=None, init=False, repr=False)

    def system(self):
        """The plant, built and validated by the first call (parse_config's) and
        kept: later changes to alpha, the bounds or c do not reach it."""
        if self._plant is None:
            self._plant = UncertainFoltiSystem(
                self.alpha, IntervalMatrix(self.a_lower, self.a_upper, "a"),
                IntervalMatrix(self.b_lower, self.b_upper, "b"), self.c)
        return self._plant

    def solver_config(self):
        values = _block(self.solver, "solver", {"eps_margin": float, "tol": float,
                                                "max_iter": int, "seed": int})
        # seed and tol are documented but unused: the solver draws no
        # randomness, and its gap exit is set by eps_margin
        return SolverConfig(**{k: v for k, v in values.items()
                               if k not in ("seed", "tol")})

    def certify_config(self):
        values = {"sample_count": 500, "seed": 0, **_block(
            self.certify, "certify", {"sample_count": int, "seed": int})}
        check_sweep_settings(values["sample_count"], values["seed"], "certify.")
        return values

    def as_run(self):
        """``raw`` with the n_c, solver and certify settings the run used."""
        return {**self.raw, "n_c": self.n_c, "solver": self.solver,
                "certify": self.certify}


def _scalar(value, kind, name):
    """``value`` as ``kind`` (float or int) if it is a non-boolean JSON number,
    integral for int and within the float range for float; ParseError naming
    the field otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float:
            try:
                return float(value)
            except OverflowError:
                pass
        elif isinstance(value, int) or value.is_integer():
            return int(value)
    what = "a number" if kind is float else "an integer"
    raise ParseError(f"field '{name}' must be {what}, got {value!r}")


def _block(block, name, kinds):
    """The fields of a settings block, each read by :func:`_scalar` as its
    entry of ``kinds``; ValidationError for a field not in ``kinds``."""
    unknown = set(block) - set(kinds)
    if unknown:
        raise ValidationError(f"unknown {name} fields: {sorted(unknown)}")
    return {k: _scalar(v, kinds[k], f"{name}.{k}") for k, v in block.items()}


def _object(data, key, default):
    """``data[key]`` if it is a JSON object, ``default`` if it is absent."""
    value = data.get(key, default)
    if value is not default and not isinstance(value, dict):
        raise ParseError(f"field '{key}' must be an object, got {value!r}")
    return value


def _numbers(value, name):
    """Nested JSON lists with every entry read by :func:`_scalar` as a float;
    a list of floats alone, which that reading leaves equal, is returned as is."""
    if isinstance(value, list):
        if all(type(v) is float for v in value):
            return value
        return [_numbers(v, name) for v in value]
    return _scalar(value, float, name)


def _matrix_field(data, key, path):
    if key not in data:
        raise ParseError(f"{path}: missing field '{key}'")
    entries = _numbers(data[key], key)
    try:
        return np.atleast_2d(np.asarray(entries, dtype=float))
    except ValueError as exc:
        raise ParseError(f"{path}: field '{key}' is not a numeric matrix") from exc


def _config_source(path):
    """The file at ``path``, else the packaged fixture of that name."""
    if os.path.exists(path):
        return pathlib.Path(path)
    if path in _FIXTURES:
        return resources.files("folmi").joinpath(f"fixtures/{path}.json")
    raise ParseError(f"config file not found: {path}")


def _parse_int(literal):
    """A JSON integer; one past Python's int-string conversion limit is
    refused as too long instead of with the interpreter's own advice."""
    try:
        return int(literal)
    except ValueError:
        digits = len(literal.lstrip("-"))
        raise ValueError(
            f"an integer literal in the file is too long ({digits} digits)"
        ) from None


def _load_json(source, path):
    """The JSON document in ``source`` (a path or a packaged resource).  A
    file that cannot be read, bad JSON (named by its line), an over-long
    integer literal and any other ValueError raise ParseError."""
    try:
        with source.open() as fh:
            return json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_config(path):
    """Load and validate a problem definition file.

    ``path`` may also name a packaged fixture (``example1``/``example2``).
    Parse failures report the offending line or field; validation failures
    name the violated invariant.
    """
    data = _load_json(_config_source(str(path)), path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "alpha" not in data:
        raise ParseError(f"{path}: missing field 'alpha'")
    cfg = ProblemConfig(
        alpha=_scalar(data["alpha"], float, "alpha"),
        a_lower=_matrix_field(data, "a_lower", path),
        a_upper=_matrix_field(data, "a_upper", path),
        b_lower=_matrix_field(data, "b_lower", path),
        b_upper=_matrix_field(data, "b_upper", path),
        c=_matrix_field(data, "c", path),
        n_c=_scalar(data.get("n_c", 0), int, "n_c"),
        solver=dict(_object(data, "solver", {})),
        certify=dict(_object(data, "certify", {})),
        simulate=_object(data, "simulate", None),
        raw=data,
    )
    check_order(cfg.n_c)
    if cfg.simulate is not None:
        sim = cfg.simulate
        for key in ("x0", "t_end", "h"):
            if key not in sim:
                raise ValidationError(f"simulate block missing '{key}'")
        check_simulate_settings(
            _matrix_field(sim, "x0", f"{path}: simulate"),  # numeric, or ParseError
            _scalar(sim["t_end"], float, "simulate.t_end"),
            _scalar(sim["h"], float, "simulate.h"))
    cfg.system()  # checks alpha, the interval bounds and the shapes
    cfg.solver_config()
    cfg.certify_config()
    return cfg


def load_controller(path):
    """Read a controller file; its fields are read as in a problem file."""
    data = _load_json(pathlib.Path(path), path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "n_c" not in data:
        raise ParseError(f"{path}: missing field 'n_c'")
    return DynamicController(
        _scalar(data["n_c"], int, "n_c"),
        *(_matrix_field(data, k, path) for k in ("a_c", "b_c", "c_c", "d_c")),
    )


def save_controller(controller, path):
    _write_report(controller.to_dict(), path)


def _certification_dict(report):
    worst = report.worst_realization
    return {**{k: getattr(report, k) for k in (
                "vertex_count", "sample_count", "min_sector_margin", "nominal_route",
                "passed", "vertices_exhaustive")},
            "nominal_lmi_ok": report.nominal_status is SdpStatus.FEASIBLE,
            "nominal_status": report.nominal_status.value,
            "worst_realization": {"f_a": worst.f_a.tolist(), "f_b": worst.f_b.tolist()}}


def _write_report(report, path):
    if path:
        with open(path, "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _finish(command, config, status, t_start, report_path, **fields):
    """The report of a ``synth``, ``check`` or ``simulate`` run and its exit
    code: ``command``, ``config``, ``status``, ``fields`` and
    ``timings.total_s`` since ``t_start``, written to ``report_path`` if
    given."""
    report = {"command": command, "config": config, "status": status, **fields,
              "timings": {"total_s": time.perf_counter() - t_start}}
    _write_report(report, report_path)
    return report, _STATUS_EXIT[status]


def _verdict(cert):
    return "PASSED" if cert.passed else "CERTIFICATION_FAILED"


def cmd_synth(config, out_path=None, report_path=None):
    """Run synthesis + certification; returns (report dict, exit code)."""
    sys_ = config.system()
    log.info("synth: n=%d l=%d m=%d alpha=%g n_c=%d", sys_.n, sys_.l, sys_.m,
             sys_.alpha, config.n_c)
    solver_cfg, certify_kw = config.solver_config(), config.certify_config()
    check_order(config.n_c)  # --nc is applied after parse_config
    t_start = time.perf_counter()
    try:
        result, cert = synthesize(sys_, config.n_c, solver_cfg, **certify_kw)
    except ValidationError:
        raise  # an input error, which main maps to EXIT_USAGE
    except InfeasibleError as exc:
        return _finish("synth", config.as_run(), "INFEASIBLE", t_start, report_path,
                       detail=str(exc), solver_status=exc.status.name)
    except FolmiError as exc:
        return _finish("synth", config.as_run(), "SOLVER_ERROR", t_start, report_path,
                       detail=str(exc))

    log.debug("synth: solver %s, min margin %g over %d vertices + %d samples",
              result.solution.status.name, cert.min_sector_margin,
              cert.vertex_count, cert.sample_count)
    if out_path:
        save_controller(result.controller, out_path)
    return _finish("synth", config.as_run(), _verdict(cert), t_start, report_path,
                   synthesis={
                       "controller": result.controller.to_dict(),
                       "eta": result.eta,
                       "solver_status": result.solution.status.name,
                       "solver_iterations": result.solution.iterations,
                       "achieved_margin": result.solution.achieved_margin,
                       "schur_dim": result.schur_dim,
                   },
                   certification=_certification_dict(cert))


def cmd_check(config, controller, report_path=None):
    """Certify a given controller against the configured plant family."""
    sys_ = config.system()
    log.info("check: controller order %d against alpha=%g family",
             controller.n_c, sys_.alpha)
    t_start = time.perf_counter()
    cert = certify(sys_, controller, solver_cfg=config.solver_config(),
                   **config.certify_config())
    return _finish("check", config.as_run(), _verdict(cert), t_start, report_path,
                   controller=controller.to_dict(),
                   certification=_certification_dict(cert))


def cmd_simulate(config, controller, csv_path, report_path=None):
    """Simulate the center closed loop and write the trajectory CSV."""
    t_start = time.perf_counter()
    sim = config.simulate
    if sim is None:
        raise ValidationError("config has no simulate block")
    sys_ = config.system()
    factors = decompose(sys_)
    a_cl = closed_loop(factors.a0, factors.b0, sys_.c, controller)
    dim = a_cl.shape[0]
    x0 = np.asarray(sim["x0"], float).reshape(-1)
    if x0.size == sys_.n and controller.n_c > 0:
        x0 = np.concatenate([x0, np.zeros(controller.n_c)])
    if x0.size != dim:
        raise ValidationError(f"x0 has length {x0.size}, closed loop needs {dim} "
                              f"(or {sys_.n})")
    traj = simulate(a_cl, sys_.alpha, x0, float(sim["t_end"]), float(sim["h"]))
    trajectory_to_csv(traj, csv_path)
    ratio = traj.final_norm_ratio  # inf from x0 = 0: null, as JSON has no inf
    return _finish("simulate", config.raw, "OK", t_start, report_path,
                   controller=controller.to_dict(),
                   simulation={
                       "csv": str(csv_path),
                       "steps": int(traj.times.size - 1),
                       "final_norm_ratio": ratio if math.isfinite(ratio) else None,
                   })


def cmd_decompose(config, out_path=None):
    """Write the midpoint/radius factorization of the configured plant."""
    factors = decompose(config.system())
    payload = {f.name: getattr(factors, f.name).tolist() for f in fields(factors)}
    report = {"command": "decompose", "config": config.raw, "factors": payload}
    _write_report(report, out_path)
    return report, EXIT_OK


def _apply_overrides(config, args):
    if getattr(args, "nc", None) is not None:
        config.n_c = args.nc
    if getattr(args, "seed", None) is not None:
        config.solver["seed"] = args.seed
        config.certify["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        config.certify["sample_count"] = args.samples
    return config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="folmi",
        description="Robust output-feedback synthesis for fractional-order "
        "interval systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="design and certify a controller")
    synth.add_argument("config", help="problem JSON file or fixture name")
    synth.add_argument("--nc", type=int, default=None, help="controller order")
    synth.add_argument("--out", default=None, help="controller output file")
    synth.add_argument("--report", default=None, help="report JSON output file")
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--samples", type=int, default=None)

    check = sub.add_parser("check", help="certify an existing controller")
    check.add_argument("config")
    check.add_argument("controller")
    check.add_argument("--report", default=None)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--samples", type=int, default=None)

    simp = sub.add_parser("simulate", help="simulate the center closed loop")
    simp.add_argument("config")
    simp.add_argument("controller")
    simp.add_argument("--out", default="trajectory.csv", help="CSV output path")
    simp.add_argument("--report", default=None)

    dec = sub.add_parser("decompose", help="dump the uncertainty factorization")
    dec.add_argument("config")
    dec.add_argument("--out", default=None)
    return parser


def main(argv=None):
    level = os.environ.get("FOLMI_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print("error: FOLMI_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, "
              f"got {level!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = _apply_overrides(parse_config(args.config), args)
        if args.command == "synth":
            report, code = cmd_synth(config, args.out, args.report)
        elif args.command == "check":
            report, code = cmd_check(config, load_controller(args.controller), args.report)
        elif args.command == "simulate":
            report, code = cmd_simulate(
                config, load_controller(args.controller), args.out, args.report
            )
        else:
            report, code = cmd_decompose(config, args.out)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FolmiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR

    summary = {k: v for k, v in report.items() if k in ("command", "status")}
    if "certification" in report:
        summary.update({k: report["certification"][k] for k in (
            "min_sector_margin", "vertex_count", "sample_count")})
    if "simulation" in report:
        summary["final_norm_ratio"] = report["simulation"]["final_norm_ratio"]
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
