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
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    FolmiError,
    InfeasibleError,
    ParseError,
    ShapeMismatchError,
    ValidationError,
)
from .fosim import simulate, trajectory_to_csv
from .interval import IntervalMatrix, UncertainFoltiSystem, decompose
from .lmi import SolverConfig
from .stability import closed_loop
from .synthesis import (
    DynamicController,
    certify,
    check_sweep_settings,
    synthesize,
)

log = logging.getLogger("folmi")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CERTIFICATION_FAILED = 3
EXIT_SOLVER_ERROR = 4

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

    def system(self):
        try:
            return UncertainFoltiSystem(
                self.alpha,
                IntervalMatrix(self.a_lower, self.a_upper),
                IntervalMatrix(self.b_lower, self.b_upper),
                self.c,
            )
        except (ValueError, FolmiError) as exc:
            raise ValidationError(str(exc)) from exc

    def solver_config(self):
        kinds = {"eps_margin": float, "tol": float, "max_iter": int, "seed": int}
        unknown = set(self.solver) - set(kinds)
        if unknown:
            raise ValidationError(f"unknown solver fields: {sorted(unknown)}")
        values = {k: _scalar(v, kinds[k], f"solver.{k}")
                  for k, v in self.solver.items()}
        values.pop("seed", None)  # documented schema; the solver draws no randomness
        return SolverConfig(**values)

    def certify_config(self):
        allowed = {"sample_count", "seed"}
        unknown = set(self.certify) - allowed
        if unknown:
            raise ValidationError(f"unknown certify fields: {sorted(unknown)}")
        count = _scalar(self.certify.get("sample_count", 500), int,
                        "certify.sample_count")
        seed = _scalar(self.certify.get("seed", 0), int, "certify.seed")
        check_sweep_settings(count, seed, "certify.")
        return {"sample_count": count, "seed": seed}


def _scalar(value, kind, name):
    """``kind(value)`` for ``kind`` float or int; ParseError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        what = "a number" if kind is float else "an integer"
        raise ParseError(f"field '{name}' must be {what}, got {value!r}") from exc


def _object(data, key, default):
    """``data[key]`` if it is a JSON object, ``default`` if it is absent."""
    value = data.get(key, default)
    if value is not default and not isinstance(value, dict):
        raise ParseError(f"field '{key}' must be an object, got {value!r}")
    return value


def _matrix_field(data, key, path):
    if key not in data:
        raise ParseError(f"{path}: missing field '{key}'")
    try:
        return np.atleast_2d(np.asarray(data[key], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: field '{key}' is not a numeric matrix") from exc


def _resolve_config_path(path):
    if os.path.exists(path):
        return path, None
    if path in _FIXTURES:
        ref = resources.files("folmi").joinpath(f"fixtures/{path}.json")
        return None, ref
    raise ParseError(f"config file not found: {path}")


def parse_config(path):
    """Load and validate a problem definition file.

    ``path`` may also name a packaged fixture (``example1``/``example2``).
    Parse failures report the offending line or field; validation failures
    name the violated invariant.
    """
    fs_path, ref = _resolve_config_path(str(path))
    try:
        if fs_path is not None:
            with open(fs_path) as fh:
                data = json.load(fh)
        else:
            data = json.loads(ref.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc

    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "alpha" not in data:
        raise ParseError(f"{path}: missing field 'alpha'")
    alpha = _scalar(data["alpha"], float, "alpha")
    cfg = ProblemConfig(
        alpha=alpha,
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
    if not 0.0 < alpha < 2.0:
        raise ValidationError(f"alpha must lie in (0, 2), got {alpha}")
    if cfg.n_c < 0:
        raise ValidationError(f"n_c must be >= 0, got {cfg.n_c}")
    if np.any(cfg.a_lower > cfg.a_upper) or np.any(cfg.b_lower > cfg.b_upper):
        raise ValidationError("interval bound: lower exceeds upper")
    if cfg.simulate is not None:
        sim = cfg.simulate
        for key in ("x0", "t_end", "h"):
            if key not in sim:
                raise ValidationError(f"simulate block missing '{key}'")
        _matrix_field(sim, "x0", f"{path}: simulate")  # numeric, or ParseError
        h = _scalar(sim["h"], float, "simulate.h")
        if h <= 0:
            raise ValidationError("simulate step h must be positive")
        if _scalar(sim["t_end"], float, "simulate.t_end") < h:
            raise ValidationError("simulate t_end must cover at least one step")
    cfg.system()  # runs the remaining shape checks
    cfg.solver_config()
    cfg.certify_config()
    return cfg


def load_controller(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
        return DynamicController.from_dict(data)
    except FileNotFoundError as exc:
        raise ParseError(f"controller file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad controller file: {exc}") from exc


def save_controller(controller, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(controller.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _certification_dict(report):
    return {
        "vertex_count": report.vertex_count,
        "sample_count": report.sample_count,
        "min_sector_margin": report.min_sector_margin,
        "nominal_lmi_ok": report.nominal_lmi_ok,
        "nominal_route": report.nominal_route,
        "nominal_status": report.nominal_status.value,
        "passed": report.passed,
        "vertices_exhaustive": report.vertices_exhaustive,
        "worst_realization": {
            "f_a": report.worst_realization.f_a.tolist(),
            "f_b": report.worst_realization.f_b.tolist(),
        },
    }


def _write_report(report, path):
    if path:
        with open(path, "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _simulate_closed_loop(config, controller):
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
        raise ValidationError(
            f"x0 has length {x0.size}, closed loop needs {dim} (or {sys_.n})"
        )
    return simulate(a_cl, sys_.alpha, x0, float(sim["t_end"]), float(sim["h"]))


def cmd_synth(config, out_path=None, report_path=None):
    """Run synthesis + certification; returns (report dict, exit code)."""
    sys_ = config.system()
    log.info("synth: n=%d l=%d m=%d alpha=%g n_c=%d", sys_.n, sys_.l, sys_.m,
             sys_.alpha, config.n_c)
    solver_cfg, certify_kw = config.solver_config(), config.certify_config()
    t_start = time.perf_counter()
    try:
        result, cert = synthesize(sys_, config.n_c, solver_cfg, **certify_kw)
    except FolmiError as exc:
        infeasible = isinstance(exc, InfeasibleError)
        report = {
            "command": "synth",
            "config": config.raw,
            "status": "INFEASIBLE" if infeasible else "SOLVER_ERROR",
            "detail": str(exc),
            "timings": {"total_s": time.perf_counter() - t_start},
        }
        _write_report(report, report_path)
        return report, EXIT_INFEASIBLE if infeasible else EXIT_SOLVER_ERROR

    log.debug("synth: solver %s, min margin %g over %d vertices + %d samples",
              result.solver_status.name, cert.min_sector_margin,
              cert.vertex_count, cert.sample_count)
    status = "PASSED" if cert.passed else "CERTIFICATION_FAILED"
    report = {
        "command": "synth",
        "config": config.raw,
        "status": status,
        "synthesis": {
            "controller": result.controller.to_dict(),
            "eta": result.eta,
            "solver_status": result.solver_status.name,
            "solver_iterations": result.solver_iterations,
            "achieved_margin": result.achieved_margin,
            "schur_dim": result.schur_dim,
        },
        "certification": _certification_dict(cert),
        "timings": {"total_s": time.perf_counter() - t_start},
    }
    if out_path:
        save_controller(result.controller, out_path)
    _write_report(report, report_path)
    return report, EXIT_OK if cert.passed else EXIT_CERTIFICATION_FAILED


def cmd_check(config, controller, report_path=None):
    """Certify a given controller against the configured plant family."""
    sys_ = config.system()
    if controller.d_c.shape != (sys_.l, sys_.m):
        raise ShapeMismatchError(
            f"controller Dc is {controller.d_c.shape}, plant needs ({sys_.l},{sys_.m})"
        )
    log.info("check: controller order %d against alpha=%g family",
             controller.n_c, sys_.alpha)
    t_start = time.perf_counter()
    cert = certify(
        sys_, controller, solver_cfg=config.solver_config(), **config.certify_config()
    )
    report = {
        "command": "check",
        "config": config.raw,
        "status": "PASSED" if cert.passed else "CERTIFICATION_FAILED",
        "controller": controller.to_dict(),
        "certification": _certification_dict(cert),
        "timings": {"total_s": time.perf_counter() - t_start},
    }
    _write_report(report, report_path)
    return report, EXIT_OK if cert.passed else EXIT_CERTIFICATION_FAILED


def cmd_simulate(config, controller, csv_path, report_path=None):
    """Simulate the center closed loop and write the trajectory CSV."""
    t_start = time.perf_counter()
    traj = _simulate_closed_loop(config, controller)
    trajectory_to_csv(traj, csv_path)
    ratio = traj.final_norm_ratio
    report = {
        "command": "simulate",
        "config": config.raw,
        "status": "OK",
        "controller": controller.to_dict(),
        "simulation": {
            "csv": str(csv_path),
            "steps": int(traj.times.size - 1),
            "final_norm_ratio": ratio,
        },
        "timings": {"total_s": time.perf_counter() - t_start},
    }
    _write_report(report, report_path)
    return report, EXIT_OK


def cmd_decompose(config, out_path=None):
    """Write the midpoint/radius factorization of the configured plant."""
    factors = decompose(config.system())
    payload = {
        "a0": factors.a0.tolist(),
        "delta_a": factors.delta_a.tolist(),
        "m_a": factors.m_a.tolist(),
        "r_a": factors.r_a.tolist(),
        "b0": factors.b0.tolist(),
        "delta_b": factors.delta_b.tolist(),
        "m_b": factors.m_b.tolist(),
        "r_b": factors.r_b.tolist(),
    }
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
    logging.basicConfig(
        level=os.environ.get("FOLMI_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (ParseError, ValidationError, ShapeMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FolmiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR

    summary = {k: v for k, v in report.items() if k in ("command", "status")}
    if "certification" in report:
        summary["min_sector_margin"] = report["certification"]["min_sector_margin"]
        summary["vertex_count"] = report["certification"]["vertex_count"]
        summary["sample_count"] = report["certification"]["sample_count"]
    if "simulation" in report:
        summary["final_norm_ratio"] = report["simulation"]["final_norm_ratio"]
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
