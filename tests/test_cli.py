import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import folmi
from folmi.cli import (
    EXIT_CERTIFICATION_FAILED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SOLVER_ERROR,
    EXIT_USAGE,
    _apply_overrides,
    cmd_check,
    cmd_decompose,
    cmd_simulate,
    cmd_synth,
    load_controller,
    main,
    parse_config,
    save_controller,
)
from folmi.errors import ParseError, SingularCertificateError, ValidationError
from folmi.synthesis import DynamicController


def write_config(tmp_path, name="problem.json", **overrides):
    data = {
        "alpha": 0.75,
        "a_lower": [[2.0, -8.0, 1.0], [9.0, 6.0, 1.0], [1.0, 2.0, -1.0]],
        "a_upper": [[2.5, -7.0, 1.5], [9.5, 6.5, 1.5], [1.5, 2.5, -0.5]],
        "b_lower": [[1.0], [-1.0], [0.0]],
        "b_upper": [[1.5], [-0.6], [0.0]],
        "c": [[1.0, 0.0, 1.0]],
        "n_c": 0,
        "certify": {"sample_count": 50, "seed": 0},
        "simulate": {"x0": [1.0, 1.0, 1.0], "t_end": 10.0, "h": 0.01},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParseConfig:
    def test_fixture_example1(self):
        cfg = parse_config("example1")
        assert cfg.alpha == 0.75
        np.testing.assert_array_equal(cfg.c, [[1.0, 0.0, 1.0]])

    def test_fixture_example2(self):
        cfg = parse_config("example2")
        assert cfg.alpha == 1.2
        np.testing.assert_array_equal(cfg.c, [[1.0, 0.0, -1.0]])

    def test_bound_violation_names_invariant(self, tmp_path):
        path = write_config(
            tmp_path, a_lower=[[3.0, -8.0, 1.0], [9.0, 6.0, 1.0], [1.0, 2.0, -1.0]]
        )
        with pytest.raises(ValidationError, match="interval bound"):
            parse_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"alpha": 0.75,\n  "oops"\n}')
        with pytest.raises(ParseError, match=r"broken\.json:\d+"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ParseError, match="not found"):
            parse_config("does_not_exist.json")

    def test_zero_step_rejected(self, tmp_path):
        path = write_config(
            tmp_path, simulate={"x0": [1.0, 1.0, 1.0], "t_end": 1.0, "h": 0.0}
        )
        with pytest.raises(ValidationError, match="h must be positive"):
            parse_config(path)

    @pytest.mark.parametrize("simulate,match", [
        ({"x0": [1.0, 1.0, 1.0], "t_end": 10.0, "h": float("nan")}, "h must be"),
        ({"x0": [1.0, 1.0, 1.0], "t_end": 10.0, "h": float("inf")}, "h must be"),
        ({"x0": [1.0, 1.0, 1.0], "t_end": float("inf"), "h": 0.01}, "t_end must be finite"),
        ({"x0": [1.0, 1.0, 1.0], "t_end": float("nan"), "h": 0.01}, "t_end must be finite"),
        ({"x0": [1.0, float("nan"), 1.0], "t_end": 10.0, "h": 0.01}, "x0 must be finite"),
        ({"x0": [float("-inf"), 1.0, 1.0], "t_end": 10.0, "h": 0.01}, "x0 must be finite"),
    ])
    def test_non_finite_simulate_setting_rejected(self, tmp_path, simulate, match):
        path = write_config(tmp_path, simulate=simulate)
        with pytest.raises(ValidationError, match=match):
            parse_config(path)


class TestCommands:
    def test_synth_example1_order_two(self, tmp_path):
        cfg = parse_config("example1")
        cfg.n_c = 2
        cfg.certify["sample_count"] = 50
        out = tmp_path / "controller.json"
        report, code = cmd_synth(cfg, out_path=out, report_path=tmp_path / "r.json")
        assert code == EXIT_OK
        assert report["status"] == "PASSED"
        assert report["certification"]["min_sector_margin"] > 0
        k = load_controller(out)
        assert k.n_c == 2
        # closed-loop dimension is plant order 3 plus controller order 2
        assert len(report["config"]["a_lower"]) + k.n_c == 5

    def test_synth_report_explains_the_solve(self):
        # example2's lifted block has 2 * n rows of Sigma plus 2 * (3 + 1)
        # lift rows (three A columns and one B column, all uncertain) at
        # every n_c
        for fixture, n_c, schur_dim in (
                ("example1", 0, 7), ("example2", 0, 14), ("example2", 1, 14)):
            cfg = parse_config(fixture)
            cfg.n_c = n_c
            cfg.certify["sample_count"] = 10
            report, code = cmd_synth(cfg)
            synthesis = report["synthesis"]
            assert synthesis["schur_dim"] == schur_dim, fixture
            assert synthesis["solver_iterations"] > 0
            assert synthesis["achieved_margin"] >= 1e-6
            nominal = report["certification"]
            assert (nominal["nominal_route"], nominal["nominal_status"]) == \
                ("closed_form", "feasible"), fixture
            if fixture == "example2":
                # the lifted alpha >= 1 solve finds a point, and the
                # recovered controller fails certification
                assert synthesis["solver_status"] == "FEASIBLE"
                assert synthesis["eta"] > 0
                assert code == EXIT_CERTIFICATION_FAILED
                assert report["status"] == "CERTIFICATION_FAILED"

    def test_synth_uncontrollable_is_infeasible(self, tmp_path):
        path = write_config(
            tmp_path,
            a_lower=[[5.0]], a_upper=[[5.0]],
            b_lower=[[0.0]], b_upper=[[0.0]],
            c=[[1.0]], alpha=0.5,
            simulate=None,
        )
        report, code = cmd_synth(parse_config(path))
        assert code == EXIT_INFEASIBLE
        assert report["status"] == "INFEASIBLE"
        assert report["solver_status"] == "INFEASIBLE"

    def test_synth_indeterminate_is_told_apart(self):
        # one Newton step decides nothing: the status and exit code stay
        # those of INFEASIBLE, and solver_status says why
        cfg = parse_config("example1")
        cfg.n_c, cfg.solver["max_iter"] = 1, 1
        report, code = cmd_synth(cfg)
        assert code == EXIT_INFEASIBLE
        assert report["status"] == "INFEASIBLE"
        assert report["solver_status"] == "INDETERMINATE"
        assert "indeterminate" in report["detail"]

    def test_check_reference_static_controller(self, tmp_path):
        cfg = parse_config("example1")
        cfg.certify["sample_count"] = 50
        report, code = cmd_check(cfg, DynamicController.static([[-24.86]]))
        assert code == EXIT_OK
        assert report["certification"]["vertex_count"] == 2048

    @pytest.mark.parametrize("d_c", [0.0, 5.0])
    def test_check_zero_controller_fails(self, d_c):
        cfg = parse_config("example1")
        cfg.certify["sample_count"] = 10
        report, code = cmd_check(cfg, DynamicController.static([[d_c]]))
        assert code == EXIT_CERTIFICATION_FAILED
        assert report["certification"]["min_sector_margin"] < 0
        # the closed-loop center is unstable under either gain: the closed
        # form fails its audit and the barrier proves the nominal LMI
        # infeasible
        assert report["certification"]["nominal_route"] == "barrier"
        assert report["certification"]["nominal_status"] == "infeasible"

    def test_simulate_writes_csv_and_decays(self, tmp_path):
        cfg = parse_config("example1")
        cfg.certify["sample_count"] = 20
        result, code = cmd_synth(cfg, out_path=tmp_path / "k.json")
        assert code == EXIT_OK
        k = load_controller(tmp_path / "k.json")
        csv_path = tmp_path / "traj.csv"
        report, code = cmd_simulate(cfg, k, csv_path)
        assert code == EXIT_OK
        # the fractional tail decays algebraically (~t^-0.75); certified
        # gains floor the t=10 ratio near 0.012 on this plant
        assert report["simulation"]["final_norm_ratio"] < 0.02
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("t,x1")
        assert len(lines) == 1002  # header + 1001 samples

    def test_simulate_stable_scalar_matches_exp(self, tmp_path):
        path = write_config(
            tmp_path,
            alpha=1.0,
            a_lower=[[-1.0]], a_upper=[[-1.0]],
            b_lower=[[0.0]], b_upper=[[0.0]],
            c=[[1.0]],
            simulate={"x0": [1.0], "t_end": 5.0, "h": 0.001},
        )
        cfg = parse_config(path)
        csv_path = tmp_path / "exp.csv"
        cmd_simulate(cfg, DynamicController.static([[0.0]]), csv_path)
        rows = csv_path.read_text().splitlines()[1:]
        worst = 0.0
        for row in rows[:: 50]:
            t, x = (float(v) for v in row.split(","))
            worst = max(worst, abs(x - np.exp(-t)))
        assert worst < 1e-3

    def test_decompose_matches_library(self, tmp_path):
        from folmi.interval import decompose as lib_decompose

        cfg = parse_config("example1")
        report, code = cmd_decompose(cfg)
        assert code == EXIT_OK
        f = lib_decompose(cfg.system())
        np.testing.assert_allclose(report["factors"]["a0"], f.a0)
        np.testing.assert_allclose(report["factors"]["m_a"], f.m_a)

    def test_controller_file_round_trip(self, tmp_path):
        k = DynamicController(2, np.eye(2) * -3.0, [[0.3], [0.2]], [[-1.0, -1.1]], [[-25.0]])
        path = tmp_path / "k.json"
        save_controller(k, path)
        k2 = load_controller(path)
        np.testing.assert_array_equal(k.a_c, k2.a_c)
        np.testing.assert_array_equal(k.b_c, k2.b_c)


def write_sampled_family(tmp_path):
    """A stable n = 5, l = m = 1 family with all 30 entries uncertain, so
    2^30 vertices exceed the cap and the sweep is samples only.  Its center
    has the Jordan block [[-1, 1], [0, -1]]: under the zero controller the
    closed form refuses the nominal loop and the barrier decides it."""
    a0 = np.array([[-1.0, 1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, -2.0, 0.5, 0.0], [0.0, 0.0, -0.5, -2.0, 0.0],
                   [0.0, 0.0, 0.0, 0.0, -3.0]])
    b0 = np.array([[0.0], [1.0], [0.0], [1.0], [1.0]])
    return write_config(
        tmp_path, a_lower=(a0 - 0.01).tolist(), a_upper=(a0 + 0.01).tolist(),
        b_lower=(b0 - 0.01).tolist(), b_upper=(b0 + 0.01).tolist(),
        c=[[1.0, 0.0, 1.0, 0.0, 1.0]], simulate=None)


def configured(path, nc=None, seed=None, samples=None):
    """``parse_config`` plus the ``--nc``, ``--seed`` and ``--samples``
    values, applied after parsing as the command line applies them."""
    args = argparse.Namespace(nc=nc, seed=seed, samples=samples)
    return _apply_overrides(parse_config(path), args)


class TestKeptPlant:
    def test_commands_use_the_plant_validated_at_parse_time(self, tmp_path, monkeypatch):
        cfg = parse_config("example1")
        plant = cfg.system()
        assert cfg.system() is plant

        def refuse(*args, **kwargs):
            raise AssertionError("a second plant was built")

        monkeypatch.setattr(folmi.cli, "UncertainFoltiSystem", refuse)
        cfg.n_c, cfg.certify["sample_count"] = 1, 10
        k = tmp_path / "k.json"
        assert cmd_synth(cfg, out_path=k)[1] == EXIT_OK
        assert cmd_check(cfg, load_controller(k))[1] == EXIT_OK
        assert cmd_simulate(cfg, load_controller(k), tmp_path / "t.csv")[1] == EXIT_OK
        assert cmd_decompose(cfg)[1] == EXIT_OK
        assert cfg.system() is plant

    def test_overrides_after_parsing_reach_synth_and_check(self, tmp_path):
        path = write_sampled_family(tmp_path)
        worst = {}
        for seed in (1, 2):
            k = tmp_path / f"k{seed}.json"
            cfg = configured(path, nc=1, seed=seed, samples=20)
            synth, code = cmd_synth(cfg, out_path=k)
            assert code == EXIT_OK
            assert synth["config"]["n_c"] == 1
            assert synth["config"]["certify"] == {"sample_count": 20, "seed": seed}
            assert synth["synthesis"]["controller"]["n_c"] == 1
            cert = synth["certification"]
            assert (cert["vertex_count"], cert["sample_count"]) == (0, 20)
            check, code = cmd_check(configured(path, seed=seed, samples=20),
                                    load_controller(k))
            assert code == EXIT_OK
            assert check["certification"] == cert
            worst[seed] = cert["worst_realization"]
        # the worst of 20 interior samples: another seed, another row
        assert worst[1] != worst[2]

    def test_max_iter_set_after_parsing_reaches_synth_and_check(self, tmp_path):
        path = write_sampled_family(tmp_path)
        cfg = configured(path, samples=5)
        cfg.solver["max_iter"] = 1
        report, code = cmd_synth(cfg)
        assert (code, report["solver_status"]) == (EXIT_INFEASIBLE, "INDETERMINATE")
        zero = DynamicController.static([[0.0]])
        for max_iter, code, status in ((None, EXIT_OK, "feasible"),
                                       (1, EXIT_CERTIFICATION_FAILED, "indeterminate")):
            cfg = configured(path, samples=5)
            if max_iter is not None:
                cfg.solver["max_iter"] = max_iter
            report, got = cmd_check(cfg, zero)
            cert = report["certification"]
            assert got == code
            assert (cert["nominal_route"], cert["nominal_status"]) == ("barrier", status)


def raise_singular(*args, **kwargs):
    raise SingularCertificateError("certificate block is singular")


class TestReportEnvelope:
    @pytest.mark.parametrize("outcome, status, code", [
        ("synth", "PASSED", EXIT_OK),
        ("synth", "CERTIFICATION_FAILED", EXIT_CERTIFICATION_FAILED),
        ("synth", "INFEASIBLE", EXIT_INFEASIBLE),
        ("synth", "SOLVER_ERROR", EXIT_SOLVER_ERROR),
        ("check", "PASSED", EXIT_OK),
        ("simulate", "OK", EXIT_OK),
        ("decompose", None, EXIT_OK),
    ])
    def test_report_envelope(self, tmp_path, monkeypatch, outcome, status, code):
        # every synth, check and simulate report carries command, config,
        # status and timings.total_s, and the file written is the dict
        # returned; a decompose report has no status and no timings
        cfg = parse_config("example2" if status == "CERTIFICATION_FAILED" else "example1")
        cfg.certify["sample_count"] = 20
        if status == "INFEASIBLE":
            cfg.solver["max_iter"] = 1
        if status == "SOLVER_ERROR":
            monkeypatch.setattr("folmi.cli.synthesize", raise_singular)
        k, rpath = DynamicController.static([[-24.86]]), tmp_path / "r.json"
        report, got = {
            "synth": lambda: cmd_synth(cfg, report_path=rpath),
            "check": lambda: cmd_check(cfg, k, rpath),
            "simulate": lambda: cmd_simulate(cfg, k, tmp_path / "t.csv", rpath),
            "decompose": lambda: cmd_decompose(cfg, rpath),
        }[outcome]()
        assert got == code and report["command"] == outcome
        assert report["config"]["alpha"] == cfg.alpha
        assert report.get("status") == status
        if status is None:
            assert "timings" not in report
        else:
            assert report["timings"]["total_s"] >= 0.0
        assert json.loads(rpath.read_text()) == report


class TestMainEntry:
    def test_exit_code_contract_and_summary(self, tmp_path, capsys):
        code = main([
            "synth", "example1", "--nc", "1", "--samples", "30",
            "--out", str(tmp_path / "k.json"),
            "--report", str(tmp_path / "r.json"),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["status"] == "PASSED"
        assert summary["vertex_count"] == 2048
        r = json.loads((tmp_path / "r.json").read_text())
        assert r["certification"]["nominal_route"] == "closed_form"

    @pytest.mark.parametrize("level", ["verbose", "", "10"])
    def test_unknown_log_level_is_a_usage_error(self, monkeypatch, capsys, level):
        # FOLMI_LOG=verbose used to end in logging's "Unknown level" traceback
        monkeypatch.setenv("FOLMI_LOG", level)
        assert main(["synth", "example1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: FOLMI_LOG must be one of DEBUG, INFO, WARNING, "
                       f"ERROR, CRITICAL, got {level!r}\n")

    @pytest.mark.parametrize("level", ["debug", "Info", "WARNING"])
    def test_log_level_names_any_case(self, monkeypatch, capsys, level):
        monkeypatch.setenv("FOLMI_LOG", level)
        assert main(["decompose", "example1"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv,code,err", [
        (["synth", "example1", "--nc", "1", "--samples", "20"], EXIT_OK, ""),
        (["synth", "example1", "--nc", "-1"], EXIT_USAGE,
         "error: 'n_c' must be >= 0, got -1\n"),
    ], ids=["summary", "usage-error"])
    def test_module_entry_runs_as_a_process(self, tmp_path, argv, code, err):
        # python -m folmi.cli, in a fresh interpreter where any warning is an
        # error, exits with main's code and prints nothing else
        src = pathlib.Path(folmi.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "folmi.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (code, err)
        if code == EXIT_OK:
            assert json.loads(run.stdout)["status"] == "PASSED"
        else:
            assert run.stdout == ""

    def test_usage_error_exit(self, tmp_path, capsys):
        path = write_config(
            tmp_path, a_lower=[[9.0, -8.0, 1.0], [9.0, 6.0, 1.0], [1.0, 2.0, -1.0]]
        )
        assert main(["synth", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("field,overrides", [
        ("alpha", {"alpha": "abc"}),
        ("n_c", {"n_c": "two"}),
        ("certify.sample_count", {"certify": {"sample_count": "many"}}),
        ("solver.max_iter", {"solver": {"max_iter": "x"}}),
        ("solver", {"solver": "x"}),
        ("certify", {"certify": [1]}),
        ("simulate", {"simulate": "x"}),
        ("x0", {"simulate": {"x0": ["a", 1, 1], "t_end": 10.0, "h": 0.01}}),
        # integer fields take integral JSON numbers only, and no field a boolean
        ("n_c", {"n_c": 1.5}),
        ("n_c", {"n_c": True}),
        ("n_c", {"n_c": "2"}),
        ("certify.sample_count", {"certify": {"sample_count": 10.9}}),
        ("certify.seed", {"certify": {"seed": 0.5}}),
        ("solver.max_iter", {"solver": {"max_iter": 2.5}}),
        ("alpha", {"alpha": True}),
        ("solver.tol", {"solver": {"tol": False}}),
        ("simulate.h", {"simulate": {"x0": [1.0, 1.0, 1.0], "t_end": 10.0, "h": True}}),
        # matrix entries follow the same rule (a boolean or a numeric string
        # used to read as a number), and an integer past the float range in a
        # float field or matrix entry used to crash in OverflowError
        ("a_lower", {"a_lower": [[True, -8.0, 1.0], [9.0, 6.0, 1.0], [1.0, 2.0, -1.0]]}),
        ("b_upper", {"b_upper": [["1.0"], [-0.6], [0.0]]}),
        ("alpha", {"alpha": 10 ** 400}),
        ("c", {"c": [[1.0, 0.0, -(10 ** 400)]]}),
    ])
    def test_malformed_scalar_is_a_usage_error(self, tmp_path, capsys, field, overrides):
        path = write_config(tmp_path, **overrides)
        assert main(["synth", str(path), "--samples", "5"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err

    @pytest.mark.parametrize("d_c", [[[True]], [["-2.0"]]])
    def test_controller_entry_must_be_a_number(self, tmp_path, capsys, d_c):
        # used to read as Dc = 1.0 resp. -2.0 and run to exit 3
        path = tmp_path / "k.json"
        path.write_text(json.dumps(
            {"n_c": 0, "a_c": [], "b_c": [], "c_c": [], "d_c": d_c}))
        assert main(["check", "example1", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'d_c'" in err

    def test_overflowing_controller_is_a_solver_error(self, tmp_path, capsys):
        # Dc = 1e308 overflows the nominal analysis LMI to inf and NaN
        # entries, which used to end in a LinAlgError traceback and then
        # printed numpy's overflow warnings before the error line; any
        # warning fails the suite
        path = tmp_path / "k.json"
        path.write_text(json.dumps(
            {"n_c": 0, "a_c": [], "b_c": [], "c_c": [], "d_c": [[1e308]]}))
        code = main(["check", "example1", str(path), "--samples", "5"])
        assert code == EXIT_SOLVER_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("content,message", [
        # used to read "bad controller file: cannot reshape array of size 1
        # into shape (0,0)"
        ({"n_c": 0, "a_c": [[1.0]], "b_c": [], "c_c": [], "d_c": [[-2.0]]},
         "'a_c' has 1 entries, expected 0x0"),
        ({"n_c": 1, "a_c": [[-1.0]], "b_c": [[1.0]], "c_c": [[1.0, 2.0]],
          "d_c": [[-2.0]]}, "'c_c' has 2 entries, expected 1x1"),
        # used to read "list indices must be integers or slices, not str"
        ([1, 2], "{path}: top level must be an object"),
        ({"n_c": 0, "a_c": [], "b_c": [], "c_c": []}, "{path}: missing field 'd_c'"),
        ({"a_c": [], "b_c": [], "c_c": [], "d_c": [[-2.0]]},
         "{path}: missing field 'n_c'"),
        # used to read "bad controller file: 'n_c' must be >= 0"
        ({"n_c": -1, "a_c": [], "b_c": [], "c_c": [], "d_c": [[-2.0]]},
         "'n_c' must be >= 0, got -1"),
    ])
    def test_bad_controller_file_is_named(self, tmp_path, capsys, content, message):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(content))
        assert main(["check", "example1", str(path), "--samples", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("command", ["synth", "decompose"])
    def test_plant_without_inputs_is_a_usage_error(self, tmp_path, capsys, command):
        # used to end in numpy's "cannot reshape array of size 0 into shape
        # (2,0)"; a saved controller with Dc = [] could not be reloaded
        path = write_config(tmp_path, a_lower=[[-1.0, 0.0], [0.0, -2.0]],
                            a_upper=[[-1.0, 0.0], [0.0, -2.0]], b_lower=[[], []],
                            b_upper=[[], []], c=[[1.0, 0.0]], simulate=None)
        assert main([command, str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: B interval has no columns: the plant needs at least one input\n")

    def test_step_count_past_the_cap_is_a_usage_error(self, tmp_path, capsys):
        # used to end in numpy's "Maximum allowed size exceeded"
        path = write_config(
            tmp_path, simulate={"x0": [1.0, 1.0, 1.0], "t_end": 1e10, "h": 1e-10})
        ctrl = tmp_path / "k.json"
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        assert main(["simulate", str(path), str(ctrl), "--out",
                     str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: simulate t_end / h = 10000000000.0 / 1e-10 asks for "
            "100000000000000000000 steps, more than the cap of 10000000\n")
        assert not (tmp_path / "t.csv").exists()

    def test_diverging_simulation_is_a_solver_error(self, tmp_path, capsys):
        # closed-loop eigenvalues 6.72 +- 5.06j and 0.55: the states leave the
        # float range at t = 65.79, which used to print numpy's overflow
        # warnings, write NaN rows and report "OK" with exit 0
        path = write_config(
            tmp_path, simulate={"x0": [1, 1, 1], "t_end": 100.0, "h": 0.01})
        ctrl, csv_path = tmp_path / "k.json", tmp_path / "t.csv"
        save_controller(DynamicController.static([[5.0]]), ctrl)
        code = main(["simulate", str(path), str(ctrl), "--out", str(csv_path)])
        assert code == EXIT_SOLVER_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "t = 65.79" in err
        assert not csv_path.exists()

    def test_non_finite_bound_is_a_usage_error(self, tmp_path, capsys):
        # JSON's NaN token parses as a float; the matrix check refuses it
        a_lower = [[float("nan"), -8.0, 1.0], [9.0, 6.0, 1.0], [1.0, 2.0, -1.0]]
        path = write_config(tmp_path, a_lower=a_lower)
        assert main(["synth", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: a_lower has non-finite entries\n"

    def test_wrong_shape_controller_is_a_usage_error(self, tmp_path, capsys):
        # example1 has one input and one output, so Dc must be 1 x 1
        path = tmp_path / "k.json"
        path.write_text(json.dumps(
            {"n_c": 0, "a_c": [], "b_c": [], "c_c": [], "d_c": [[-2.0, 1.0]]}))
        assert main(["check", "example1", str(path), "--samples", "5"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: Dc is (1, 2), expected (1,1)")

    def test_simulate_pads_x0_with_controller_states(self, tmp_path, capsys):
        # the README's flow: an order-1 controller from synth, then simulate
        # with the plant-length x0 of the problem file
        ctrl, csv_path = tmp_path / "k.json", tmp_path / "t.csv"
        save_controller(DynamicController(1, [[-5.55]], [[-0.43]], [[-1.25]],
                                          [[-26.55]]), ctrl)
        assert main(["simulate", "example1", str(ctrl), "--out", str(csv_path)]) == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4"
        assert lines[1].split(",")[1:] == ["1", "1", "1", "0"]
        assert json.loads(capsys.readouterr().out)["status"] == "OK"

    def test_simulate_x0_of_wrong_length_is_a_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, simulate={"x0": [1.0, 1.0], "t_end": 1.0, "h": 0.01})
        ctrl, csv_path = tmp_path / "k.json", tmp_path / "t.csv"
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        assert main(["simulate", str(path), str(ctrl), "--out", str(csv_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: x0 has length 2")
        assert not csv_path.exists()

    @pytest.mark.parametrize("command", ["decompose", "check"])
    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys, command):
        # a directory given as the problem or controller file used to end in
        # an IsADirectoryError traceback
        argv = ([command, str(tmp_path)] if command == "decompose"
                else [command, "example1", str(tmp_path)])
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_over_long_integer_is_a_usage_error(self, tmp_path, capsys):
        # an integer literal past Python's 4300-digit int-string limit used
        # to end json.load in a ValueError traceback
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace('"alpha": 0.75', '"alpha": ' + "1" * 5001))
        assert main(["decompose", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: an integer literal in the file is too long")
        assert "5001 digits" in err and "sys.set_int_max_str_digits" not in err

    def test_interval_bound_shapes_differ_is_a_usage_error(self, tmp_path, capsys):
        # used to crash in a broadcast ValueError traceback
        path = write_config(tmp_path, a_lower=[[2.0, -8.0], [9.0, 6.0]])
        assert main(["decompose", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(
            "error: interval bound shapes differ: a_lower (2, 2) vs a_upper (3, 3)")

    @pytest.mark.parametrize("field,overrides,flags", [
        ("certify.seed", {}, ["--seed", "-1"]),
        ("certify.seed", {"certify": {"seed": 2 ** 32}}, []),
        ("certify.sample_count", {"certify": {"sample_count": -1}}, []),
        ("certify.sample_count", {}, ["--samples", "-3"]),
        # --nc is applied after the file is validated, and a negative order
        # from it used to end in a ValueError traceback from the assembly
        ("n_c", {"n_c": -1}, []),
        ("n_c", {}, ["--nc", "-1"]),
    ])
    def test_out_of_range_certify_setting_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, field, overrides, flags):
        def never(*args, **kwargs):
            raise AssertionError("synthesized despite an invalid setting")

        monkeypatch.setattr("folmi.cli.synthesize", never)
        path = write_config(tmp_path, **overrides)
        assert main(["synth", str(path), *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err

    @pytest.mark.parametrize("field,solver", [
        ("solver.eps_margin", {"eps_margin": -1.0}),
        ("solver.eps_margin", {"eps_margin": 0.0}),
        ("solver.max_iter", {"max_iter": 0}),
    ])
    def test_out_of_range_solver_setting_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, field, solver):
        # unstable scalar plant A = 1 with no input: with eps_margin = -1 the
        # synthesis LMI used to read FEASIBLE (margin -0.79)
        def never(*args, **kwargs):
            raise AssertionError("synthesized despite an invalid setting")

        monkeypatch.setattr("folmi.cli.synthesize", never)
        path = write_config(
            tmp_path, a_lower=[[1.0]], a_upper=[[1.0]], b_lower=[[0.0]],
            b_upper=[[0.0]], c=[[1.0]], solver=solver,
            simulate={"x0": [1.0], "t_end": 1.0, "h": 0.01})
        assert main(["synth", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err

    @pytest.mark.parametrize("key,value", [
        ("h", float("nan")), ("t_end", float("inf")), ("x0", [1.0, float("nan"), 1.0]),
    ])
    def test_non_finite_simulate_setting_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, key, value):
        # h = NaN used to die in LinAlgError, t_end = inf in OverflowError,
        # and x0 with a NaN exited 0 with final_norm_ratio inf
        def never(*args, **kwargs):
            raise AssertionError("simulated despite an invalid setting")

        monkeypatch.setattr("folmi.cli.simulate", never)
        sim = {"x0": [1.0, 1.0, 1.0], "t_end": 10.0, "h": 0.01, key: value}
        path = write_config(tmp_path, simulate=sim)
        ctrl = tmp_path / "k.json"
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        assert main(["simulate", str(path), str(ctrl), "--out",
                     str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["synth"], ["check", "example1"], ["synth", "example1", "--nc", "x"],
    ])
    def test_command_line_usage_error_exits_1(self, capsys, argv):
        # argparse's own exit code 2 is the code of an infeasible synthesis
        assert main(argv) == EXIT_USAGE
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: folmi")

    @pytest.mark.parametrize("command", ["check", "synth", "decompose"])
    @pytest.mark.parametrize("lower,upper", [(-1e308, 1e308), (1.5e308, 1.5e308)])
    def test_overflowing_interval_bounds_are_a_usage_error(
            self, tmp_path, capsys, command, lower, upper):
        # check used to end in a ValueError traceback, synth in numpy's
        # overflow warnings and SOLVER_ERROR, decompose in a report with
        # Infinity in it
        a_lower = [[2.0, -8.0, 1.0], [9.0, 6.0, 1.0], [1.0, 2.0, -1.0]]
        a_upper = [[2.5, -7.0, 1.5], [9.5, 6.5, 1.5], [1.5, 2.5, -0.5]]
        a_lower[0][0], a_upper[0][0] = lower, upper
        path = write_config(tmp_path, a_lower=a_lower, a_upper=a_upper)
        ctrl = tmp_path / "k.json"
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        argv = [command, str(path)] + ([str(ctrl)] if command == "check" else [])
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: interval bound: midpoint or half-width of a_lower and a_upper "
            "overflows\n")

    def test_simulate_runs_20000_steps_through_every_memory_band(
            self, tmp_path, capsys):
        # 20 000 steps reach the FFT bands of the history sum that start at
        # lags 8192 and 16384, which no run of at most 5 000 steps uses
        data = parse_config("example1").raw
        data["simulate"].update(t_end=200.0, h=0.01)
        path, ctrl, csv_path = (tmp_path / n for n in ("p.json", "k.json", "t.csv"))
        path.write_text(json.dumps(data))
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        assert main(["simulate", str(path), str(ctrl), "--out", str(csv_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "OK"
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 20002  # header + 20001 samples
        assert lines[0] == "t,x1,x2,x3"
        values = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert values.shape == (20001, 4) and np.all(np.isfinite(values))

    def test_overflowing_step_count_is_a_usage_error(self, tmp_path, capsys):
        # used to end in an OverflowError traceback
        path = write_config(
            tmp_path, simulate={"x0": [1.0, 1.0, 1.0], "t_end": 1e300, "h": 1e-10})
        ctrl = tmp_path / "k.json"
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        assert main(["simulate", str(path), str(ctrl), "--out",
                     str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: simulate t_end / h overflows")

    @pytest.mark.parametrize("flag", ["--report", "--out"])
    def test_output_in_a_missing_directory_is_a_usage_error(
            self, tmp_path, capsys, flag):
        # used to end in a FileNotFoundError traceback after the whole run
        target = tmp_path / "missing" / "out.json"
        argv = ["synth", "example1", "--samples", "5", flag, str(target)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_simulate_from_rest_writes_valid_json(self, tmp_path, capsys):
        # x0 = 0 has no finite norm ratio; the summary and the report used
        # to carry Infinity, which is not JSON
        def reject(constant):
            raise AssertionError(f"{constant} in JSON output")

        path = write_config(
            tmp_path, simulate={"x0": [0.0, 0.0, 0.0], "t_end": 1.0, "h": 0.01})
        ctrl, report = tmp_path / "k.json", tmp_path / "r.json"
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        assert main(["simulate", str(path), str(ctrl), "--out",
                     str(tmp_path / "t.csv"), "--report", str(report)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert summary["final_norm_ratio"] is None
        r = json.loads(report.read_text(), parse_constant=reject)
        assert r["simulation"]["final_norm_ratio"] is None

    def test_negative_controller_order_is_named(self, tmp_path, capsys):
        # used to report numpy's "can only specify one unknown dimension"
        path = tmp_path / "k.json"
        path.write_text(json.dumps(
            {"n_c": -1, "a_c": [], "b_c": [], "c_c": [], "d_c": [[-2.0]]}))
        assert main(["check", "example1", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'n_c' must be >= 0, got -1" in err

    def test_closed_loop_past_the_eigensolver_cap_is_a_usage_error(
            self, tmp_path, capsys):
        # a 62-state controller on example1 makes a 65-state closed loop,
        # which used to end in a ValueError traceback
        n_c = 62
        path = tmp_path / "k.json"
        save_controller(DynamicController(
            n_c, -np.eye(n_c), np.zeros((n_c, 1)), np.zeros((1, n_c)), [[-24.86]]),
            path)
        assert main(["check", "example1", str(path), "--samples", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: dimension 65 exceeds eigensolver cap 64\n")

    def test_check_order_past_the_eigensolver_cap_is_refused_before_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        # a 1000-state controller used to die in numpy's _ArrayMemoryError
        # while stacking the closed loops of the first sweep array
        def never(*args, **kwargs):
            raise AssertionError("swept a closed loop past the cap")

        n_c = 62
        path = tmp_path / "k.json"
        save_controller(DynamicController(
            n_c, -np.eye(n_c), np.zeros((n_c, 1)), np.zeros((1, n_c)), [[-24.86]]),
            path)
        monkeypatch.setattr("folmi.synthesis.realize", never)
        assert main(["check", "example1", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: dimension 65 exceeds eigensolver cap 64\n")

    def test_synth_closed_loop_past_the_eigensolver_cap_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch):
        # synthesize checks the closed-loop order against the cap before it
        # assembles anything; an input error, with no report
        monkeypatch.setattr("folmi.linalg.EIG_DIM_CAP", 3)
        report = tmp_path / "r.json"
        assert main(["synth", "example1", "--nc", "1", "--report", str(report)]) \
            == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: dimension 4 exceeds eigensolver cap 3\n")
        assert not report.exists()

    def test_synth_order_past_the_eigensolver_cap_is_refused_before_assembly(
            self, capsys, monkeypatch):
        # --nc 1000 used to die in numpy's _ArrayMemoryError while declaring
        # the coefficient stack of the 1000 x 1000 certificate P_C, before
        # the cap was ever checked
        def never(*args, **kwargs):
            raise AssertionError("assembled a closed loop past the cap")

        monkeypatch.setattr("folmi.synthesis.assemble", never)
        assert main(["synth", "example1", "--nc", "1000"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: dimension 1003 exceeds eigensolver cap 64\n")

    @pytest.mark.parametrize("overrides,message", [
        ({"solver": {"eps": 1e-6}}, "unknown solver fields: ['eps']"),
        ({"certify": {"samples": 5}}, "unknown certify fields: ['samples']"),
        ({"c": None}, "missing field 'c'"),
        ({"c": [[1.0, 0.0, 1.0], [1.0]]}, "field 'c' is not a numeric matrix"),
        ({"alpha": None}, "missing field 'alpha'"),
        ({"simulate": {"x0": [1.0, 1.0, 1.0], "t_end": 10.0}},
         "simulate block missing 'h'"),
    ])
    def test_malformed_problem_file_is_a_usage_error(
            self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, **overrides)
        data = json.loads(path.read_text())
        path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        assert main(["decompose", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["decompose", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: top level must be an object\n"

    def test_simulate_needs_a_simulate_block(self, tmp_path, capsys):
        path = write_config(tmp_path, simulate=None)
        data = json.loads(path.read_text())
        del data["simulate"]
        path.write_text(json.dumps(data))
        ctrl = tmp_path / "k.json"
        save_controller(DynamicController.static([[-2.0]]), ctrl)
        assert main(["simulate", str(path), str(ctrl), "--out",
                     str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: config has no simulate block\n"

    def test_decompose_writes_the_factors(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert main(["decompose", "example1", "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"command": "decompose"}
        factors = json.loads(out.read_text())["factors"]
        assert np.array(factors["m_a"]).shape == (3, 9)

    def test_solver_failure_is_reported_with_exit_4(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise SingularCertificateError("certificate block is singular")

        monkeypatch.setattr("folmi.cli.synthesize", fail)
        rpath = tmp_path / "r.json"
        assert main(["synth", "example1", "--report", str(rpath)]) == EXIT_SOLVER_ERROR
        report = json.loads(rpath.read_text())
        assert report["status"] == "SOLVER_ERROR"
        assert report["detail"] == "certificate block is singular"

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, n_c=2.0,
                                        certify={"sample_count": 5.0, "seed": 3}))
        assert cfg.n_c == 2 and cfg.certify_config() == {"sample_count": 5, "seed": 3}

    @pytest.mark.parametrize("command", ["synth", "check"])
    def test_report_config_reruns_the_run(self, tmp_path, command):
        # the config block records --nc, --seed and --samples, so a run from
        # it alone, with no flags, gives the same design and certification
        ctrl = tmp_path / "k.json"
        save_controller(DynamicController(1, [[-5.55]], [[-0.43]], [[-1.25]],
                                          [[-26.55]]), ctrl)
        args = {"synth": ["synth", "example1", "--nc", "1"],
                "check": ["check", "example1", str(ctrl)]}[command]
        first, again = tmp_path / "r1.json", tmp_path / "r2.json"
        main([*args, "--seed", "7", "--samples", "20", "--report", str(first)])
        r1 = json.loads(first.read_text())
        assert r1["config"]["certify"] == {"sample_count": 20, "seed": 7}
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(r1["config"]))
        args[1] = str(problem)
        main([*args, "--report", str(again)])
        r2 = json.loads(again.read_text())
        assert r2["config"] == r1["config"]

        def answer(report):
            return json.dumps([report.get("synthesis", {}).get("controller"),
                               report["certification"]], sort_keys=True)

        assert answer(r2) == answer(r1)

    def test_report_determinism(self, tmp_path):
        def run(tag):
            rpath = tmp_path / f"r{tag}.json"
            main([
                "synth", "example1", "--samples", "25", "--seed", "5",
                "--report", str(rpath),
            ])
            data = json.loads(rpath.read_text())
            data.pop("timings")
            return json.dumps(data, sort_keys=True)

        assert run("a") == run("b")
