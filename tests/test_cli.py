"""Command-line interface: exit codes, formats, config and seed plumbing;
the package's exported names and where each default lives."""

import argparse
import csv
import inspect
import json
import math
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields

import numpy as np
import pytest

import sparse_lab
from sparse_lab import __version__, cli, decoder, experiments, replica, selftest, special
from sparse_lab.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    header = rows[0]
    records = [dict(zip(header, row)) for row in rows[1:]]
    return meta, header, records


class TestPublicNames:
    @pytest.mark.parametrize("module", [sparse_lab, selftest], ids=lambda m: m.__name__)
    def test_every_exported_name_resolves(self, module):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing

    def test_package_names_are_pinned(self):
        assert sparse_lab.__all__ == [
            "__version__",
            "q_function", "gauss_pdf", "s_func", "r_lambda",
            "SystemParams", "SolverConfig", "DEFAULT_SOLVER", "FixedPointState", "ThresholdState",
            "FixedPointError", "BracketError", "ObjectiveProbeError", "LambdaOptimum",
            "solve_mse_fixed_point", "solve_threshold_fixed_point", "find_critical_rho_x",
            "find_critical_alpha", "optimize_lambda",
            "ProblemInstance", "DecoderConfig", "DEFAULT_DECODER", "DecodeResult",
            "estimate_operator_norm", "decode",
            "EnsembleSpec", "TrialSummary", "Aggregate", "PhaseDiagramRow", "sample_mixture",
            "sample_instance", "run_trial", "run_monte_carlo", "sweep_phase_diagram",
        ]

    def test_package_names_are_the_module_lists(self):
        modules = (special, replica, decoder, experiments)
        assert sparse_lab.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]


class TestDefaults:
    """Each default has one owner; the CLI and helper signatures read it."""

    VARIANCES = [f.default for f in fields(replica.SystemParams) if f.name.startswith("sigma2")]
    MC = ["mc", "--rho-w", "0.1"]
    CURVE = ["mse-curve", "--rho-w", "0.1", "--grid-start", "0.1", "--grid-stop", "0.2",
             "--grid-count", "2"]
    PHASE = ["phase-diagram", "--grid-start", "0.1", "--grid-stop", "0.1", "--grid-count", "1",
             "--deltas", "0.1"]
    # each replica command with the solver settings it reads, as flag dests
    SOLVER_FLAGS = {
        "threshold": (["threshold", "--solve-for", "rho-x", "--alpha", "0.5", "--rho-w", "0.1"],
                      {"rel_tol", "max_iters", "bisection_tol"}),
        "mse-curve": ([*CURVE, "--alpha", "0.5"], {"rel_tol", "max_iters"}),
        "phase-diagram": ([*PHASE, "--lambda-mode", "both"],
                          {"rel_tol", "max_iters", "bisection_tol", "lambda_min", "lambda_max"}),
        "optimize-lambda": (["optimize-lambda", "--objective", "critical-rho-x", "--alpha", "0.5",
                             "--rho-w", "0.1"],
                            {"rel_tol", "max_iters", "bisection_tol", "lambda_min", "lambda_max"}),
    }
    ALL_SOLVER_FLAGS = {"rel_tol", "max_iters", "bisection_tol", "lambda_min", "lambda_max", "damping"}

    @pytest.mark.parametrize("argv", [MC, CURVE], ids=["mc", "mse-curve"])
    def test_decoder_and_variance_flags(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._decoder_config(args) == decoder.DEFAULT_DECODER
        assert [args.sigma2_x, args.sigma2_w] == self.VARIANCES

    def test_solver_flags(self):
        for argv, _ in self.SOLVER_FLAGS.values():
            args = cli.build_parser().parse_args(argv)
            assert cli._solver_config(args) == replica.DEFAULT_SOLVER, argv[0]

    @pytest.mark.parametrize("command", SOLVER_FLAGS)
    def test_each_command_takes_the_solver_flags_it_reads(self, command, capsys):
        """The parser offers exactly these solver flags, and the JSON meta
        echoes exactly these solver settings."""
        argv, read = self.SOLVER_FLAGS[command]
        assert set(vars(cli.build_parser().parse_args(argv))) & self.ALL_SOLVER_FLAGS == read
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert set(json.loads(out)["meta"]) & self.ALL_SOLVER_FLAGS == read

    @pytest.mark.parametrize("command, flag", [
        ("threshold", "--damping"), ("threshold", "--lambda-min"), ("threshold", "--lambda-max"),
        ("mse-curve", "--damping"), ("mse-curve", "--lambda-min"), ("mse-curve", "--lambda-max"),
        ("mse-curve", "--bisection-tol"), ("phase-diagram", "--damping"), ("optimize-lambda", "--damping"),
    ])
    def test_unread_solver_flag_exits_2(self, command, flag, capsys):
        code, _, err = run_cli([*self.SOLVER_FLAGS[command][0], flag, "0.5"], capsys)
        assert code == 2 and "unrecognized arguments" in err

    SOLVER = {"rel_tol", "max_iters"}
    SEARCH = {*SOLVER, "bisection_tol", "lambda_min", "lambda_max"}
    GRID = {"grid_start", "grid_stop", "grid_count", "grid_scale"}
    ENSEMBLE = {"n", "trials", "seed", "workers", "success_tol", "decoder_tol", "decoder_max_iters"}
    # each command and mode with the settings its run reads, as meta keys
    META = {
        "threshold-rho-x": (["threshold", "--solve-for", "rho-x", "--alpha", "0.5", "--rho-w", "0.1"],
                            {"solve_for", "alpha", "rho_w", "lambda", *SOLVER, "bisection_tol"}),
        "threshold-alpha": (["threshold", "--solve-for", "alpha", "--rho-x", "0.077", "--rho-w", "0.1"],
                            {"solve_for", "rho_x", "rho_w", "lambda", *SOLVER}),
        "mse-curve": ([*CURVE, "--alpha", "0.5"],
                      {"axis", "alpha", "rho_w", "lambda", "sigma2_x", "sigma2_w", *GRID, *SOLVER,
                       "with_mc", "workers"}),
        "mse-curve-with-mc": (["mse-curve", "--axis", "alpha", "--rho-x", "0.1", "--rho-w", "0.1",
                               "--grid-start", "0.5", "--grid-stop", "0.6", "--grid-count", "0",
                               "--with-mc"],
                              {"axis", "rho_x", "rho_w", "lambda", "sigma2_x", "sigma2_w", *GRID,
                               *SOLVER, "with_mc", *ENSEMBLE}),
        "phase-diagram-fixed": ([*PHASE, "--lambda-mode", "fixed"],
                                {*GRID, "deltas", "lambda_mode", *SOLVER, "workers"}),
        "phase-diagram-both": ([*PHASE, "--lambda-mode", "both"],
                               {*GRID, "deltas", "lambda_mode", *SEARCH, "workers"}),
        "optimize-lambda-critical-rho-x": (
            ["optimize-lambda", "--objective", "critical-rho-x", "--alpha", "0.5", "--rho-w", "0.1"],
            {"objective", "alpha", "rho_w", *SEARCH}),
        "optimize-lambda-critical-alpha": (
            ["optimize-lambda", "--objective", "critical-alpha", "--rho-x", "0.1", "--rho-w", "0.01"],
            {"objective", "rho_x", "rho_w", *SEARCH}),
        "optimize-lambda-mse": (
            ["optimize-lambda", "--objective", "mse", "--alpha", "0.5", "--rho-x", "0.2", "--rho-w", "0.1"],
            {"objective", "alpha", "rho_x", "rho_w", "sigma2_x", "sigma2_w", *SEARCH}),
        "mc": ([*MC, "--alpha", "0.5", "--rho-x", "0.1", "--n", "8", "--trials", "1", "--workers", "1"],
               {"alpha", "rho_x", "rho_w", "lambda", "sigma2_x", "sigma2_w", *ENSEMBLE}),
        "selftest": (["selftest"], set()),
    }

    @pytest.mark.parametrize("case", META)
    def test_metadata_lists_what_the_run_reads(self, case, capsys):
        """The meta of each command and mode holds exactly the settings
        its run reads, beside the command and the version."""
        argv, read = self.META[case]
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert set(json.loads(out)["meta"]) == {"command", "version", *read}

    def test_harness_defaults(self):
        parser = cli.build_parser()
        mc = inspect.signature(experiments.run_monte_carlo).parameters
        assert parser.parse_args(self.MC).success_tol == mc["success_tol"].default
        assert parser.parse_args(self.CURVE).success_tol == mc["success_tol"].default
        sweep = inspect.signature(experiments.sweep_phase_diagram).parameters
        assert parser.parse_args(self.PHASE).lambda_mode == sweep["lambda_mode"].default

    def test_optimize_lambda_variances(self):
        params = inspect.signature(replica.optimize_lambda).parameters
        assert [params["sigma2_x"].default, params["sigma2_w"].default] == self.VARIANCES

    def test_operator_norm_budget(self):
        params = inspect.signature(decoder.estimate_operator_norm).parameters
        assert params["iters"].default == decoder.DEFAULT_DECODER.power_iters
        assert params["tol"].default == decoder.DEFAULT_DECODER.power_tol

    def test_step_is_not_a_flag(self, capsys):
        code, _, _ = run_cli([*self.MC, "--alpha", "0.5", "--rho-x", "0.1", "--step-scale", "0.5"],
                             capsys)
        assert code == 2


class TestExitCodes:
    def test_no_arguments(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(["threshold", "--solve-for", "rho-x", "--definitely-not-a-flag"], capsys)
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(["threshold", "--solve-for", "rho-x", "--alpha", "0.5"], capsys)
        assert code == 2

    def test_missing_conditional_flag(self, capsys):
        code, _, err = run_cli(["threshold", "--solve-for", "rho-x", "--rho-w", "0.1"], capsys)
        assert code == 2
        assert "--alpha" in err

    def test_invalid_parameter_value(self, capsys):
        code, _, _ = run_cli(
            ["threshold", "--solve-for", "rho-x", "--alpha", "-0.5", "--rho-w", "0.1"], capsys
        )
        assert code == 2

    def test_no_boundary_in_bracket(self, capsys):
        code, _, err = run_cli(
            ["threshold", "--solve-for", "alpha", "--rho-x", "0.9", "--rho-w", "0.9"], capsys
        )
        assert code == 1
        assert "error:" in err

    def test_fixed_point_budget_exhausted(self, capsys):
        code, _, err = run_cli(
            ["threshold", "--solve-for", "rho-x", "--alpha", "0.5", "--rho-w", "0.1",
             "--max-iters", "3"],
            capsys,
        )
        assert code == 1
        assert "error: threshold fixed point not converged after 3 map evaluations" in err

    def test_version(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert __version__ in out


class TestThreshold:
    def test_critical_density(self, capsys):
        code, out, _ = run_cli(
            [
                "threshold", "--solve-for", "rho-x",
                "--alpha", "0.5", "--rho-w", "0.1",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        record = payload["records"][0]
        assert abs(record["rho_x_c"] - 0.0770) < 0.0005
        assert record["alpha_c"] == 0.5
        assert abs(record["condition_residual"]) < 1e-4
        meta = payload["meta"]
        assert meta["command"] == "threshold"
        assert meta["version"] == __version__
        assert meta["lambda"] == 1.0
        assert meta["alpha"] == 0.5

    def test_critical_ratio(self, capsys):
        code, out, _ = run_cli(
            [
                "threshold", "--solve-for", "alpha",
                "--rho-x", "0.0770", "--rho-w", "0.1",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)["records"][0]
        assert abs(record["alpha_c"] - 0.500) < 0.005


class TestOutputFormats:
    ARGS = [
        "threshold", "--solve-for", "rho-x",
        "--alpha", "0.5", "--rho-w", "0.1",
    ]

    def test_csv_round_trips_floats(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        _, header, records = parse_csv(out)
        code, out, _ = run_cli([*self.ARGS, "--format", "json"], capsys)
        assert code == 0
        reference = json.loads(out)["records"][0]
        assert header == list(reference.keys())
        for column in ("rho_x_c", "A", "chi_hat", "condition_residual"):
            assert float(records[0][column]) == reference[column]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "boundary.csv"
        code, out, _ = run_cli([*self.ARGS, "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        meta, header, records = parse_csv(target.read_text())
        assert meta["command"] == "threshold"
        assert len(records) == 1
        assert "rho_x_c" in header

    def test_empty_grid_emits_header_only(self, capsys):
        argv = [
            "mse-curve", "--alpha", "0.5", "--rho-w", "0.1",
            "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "0",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        _, header, records = parse_csv(out)
        assert header[:4] == ["rho_x", "alpha", "status", "mse"]
        assert records == []
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["records"] == []


class TestMseCurve:
    ARGS = [
        "mse-curve", "--alpha", "0.5", "--rho-w", "0.1",
        "--grid-start", "0.06", "--grid-stop", "0.1", "--grid-count", "5",
    ]

    def test_grid_across_the_boundary(self, capsys):
        """Rows below rho_c = 0.0772 are perfect, with mse 0, chi 0 and an
        infinite m_hat; every number round-trips through CSV and JSON."""
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        code, out, _ = run_cli([*self.ARGS, "--format", "json"], capsys)
        assert code == 0
        records = json.loads(out)["records"]
        assert header == cli._CURVE_COLUMNS
        assert [r["status"] for r in records] == ["perfect"] * 2 + ["converged"] * 3
        assert [row["status"] for row in rows] == [r["status"] for r in records]
        for row, record in zip(rows, records):
            for column in header:
                if column == "status":
                    continue
                parsed, expected = float(row[column]), record[column]
                assert parsed == expected or (math.isnan(parsed) and math.isnan(expected)), column
        for record in records[:2]:
            assert (record["mse"], record["chi"], record["m_hat"]) == (0.0, 0.0, math.inf)
            threshold = replica.solve_threshold_fixed_point(0.5, 1.0, record["rho_x"], 0.1)
            assert record["chi_hat"] == threshold.chi_hat
            assert record["iterations"] == threshold.iterations
            assert record["rejections"] == 0
        for record in records[2:]:
            assert record["mse"] > 0.0 and math.isfinite(record["m_hat"])
            state = replica.solve_mse_fixed_point(replica.SystemParams(0.5, 1.0, record["rho_x"], 0.1))
            assert (record["iterations"], record["rejections"]) == (state.iterations, state.rejections)

    def _rows(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        return parse_csv(out)[2]

    def test_alpha_axis(self, capsys):
        """Sweeping alpha at fixed rho_x: each row is the solve at its alpha."""
        rows = self._rows(
            ["mse-curve", "--axis", "alpha", "--rho-x", "0.1", "--rho-w", "0.1",
             "--grid-start", "0.25", "--grid-stop", "0.75", "--grid-count", "3"],
            capsys,
        )
        assert [float(row["alpha"]) for row in rows] == [0.25, 0.5, 0.75]
        assert {row["rho_x"] for row in rows} == {"0.10000000000000001"}
        for row in rows:
            state = replica.solve_mse_fixed_point(replica.SystemParams(float(row["alpha"]), 1.0, 0.1, 0.1))
            assert row["status"] == ("perfect" if state.perfect else "converged")
            assert float(row["mse"]) == state.mse
        assert [row["status"] for row in rows] == ["converged", "converged", "perfect"]

    def test_log_grid_ends_at_its_endpoints(self, capsys):
        """A log grid starts and stops exactly at its endpoints, through CSV,
        and steps by a constant ratio in between."""
        rows = self._rows(
            ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--grid-scale", "log",
             "--grid-start", "0.05", "--grid-stop", "0.5", "--grid-count", "4"],
            capsys,
        )
        grid = [float(row["rho_x"]) for row in rows]
        assert (grid[0], grid[-1]) == (0.05, 0.5)
        for lo, hi in zip(grid, grid[1:]):
            assert math.isclose(hi / lo, 10.0 ** (1.0 / 3.0), rel_tol=1e-12)

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_grid_ends_are_its_endpoints(self, scale):
        """Random 3-decimal grids; the linear spacing formula misses the stop
        by an ulp on about one in ten of them, e.g. (0.553, 1.691, 45)."""
        rng = np.random.default_rng(37)
        for _ in range(2_000):
            start, stop = np.round(rng.uniform(0.001, 2.0, size=2), 3).tolist()
            count = int(rng.integers(2, 100))
            args = argparse.Namespace(
                grid_start=start, grid_stop=stop, grid_count=count, grid_scale=scale
            )
            grid = cli._grid(args)
            assert len(grid) == count
            assert (grid[0], grid[-1]) == (start, stop), (start, stop, count)

    def test_zero_estimate_rows(self, capsys):
        """At lam = 50 the estimate is zero and every row converges to
        mse = rho_x, the signal power at unit variance."""
        rows = self._rows(
            ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--lambda", "50",
             "--grid-start", "0.2", "--grid-stop", "0.6", "--grid-count", "3"],
            capsys,
        )
        assert [row["status"] for row in rows] == ["converged"] * 3
        for row in rows:
            rho_x = float(row["rho_x"])
            assert abs(float(row["mse"]) - rho_x) <= 4.0 * math.ulp(rho_x), row

    def test_failed_row(self, capsys):
        """A solve that runs out of budget prints a failed row with no
        solver values instead of ending the command."""
        rows = self._rows(
            ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--max-iters", "3",
             "--grid-start", "0.15", "--grid-stop", "0.15", "--grid-count", "1"],
            capsys,
        )
        assert len(rows) == 1 and rows[0]["status"] == "failed"
        assert rows[0]["rho_x"] == "0.14999999999999999"
        assert all(math.isnan(float(rows[0][column]))
                   for column in ("mse", "chi_hat", "iterations", "rejections"))

    @pytest.mark.parametrize("grid, message", [
        (["--grid-count", "-1"], "--grid-count must be nonnegative"),
        (["--grid-start", "0", "--grid-scale", "log"], "log grids need positive endpoints"),
    ], ids=["negative-count", "log-from-zero"])
    def test_invalid_grid_exits_2(self, grid, message, capsys):
        code, out, err = run_cli([*self.ARGS, *grid], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("grid, flag, message", [
        ([], ["--n", "4"], "n must be at least 8, got 4"),
        (["--grid-count", "0"], ["--decoder-tol", "0"], "primal_tol must be positive"),
        ([], ["--success-tol", "0"], "success_tol must be positive, got 0.0"),
    ], ids=["n", "empty-grid-decoder-tol", "success-tol"])
    def test_with_mc_checks_ensembles_before_solving(self, grid, flag, message, capsys, monkeypatch):
        """--with-mc rejects a bad ensemble or decoder setting before any
        point's mse fixed point is solved, on an empty grid too."""
        solves = []
        solve = cli.solve_mse_fixed_point

        def counting(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(cli, "solve_mse_fixed_point", counting)
        code, out, err = run_cli([*self.ARGS, *grid, "--with-mc", "--workers", "1", *flag], capsys)
        assert (code, out, solves) == (2, "", [])
        assert err.startswith(f"error: {message}")

    def test_with_mc_rows_do_not_depend_on_workers(self, capsys):
        """--with-mc fills the ensemble columns, and the rows are the same
        on one worker and on two."""
        argv = ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--grid-start", "0.06",
                "--grid-stop", "0.1", "--grid-count", "2", "--with-mc", "--n", "16", "--trials", "3",
                "--seed", "3", "--decoder-tol", "1e-7", "--format", "json"]
        payloads = []
        for workers in ("1", "2"):
            code, out, _ = run_cli([*argv, "--workers", workers], capsys)
            assert code == 0
            payloads.append(json.loads(out))
        assert payloads[0]["records"] == payloads[1]["records"]
        assert [p["meta"]["workers"] for p in payloads] == [1, 2]
        for record in payloads[0]["records"]:
            assert record["mc_mean_mse"] >= 0.0 and record["mc_not_converged"] == 0
            assert 0.0 <= record["mc_success_fraction"] <= 1.0


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 0.5\nrho-w = 0.1\n# a comment\n\n")
        code, out, _ = run_cli(
            [
                "threshold", "--solve-for", "rho-x",
                "--config", str(config), "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["meta"]["alpha"] == 0.5

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 0.7\nrho_w = 0.1\n")
        code, out, _ = run_cli(
            [
                "threshold", "--solve-for", "rho-x",
                "--alpha", "0.5", "--config", str(config), "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["meta"]["alpha"] == 0.5

    def test_malformed_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("alpha 0.5\n")
        code, _, err = run_cli(
            ["threshold", "--solve-for", "rho-x", "--config", str(config)], capsys
        )
        assert code == 2
        assert "key = value" in err

    def test_missing_config(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["threshold", "--solve-for", "rho-x", "--config", str(tmp_path / "absent.cfg")],
            capsys,
        )
        assert code == 2

    def test_boolean_config_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("with-mc = off\n")
        argv = [
            "mse-curve", "--alpha", "0.5", "--rho-w", "0.1",
            "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "0",
            "--config", str(config), "--format", "json",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["meta"]["with_mc"] is False
        config.write_text("with-mc = maybe\n")
        code, _, _ = run_cli(argv, capsys)
        assert code == 2

    def test_config_equals_form(self, capsys, tmp_path):
        """--config=FILE supplies the same flags as --config FILE."""
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 0.5\nrho-w = 0.1\n")
        argv = ["threshold", "--solve-for", "rho-x", "--format", "json"]
        spaced = run_cli([*argv, "--config", str(config)], capsys)
        joined = run_cli([*argv, f"--config={config}"], capsys)
        assert spaced[0] == 0 and joined == spaced

    def test_config_without_path(self, capsys):
        code, out, err = run_cli(["threshold", "--solve-for", "rho-x", "--config"], capsys)
        assert (code, out, err) == (2, "", "error: --config needs a file path\n")

    def test_true_boolean_config_key_decodes(self, capsys, tmp_path):
        """with-mc = true in a config file turns the ensemble columns on."""
        config = tmp_path / "run.cfg"
        config.write_text("with-mc = true\nn = 16\ntrials = 2\nworkers = 1\n")
        code, out, _ = run_cli(
            ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--grid-start", "0.1",
             "--grid-stop", "0.1", "--grid-count", "1", "--decoder-tol", "1e-7",
             "--config", str(config), "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["with_mc"] is True
        assert (payload["meta"]["n"], payload["meta"]["trials"]) == (16, 2)
        (record,) = payload["records"]
        assert record["mc_mean_mse"] >= 0.0 and record["mc_std_error"] >= 0.0
        assert 0.0 <= record["mc_success_fraction"] <= 1.0
        assert record["mc_not_converged"] == 0

    def test_every_config_applies_in_order(self, capsys, tmp_path):
        """A later --config overrides an earlier one in either form, and an
        explicit flag overrides both."""
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("alpha = 0.5\nrho-w = 0.1\n")
        second.write_text("alpha = 0.7\n")
        argv = ["threshold", "--solve-for", "rho-x", "--format", "json"]

        def alpha_of(*extra):
            code, out, _ = run_cli([*argv, *extra], capsys)
            assert code == 0
            return json.loads(out)["meta"]["alpha"]

        assert alpha_of("--config", str(first), f"--config={second}") == 0.7
        assert alpha_of(f"--config={second}", "--config", str(first)) == 0.5
        assert alpha_of("--config", str(first), "--alpha", "0.6", "--config", str(second)) == 0.6

    def test_later_config_turns_a_boolean_off(self, capsys, tmp_path):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("with-mc = true\n")
        second.write_text("with-mc = off\n")
        code, out, _ = run_cli(
            ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--grid-start", "0.1",
             "--grid-stop", "0.1", "--grid-count", "0", "--config", str(first),
             "--config", str(second), "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["meta"]["with_mc"] is False


class TestSeedResolution:
    # the seed is read, and echoed, only when the curve decodes ensembles
    GRID_ARGS = [
        "mse-curve", "--alpha", "0.5", "--rho-w", "0.1",
        "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "0",
        "--with-mc", "--format", "json",
    ]

    def test_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSE_LAB_SEED", "999")
        code, out, _ = run_cli(self.GRID_ARGS, capsys)
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 999

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSE_LAB_SEED", "999")
        code, out, _ = run_cli([*self.GRID_ARGS, "--seed", "5"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 5

    def test_default_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("SPARSE_LAB_SEED", raising=False)
        code, out, _ = run_cli(self.GRID_ARGS, capsys)
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 12345

    def test_invalid_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSE_LAB_SEED", "potato")
        code, _, err = run_cli(self.GRID_ARGS, capsys)
        assert code == 2
        assert "SPARSE_LAB_SEED" in err


class TestOptimizeLambda:
    def test_missing_alpha(self, capsys):
        code, _, err = run_cli(
            ["optimize-lambda", "--objective", "critical-rho-x", "--rho-w", "0.1"], capsys
        )
        assert code == 2
        assert "--alpha" in err

    def test_missing_rho_x_for_mse(self, capsys):
        code, _, _ = run_cli(
            ["optimize-lambda", "--objective", "mse", "--alpha", "0.5", "--rho-w", "0.1"],
            capsys,
        )
        assert code == 2

    def test_mse_objective_runs(self, capsys):
        code, out, _ = run_cli(
            [
                "optimize-lambda", "--objective", "mse",
                "--alpha", "0.55", "--rho-x", "0.2", "--rho-w", "0.15",
                "--bisection-tol", "1e-3", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)["records"][0]
        assert 1e-3 <= record["lambda_star"] <= 1e3
        assert record["objective_value"] > 0.0


class TestPhaseDiagram:
    def test_fixed_mode_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "phase-diagram",
                "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "2",
                "--deltas", "0.1", "--lambda-mode", "fixed",
            ],
            capsys,
        )
        assert code == 0
        _, header, records = parse_csv(out)
        assert header == ["rho_x", "delta", "rho_w", "alpha_c_fixed", "alpha_c_optimal", "lambda_star"]
        assert len(records) == 2
        assert records[0]["alpha_c_optimal"] == "nan"
        assert float(records[0]["alpha_c_fixed"]) < float(records[1]["alpha_c_fixed"])

    def test_malformed_deltas(self, capsys):
        code, _, _ = run_cli(
            [
                "phase-diagram",
                "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "2",
                "--deltas", "0.1,abc",
            ],
            capsys,
        )
        assert code == 2

    def test_empty_deltas(self, capsys):
        code, _, _ = run_cli(
            [
                "phase-diagram",
                "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "2",
                "--deltas", ",",
            ],
            capsys,
        )
        assert code == 2


class TestWorkers:
    """The grid commands' output does not depend on the worker count."""

    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--grid-start", "0.05", "--grid-stop", "0.25", "--grid-count", "3",
         "--deltas", "0.2,0.02"],
        ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--grid-start", "0.06",
         "--grid-stop", "0.3", "--grid-count", "9", "--grid-scale", "log"],
        ["mse-curve", "--alpha", "0.5", "--rho-w", "0.1", "--grid-start", "0.06",
         "--grid-stop", "0.3", "--grid-count", "9", "--max-iters", "40"],
    ], ids=["phase-diagram", "mse-curve", "mse-curve-failed-rows"])
    def test_csv_does_not_depend_on_workers(self, argv, capsys):
        """The CSV is byte-identical at one and two workers, but for the
        workers line of its metadata."""
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run_cli([*argv, "--workers", workers], capsys)
            assert code == 0
            outputs.append(out.splitlines(keepends=True))
        one, two = outputs
        assert [line for line in one if line != "# workers = 1\n"] == [
            line for line in two if line != "# workers = 2\n"
        ]
        assert len(one) == len(two) and sum(a != b for a, b in zip(one, two)) == 1

    @pytest.mark.parametrize("argv", [
        # every cell's boundary solve runs out of budget
        ["phase-diagram", "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "2",
         "--deltas", "0.1,0.02", "--max-iters", "2"],
        # every cell's penalty search fails at a probe
        ["phase-diagram", "--grid-start", "0.05", "--grid-stop", "0.1", "--grid-count", "2",
         "--deltas", "0.1,0.02", "--max-iters", "10"],
        # the last cell has no boundary, after the first has finished
        ["phase-diagram", "--grid-start", "0.05", "--grid-stop", "0.9", "--grid-count", "2",
         "--deltas", "1"],
    ], ids=["fixed-point", "probe", "bracket"])
    def test_failed_run_does_not_depend_on_workers(self, argv, capsys):
        runs = [run_cli([*argv, "--workers", workers], capsys) for workers in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err


class TestMonteCarlo:
    def test_small_ensemble(self, capsys):
        code, out, _ = run_cli(
            [
                "mc", "--alpha", "0.5", "--rho-x", "0.2", "--rho-w", "0.1",
                "--n", "16", "--trials", "2", "--workers", "1",
                "--decoder-tol", "1e-7", "--seed", "3",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        record = payload["records"][0]
        assert record["n"] == 16
        assert record["m"] == 8
        assert record["trials"] == 2
        assert record["mean_mse"] >= 0.0
        assert record["replica_mse"] > 0.0
        assert payload["meta"]["seed"] == 3

    def test_replica_fields(self, capsys):
        """The record carries the replica solve of its point: a positive
        mse outside the perfect phase, 0 inside it."""
        for rho_x, perfect in ((0.3, False), (0.05, True)):
            code, out, _ = run_cli(
                ["mc", "--alpha", "0.5", "--rho-x", str(rho_x), "--rho-w", "0.1", "--n", "32",
                 "--trials", "2", "--workers", "1", "--format", "json"],
                capsys,
            )
            assert code == 0
            record = json.loads(out)["records"][0]
            state = replica.solve_mse_fixed_point(replica.SystemParams(0.5, 1.0, rho_x, 0.1))
            assert state.perfect is perfect and (state.mse == 0.0) is perfect
            assert (record["replica_mse"], record["replica_perfect"]) == (state.mse, perfect)

    def test_zero_success_tol_exits_2(self, capsys):
        code, out, err = run_cli(
            ["mc", "--alpha", "0.5", "--rho-x", "0.2", "--rho-w", "0.1", "--n", "16",
             "--trials", "2", "--workers", "1", "--success-tol", "0"],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: success_tol must be positive, got 0.0\n")

    def test_dead_worker_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 60.0)
        argv = [
            "mc", "--alpha", "0.5", "--rho-x", "0.2", "--rho-w", "0.1",
            "--n", "16", "--trials", "2", "--workers", "2",
        ]
        try:
            assert run_cli(argv, capsys)[0] == 0
            with pytest.raises(BrokenProcessPool):
                experiments._idle[1].submit(os._exit, 1).result()
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and "Traceback" not in err
            assert run_cli(argv, capsys)[0] == 0
        finally:
            idle, experiments._idle = experiments._idle, None
            if idle is not None:
                idle[2].cancel()
                idle[1].shutdown()


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, err = run_cli(["selftest", "--format", "json"], capsys)
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) >= 10
        assert all(record["passed"] for record in records)
        assert "checks passed" in err

    def test_raising_check_fails_the_run(self, capsys, monkeypatch):
        """A check that raises is reported as a failed result, and the
        command then exits 1."""
        def check_that_raises():
            raise RuntimeError("boom")

        monkeypatch.setattr(selftest, "CHECKS", (selftest.check_tail_values, check_that_raises))
        results = selftest.run_all()
        assert [(r.name, r.passed) for r in results] == [
            ("tail-values", True), ("check_that_raises", False)
        ]
        assert results[1].detail == "raised RuntimeError('boom')"
        code, out, err = run_cli(["selftest", "--format", "json"], capsys)
        assert code == 1
        assert json.loads(out)["records"][1] == {
            "check": "check_that_raises", "passed": False, "detail": "raised RuntimeError('boom')"
        }
        assert "1/2 checks passed" in err
