"""Command-line interface.

Data rows go to stdout or to --output; progress and diagnostics go to
stderr. CSV output carries '# key = value' metadata lines above an
RFC-4180 header and rows, with floats printed to 17 significant digits so
they round-trip exactly. JSON output is one object {"meta": ..., "records":
[...]}. Exit codes: 0 success, 1 computational failure (also a pool worker
process that died), 2 usage error.

A flat key = value config file can stand in for flags: each --config FILE
is applied in command-line order, a later file overriding an earlier one,
and explicit flags override them all. The environment variable
SPARSE_LAB_SEED supplies the default --seed.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .decoder import DEFAULT_DECODER, DecoderConfig
from .experiments import (
    Aggregate,
    EnsembleSpec,
    PhaseDiagramRow,
    _ordered_map,
    run_monte_carlo,
    sweep_phase_diagram,
)
from .replica import (
    DEFAULT_SOLVER,
    BracketError,
    FixedPointError,
    FixedPointState,
    ObjectiveProbeError,
    SolverConfig,
    SystemParams,
    find_critical_alpha,
    find_critical_rho_x,
    optimize_lambda,
    solve_mse_fixed_point,
    solve_threshold_fixed_point,
)
from .selftest import run_all

__all__ = ["main", "build_parser"]

# config keys that map to bare boolean flags
_BOOL_KEYS = {"with-mc"}

# the settings of the ensemble and its decoder, read only with --with-mc
_MC_KEYS = ("n", "trials", "seed", "success_tol", "decoder_tol", "decoder_max_iters")

_COMPUTE_ERRORS = (FixedPointError, BracketError, ObjectiveProbeError, BrokenProcessPool)


class _UsageError(Exception):
    pass


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _meta_of(args: argparse.Namespace, unread: Sequence[str] = (), **resolved: object) -> dict:
    """Echo the configuration the run actually used.

    Every flag of the subcommand appears, with values after config-file
    injection and defaulting, except the destinations in unread, which this
    run (its mode, objective or axis) never reads; keyword overrides supply
    values resolved outside argparse (the seed). Output routing flags are
    omitted since they do not affect the computation.
    """
    skip = {"command", "func", "format", "output", "config", *unread}
    meta: dict[str, object] = {"command": args.command, "version": __version__}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        meta["lambda" if key == "lam" else key] = value
    meta.update(resolved)
    return meta


def _emit(args: argparse.Namespace, meta: dict, records: list[dict], columns: list[str]) -> None:
    if args.format == "json":
        text = json.dumps({"meta": meta, "records": records}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key} = {_fmt(value)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([_fmt(record[column]) for column in columns])
        text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _progress(label: str):
    def callback(done: int, total: int) -> None:
        print(f"{label}: {done}/{total}", file=sys.stderr, flush=True)

    return callback


def _default_of(func, name: str) -> object:
    """The default of func's parameter name, for the flag that sets it."""
    return inspect.signature(func).parameters[name].default


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--output", default=None, metavar="PATH", help="write to a file instead of stdout")
    p.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="flat key = value file supplying defaults for any flag of this subcommand",
    )


def _add_solver_flags(p: argparse.ArgumentParser, search: bool = False, penalty: bool = False) -> None:
    """Flags of the solver settings a command reads: the search tolerance
    with search, the penalty search's bracket with penalty."""
    d = DEFAULT_SOLVER
    p.add_argument(
        "--rel-tol",
        type=float,
        default=d.rel_tol,
        help="mse sweep, threshold root and alpha boundary tolerance",
    )
    p.add_argument("--max-iters", type=int, default=d.max_iters, help="mse sweeps / threshold evaluations")
    if search:
        p.add_argument(
            "--bisection-tol",
            type=float,
            default=d.bisection_tol,
            help="search tolerance of the rho_x boundary (to half of it) and of log(lambda)",
        )
    if penalty:
        lo, hi = d.lambda_bracket
        p.add_argument("--lambda-min", type=float, default=lo, help="penalty search bracket, lower end")
        p.add_argument("--lambda-max", type=float, default=hi, help="penalty search bracket, upper end")


def _add_system_flags(p: argparse.ArgumentParser, with_variances: bool = True) -> None:
    p.add_argument("--alpha", type=float, default=None, help="measurement ratio M/N")
    p.add_argument("--rho-x", type=float, default=None, help="signal density")
    p.add_argument("--rho-w", type=float, required=True, help="noise density")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="penalty weight")
    if with_variances:
        d = SystemParams
        p.add_argument("--sigma2-x", type=float, default=d.sigma2_x, help="signal component variance")
        p.add_argument("--sigma2-w", type=float, default=d.sigma2_w, help="noise component variance")


def _add_ensemble_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=256, help="signal dimension")
    p.add_argument("--trials", type=int, default=50, help="number of sampled instances")
    p.add_argument("--seed", type=int, default=None, help="base seed (default: SPARSE_LAB_SEED or 12345)")
    tol = _default_of(run_monte_carlo, "success_tol")
    p.add_argument("--success-tol", type=float, default=tol, help="per-component success threshold")
    _add_workers_flag(p)
    d = DEFAULT_DECODER
    p.add_argument("--decoder-tol", type=float, default=d.primal_tol, help="decoder certificate tolerance")
    p.add_argument("--decoder-max-iters", type=int, default=d.max_iters, help="decoder sweep budget")


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (default: machine core count)",
    )


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    """The command's solver flags over DEFAULT_SOLVER, which supplies the settings it lacks."""
    d = DEFAULT_SOLVER
    return SolverConfig(
        rel_tol=args.rel_tol,
        max_iters=args.max_iters,
        lambda_bracket=(args.lambda_min, args.lambda_max) if "lambda_min" in args else d.lambda_bracket,
        bisection_tol=getattr(args, "bisection_tol", d.bisection_tol),
    )


def _decoder_config(args: argparse.Namespace) -> DecoderConfig:
    return DecoderConfig(
        primal_tol=args.decoder_tol,
        dual_tol=args.decoder_tol,
        max_iters=args.decoder_max_iters,
    )


def _seed_of(args: argparse.Namespace) -> int:
    """--seed, else SPARSE_LAB_SEED, else 12345."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("SPARSE_LAB_SEED", "12345")
    try:
        return int(raw)
    except ValueError as exc:
        raise _UsageError(f"SPARSE_LAB_SEED must be an integer, got {raw!r}") from exc


def _params(args: argparse.Namespace, **point: float) -> SystemParams:
    """The system at point (alpha and rho_x) with the --lambda, --rho-w and variance flags."""
    return SystemParams(
        lam=args.lam, rho_w=args.rho_w, sigma2_x=args.sigma2_x, sigma2_w=args.sigma2_w, **point
    )


def _ensembles(
    args: argparse.Namespace, params: Sequence[SystemParams]
) -> tuple[int, list[EnsembleSpec], Callable[..., Aggregate]]:
    """The seed, the ensemble of --n and --trials at each params, and
    run_monte_carlo bound to the decoder flags, --success-tol and --workers;
    the seed, every ensemble and the decoder settings are checked here."""
    seed = _seed_of(args)
    specs = [EnsembleSpec(n=args.n, params=p, trials=args.trials, base_seed=seed) for p in params]
    decode = partial(
        run_monte_carlo,
        decoder_cfg=_decoder_config(args),
        success_tol=args.success_tol,
        workers=args.workers,
    )
    return seed, specs, decode


def _require(args: argparse.Namespace, flag: str, reason: str) -> float:
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise _UsageError(f"{flag} is required {reason}")
    return value


def _grid(args: argparse.Namespace) -> list[float]:
    count = args.grid_count
    if count < 0:
        raise _UsageError("--grid-count must be nonnegative")
    if count == 0:
        return []
    if count == 1:
        return [args.grid_start]
    start, stop = args.grid_start, args.grid_stop
    # the ends are the endpoints themselves, not the spacing formula rounded
    if args.grid_scale == "log":
        if not (start > 0.0 and stop > 0.0):
            raise _UsageError("log grids need positive endpoints")
        lo, hi = math.log(start), math.log(stop)
        return [start, *(math.exp(lo + i * (hi - lo) / (count - 1)) for i in range(1, count - 1)), stop]
    return [*(start + i * (stop - start) / (count - 1) for i in range(count - 1)), stop]


def _add_grid_flags(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument("--grid-start", type=float, required=True, help=f"first {what} value")
    p.add_argument("--grid-stop", type=float, required=True, help=f"last {what} value")
    p.add_argument("--grid-count", type=int, required=True, help="number of grid points")
    p.add_argument("--grid-scale", choices=("linear", "log"), default="linear", help="grid spacing")


def cmd_threshold(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    if args.solve_for == "rho-x":
        alpha = _require(args, "--alpha", "when solving for the critical density")
        rho_x_c = find_critical_rho_x(alpha, args.lam, args.rho_w, cfg)
        alpha_c = alpha
        unread = ("rho_x",)
    else:
        rho_x_c = _require(args, "--rho-x", "when solving for the critical measurement ratio")
        alpha_c = find_critical_alpha(args.lam, rho_x_c, args.rho_w, cfg)
        # the alpha boundary is a root in chi_hat, to --rel-tol
        unread = ("alpha", "bisection_tol")
    state = solve_threshold_fixed_point(alpha_c, args.lam, rho_x_c, args.rho_w, cfg)
    meta = _meta_of(args, unread)
    record = {
        "solve_for": args.solve_for,
        "alpha_c": alpha_c,
        "rho_x_c": rho_x_c,
        "lambda": args.lam,
        "A": state.A,
        "chi_hat": state.chi_hat,
        "condition_residual": state.condition_residual,
        "iterations": state.iterations,
    }
    _emit(args, meta, [record], list(record.keys()))
    return 0


# the FixedPointState fields of a curve row and the Aggregate fields an
# ensemble reports, each in column order
_STATE_FIELDS = (
    "mse",
    "chi",
    "m_hat",
    "chi_hat",
    "diag_m",
    "diag_q",
    "iterations",
    "rejections",
)
_AGGREGATE_FIELDS = (
    "mean_mse",
    "std_error",
    "success_fraction",
    "not_converged",
)

_CURVE_COLUMNS = [
    "rho_x",
    "alpha",
    "status",
    *_STATE_FIELDS,
    *(f"mc_{name}" for name in _AGGREGATE_FIELDS),
]


def _curve_point(params: SystemParams, cfg: SolverConfig) -> FixedPointState | None:
    """The mse fixed point at one curve point, None where its solve fails."""
    try:
        return solve_mse_fixed_point(params, cfg)
    except FixedPointError:
        return None


def cmd_mse_curve(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    grid = _grid(args)
    if args.axis == "rho-x":
        alpha = _require(args, "--alpha", "when sweeping the signal density")
        points = [dict(alpha=alpha, rho_x=value) for value in grid]
    else:
        rho_x = _require(args, "--rho-x", "when sweeping the measurement ratio")
        points = [dict(alpha=value, rho_x=rho_x) for value in grid]
    params = [_params(args, **point) for point in points]
    if args.with_mc:
        seed, specs, decode = _ensembles(args, params)
    progress = _progress("mse-curve")
    # with --with-mc the ensembles take the time, and progress follows them
    states = _ordered_map(
        _curve_point,
        [(point_params, cfg) for point_params in params],
        args.workers,
        None if args.with_mc else progress,
    )
    records: list[dict] = []
    for index, (point, state) in enumerate(zip(points, states)):
        record = dict.fromkeys(_CURVE_COLUMNS, math.nan)
        record.update(point)
        if state is None:
            record["status"] = "failed"
        else:
            record["status"] = "perfect" if state.perfect else "converged"
            record.update((name, getattr(state, name)) for name in _STATE_FIELDS)
        if args.with_mc:
            aggregate = decode(specs[index])
            record.update((f"mc_{name}", getattr(aggregate, name)) for name in _AGGREGATE_FIELDS)
            progress(index + 1, len(grid))
        records.append(record)
    axis = "rho_x" if args.axis == "rho-x" else "alpha"
    if args.with_mc:
        meta = _meta_of(args, (axis,), seed=seed)
    else:
        meta = _meta_of(args, (axis, *_MC_KEYS))
    _emit(args, meta, records, _CURVE_COLUMNS)
    return 0


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    try:
        deltas = [float(part) for part in args.deltas.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"--deltas must be a comma-separated float list: {exc}") from exc
    if not deltas:
        raise _UsageError("--deltas must name at least one ratio")
    rows = sweep_phase_diagram(
        _grid(args),
        deltas,
        lambda_mode=args.lambda_mode,
        cfg=cfg,
        workers=args.workers,
        progress=_progress("phase-diagram"),
    )
    columns = [f.name for f in fields(PhaseDiagramRow)]
    # at lam = 1 alone the only search is the alpha boundary, a root in chi_hat to --rel-tol
    unread = ("bisection_tol", "lambda_min", "lambda_max") if args.lambda_mode == "fixed" else ()
    _emit(args, _meta_of(args, unread), [asdict(row) for row in rows], columns)
    return 0


def cmd_optimize_lambda(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    # the penalty is searched, never read; the boundary needs no variances
    if args.objective == "critical-rho-x":
        _require(args, "--alpha", "for the critical-density objective")
        unread: tuple[str, ...] = ("rho_x", "lam", "sigma2_x", "sigma2_w")
    elif args.objective == "critical-alpha":
        _require(args, "--rho-x", "for the critical-ratio objective")
        unread = ("alpha", "lam", "sigma2_x", "sigma2_w")
    else:
        _require(args, "--alpha", "for the mse objective")
        _require(args, "--rho-x", "for the mse objective")
        unread = ("lam",)
    optimum = optimize_lambda(
        args.objective,
        alpha=args.alpha,
        rho_x=args.rho_x,
        rho_w=args.rho_w,
        sigma2_x=args.sigma2_x,
        sigma2_w=args.sigma2_w,
        cfg=cfg,
    )
    meta = _meta_of(args, unread)
    record = {
        "objective": args.objective,
        "alpha": math.nan if args.alpha is None else args.alpha,
        "rho_x": math.nan if args.rho_x is None else args.rho_x,
        "rho_w": args.rho_w,
        "lambda_star": optimum.lambda_star,
        "objective_value": optimum.objective_value,
    }
    _emit(args, meta, [record], list(record.keys()))
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    alpha = _require(args, "--alpha", "to size the ensemble")
    params = _params(args, alpha=alpha, rho_x=_require(args, "--rho-x", "to sample signals"))
    _, (spec,), decode = _ensembles(args, [params])
    aggregate = decode(spec, progress=_progress("mc"))
    replica = solve_mse_fixed_point(params)
    record = {
        "n": spec.n,
        "m": spec.m,
        "trials": aggregate.trials,
        **{name: getattr(aggregate, name) for name in _AGGREGATE_FIELDS},
        "replica_mse": replica.mse,
        "replica_perfect": replica.perfect,
    }
    _emit(args, _meta_of(args, seed=spec.base_seed), [record], list(record.keys()))
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_all()
    for result in results:
        tag = "ok" if result.passed else "FAIL"
        print(f"{tag:4s} {result.name}: {result.detail}", file=sys.stderr)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed", file=sys.stderr)
    meta = _meta_of(args)
    records = [
        {"check": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    _emit(args, meta, records, ["check", "passed", "detail"])
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-lab",
        description="Predictions and Monte Carlo validation for L1-penalized L1 reconstruction",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="locate the perfect-recovery boundary")
    p.add_argument("--solve-for", choices=("rho-x", "alpha"), required=True)
    _add_system_flags(p, with_variances=False)
    _add_solver_flags(p, search=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("mse-curve", help="asymptotic error along a parameter grid")
    p.add_argument("--axis", choices=("rho-x", "alpha"), default="rho-x")
    _add_system_flags(p)
    _add_grid_flags(p, "axis")
    _add_solver_flags(p)
    p.add_argument("--with-mc", action="store_true", help="decode finite instances at each point")
    _add_ensemble_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_mse_curve)

    p = sub.add_parser("phase-diagram", help="boundary over a density grid")
    _add_grid_flags(p, "rho_x")
    p.add_argument("--deltas", default="0.2,0.1,0.02", help="comma list of rho_w / rho_x ratios")
    mode = _default_of(sweep_phase_diagram, "lambda_mode")
    p.add_argument("--lambda-mode", choices=("fixed", "both"), default=mode)
    _add_solver_flags(p, search=True, penalty=True)
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("optimize-lambda", help="tune the penalty weight")
    p.add_argument(
        "--objective",
        choices=("critical-rho-x", "critical-alpha", "mse"),
        required=True,
    )
    _add_system_flags(p)
    _add_solver_flags(p, search=True, penalty=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_optimize_lambda)

    p = sub.add_parser("mc", help="decode a sampled ensemble and compare predictions")
    _add_system_flags(p)
    _add_ensemble_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    _add_output_flags(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _read_config(path: str) -> list[tuple[str, str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from exc
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _inject_config(argv: list[str]) -> list[str]:
    """Expand every --config FILE, in command-line order, into flags placed
    before the explicit ones; a later file's value for a key replaces an earlier one's."""
    paths = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--config":
            path = next(tokens, None)
            if path is None:
                raise _UsageError("--config needs a file path")
            paths.append(path)
        elif token.startswith("--config="):
            paths.append(token.split("=", 1)[1])
    if not paths or not argv or argv[0].startswith("-"):
        return argv
    flags: dict[str, list[str]] = {}
    for path in paths:
        for key, value in _read_config(path):
            name = "--" + key.replace("_", "-")
            if name.lstrip("-") not in _BOOL_KEYS:
                flags[name] = [name, value]
            elif value.lower() in ("true", "1", "yes", "on"):
                flags[name] = [name]
            elif value.lower() in ("false", "0", "no", "off"):
                flags[name] = []
            else:
                raise _UsageError(f"config key {key!r} expects a boolean, got {value!r}")
    return [argv[0], *(token for flag in flags.values() for token in flag), *argv[1:]]


def main(argv: Sequence[str] | None = None) -> int:
    try:
        processed = _inject_config(list(sys.argv[1:] if argv is None else argv))
        try:
            args = build_parser().parse_args(processed)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        return args.func(args)
    except (_UsageError, ValueError, *_COMPUTE_ERRORS) as exc:
        # BracketError is a ValueError, so the computational failures are told apart first
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _COMPUTE_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
