"""Traced run: spans around calls into the public functions of each layer.

The traced pass goes through every workload once, serially, calling the
same public functions the program calls for it. Spans (name, start, end,
parent, workload) are kept in memory and written out when the run ends.
Each workload is also run once untraced through the CLI (for the pool
idle share) and once as an untraced twin of the traced pass (for the
tracing overhead). Spans inside the program, such as a decode split into
iterations and certificate, are not recorded.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from sparse_lab.decoder import decode, estimate_operator_norm
from sparse_lab.experiments import EnsembleSpec, sample_instance
from sparse_lab.replica import (
    FixedPointError,
    SystemParams,
    find_critical_alpha,
    optimize_lambda,
    solve_mse_fixed_point,
    solve_threshold_fixed_point,
)
from sparse_lab.special import q_function, r_lambda, s_func

import workloads as wl

# Fixed argument set of the special-function microloop, log-spaced.
SPECIAL_ARGS = tuple(math.exp(math.log(0.05) + i * math.log(37.0 / 0.05) / 63) for i in range(64))
SPECIAL_REPEATS = 7
SPECIAL_LOOPS = 200


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str


class Recorder:
    """In-memory span list; `enabled=False` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.workload = ""

    def begin(self, name: str) -> None:
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.workload))

    def end(self) -> None:
        if self.enabled:
            self.spans[self._stack.pop()].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "workload": s.workload}) + "\n")


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, with its label."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max (n={n}: no percentile has 10 samples beyond)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.4g} (n={n}, 10 beyond)"


# --- passes: the same calls, traced or not ----------------------------------


def _mc_pass(rec: Recorder, workload: wl.McWorkload, mc_seed: int) -> dict:
    cfg = workload.decoder
    trials = []
    for rho_x in workload.rho_x:
        params = workload.params(rho_x)
        rec.call("replica.solve_mse_fixed_point", solve_mse_fixed_point, params)
        spec = EnsembleSpec(n=workload.n, params=params, trials=workload.trials, base_seed=mc_seed)
        for i in range(workload.trials):
            t0 = time.perf_counter()
            instance = rec.call("experiments.sample_instance", sample_instance, spec, i)
            t1 = time.perf_counter()
            # decode computes the norm again internally; this extra call only measures it
            rec.call("probe.estimate_operator_norm", estimate_operator_norm, instance.A,
                     cfg.power_iters, cfg.power_tol)
            t2 = time.perf_counter()
            result = rec.call("decoder.decode", decode, instance, workload.lam, cfg)
            t3 = time.perf_counter()
            trials.append({"sample": t1 - t0, "norm": t2 - t1, "decode": t3 - t2,
                           "iterations": result.iterations, "converged": result.converged})
    return {"trials": trials}


def _phase_pass(rec: Recorder, workload: wl.PhaseWorkload, mc_seed: int) -> dict:
    start, stop, count = workload.grid
    cells, thresholds = [], []
    for i in range(count):
        rho_x = start + i * (stop - start) / (count - 1) if count > 1 else start
        for delta in workload.deltas:
            rho_w = delta * rho_x
            t0 = time.perf_counter()
            rec.begin("experiments.phase_cell")
            t_b = time.perf_counter()
            alpha_fixed = rec.call("replica.find_critical_alpha", find_critical_alpha, 1.0, rho_x, rho_w)
            t_l = time.perf_counter()
            optimum = rec.call("replica.optimize_lambda", optimize_lambda, "critical-alpha",
                               rho_x=rho_x, rho_w=rho_w)
            t_e = time.perf_counter()
            rec.end()
            t1 = time.perf_counter()
            state = rec.call("replica.solve_threshold_fixed_point", solve_threshold_fixed_point,
                             alpha_fixed, 1.0, rho_x, rho_w)
            t2 = time.perf_counter()
            cells.append({"rho_x": rho_x, "delta": delta, "alpha_c_fixed": alpha_fixed,
                          "alpha_c_optimal": optimum.objective_value, "cell": t1 - t0,
                          "boundary": t_l - t_b, "search": t_e - t_l})
            thresholds.append({"time": t2 - t1, "iterations": state.iterations})
    return {"cells": cells, "thresholds": thresholds}


def _curve_pass(rec: Recorder, workload: wl.CurveWorkload, mc_seed: int) -> dict:
    start, stop, count = workload.grid
    lo, hi = math.log(start), math.log(stop)
    points = []
    for i in range(count):
        rho_x = math.exp(lo + i * (hi - lo) / (count - 1)) if count > 1 else start
        params = SystemParams(alpha=workload.alpha, lam=workload.lam, rho_x=rho_x, rho_w=workload.rho_w)
        t0 = time.perf_counter()
        try:
            state = rec.call("replica.solve_mse_fixed_point", solve_mse_fixed_point, params)
        except FixedPointError:
            state = None
        points.append({"time": time.perf_counter() - t0,
                       "iterations": None if state is None else state.iterations})
    return {"points": points}


_PASSES = {"mc": _mc_pass, "phase": _phase_pass, "curve": _curve_pass}


def special_microloop(rec: Recorder) -> dict[str, float]:
    """ns per call of each special function over SPECIAL_ARGS, median of repeats."""
    cases = {
        "q_function": (q_function, [(x,) for x in SPECIAL_ARGS]),
        "r_lambda": (r_lambda, [(1.0, 1.0 / (x * x)) for x in SPECIAL_ARGS]),
        "s_func": (s_func, [(x,) for x in SPECIAL_ARGS]),
    }
    out = {}
    for name, (fn, args) in cases.items():
        samples = []
        rec.begin(f"special.{name}")
        for _ in range(SPECIAL_REPEATS):
            t0 = time.perf_counter()
            for _ in range(SPECIAL_LOOPS):
                for a in args:
                    fn(*a)
            samples.append((time.perf_counter() - t0) / (SPECIAL_LOOPS * len(args)) * 1e9)
        rec.end()
        out[name] = statistics.median(samples)
    return out


# --- analysis ---------------------------------------------------------------


@dataclass
class Section:
    """One workload's traced numbers and its report lines."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.metrics[name] = (value, unit)
        self.lines.append(f"  {name} = {value:.6g} {unit}" + (f"  [{detail}]" if detail else ""))


def self_times(spans: list[Span], root: int) -> dict[str, float]:
    """Self time per layer (name prefix) under span `root`, root self as 'unaccounted'."""
    child_time = {}
    inside = {root}
    for i in range(root + 1, len(spans)):
        s = spans[i]
        if s.parent not in inside:
            break
        inside.add(i)
        child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}
    for i in inside:
        s = spans[i]
        layer = "unaccounted" if i == root else s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s.end - s.start) - child_time.get(i, 0.0)
    return out


def _mc_metrics(sec: Section, name: str, data: dict, workers: int, cli_wall: float) -> None:
    trials = data["trials"]
    decodes = [t["decode"] for t in trials]
    run_trial = [t["sample"] + t["decode"] for t in trials]
    iterations = sum(t["iterations"] for t in trials)
    certified = sum(t["converged"] for t in trials)
    sweep_time = sum(t["decode"] - t["norm"] for t in trials)
    p = f"{name}."
    sec.put(p + "decoder.iterations", iterations, "count", f"total over {len(trials)} decodes")
    sec.put(p + "decoder.sweep_us", sweep_time / max(iterations, 1) * 1e6, "us",
            "(decode - operator norm) / iterations")
    sec.put(p + "decoder.decode_s_p50", statistics.median(decodes), "s", f"n={len(decodes)}")
    value, label = tail(decodes)
    sec.put(p + "decoder.decode_s_tail", value, "s", label)
    sec.put(p + "decoder.operator_norm_ms", statistics.median(t["norm"] for t in trials) * 1e3, "ms",
            f"median, n={len(trials)}")
    sec.put(p + "decoder.certified_frac", certified / len(trials), "frac",
            f"{certified} certified of {len(trials)} decodes")
    sec.put(p + "experiments.sample_instance_ms",
            statistics.median(t["sample"] for t in trials) * 1e3, "ms", f"median, n={len(trials)}")
    sec.put(p + "experiments.run_trial_s_p50", statistics.median(run_trial), "s",
            f"sample + decode, n={len(run_trial)}")
    value, label = tail(run_trial)
    sec.put(p + "experiments.run_trial_s_tail", value, "s", label)
    sec.put(p + "experiments.pool_idle_frac", 1.0 - sum(run_trial) / (workers * cli_wall), "frac",
            f"1 - {sum(run_trial):.4g} s of trials / "
            f"({workers} workers x {cli_wall:.4g} s untraced mc wall)")


def _phase_metrics(sec: Section, name: str, data: dict) -> None:
    cells, thresholds = data["cells"], data["thresholds"]
    iterations = sum(t["iterations"] for t in thresholds)
    p = f"{name}."
    sec.put(p + "experiments.phase_cell_ms", statistics.median(c["cell"] for c in cells) * 1e3, "ms",
            f"median, n={len(cells)} cells")
    sec.put(p + "replica.boundary_solve_ms", statistics.median(c["boundary"] for c in cells) * 1e3,
            "ms", f"find_critical_alpha at lam = 1, median, n={len(cells)}")
    sec.put(p + "replica.lambda_search_ms", statistics.median(c["search"] for c in cells) * 1e3,
            "ms", f"optimize_lambda, median, n={len(cells)}")
    sec.put(p + "replica.threshold_solve_us",
            sum(t["time"] for t in thresholds) / len(thresholds) * 1e6, "us",
            f"mean over {len(thresholds)} solves at alpha_c")
    sec.put(p + "replica.threshold_sweeps", iterations, "count",
            f"total over {len(thresholds)} solves")


def _curve_metrics(sec: Section, name: str, data: dict) -> None:
    points = data["points"]
    solved = [q for q in points if q["iterations"] is not None]
    sweeps = sum(q["iterations"] for q in solved)
    p = f"{name}."
    sec.put(p + "replica.mse_solve_ms_p50", statistics.median(q["time"] for q in points) * 1e3, "ms",
            f"n={len(points)} points")
    sec.put(p + "replica.mse_sweeps", sweeps, "count",
            f"total over {len(solved)} solved of {len(points)} points")
    sec.put(p + "replica.mse_sweep_us", sum(q["time"] for q in solved) / max(sweeps, 1) * 1e6, "us",
            "solve time / sweeps")


# Layers whose self-time share is a per-layer metric, per kind of part.
SHARE_LAYERS = {
    "mc": ("experiments", "decoder", "replica", "probe", "unaccounted"),
    "phase": ("experiments", "replica", "unaccounted"),
    "curve": ("replica", "unaccounted"),
}


def traced_run(workloads: dict, mc_seed: int, workers: int, reference: dict, out_dir: Path,
               spans_path: Path) -> tuple[dict[str, tuple[float, str]], list[str], wl.CheckResult]:
    """Trace every workload once; return per-layer metrics, report lines, checks.

    The outputs of the untraced CLI calls are checked as in an untraced run;
    the traced passes add their decodes, cells and points as operations,
    failed when a decode is uncertified or an mse point fails to converge.
    """
    rec = Recorder(enabled=True)
    quiet = Recorder(enabled=False)
    metrics: dict[str, tuple[float, str]] = {}
    lines: list[str] = []
    checks = wl.CheckResult()
    for name, workload in workloads.items():
        sec = Section()
        calls = [wl.run_cli(part, argv, workers, out_dir) for part, argv in workload.cycle(mc_seed)]
        result = wl.Checker(workload, reference).check(calls)
        cli_wall = sum(c.wall for c in calls)

        t0 = time.perf_counter()
        for part in workload.parts:
            _PASSES[part.kind](quiet, part, mc_seed)
        untraced = time.perf_counter() - t0

        rec.workload = name
        root = len(rec.spans)
        rec.begin(f"bench.{name}")
        data = [_PASSES[part.kind](rec, part, mc_seed) for part in workload.parts]
        rec.end()
        traced = rec.spans[root].end - rec.spans[root].start

        for part, part_data in zip(workload.parts, data):
            if part.kind == "mc":
                part_wall = sum(c.wall for c in calls if c.part is part)
                _mc_metrics(sec, name, part_data, workers, part_wall)
                uncertified = sum(not t["converged"] for t in part_data["trials"])
                result.attempted += len(part_data["trials"])
                result.failed += uncertified
            elif part.kind == "phase":
                _phase_metrics(sec, name, part_data)
                result.attempted += len(part_data["cells"])
            else:
                _curve_metrics(sec, name, part_data)
                failed = sum(q["iterations"] is None for q in part_data["points"])
                result.attempted += len(part_data["points"])
                result.failed += failed
        checks.merge(result)

        layers = self_times(rec.spans, root)
        for layer in dict.fromkeys(l for part in workload.parts for l in SHARE_LAYERS[part.kind]):
            share = layers.get(layer, 0.0) / traced
            sec.put(f"{name}.share.{layer}", share, "frac",
                    f"self {layers.get(layer, 0.0):.4g} s of traced wall {traced:.4g} s")
        sec.put(f"{name}.trace_overhead_s", traced - untraced, "s",
                f"traced wall {traced:.4g} s - untraced wall {untraced:.4g} s")
        metrics.update(sec.metrics)
        lines.append(f"traced {name}: untraced CLI wall {cli_wall:.4g} s, "
                     f"{result.failed} failed of {result.attempted} operations")
        lines += sec.lines

    rec.workload = "special"
    root = len(rec.spans)
    rec.begin("bench.special")
    ns = special_microloop(rec)
    rec.end()
    lines.append(f"special-function microloop: {len(SPECIAL_ARGS)} arguments in [0.05, 37], "
                 f"{SPECIAL_LOOPS} loops, median of {SPECIAL_REPEATS} repeats")
    for fn, value in ns.items():
        metrics[f"special.{fn}_ns"] = (value, "ns")
        lines.append(f"  special.{fn}_ns = {value:.6g} ns  [per call]")
    lines.append("  special is called from inside replica; its self time there needs spans in "
                 "the program and is not separated")
    rec.write(spans_path)
    return metrics, lines, checks

