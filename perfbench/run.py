"""Layered benchmark of sparse-lab: end-to-end rates and per-layer costs.

    python3 perfbench/run.py --workload mc-noisy --seed 12345 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the workload's calls are replayed through
``sparse_lab.cli.main`` in a closed loop with one caller for about
``--seconds`` seconds, every output is checked, and the end-to-end metrics
are printed. With ``--trace 1`` a separate traced run goes through every
workload once and prints the per-layer metrics. The last line of stdout
is one JSON object: correct, attempted, failed, metrics.

End-to-end times are in reference seconds: wall time scaled by a fixed
probe kernel sampled while the calls run (see ``speed.py``), so that a
slow spell of the host does not read as a slower program; wall figures
are printed beside them.

``--seed`` does not change the inputs (see ``workloads.py``); Monte Carlo
ensembles are drawn from ``--mc-seed``, 12345 by default, with 777 as the
held-out seed on which a claimed gain must also hold.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so mc pool workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("mc-noisy", "mc-sparse", "asymptotics")
SETUP_REPEATS = 5

# The rate of each kind of part, under the name the report uses.
RATE_NAMES = {"mc": "mc_trials_per_s", "phase": "phase_cells_per_s", "curve": "mse_points_per_s"}

_SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import sparse_lab; "
    "from sparse_lab import cli; cli.build_parser(); print(repr(time.perf_counter()))"
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=12345, help="run seed; the inputs do not depend on it")
    p.add_argument("--seconds", type=float, default=30.0, help="closed-loop duration")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mc-seed", type=int, default=12345,
                   help="base seed passed to sparse-lab mc --seed (held out: 777)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def measure_setup() -> list[tuple[float, float]]:
    """(start, wall) pairs: fresh interpreter to a built CLI parser, timed from the spawn."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)], check=True,
                              capture_output=True, text=True)
        samples.append((start, float(done.stdout.strip()) - start))
    return samples


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus `workers` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def environment(workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        # the ceiling keeps git from searching above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unavailable (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": workers,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def untraced(workload, seconds: float, mc_seed: int, workers: int, reference: dict,
              warmup) -> tuple[dict, list[str], object]:
    """Closed loop over `workload` for `seconds`; end-to-end metrics and checks.

    Times are medians in reference seconds (see ``speed.py``); wall
    figures are printed beside them.
    """
    import workloads as wl
    from speed import REFERENCE_PROBE_S, SpeedSampler

    with SpeedSampler() as speed:
        setup = measure_setup()
        checker = wl.Checker(workload, reference)
        wl.run_window(warmup, 0.0, mc_seed, workers, OUT)  # not timed or checked
        calls = wl.run_window(workload, seconds, mc_seed, workers, OUT)
    checks = checker.check(calls)
    # per distinct call: its part and its times over the repeats
    parts: dict[str, object] = {}
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for call in calls:
        key = wl.reference_key(call.argv)
        parts[key] = call.part
        scaled.setdefault(key, []).append(speed.scale(call.start, call.wall))
        raw.setdefault(key, []).append(call.wall)

    def rate_of(keys: list[str], times: dict[str, list[float]]) -> tuple[int, float]:
        """Operations of one cycle over the sum of each call's median time."""
        ops = sum(wl.ops_of(parts[k]) for k in keys)
        return ops, ops / sum(statistics.median(times[k]) for k in keys)

    cycle_ops, rate = rate_of(list(scaled), scaled)
    setup_s = statistics.median(speed.scale(start, wall) for start, wall in setup)
    pool = workers if any(part.kind == "mc" for part in workload.parts) else 0
    rss = peak_rss_mb(pool)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    probes = [p for _, p in speed.samples]
    lines = [
        f"ops_per_s = {rate:.6g} 1/s at reference speed, {rate_of(list(raw), raw)[1]:.6g} 1/s wall"
        f"  [{cycle_ops} operations per cycle of {len(scaled)} calls over the sum of their median "
        f"times; {len(calls)} calls in {sum(c.wall for c in calls):.4g} s]",
    ]
    for part in workload.parts:
        keys = [k for k in scaled if parts[k] is part]
        ops, part_rate = rate_of(keys, scaled)
        lines.append(f"  {RATE_NAMES[part.kind]} = {part_rate:.6g} 1/s at reference speed, "
                     f"{rate_of(keys, raw)[1]:.6g} 1/s wall  [{part.name}: {ops} operations in "
                     f"{len(keys)} calls per cycle]")
    lines += [
        f"setup_s = {setup_s:.6g} s at reference speed  [median of {len(setup)}; wall "
        + ", ".join(f"{w:.4g}" for _, w in setup) + " s]",
        f"peak_rss_mb = {rss:.6g} MB  [own peak + {pool} x largest child peak]",
        f"probe = {statistics.median(probes) * 1e3:.4g} ms median, {min(probes) * 1e3:.4g}-"
        f"{max(probes) * 1e3:.4g} ms over {len(probes)} samples  "
        f"[reference {REFERENCE_PROBE_S * 1e3:g} ms]",
    ]
    return metrics, lines, checks


def measure(name: str, seconds: float, trace: int, mc_seed: int, sizes: dict, warmups: dict,
            reference: dict, spans_path: Path) -> tuple[dict, list[str], object]:
    """Metrics, report lines and checks of one run."""
    import tracing

    workers = len(os.sched_getaffinity(0))
    if trace:
        return tracing.traced_run(sizes, mc_seed, workers, reference, OUT, spans_path)
    return untraced(sizes[name], seconds, mc_seed, workers, reference, warmups[name])


def result_of(metrics: dict, checks) -> dict:
    """The benchmark's last output line."""
    return {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def prepare() -> dict:
    """Make the program importable and load the reference; exit 2 without a checkout."""
    if not (SRC / "sparse_lab" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a sparse-lab checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return json.loads(REFERENCE.read_text())


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like an exception, so the probe child and the mc pool
    # are stopped and waited for on that path out too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    reference = prepare()
    import workloads as wl

    workers = len(os.sched_getaffinity(0))
    env = environment(workers)
    tag = f"{args.workload}-seed{args.seed}-mcseed{args.mc_seed}-trace{args.trace}"
    metrics, lines, checks = measure(args.workload, args.seconds, args.trace, args.mc_seed,
                                     wl.FULL, wl.TOY, reference, OUT / f"spans-{tag}.jsonl")

    frac = checks.failed / checks.attempted if checks.attempted else float("nan")
    print(f"workload {args.workload}, seed {args.seed}, mc seed {args.mc_seed}, trace {args.trace}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        print("traced run: every workload once, whichever --workload names the run")
    for line in lines + [f"note: {n}" for n in checks.notes]:
        print(line)
    print(f"failed_frac = {frac:.6g}  [{checks.failed} failed of {checks.attempted} operations]")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    result = result_of(metrics, checks)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "problems": checks.problems, **result}, indent=2)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
