"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload at toy size (n = 32, a few trials, a two-cell grid,
a three-point curve), untraced and traced, and checks that every metric
named in BENCHMARK.json is emitted with its unit and that all outputs pass
their checks. Then it corrupts every reference entry and checks that each
workload reports a wrong output and counts it in failed_frac. Exits 0 when
all of this holds.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402


def corrupt(reference: dict) -> dict:
    """A reference that no correct program output matches."""
    wrong = copy.deepcopy(reference)
    for key, records in wrong.items():
        for record in records:
            if key.startswith("mc "):
                record["mean_mse"] = 2.0 * record["mean_mse"] + 1e-6
            elif key.startswith("phase-diagram "):
                record["alpha_c_fixed"] += 1e-3
            elif record["status"] == "converged":
                record["mse"] *= 1.01
            else:
                record["status"] = "converged"
    return wrong


def main() -> int:
    reference = run.prepare()
    import workloads as wl

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    spans = run.OUT / "spans-selftest.jsonl"
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def emitted(metrics: dict, wanted: dict, what: str) -> None:
        units = {name: unit for name, (value, unit) in metrics.items()}
        expect(units == wanted, f"{what}: every metric emitted with its unit")
        if units != wanted:
            print(f"     missing {sorted(set(wanted) - set(units))}, "
                  f"extra {sorted(set(units) - set(wanted))}")

    for name in run.WORKLOADS:
        metrics, _, checks = run.measure(name, 0.1, 0, wl.DEFAULT_MC_SEED, wl.TOY, wl.TOY,
                                         reference, spans)
        emitted(metrics, end_to_end, f"{name} untraced")
        expect(checks.correct and checks.failed == 0 and checks.attempted > 0,
               f"{name} untraced: outputs pass ({checks.failed} failed of {checks.attempted})")
        json.dumps(run.result_of(metrics, checks))

    metrics, _, checks = run.measure(run.WORKLOADS[0], 0.1, 1, wl.DEFAULT_MC_SEED, wl.TOY, wl.TOY,
                                     reference, spans)
    emitted(metrics, per_layer, "traced")
    expect(checks.correct and checks.failed == 0,
           f"traced: outputs pass ({checks.failed} failed of {checks.attempted})")

    wrong = corrupt(reference)
    for name in run.WORKLOADS:
        _, _, checks = run.measure(name, 0.1, 0, wl.DEFAULT_MC_SEED, wl.TOY, wl.TOY, wrong, spans)
        expect(not checks.correct and checks.failed > 0,
               f"{name} with a wrong reference: check fails, failed_frac = "
               f"{checks.failed}/{checks.attempted}")

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
