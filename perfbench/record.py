"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every call of the full and toy workloads once, for the default and
the held-out Monte Carlo seeds, and writes their output records to
``perfbench/reference.json``, keyed by command line. Run it only at a
commit whose outputs are the accepted reference; the committed file holds
the outputs of the program at commit 0f2e2d1.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    run.OUT.mkdir(exist_ok=True)
    workers = len(os.sched_getaffinity(0))
    reference = {}
    for sizes in (wl.FULL, wl.TOY):
        for workload in sizes.values():
            for mc_seed in (wl.DEFAULT_MC_SEED, wl.HELD_OUT_MC_SEED):
                for part, argv in workload.cycle(mc_seed):
                    key = wl.reference_key(argv)
                    if key in reference:
                        continue
                    call = wl.run_cli(part, argv, workers, run.OUT)
                    if call.code != 0:
                        print(f"error: {key} exited {call.code}: {call.stderr}", file=sys.stderr)
                        return 1
                    reference[key] = call.records
                    print(f"{call.wall:8.3f} s  {key}", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
