"""Machine speed, sampled beside the workload, for scaling times.

A shared 2-vCPU x86-64 VM changes speed by up to 40% for tens of seconds
at a time (a fixed decode took 52-87 ms within 40 s, CPU time tracking
wall time). A child process times ``probe``, a fixed kernel that
uses no program code, every PERIOD_S seconds; a call's time is scaled by
the probe times sampled while it ran. On 15 s windows of mse-curve this
took the range of the median call time from 0.45 to 0.13 of its median.
"""

from __future__ import annotations

import math
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

# Probe CPU time at the reference speed: 2-vCPU x86-64 VM, OpenBLAS, numpy
# 2.4, Python 3.11. A wall second during which the probe takes p seconds
# counts as REFERENCE_PROBE_S / p reference seconds.
REFERENCE_PROBE_S = 0.007
PERIOD_S = 0.25  # ~3% of one core

_MATRIX = np.random.default_rng(0).standard_normal((128, 256)) / 16.0


def probe() -> float:
    """CPU seconds of a fixed mix of small matrix-vector products and libm calls.

    The halves stand for the decoder's sweeps and the special functions
    under the replica solvers. CPU time, not wall time, so that waiting
    for a core the workload holds does not count.
    """
    start = time.process_time()
    x = np.ones(_MATRIX.shape[1])
    for _ in range(150):
        x = np.clip(x - 0.01 * (_MATRIX.T @ (_MATRIX @ x)), -1.0, 1.0)
    acc = 0.0
    for i in range(15_000):
        acc += math.erfc(i * 1e-4) * math.exp(-i * 1e-5)
    return time.process_time() - start


def _sample() -> None:
    """Child process: print "<perf_counter> <probe seconds>" lines until stdin closes."""
    probe()  # the first call also loads BLAS
    while True:
        at = time.perf_counter()
        print(at, probe(), flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.read(1):
            return


class SpeedSampler:
    """Context manager running the probe in a child process; `scale` converts times.

    The child is this file run as a script. It exits when its stdin
    closes, so it also ends if this process dies; on exit the sampler
    closes that pipe and waits for the child and its reader thread.
    """

    def __enter__(self) -> "SpeedSampler":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.samples = [self._parse(self._proc.stdout.readline())]
        except BaseException:
            self._stop()
            raise
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        self._reader.join()

    @staticmethod
    def _parse(line: str) -> tuple[float, float]:
        at, seconds = line.split()
        return float(at), float(seconds)

    def _read(self) -> None:
        for line in self._proc.stdout:
            self.samples.append(self._parse(line))

    def _stop(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def probe_at(self, start: float, end: float) -> float:
        """Median probe time sampled within one period of [start, end]."""
        near = [p for t, p in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.median(near)

    def scale(self, start: float, wall: float) -> float:
        """Reference seconds of a wall interval."""
        return wall * REFERENCE_PROBE_S / self.probe_at(start, start + wall)


if __name__ == "__main__":
    _sample()
