"""Workload definitions, the untraced closed loop, and output checks.

Every workload is a fixed list of ``sparse-lab`` command lines (one
"cycle"), made of one or more parts, each part one subcommand. The loop
replays whole cycles back to back through ``sparse_lab.cli.main`` in this
process, with one caller, until the requested number of seconds has
passed, then checks every output.

Inputs do not depend on the run seed: decode cost varies tenfold between
instances, so a seed-dependent instance set made trials/s differ by ~30%
between seeds. Monte Carlo workloads use the base seed ``mc_seed``
instead, 12345 by default and 777 held out.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from sparse_lab import cli
from sparse_lab.decoder import DecoderConfig
from sparse_lab.replica import SystemParams, solve_mse_fixed_point

DEFAULT_MC_SEED = 12345
HELD_OUT_MC_SEED = 777

# Tolerances of the output checks against the recorded reference.
MEAN_MSE_RTOL = 1e-3  # a different exact decoder moves per-trial mse by ~1e-4
MEAN_MSE_ATOL = 1e-12  # perfect-phase ensembles average to ~1e-20
REPLICA_RTOL = 1e-9
BISECTION_TOL = 1e-6  # the CLI default --bisection-tol
DOMINANCE_SLACK = 1e-6  # criterion 10
CURVE_RTOL = 1e-6  # critical slowing down leaves ~1e-9 after rel_tol 1e-12


@dataclass(frozen=True)
class McWorkload:
    """``sparse-lab mc`` at each rho_x in turn; one call per point per cycle."""

    name: str
    n: int
    rho_x: tuple[float, ...]
    trials: int
    decoder_tol: float = 1e-9
    decoder_max_iters: int = 100_000
    alpha: float = 0.5
    lam: float = 1.0
    rho_w: float = 0.1
    kind: str = field(default="mc", init=False)

    @property
    def decoder(self) -> DecoderConfig:
        """The decoder configuration the CLI builds from these flags."""
        return DecoderConfig(
            primal_tol=self.decoder_tol, dual_tol=self.decoder_tol, max_iters=self.decoder_max_iters
        )

    def params(self, rho_x: float) -> SystemParams:
        return SystemParams(alpha=self.alpha, lam=self.lam, rho_x=rho_x, rho_w=self.rho_w)

    def argv(self, rho_x: float, mc_seed: int) -> list[str]:
        return [
            "mc", "--n", str(self.n), "--alpha", repr(self.alpha), "--lambda", repr(self.lam),
            "--rho-w", repr(self.rho_w), "--rho-x", repr(rho_x), "--trials", str(self.trials),
            "--seed", str(mc_seed), "--decoder-tol", repr(self.decoder_tol),
            "--decoder-max-iters", str(self.decoder_max_iters),
        ]

    def cycle(self, mc_seed: int) -> list[list[str]]:
        return [self.argv(rho_x, mc_seed) for rho_x in self.rho_x]


@dataclass(frozen=True)
class PhaseWorkload:
    """``sparse-lab phase-diagram`` over a rho_x grid and noise ratios."""

    name: str
    grid: tuple[float, float, int]
    deltas: tuple[float, ...]
    kind: str = field(default="phase", init=False)

    def cycle(self, mc_seed: int) -> list[list[str]]:
        start, stop, count = self.grid
        return [[
            "phase-diagram", "--grid-start", repr(start), "--grid-stop", repr(stop),
            "--grid-count", str(count), "--deltas", ",".join(map(repr, self.deltas)),
            "--lambda-mode", "both",
        ]]


@dataclass(frozen=True)
class CurveWorkload:
    """``sparse-lab mse-curve`` on a log rho_x grid at fixed alpha."""

    name: str
    grid: tuple[float, float, int]
    alpha: float = 0.5
    lam: float = 1.0
    rho_w: float = 0.1
    kind: str = field(default="curve", init=False)

    def cycle(self, mc_seed: int) -> list[list[str]]:
        start, stop, count = self.grid
        return [[
            "mse-curve", "--axis", "rho-x", "--alpha", repr(self.alpha), "--lambda", repr(self.lam),
            "--rho-w", repr(self.rho_w), "--grid-start", repr(start), "--grid-stop", repr(stop),
            "--grid-count", str(count), "--grid-scale", "log",
        ]]


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: the calls of its parts, in order, make one cycle."""

    name: str
    parts: tuple

    def cycle(self, mc_seed: int) -> list[tuple[object, list[str]]]:
        return [(part, argv) for part in self.parts for argv in part.cycle(mc_seed)]


def _workloads(*workloads: Workload) -> dict[str, Workload]:
    return {w.name: w for w in workloads}


# Full size, as timed. mc-noisy decodes the first two criterion-07 instances
# at each point: ~2 s of decoding each, so one cycle is ~11 s on 2 workers.
# asymptotics is one phase-diagram call (~4 s) then one mse-curve call (~1 s).
FULL = _workloads(
    Workload("mc-noisy", (
        McWorkload("mc-noisy", 256, (0.11, 0.13, 0.15, 0.18, 0.22), 2, 1e-7, 300_000),)),
    Workload("mc-sparse", (McWorkload("mc-sparse", 256, (0.02,), 50),)),
    Workload("asymptotics", (
        PhaseWorkload("phase-diagram", (0.05, 0.25, 5), (0.2, 0.1, 0.02)),
        CurveWorkload("mse-curve", (0.06, 0.3, 40)),
    )),
)

# Toy size for the self-test: same code paths, a few seconds in all.
TOY = _workloads(
    Workload("mc-noisy", (McWorkload("mc-noisy", 32, (0.11, 0.22), 2, 1e-7, 300_000),)),
    Workload("mc-sparse", (McWorkload("mc-sparse", 32, (0.02,), 4),)),
    Workload("asymptotics", (
        PhaseWorkload("phase-diagram", (0.05, 0.1, 2), (0.1,)),
        CurveWorkload("mse-curve", (0.06, 0.3, 3)),
    )),
)


def reference_key(argv: list[str]) -> str:
    """The command line that determines a call's output."""
    return " ".join(argv)


@dataclass
class Call:
    part: object
    argv: list[str]
    code: int
    wall: float
    records: list[dict]
    stderr: str
    start: float


def run_cli(part, argv: list[str], workers: int, out_dir: Path) -> Call:
    """One closed-loop call of the program, timed from entry to return."""
    out = out_dir / "call.json"
    full = [*argv, "--format", "json", "--output", str(out)]
    if argv[0] == "mc":
        full += ["--workers", str(workers)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(full)
        wall = time.perf_counter() - start
    records = json.loads(out.read_text())["records"] if code == 0 else []
    out.unlink(missing_ok=True)
    return Call(part, argv, code, wall, records, err.getvalue(), start)


def run_window(workload, seconds: float, mc_seed: int, workers: int, out_dir: Path) -> list[Call]:
    """Replay whole cycles until `seconds` have passed; at least one cycle."""
    cycle = workload.cycle(mc_seed)
    calls: list[Call] = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        for part, argv in cycle:
            calls.append(run_cli(part, argv, workers, out_dir))
    return calls


def ops_of(part) -> int:
    """Operations one call of a part attempts: trials, cells or points."""
    if part.kind == "mc":
        return part.trials
    if part.kind == "phase":
        return part.grid[2] * len(part.deltas)
    return part.grid[2]


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def merge(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.notes += other.notes


def _close(value: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - expected) <= atol + rtol * abs(expected)


class Checker:
    """Checks call outputs against the recorded reference and invariants.

    Failed operations: uncertified trials, failed mse points, every
    operation of a call that exits nonzero, and every operation whose
    output fails a check. Problems are check failures; an uncertified
    trial is a failed operation but not a wrong output.
    """

    def __init__(self, workload: Workload, reference: dict):
        self.reference = reference
        self._replica: dict[tuple[str, float], float] = {}
        for part in workload.parts:
            if part.kind == "mc":
                for rho_x in part.rho_x:
                    state = solve_mse_fixed_point(part.params(rho_x))
                    self._replica[part.name, rho_x] = 0.0 if state.perfect else state.mse

    def check(self, calls: list[Call]) -> CheckResult:
        result = CheckResult()
        seen: set[str] = set()
        for call in calls:
            ops = ops_of(call.part)
            result.attempted += ops
            key = reference_key(call.argv)
            if call.code != 0:
                result.failed += ops
                result.problems.append(f"exit {call.code}: {key}: {call.stderr.strip()[-200:]}")
                continue
            expected = self.reference.get(key)
            if expected is None:
                result.failed += ops
                result.problems.append(f"no reference for: {key}")
                continue
            check = {"mc": self._mc, "phase": self._phase, "curve": self._curve}[call.part.kind]
            failed, problems, note = check(call, expected)
            result.failed += failed
            result.problems += [f"{p} [{key}]" for p in problems]
            if note and key not in seen:
                result.notes.append(note)
            seen.add(key)
        return result

    def _mc(self, call: Call, expected: list[dict]) -> tuple[int, list[str], str]:
        (got,), (ref,) = call.records, expected
        rho_x = float(call.argv[call.argv.index("--rho-x") + 1])
        trials = call.part.trials
        problems = []
        if got["trials"] != trials:
            problems.append(f"trials {got['trials']} != requested {trials}")
        replica = self._replica[call.part.name, rho_x]
        if not _close(got["replica_mse"], replica, REPLICA_RTOL):
            problems.append(f"replica_mse {got['replica_mse']!r} != independent solve {replica!r}")
        if not _close(got["mean_mse"], ref["mean_mse"], MEAN_MSE_RTOL, MEAN_MSE_ATOL):
            problems.append(f"mean_mse {got['mean_mse']!r} != reference {ref['mean_mse']!r}")
        failed = trials if problems else int(got["not_converged"])
        if replica > 0.0:
            ratio = (f"mean_mse / replica_mse = {got['mean_mse']:.6g} / {replica:.6g} = "
                     f"{got['mean_mse'] / replica:.3f}")
        else:
            ratio = f"mean_mse {got['mean_mse']:.6g}, replica predicts perfect recovery"
        note = (
            f"rho_x={rho_x}: {ratio} (information only), "
            f"not_converged {got['not_converged']}/{got['trials']}"
        )
        return failed, problems, note

    def _phase(self, call: Call, expected: list[dict]) -> tuple[int, list[str], str]:
        rows = call.records
        bad: set[int] = set()
        problems = []
        if len(rows) != len(expected):
            return len(expected), [f"{len(rows)} rows, reference has {len(expected)}"], ""
        for i, (row, ref) in enumerate(zip(rows, expected)):
            if (row["rho_x"], row["delta"]) != (ref["rho_x"], ref["delta"]):
                bad.add(i)
                problems.append(f"row {i} is cell {row['rho_x'], row['delta']}, "
                                f"expected {ref['rho_x'], ref['delta']}")
                continue
            if not row["alpha_c_optimal"] <= row["alpha_c_fixed"] + DOMINANCE_SLACK:
                bad.add(i)
                problems.append(f"row {i}: optimal penalty does not dominate lam = 1")
            for column in ("alpha_c_fixed", "alpha_c_optimal"):
                if not abs(row[column] - ref[column]) <= BISECTION_TOL:
                    bad.add(i)
                    problems.append(f"row {i}: {column} {row[column]!r} != reference {ref[column]!r}")
        for delta in {row["delta"] for row in rows}:
            index = [i for i, row in enumerate(rows) if row["delta"] == delta]
            for column in ("alpha_c_fixed", "alpha_c_optimal"):
                for a, b in zip(index, index[1:]):
                    if not rows[a][column] <= rows[b][column]:
                        bad.add(b)
                        problems.append(f"row {b}: {column} decreases in rho_x at delta={delta}")
        return len(bad), problems, ""

    def _curve(self, call: Call, expected: list[dict]) -> tuple[int, list[str], str]:
        points = call.records
        if len(points) != len(expected):
            return len(expected), [f"{len(points)} points, reference has {len(expected)}"], ""
        failed = 0
        problems = []
        for i, (got, ref) in enumerate(zip(points, expected)):
            wrong = got["status"] != ref["status"] or not _close(got["rho_x"], ref["rho_x"], 1e-15)
            if not wrong and got["status"] == "converged":
                wrong = not _close(got["mse"], ref["mse"], CURVE_RTOL)
            if wrong:
                problems.append(f"point {i}: {got['status']} mse {got['mse']!r}, "
                                f"reference {ref['status']} {ref['mse']!r}")
            failed += wrong or got["status"] == "failed"
        return failed, problems, ""
