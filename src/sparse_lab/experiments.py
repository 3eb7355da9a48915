"""Monte Carlo validation harness and phase-diagram sweeps.

Random instances are drawn from counter-based streams keyed by
(base_seed, trial_index, purpose), so every trial is reproducible in
isolation and results do not depend on scheduling: splitting the work
across processes returns bitwise-identical aggregates.

Parallel Monte Carlo calls reuse one warm worker pool, so a caller that
makes calls back to back (mse-curve --with-mc, a Python loop over grid
points) forks its workers once. A parallel call takes the idle pool out
of its slot, reusing it if it has the call's size and otherwise shutting
it down and forking a new one, so the workers see this module's state
(and the rest of the process's) as of that fork, not as of each call. A
call that succeeds puts its pool back, shutting down any pool another
thread put back meanwhile, and the pool is shut down _POOL_IDLE_S
seconds later unless another call takes it first. A call that fails (a
worker died, or an interrupt) is not retried and shuts its pool down,
dropping the trials not yet started. Workers of a live pool are joined
at interpreter exit.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from .decoder import DEFAULT_DECODER, DecoderConfig, ProblemInstance, decode
from .replica import DEFAULT_SOLVER, SolverConfig, SystemParams, find_critical_alpha, optimize_lambda

__all__ = [
    "EnsembleSpec",
    "TrialSummary",
    "Aggregate",
    "PhaseDiagramRow",
    "sample_mixture",
    "sample_instance",
    "run_trial",
    "run_monte_carlo",
    "sweep_phase_diagram",
]

# Stream purposes; the tag enters the seed so the three draws per trial
# come from unrelated substreams.
_MATRIX_TAG = 0
_SIGNAL_TAG = 1
_NOISE_TAG = 2

# A component of the estimate counts as detected support above this size.
_SUPPORT_TOL = 1e-6

# The worker pool is shut down after this many seconds without a call.
# Forked workers hold every descriptor this process had at the fork, so
# whoever waits for EOF on a pipe this process closes waits this long
# after the last call; back-to-back calls come within a few milliseconds.
_POOL_IDLE_S = 0.1

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class EnsembleSpec:
    """A finite-size ensemble: dimension, parameters, trial count, seed."""

    n: int
    params: SystemParams
    trials: int
    base_seed: int

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed!r}")
        if self.m < 1:
            raise ValueError(
                f"alpha={self.params.alpha!r} with n={self.n!r} leaves no measurement rows"
            )

    @property
    def m(self) -> int:
        """Measurement count, the nearest integer to alpha * n."""
        return round(self.params.alpha * self.n)


@dataclass(frozen=True)
class TrialSummary:
    """Per-trial outcome of decode-and-compare; iterations and finish are the decode's."""

    squared_error: float
    objective: float
    converged: bool
    support_precision: float
    support_recall: float
    wall_time: float
    iterations: int
    finish: str


@dataclass(frozen=True)
class Aggregate:
    """Ensemble summary of the decoded trials.

    mean_mse averages the per-component squared error over all trials,
    including any whose decode did not converge; not_converged reports how
    many those were so they are never silently absorbed.
    """

    mean_mse: float
    std_error: float
    success_fraction: float
    trials: int
    not_converged: int


def _stream(base_seed: int, trial_index: int, tag: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(trial_index, tag))
    return np.random.Generator(np.random.Philox(seq))


def sample_mixture(
    n: int,
    rho: float,
    sigma2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """n iid draws of a Bernoulli(rho) times N(0, sigma2) product.

    Zeros are exact. The mask and the Gaussian values are always both
    drawn, so the stream advances identically for every rho.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2!r}")
    mask = rng.random(n) < rho
    values = rng.normal(0.0, math.sqrt(sigma2), size=n)
    return np.where(mask, values, 0.0)


def sample_instance(spec: EnsembleSpec, trial_index: int) -> ProblemInstance:
    """Draw one problem: Gaussian A with variance 1/n, mixture x0 and w."""
    if not 0 <= trial_index < spec.trials:
        raise ValueError(f"trial_index must lie in [0, {spec.trials}), got {trial_index!r}")
    p = spec.params
    m, n = spec.m, spec.n
    a_rng = _stream(spec.base_seed, trial_index, _MATRIX_TAG)
    a = a_rng.normal(0.0, 1.0, size=(m, n)) * (1.0 / math.sqrt(n))
    x0 = sample_mixture(n, p.rho_x, p.sigma2_x, _stream(spec.base_seed, trial_index, _SIGNAL_TAG))
    w = sample_mixture(m, p.rho_w, p.sigma2_w, _stream(spec.base_seed, trial_index, _NOISE_TAG))
    y = a @ x0 + w
    return ProblemInstance(A=a, y=y, x0=x0, w=w)


def run_trial(
    spec: EnsembleSpec,
    trial_index: int,
    decoder_cfg: DecoderConfig = DEFAULT_DECODER,
) -> TrialSummary:
    """Sample, decode, and score one trial."""
    instance = sample_instance(spec, trial_index)
    start = perf_counter()
    result = decode(instance, spec.params.lam, decoder_cfg)
    elapsed = perf_counter() - start

    assert instance.x0 is not None
    diff = result.x_hat - instance.x0
    squared_error = float(diff @ diff) / spec.n

    found = np.abs(result.x_hat) > _SUPPORT_TOL
    truth = instance.x0 != 0.0
    overlap = int(np.count_nonzero(found & truth))
    n_found = int(np.count_nonzero(found))
    n_truth = int(np.count_nonzero(truth))
    precision = overlap / n_found if n_found else 1.0
    recall = overlap / n_truth if n_truth else 1.0

    return TrialSummary(
        squared_error=squared_error,
        objective=result.objective,
        converged=result.converged,
        support_precision=precision,
        support_recall=recall,
        wall_time=elapsed,
        iterations=result.iterations,
        finish=result.finish,
    )


# The idle worker pool as (size, pool, idle timer), or None while no pool
# is idle; a parallel call takes the pool out and puts it back on success.
_idle_lock = threading.Lock()
_idle: tuple[int, ProcessPoolExecutor, threading.Timer] | None = None


def _take_pool(size: int) -> ProcessPoolExecutor:
    """The idle pool if it has size workers, else a newly forked one."""
    global _idle
    with _idle_lock:
        idle, _idle = _idle, None
    if idle is not None:
        idle_size, pool, timer = idle
        timer.cancel()
        if idle_size == size:
            return pool
        pool.shutdown()
    return ProcessPoolExecutor(max_workers=size)


def _put_pool(size: int, pool: ProcessPoolExecutor) -> None:
    """Leave pool idle, shutting down any idle pool it displaces."""
    global _idle
    timer = threading.Timer(_POOL_IDLE_S, _drop_idle, args=(pool,))
    timer.daemon = True
    with _idle_lock:
        displaced, _idle = _idle, (size, pool, timer)
    timer.start()
    if displaced is not None:
        displaced[2].cancel()
        displaced[1].shutdown()


def _drop_idle(pool: ProcessPoolExecutor) -> None:
    """Shut pool down unless a call has taken it out of the slot."""
    global _idle
    with _idle_lock:
        if _idle is None or _idle[1] is not pool:
            return
        _idle = None
    pool.shutdown()


def run_monte_carlo(
    spec: EnsembleSpec,
    decoder_cfg: DecoderConfig = DEFAULT_DECODER,
    success_tol: float = 1e-6,
    workers: int = 1,
    progress: ProgressCallback | None = None,
) -> Aggregate:
    """Decode spec.trials instances and summarize their errors.

    Trials are aggregated in trial-index order regardless of worker count,
    so the result is bitwise independent of workers. With more than one
    worker the trials run in the warm pool of min(workers, trials)
    processes described in the module docstring; a dead worker makes the
    call raise BrokenProcessPool. progress, when given, is called as
    progress(done, total) after each finished trial.
    """
    if not success_tol > 0.0:
        raise ValueError(f"success_tol must be positive, got {success_tol!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")

    pool_size = min(workers, spec.trials)
    pool = None if pool_size == 1 else _take_pool(pool_size)
    mapper = map if pool is None else pool.map
    summaries: list[TrialSummary] = []
    try:
        trials = mapper(run_trial, repeat(spec), range(spec.trials), repeat(decoder_cfg))
        for done, summary in enumerate(trials, start=1):
            summaries.append(summary)
            if progress is not None:
                progress(done, spec.trials)
    except BaseException:
        if pool is not None:
            # a dead worker has broken the pool, and an interrupted call
            # has left its remaining trials queued in it
            pool.shutdown(cancel_futures=True)
        raise
    if pool is not None:
        _put_pool(pool_size, pool)

    errors = [s.squared_error for s in summaries]
    mean_mse = sum(errors) / len(errors)
    if len(errors) > 1:
        var = sum((e - mean_mse) ** 2 for e in errors) / (len(errors) - 1)
        std_error = math.sqrt(var / len(errors))
    else:
        std_error = 0.0
    success_fraction = sum(1 for e in errors if e <= success_tol) / len(errors)
    not_converged = sum(1 for s in summaries if not s.converged)
    return Aggregate(
        mean_mse=mean_mse,
        std_error=std_error,
        success_fraction=success_fraction,
        trials=spec.trials,
        not_converged=not_converged,
    )


@dataclass(frozen=True)
class PhaseDiagramRow:
    """Boundary location at one (signal density, noise-density ratio) cell.

    rho_w = delta * rho_x ties the noise density to the signal density.
    alpha_c_fixed uses lam = 1; alpha_c_optimal and lambda_star come from
    the penalty-weight search and are NaN when lambda_mode is "fixed".
    """

    rho_x: float
    delta: float
    rho_w: float
    alpha_c_fixed: float
    alpha_c_optimal: float
    lambda_star: float


def sweep_phase_diagram(
    rho_x_grid: Sequence[float] | Iterable[float],
    deltas: Sequence[float],
    lambda_mode: str = "both",
    cfg: SolverConfig = DEFAULT_SOLVER,
    progress: ProgressCallback | None = None,
) -> list[PhaseDiagramRow]:
    """Critical measurement ratio over a (rho_x, delta) grid.

    lambda_mode "fixed" computes the boundary at lam = 1 only; "both" also
    searches the penalty weight minimizing the boundary for every cell.
    Solver and bracket failures propagate: a sweep either completes in
    full or fails loudly.
    """
    grid = [float(r) for r in rho_x_grid]
    if not grid:
        raise ValueError("rho_x_grid must be nonempty")
    if not deltas:
        raise ValueError("deltas must be nonempty")
    if lambda_mode not in ("fixed", "both"):
        raise ValueError(f"lambda_mode must be 'fixed' or 'both', got {lambda_mode!r}")
    for rho_x in grid:
        if not 0.0 < rho_x < 1.0:
            raise ValueError(f"rho_x grid values must lie in (0, 1), got {rho_x!r}")
    for delta in deltas:
        if not delta >= 0.0:
            raise ValueError(f"deltas must be nonnegative, got {delta!r}")

    rows: list[PhaseDiagramRow] = []
    total = len(grid) * len(deltas)
    for rho_x in grid:
        for delta in deltas:
            rho_w = delta * rho_x
            if rho_w > 1.0:
                raise ValueError(
                    f"delta={delta!r} at rho_x={rho_x!r} implies noise density {rho_w!r} > 1"
                )
            alpha_fixed = find_critical_alpha(1.0, rho_x, rho_w, cfg)
            if lambda_mode == "both":
                optimum = optimize_lambda(
                    "critical-alpha", rho_x=rho_x, rho_w=rho_w, cfg=cfg
                )
                alpha_best = optimum.objective_value
                lambda_star = optimum.lambda_star
            else:
                alpha_best = math.nan
                lambda_star = math.nan
            rows.append(
                PhaseDiagramRow(
                    rho_x=rho_x,
                    delta=delta,
                    rho_w=rho_w,
                    alpha_c_fixed=alpha_fixed,
                    alpha_c_optimal=alpha_best,
                    lambda_star=lambda_star,
                )
            )
            if progress is not None:
                progress(len(rows), total)
    return rows
