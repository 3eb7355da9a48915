"""Ensemble sampling and the Monte Carlo comparison harness."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from sparse_lab import cli, experiments
from sparse_lab.decoder import decode
from sparse_lab.experiments import (
    EnsembleSpec,
    run_monte_carlo,
    run_trial,
    sample_instance,
    sample_mixture,
    sweep_phase_diagram,
)
from sparse_lab.replica import ObjectiveProbeError, SolverConfig, SystemParams


def _spec(n=32, trials=4, base_seed=12345, **overrides):
    params = dict(alpha=0.5, lam=1.0, rho_x=0.2, rho_w=0.1)
    params.update(overrides)
    return EnsembleSpec(n=n, params=SystemParams(**params), trials=trials, base_seed=base_seed)


class TestSampleMixture:
    def test_dense_variance(self):
        rng = np.random.default_rng(42)
        draw = sample_mixture(1_000_000, 1.0, 2.0, rng)
        assert abs(np.var(draw) - 2.0) < 0.02

    def test_sparsity_fraction(self):
        rng = np.random.default_rng(42)
        draw = sample_mixture(1_000_000, 0.1, 1.0, rng)
        fraction = np.count_nonzero(draw) / draw.size
        assert abs(fraction - 0.1) < 0.002

    def test_zeros_are_exact(self):
        rng = np.random.default_rng(42)
        draw = sample_mixture(1000, 0.3, 1.0, rng)
        assert np.all(draw[draw == 0.0] == 0.0)
        assert np.count_nonzero(draw) < 1000

    def test_degenerate_density(self):
        rng = np.random.default_rng(42)
        assert np.all(sample_mixture(100, 0.0, 1.0, rng) == 0.0)
        assert np.all(sample_mixture(100, 1.0, 1.0, rng) != 0.0)

    def test_stream_advances_identically(self):
        """The same generator state yields the same values for any rho."""
        dense = sample_mixture(64, 1.0, 1.0, np.random.default_rng(7))
        sparse = sample_mixture(64, 0.4, 1.0, np.random.default_rng(7))
        nonzero = sparse != 0.0
        np.testing.assert_array_equal(sparse[nonzero], dense[nonzero])

    def test_validation(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError):
            sample_mixture(10, 1.5, 1.0, rng)
        with pytest.raises(ValueError):
            sample_mixture(10, 0.5, 0.0, rng)


class TestSampleInstance:
    def test_column_norm_scaling(self):
        """Columns carry squared norm m/n = alpha on average."""
        spec = _spec(n=1024, trials=1)
        instance = sample_instance(spec, 0)
        norms2 = np.sum(instance.A**2, axis=0)
        expected = spec.m / spec.n
        spread = math.sqrt(2.0 * spec.m / spec.n**2)
        assert abs(np.mean(norms2) - expected) < 5.0 * spread / math.sqrt(spec.n)

    def test_measurement_consistency(self):
        spec = _spec()
        instance = sample_instance(spec, 1)
        np.testing.assert_array_equal(instance.y, instance.A @ instance.x0 + instance.w)

    def test_noiseless_when_rho_w_zero(self):
        spec = _spec(rho_w=0.0)
        instance = sample_instance(spec, 0)
        assert np.all(instance.w == 0.0)
        np.testing.assert_array_equal(instance.y, instance.A @ instance.x0)

    def test_deterministic(self):
        spec = _spec()
        first = sample_instance(spec, 2)
        second = sample_instance(spec, 2)
        np.testing.assert_array_equal(first.A, second.A)
        np.testing.assert_array_equal(first.y, second.y)

    def test_trials_differ(self):
        spec = _spec()
        assert not np.array_equal(sample_instance(spec, 0).A, sample_instance(spec, 1).A)

    def test_seed_isolation(self):
        """Signal draws do not depend on the matrix stream."""
        a = sample_instance(_spec(base_seed=1), 0)
        b = sample_instance(_spec(base_seed=2), 0)
        assert not np.array_equal(a.A, b.A)
        assert not np.array_equal(a.x0, b.x0)

    def test_trial_index_range(self):
        spec = _spec(trials=3)
        with pytest.raises(ValueError):
            sample_instance(spec, 3)
        with pytest.raises(ValueError):
            sample_instance(spec, -1)


class TestEnsembleSpec:
    def test_validation(self):
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.2, rho_w=0.1)
        with pytest.raises(ValueError):
            EnsembleSpec(n=4, params=params, trials=1, base_seed=0)
        with pytest.raises(ValueError):
            EnsembleSpec(n=32, params=params, trials=0, base_seed=0)
        with pytest.raises(ValueError):
            EnsembleSpec(n=32, params=params, trials=1, base_seed=-1)
        thin = SystemParams(alpha=0.01, lam=1.0, rho_x=0.2, rho_w=0.1)
        with pytest.raises(ValueError):
            EnsembleSpec(n=8, params=thin, trials=1, base_seed=0)

    def test_row_count(self):
        assert _spec(n=100).m == 50
        assert _spec(n=10).m == 5


class TestRunTrial:
    def test_summary_fields(self):
        summary = run_trial(_spec(), 0)
        assert summary.squared_error >= 0.0
        assert 0.0 <= summary.support_precision <= 1.0
        assert 0.0 <= summary.support_recall <= 1.0
        assert summary.wall_time > 0.0
        assert isinstance(summary.converged, bool)

    def test_matches_direct_decode(self):
        from sparse_lab.decoder import DEFAULT_DECODER, decode

        spec = _spec()
        instance = sample_instance(spec, 0)
        result = decode(instance, spec.params.lam, DEFAULT_DECODER)
        summary = run_trial(spec, 0)
        diff = result.x_hat - instance.x0
        assert summary.squared_error == float(diff @ diff) / spec.n
        assert summary.objective == result.objective
        assert summary.iterations == result.iterations
        assert summary.finish == result.finish


class TestRunMonteCarlo:
    def test_worker_count_does_not_change_results(self):
        # the second ensemble sits outside the perfect phase at rho_x 0.15,
        # where every trial is finished by a screened LP vertex; the third sits
        # deep inside it, where every trial is finished by the polished pair
        lp_spec = _spec(n=128, rho_x=0.15, trials=4)
        polish_spec = _spec(n=128, rho_x=0.02, trials=4)
        for spec, finishes in ((lp_spec, {"reduced-lp"}), (polish_spec, {"polish"})):
            finished = [decode(sample_instance(spec, i), 1.0) for i in range(spec.trials)]
            assert all(r.converged and r.finish in finishes for r in finished)
        for spec in (_spec(trials=4), lp_spec, polish_spec):
            serial = run_monte_carlo(spec, workers=1)
            parallel = run_monte_carlo(spec, workers=2)
            assert serial == parallel
        # the grid commands' jobs: phase-diagram cells, and mse-curve points
        # on both sides of the boundary near rho_x = 0.077, one of them failed
        grid, deltas = [0.05, 0.1, 0.15], [0.2, 0.02]
        assert sweep_phase_diagram(grid, deltas, workers=1) == sweep_phase_diagram(
            grid, deltas, workers=2
        )
        points = [
            (SystemParams(0.5, 1.0, rho_x, 0.1), SolverConfig(max_iters=max_iters))
            for rho_x in (0.06, 0.07, 0.08, 0.1, 0.2)
            for max_iters in (3, 50_000)
        ]
        serial = experiments._ordered_map(cli._curve_point, points, 1)
        assert sum(state is None for state in serial) == 5
        assert sum(state is not None and state.perfect for state in serial) == 2
        assert experiments._ordered_map(cli._curve_point, points, 2) == serial

    def test_pool_holds_one_process_per_trial(self, monkeypatch, no_cached_pool):
        # with a pool cached, the call would reuse it and never build the stand-in
        sizes, chunksizes = [], []

        class InlinePool:
            """Records the requested pool size and batch size and maps in
            this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def shutdown(self, cancel_futures=False):
                pass

            def map(self, fn, *iterables, chunksize):
                chunksizes.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        spec = _spec(trials=2)
        assert run_monte_carlo(spec, workers=16) == run_monte_carlo(spec, workers=1)
        assert sizes == [2]
        # trials go one at a time, even six to a worker
        spec = _spec(trials=12)
        assert run_monte_carlo(spec, workers=2) == run_monte_carlo(spec, workers=1)
        assert chunksizes == [1, 1]

    def test_single_trial_mean_is_exact(self):
        spec = _spec(trials=1)
        aggregate = run_monte_carlo(spec)
        summary = run_trial(spec, 0)
        assert aggregate.mean_mse == summary.squared_error
        assert aggregate.std_error == 0.0
        assert aggregate.trials == 1

    def test_success_fraction_depends_on_tolerance(self):
        spec = _spec(n=64, rho_x=0.05, trials=4)
        strict = run_monte_carlo(spec, success_tol=1e-30)
        loose = run_monte_carlo(spec, success_tol=1e3)
        assert strict.success_fraction <= loose.success_fraction
        assert loose.success_fraction == 1.0

    def test_progress_callback(self):
        calls = []
        run_monte_carlo(_spec(trials=3), progress=lambda done, total: calls.append((done, total)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_validation(self):
        spec = _spec(trials=1)
        with pytest.raises(ValueError):
            run_monte_carlo(spec, success_tol=0.0)
        with pytest.raises(ValueError):
            run_monte_carlo(spec, workers=0)


def _drop_idle_pool():
    """Shuts the idle worker pool down, if there is one."""
    idle, experiments._idle = experiments._idle, None
    if idle is not None:
        idle[2].cancel()
        idle[1].shutdown()


@pytest.fixture
def no_cached_pool():
    """Starts and ends the test with no worker pool cached."""
    _drop_idle_pool()
    yield
    _drop_idle_pool()


def _workers():
    return {p.pid: p for p in multiprocessing.active_children()}


# Trial indices started by _logged_trial are appended to this file; set it
# before the pool is forked so that the workers see it.
_trial_log = None


def _logged_trial(spec, trial_index, decoder_cfg):
    with open(_trial_log, "a") as log:
        log.write(f"{trial_index}\n")
    time.sleep(0.05)
    return run_trial(spec, trial_index, decoder_cfg)


# Makes a parallel call with the idle shutdown out of reach, prints the
# worker pids and exits.
_EXIT_WITH_POOL = """
import multiprocessing
from sparse_lab import experiments
from sparse_lab.experiments import EnsembleSpec, run_monte_carlo
from sparse_lab.replica import SystemParams

experiments._POOL_IDLE_S = 60.0
params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.2, rho_w=0.1)
run_monte_carlo(EnsembleSpec(n=32, params=params, trials=2, base_seed=12345), workers=2)
print(*(p.pid for p in multiprocessing.active_children()))
"""


def _run_with_src(code):
    src = Path(experiments.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


# Holds a pipe to a reader child, as perfbench's speed probe does, while
# two parallel calls run; exits 0 once the reader has seen the pipe close.
_PIPE_HOLDER = """
import subprocess, sys
from sparse_lab import experiments
from sparse_lab.experiments import EnsembleSpec, run_monte_carlo
from sparse_lab.replica import SystemParams

reader = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                          stdin=subprocess.PIPE)
params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.2, rho_w=0.1)
spec = EnsembleSpec(n=32, params=params, trials=2, base_seed=12345)
run_monte_carlo(spec, workers=2)
run_monte_carlo(spec, workers=2)
reader.stdin.close()
try:
    reader.wait(timeout=experiments._POOL_IDLE_S + 2.0)
except subprocess.TimeoutExpired:
    reader.kill()
    sys.exit("the reader did not see its pipe close")
"""


@pytest.mark.usefixtures("no_cached_pool")
class TestWorkerPool:
    def test_consecutive_calls_reuse_the_workers(self, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 60.0)
        spec = _spec(trials=4)
        serial = run_monte_carlo(spec, workers=1)
        first = run_monte_carlo(spec, workers=2)
        before = _workers()
        second = run_monte_carlo(spec, workers=2)
        assert len(before) == 2
        assert _workers().keys() == before.keys()
        assert first == serial
        assert second == serial

    def test_another_size_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 60.0)
        run_monte_carlo(_spec(trials=2), workers=2)
        old = _workers()
        run_monte_carlo(_spec(trials=3), workers=3)
        new = _workers()
        assert len(old) == 2
        assert len(new) == 3
        assert old.keys().isdisjoint(new.keys())
        assert not any(p.is_alive() for p in old.values())

    def test_idle_pool_exits(self, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 0.05)
        run_monte_carlo(_spec(trials=2), workers=2)
        deadline = time.monotonic() + 5.0
        while _workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _workers()
        assert experiments._idle is None

    def test_overlapping_calls_leave_no_pool(self, monkeypatch):
        # the first call starts the second from inside its run, so each
        # forks a pool; whichever finishes last displaces the other's,
        # which the displaced pool's own idle timer would no longer see
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 1.0)
        spec = _spec(trials=2)
        serial = run_monte_carlo(spec, workers=1)
        second_running = threading.Event()
        results = []

        def second_call():
            progress = lambda done, total: second_running.set()
            results.append(run_monte_carlo(spec, workers=2, progress=progress))

        second = threading.Thread(target=second_call)

        def start_second(done, total):
            if done == 1:
                second.start()
                assert second_running.wait(30.0)

        results.append(run_monte_carlo(spec, workers=2, progress=start_second))
        second.join(30.0)
        assert results == [serial, serial]
        assert len(_workers()) == 2
        deadline = time.monotonic() + 5.0
        while _workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _workers()
        assert experiments._idle is None

    def test_stale_idle_timer_keeps_the_slot_pool(self, monkeypatch):
        """An idle timer that fires for a pool no longer in the slot, one a
        call has since taken out, leaves the slot's pool alive."""
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 60.0)
        run_monte_carlo(_spec(trials=2), workers=2)
        idle = experiments._idle
        stale = ProcessPoolExecutor(max_workers=1)
        try:
            experiments._drop_idle(stale)
        finally:
            stale.shutdown()
        assert experiments._idle is idle
        assert idle[1].submit(abs, -1).result(timeout=30.0) == 1
        assert len(_workers()) == 2

    def test_dead_worker_fails_that_call_only(self, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 60.0)
        spec = _spec(trials=2)
        serial = run_monte_carlo(spec, workers=1)
        run_monte_carlo(spec, workers=2)
        with pytest.raises(BrokenProcessPool):
            experiments._idle[1].submit(os._exit, 1).result()
        with pytest.raises(BrokenProcessPool):
            run_monte_carlo(spec, workers=2)
        assert experiments._idle is None
        assert run_monte_carlo(spec, workers=2) == serial

    def test_interrupted_call_keeps_no_pool(self, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 60.0)

        def interrupt(done, total):
            raise SystemExit(143)

        with pytest.raises(SystemExit):
            run_monte_carlo(_spec(trials=2), workers=2, progress=interrupt)
        assert experiments._idle is None
        assert not _workers()

    def test_interrupted_call_drops_the_queued_trials(self, monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "_POOL_IDLE_S", 60.0)
        monkeypatch.setattr(sys.modules[__name__], "_trial_log", str(tmp_path / "trials"))
        monkeypatch.setattr(experiments, "run_trial", _logged_trial)

        def interrupt(done, total):
            raise KeyboardInterrupt

        spec = _spec(trials=40)
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(spec, workers=2, progress=interrupt)
        assert not _workers()
        # the two running trials and the few already handed to the workers
        # finish; the rest never start
        started = (tmp_path / "trials").read_text().split()
        assert len(started) <= 10, started

    def test_exit_joins_the_workers(self):
        done = _run_with_src(_EXIT_WITH_POOL)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_idle_pool_releases_inherited_descriptors(self):
        done = _run_with_src(_PIPE_HOLDER)
        assert done.returncode == 0, done.stderr


class TestSweepPhaseDiagram:
    def test_duplicate_grid_points_agree(self):
        rows = sweep_phase_diagram([0.1, 0.1], [0.1], lambda_mode="fixed")
        assert rows[0] == rows[1]

    def test_fixed_mode_leaves_search_columns_empty(self):
        rows = sweep_phase_diagram([0.1], [0.2], lambda_mode="fixed")
        row = rows[0]
        assert row.rho_w == 0.1 * 0.2
        assert row.alpha_c_fixed > 0.0
        assert math.isnan(row.alpha_c_optimal)
        assert math.isnan(row.lambda_star)

    def test_row_order_and_count(self):
        rows = sweep_phase_diagram([0.05, 0.1], [0.5, 0.1], lambda_mode="fixed")
        assert len(rows) == 4
        assert [(r.rho_x, r.delta) for r in rows] == [
            (0.05, 0.5),
            (0.05, 0.1),
            (0.1, 0.5),
            (0.1, 0.1),
        ]

    def test_boundary_grows_with_density(self):
        rows = sweep_phase_diagram([0.05, 0.15], [0.1], lambda_mode="fixed")
        assert rows[0].alpha_c_fixed < rows[1].alpha_c_fixed

    def test_grid_is_validated_before_any_solve(self, monkeypatch):
        """A noise density above 1 in the last cell fails the sweep before
        the first cell is solved and before a pool is taken."""
        calls = []
        monkeypatch.setattr(experiments, "_take_pool", lambda size: calls.append(size))
        monkeypatch.setattr(experiments, "find_critical_alpha", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="noise density"):
            sweep_phase_diagram([0.1, 0.9], [0.2, 2.0], workers=2)
        assert calls == []

    def test_pooled_failure_keeps_its_type(self, no_cached_pool):
        """A cell whose penalty probe fails raises the same error from a
        worker as in this process, not a broken pool."""
        cfg = SolverConfig(max_iters=10)
        errors = []
        for workers in (1, 2):
            with pytest.raises(ObjectiveProbeError) as info:
                sweep_phase_diagram([0.1, 0.15], [0.1], cfg=cfg, workers=workers)
            errors.append((str(info.value), info.value.lam))
        assert errors[0] == errors[1]
        assert experiments._idle is None

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_phase_diagram([], [0.1])
        with pytest.raises(ValueError):
            sweep_phase_diagram([0.1], [])
        with pytest.raises(ValueError):
            sweep_phase_diagram([0.1], [0.1], lambda_mode="everything")
        with pytest.raises(ValueError):
            sweep_phase_diagram([1.5], [0.1])
        with pytest.raises(ValueError):
            sweep_phase_diagram([0.1], [-0.5])
        with pytest.raises(ValueError):
            sweep_phase_diagram([0.9], [2.0])
        with pytest.raises(ValueError):
            sweep_phase_diagram([0.1], [0.1], workers=0)
