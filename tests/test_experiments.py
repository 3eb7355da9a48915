"""Ensemble sampling and the Monte Carlo comparison harness."""

import math

import numpy as np
import pytest

from sparse_lab import experiments
from sparse_lab.decoder import _LP_HANDOFF, decode
from sparse_lab.experiments import (
    EnsembleSpec,
    run_monte_carlo,
    run_trial,
    sample_instance,
    sample_mixture,
    sweep_phase_diagram,
)
from sparse_lab.replica import SystemParams


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
        # the second ensemble sits outside the perfect phase, where every
        # trial is finished by the exact LP vertex
        lp_spec = _spec(n=128, rho_x=0.11, trials=4)
        finished = [decode(sample_instance(lp_spec, i), 1.0) for i in range(lp_spec.trials)]
        assert all(r.converged and r.iterations == _LP_HANDOFF for r in finished)
        for spec in (_spec(trials=4), lp_spec):
            serial = run_monte_carlo(spec, workers=1)
            parallel = run_monte_carlo(spec, workers=2)
            assert serial == parallel

    def test_pool_holds_one_process_per_trial(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records the requested pool size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        spec = _spec(trials=2)
        assert run_monte_carlo(spec, workers=16) == run_monte_carlo(spec, workers=1)
        assert sizes == [2]

    def test_single_trial_mean_is_exact(self):
        spec = _spec(trials=1)
        aggregate = run_monte_carlo(spec)
        summary = run_trial(spec, 0)
        assert aggregate.mean_mse == summary.squared_error
        assert aggregate.std_error == 0.0
        assert aggregate.trials == 1

    def test_replica_fields(self):
        aggregate = run_monte_carlo(_spec(rho_x=0.3))
        assert not aggregate.replica_perfect
        assert aggregate.replica_mse > 0.0
        perfect = run_monte_carlo(_spec(n=64, rho_x=0.05, trials=2))
        assert perfect.replica_perfect
        assert perfect.replica_mse == 0.0

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
