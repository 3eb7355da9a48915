"""Primal-dual decoder: known answers, optimality, certificates, LP finish."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from _oracle import (
    chambolle_pock,
    evaluate_objective,
    grid_objective,
    lp_decode,
    random_tiny_instance,
)
from sparse_lab import decoder
from sparse_lab.decoder import DecoderConfig, ProblemInstance, decode, estimate_operator_norm
from sparse_lab.experiments import EnsembleSpec, sample_instance
from sparse_lab.replica import SystemParams


def _crawling_instance():
    """24 x 48 instance the primal-dual iteration certifies only after 4,350 sweeps from zero."""
    rng = np.random.default_rng(29)
    a = rng.normal(size=(24, 48)) / np.sqrt(48)
    x0 = np.where(rng.random(48) < 0.1, rng.normal(size=48), 0.0)
    return ProblemInstance(A=a, y=a @ x0 + np.where(rng.random(24) < 0.1, 1.0, 0.0))


def _ensemble_instance(rho_x, trial_index, n=128):
    """Trial of an ensemble at alpha 0.5, lam 1, rho_w 0.1, seed 12345."""
    params = SystemParams(alpha=0.5, lam=1.0, rho_x=rho_x, rho_w=0.1)
    spec = EnsembleSpec(n=n, params=params, trials=trial_index + 1, base_seed=12345)
    return sample_instance(spec, trial_index)


def _recording_linprog(monkeypatch, corrupt_first=False):
    """Wrap the decoder's HiGHS call; returns the list of A_eq shapes solved."""
    shapes = []
    real = decoder.linprog

    def recording(*args, **kwargs):
        shapes.append(kwargs["A_eq"].shape)
        res = real(*args, **kwargs)
        if corrupt_first and len(shapes) == 1:
            res.eqlin.marginals = np.zeros_like(res.eqlin.marginals)
        return res

    monkeypatch.setattr(decoder, "linprog", recording)
    return shapes


def _without_polish(monkeypatch):
    """Make every polish attempt fail, so a run ends as it would without one."""
    monkeypatch.setattr(decoder, "_polish", lambda *args: None)


class TestOperatorNorm:
    def test_identity(self):
        assert estimate_operator_norm(np.eye(3)) == 1.0

    def test_diagonal(self):
        a = np.diag([0.5, -3.0, 2.0])
        np.testing.assert_allclose(estimate_operator_norm(a), 3.0, rtol=1e-12)

    def test_zero_matrix(self):
        assert estimate_operator_norm(np.zeros((4, 6))) == 0.0

    def test_matches_svd(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(64, 128))
        exact = np.linalg.svd(a, compute_uv=False)[0]
        np.testing.assert_allclose(estimate_operator_norm(a), exact, rtol=1e-8)

    def test_rank_one(self):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 2.0, 2.0])
        a = np.outer(u, v)
        np.testing.assert_allclose(estimate_operator_norm(a), 15.0, rtol=1e-10)

    @pytest.mark.parametrize("shape", [(128, 256), (256, 512), (256, 128)])
    def test_matches_exact_norm(self, shape):
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        np.testing.assert_allclose(estimate_operator_norm(a), np.linalg.norm(a, 2), rtol=1e-12)

    def test_one_step_is_the_rayleigh_quotient(self):
        a = np.random.default_rng(5).normal(size=(40, 60))
        q = np.random.default_rng(decoder._POWER_SEED).standard_normal(60)
        q /= np.linalg.norm(q)
        estimate = estimate_operator_norm(a, iters=1)
        assert estimate == math.sqrt(q @ (a.T @ (a @ q)))
        assert estimate <= np.linalg.norm(a, 2)

    def test_budget_beyond_dimension(self):
        a = np.random.default_rng(6).normal(size=(12, 20))
        np.testing.assert_allclose(
            estimate_operator_norm(a, iters=5000), np.linalg.norm(a, 2), rtol=1e-12
        )

    def test_non_finite_rejected(self):
        a = np.ones((3, 4))
        a[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            estimate_operator_norm(a)


class TestKnownAnswers:
    def test_zero_data(self):
        instance = ProblemInstance(A=np.eye(4), y=np.zeros(4))
        result = decode(instance, 1.0)
        assert result.converged
        assert result.objective == 0.0
        assert result.primal_residual == 0.0
        assert result.dual_residual == 0.0
        np.testing.assert_array_equal(result.x_hat, np.zeros(4))

    def test_identity_small_penalty(self):
        """For A = I and lam < 1 the data term wins: x = y exactly."""
        rng = np.random.default_rng(42)
        y = rng.normal(size=8)
        result = decode(ProblemInstance(A=np.eye(8), y=y), 0.5)
        assert result.converged
        np.testing.assert_allclose(result.x_hat, y, atol=1e-8)
        np.testing.assert_allclose(result.objective, 0.5 * np.sum(np.abs(y)), rtol=1e-10)

    def test_tall_consistent_column(self):
        """Two consistent rows outvote the penalty."""
        instance = ProblemInstance(A=np.array([[1.0], [2.0]]), y=np.array([1.0, 2.0]))
        result = decode(instance, 0.5)
        assert result.converged
        np.testing.assert_allclose(result.x_hat, [1.0], atol=1e-8)
        np.testing.assert_allclose(result.objective, 0.5, atol=1e-8)

    def test_balanced_rows(self):
        instance = ProblemInstance(A=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]))
        result = decode(instance, 1.0)
        assert result.converged
        np.testing.assert_allclose(result.objective, 1.0, rtol=1e-9)


class TestOptimality:
    def test_never_worse_than_zero(self):
        """x = 0 is always feasible, so the objective is at most ||y||_1."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(6, 12))
            y = rng.normal(size=6)
            result = decode(ProblemInstance(A=a, y=y), 1.0)
            assert result.objective <= np.sum(np.abs(y)) + 1e-12

    def test_local_perturbations_do_not_improve(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(12, 8))
        y = rng.normal(size=12)
        instance = ProblemInstance(A=a, y=y)
        result = decode(instance, 0.8)
        assert result.converged
        scale = 1e-3 * (1.0 + np.linalg.norm(result.x_hat))
        for _ in range(100):
            direction = rng.normal(size=8)
            direction *= scale / np.linalg.norm(direction)
            perturbed = evaluate_objective(instance, result.x_hat + direction, 0.8)
            assert perturbed >= result.objective - 1e-10

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2025)
        for _ in range(8):
            a, y, lam = random_tiny_instance(rng)
            reference = grid_objective(a, y, lam)
            result = decode(ProblemInstance(A=a, y=y), lam)
            assert result.converged
            np.testing.assert_allclose(result.objective, reference, atol=1e-5)

    def test_converged_residuals_meet_tolerances(self):
        rng = np.random.default_rng(13)
        cfg = DecoderConfig(primal_tol=1e-9, dual_tol=1e-9)
        a = rng.normal(size=(16, 10))
        y = rng.normal(size=16)
        result = decode(ProblemInstance(A=a, y=y), 1.2, cfg)
        assert result.converged
        assert result.primal_residual <= cfg.primal_tol
        assert result.dual_residual <= cfg.dual_tol


class TestLpReference:
    """The exact LP decoder that the acceptance checks compare against."""

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2026)
        for _ in range(8):
            a, y, lam = random_tiny_instance(rng)
            x = lp_decode(a, y, lam)
            value = evaluate_objective(ProblemInstance(A=a, y=y), x, lam)
            np.testing.assert_allclose(value, grid_objective(a, y, lam), atol=1e-5)

    def test_matches_certified_decode(self, monkeypatch):
        """The pure primal-dual iteration, with every LP solve and polish failing."""
        instance = _crawling_instance()
        cfg = DecoderConfig(primal_tol=1e-9, dual_tol=1e-9)
        monkeypatch.setattr(decoder, "linprog", lambda *args, **kwargs: SimpleNamespace(status=4))
        _without_polish(monkeypatch)
        result = decode(instance, 1.0, cfg)
        assert result.converged
        assert result.finish == "iteration"
        assert result.iterations > decoder._LP_HANDOFF
        x = lp_decode(instance.A, instance.y, 1.0)
        np.testing.assert_allclose(
            evaluate_objective(instance, x, 1.0), result.objective, rtol=1e-9
        )
        np.testing.assert_allclose(x, result.x_hat, atol=1e-6)


class TestExactFinish:
    """HiGHS finishes: the LP screened at GAMP's point outside the perfect
    phase, and the LP screened at the iterate after _LP_HANDOFF uncertified
    sweeps on every route; the full program is never solved."""

    def test_crawling_run_takes_the_lp_vertex(self):
        instance = _crawling_instance()
        cfg = DecoderConfig(primal_tol=1e-9, dual_tol=1e-9)
        result = decode(instance, 1.0, cfg)
        assert result.converged
        assert result.finish != "iteration"
        assert result.primal_residual <= cfg.primal_tol
        assert result.dual_residual <= cfg.dual_tol
        x = lp_decode(instance.A, instance.y, 1.0)
        np.testing.assert_allclose(
            result.objective, evaluate_objective(instance, x, 1.0), rtol=1e-9
        )

    def test_failed_solve_keeps_iterating(self, monkeypatch):
        calls = []

        def failing_linprog(*args, **kwargs):
            calls.append(1)
            return SimpleNamespace(status=4, message="numerical difficulties")

        monkeypatch.setattr(decoder, "linprog", failing_linprog)
        _without_polish(monkeypatch)
        result = decode(_crawling_instance(), 1.0, DecoderConfig(max_iters=600))
        # GAMP routes the run to the LP: the solve screened at GAMP's point,
        # then the iteration, with the solve screened at the handoff iterate
        assert len(calls) == 2
        assert result.converged is False
        assert result.finish == "iteration"
        assert result.iterations == 600

    def test_reduced_solve_finishes_out_of_phase_run(self, monkeypatch):
        instance = _ensemble_instance(0.11, 1)
        shapes = _recording_linprog(monkeypatch)
        result = decode(instance, 1.0)
        assert result.converged
        assert result.finish == "reduced-lp"
        assert result.iterations == decoder._GAMP_ITERS
        assert len(shapes) == 1
        m, n = instance.A.shape
        assert shapes[0][0] < m
        assert shapes[0][1] < 2 * n + 2 * m
        x = lp_decode(instance.A, instance.y, 1.0)
        np.testing.assert_allclose(
            result.objective, evaluate_objective(instance, x, 1.0), rtol=1e-9
        )

    def test_uncertified_screened_vertex_never_solves_the_full_lp(self, monkeypatch):
        """A rejected vertex at GAMP's point leaves the run to the iteration."""
        instance = _ensemble_instance(0.11, 1)
        shapes = _recording_linprog(monkeypatch, corrupt_first=True)
        cfg = DecoderConfig()
        result = decode(instance, 1.0, cfg)
        assert result.converged
        assert result.iterations > decoder._GAMP_ITERS
        m, n = instance.A.shape
        assert (m, 2 * n + 2 * m) not in shapes
        assert shapes[0][0] < m and shapes[0][1] < 2 * n + 2 * m
        assert result.primal_residual <= cfg.primal_tol
        assert result.dual_residual <= cfg.dual_tol

    def test_perfect_phase_handoff_solves_a_screened_lp(self, monkeypatch):
        """A perfect-phase run uncertified after the handoff solves the LP screened
        at its iterate, and no LP at GAMP's point."""
        instance = _ensemble_instance(0.02, 2)
        _, _, prefix, collapsed = decoder._gamp(instance.A, instance.y, 1.0, decoder._GAMP_ITERS)
        assert collapsed
        shapes = _recording_linprog(monkeypatch)
        _without_polish(monkeypatch)
        result = decode(instance, 1.0)
        assert result.converged
        assert result.finish == "reduced-lp"
        assert result.iterations == prefix + decoder._LP_HANDOFF
        m, n = instance.A.shape
        assert len(shapes) == 1
        assert shapes[0][0] < m and shapes[0][1] < 2 * n + 2 * m

    def test_late_collapse_takes_the_handoff(self):
        """Just outside the phase GAMP's tau_r can still collapse, late; the
        iteration would need about 182,000 sweeps here, the LP screened at the
        handoff iterate ends it."""
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.11, rho_w=0.1)
        instance = sample_instance(EnsembleSpec(n=256, params=params, trials=1, base_seed=777), 0)
        _, _, prefix, collapsed = decoder._gamp(instance.A, instance.y, 1.0, decoder._GAMP_ITERS)
        assert collapsed and prefix < decoder._GAMP_ITERS
        result = decode(instance, 1.0)
        assert result.converged
        assert result.finish == "reduced-lp"
        assert result.iterations == prefix + decoder._LP_HANDOFF == 592
        x = lp_decode(instance.A, instance.y, 1.0)
        np.testing.assert_allclose(
            result.objective, evaluate_objective(instance, x, 1.0), rtol=1e-9
        )

    # (seed, rho_x, trial, tolerance): trials of criterion 07's n = 256 points
    # and of criterion 08 whose screened vertex at GAMP's point is rejected;
    # the handoff's screened LP or the polish certifies them
    @pytest.mark.parametrize(
        "seed, rho_x, trial_index, tol",
        [(12345, 0.11, 28, 1e-7), (12345, 0.05, 35, 1e-9), (777, 0.11, 18, 1e-7)],
    )
    def test_rejected_screened_vertex_is_finished_without_the_full_lp(
        self, monkeypatch, seed, rho_x, trial_index, tol
    ):
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=rho_x, rho_w=0.1)
        spec = EnsembleSpec(n=256, params=params, trials=trial_index + 1, base_seed=seed)
        instance = sample_instance(spec, trial_index)
        shapes = _recording_linprog(monkeypatch)
        cfg = DecoderConfig(primal_tol=tol, dual_tol=tol, max_iters=300_000)
        result = decode(instance, 1.0, cfg)
        assert result.converged
        assert result.finish in {"reduced-lp", "polish"}
        m, n = instance.A.shape
        assert shapes and all(rows < m and cols < 2 * n + 2 * m for rows, cols in shapes)
        x = lp_decode(instance.A, instance.y, 1.0)
        np.testing.assert_allclose(
            result.objective, evaluate_objective(instance, x, 1.0), rtol=1e-9
        )

    def test_perfect_phase_run_certifies_by_iteration(self, monkeypatch):
        """Cold sweeps reach the handoff uncertified here; from GAMP's point they certify."""
        instance = _ensemble_instance(0.02, 12)
        shapes = _recording_linprog(monkeypatch)
        _without_polish(monkeypatch)
        cfg = DecoderConfig()
        result = decode(instance, 1.0, cfg)
        assert result.converged
        assert result.finish == "iteration"
        assert shapes == []
        assert result.primal_residual <= cfg.primal_tol
        assert result.dual_residual <= cfg.dual_tol
        np.testing.assert_allclose(result.x_hat, instance.x0, atol=1e-8)


class TestPolish:
    """The pair polished on the iterate's active set at each failed check."""

    # n = 256, trial 1 has 9 saturated dual rows whose polished residual is
    # rounding noise: resetting them to its sign fails the first check there
    @pytest.mark.parametrize("n, trial_index", [(128, 12), (256, 1)])
    def test_in_phase_run_finishes_by_polish_at_the_first_check(
        self, monkeypatch, n, trial_index
    ):
        instance = _ensemble_instance(0.02, trial_index, n)
        _, _, prefix, collapsed = decoder._gamp(instance.A, instance.y, 1.0, decoder._GAMP_ITERS)
        assert collapsed
        shapes = _recording_linprog(monkeypatch)
        cfg = DecoderConfig()
        result = decode(instance, 1.0, cfg)
        assert result.converged
        assert result.finish == "polish"
        assert result.iterations == prefix + decoder._CHECK_EVERY
        assert shapes == []
        assert result.primal_residual <= cfg.primal_tol
        assert result.dual_residual <= cfg.dual_tol
        np.testing.assert_allclose(result.x_hat, instance.x0, rtol=0.0, atol=1e-12)
        x = lp_decode(instance.A, instance.y, 1.0)
        np.testing.assert_allclose(
            result.objective, evaluate_objective(instance, x, 1.0), rtol=1e-9
        )

    @pytest.mark.parametrize("perturbed", ["primal", "dual"])
    def test_perturbed_pair_is_never_adopted(self, monkeypatch, perturbed):
        """A pair a millionth off is offered at every failed check, never adopted."""
        instance = _ensemble_instance(0.02, 12)
        _, _, prefix, _ = decoder._gamp(instance.A, instance.y, 1.0, decoder._GAMP_ITERS)
        real_polish = decoder._polish
        _without_polish(monkeypatch)
        expected = decode(instance, 1.0)
        assert expected.converged and expected.finish == "iteration"

        offered = []
        rng = np.random.default_rng(3)

        def perturbed_polish(a, y, lam, x, xi):
            x, xi = real_polish(a, y, lam, x, xi)
            if perturbed == "primal":
                x[x != 0.0] += 1e-6
            else:
                free = np.abs(xi) < 1.0
                xi[free] += 1e-6 * rng.uniform(-1.0, 1.0, np.count_nonzero(free))
            offered.append(1)
            return x, xi

        monkeypatch.setattr(decoder, "_polish", perturbed_polish)
        result = decode(instance, 1.0)
        # one offer at every check before the one that certifies
        assert len(offered) == (expected.iterations - prefix) // decoder._CHECK_EVERY - 1 > 0
        assert result.finish == expected.finish
        assert result.iterations == expected.iterations
        assert result.objective == expected.objective
        assert np.array_equal(result.x_hat, expected.x_hat)


class TestBehavior:
    def test_deterministic(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(10, 6))
        y = rng.normal(size=10)
        first = decode(ProblemInstance(A=a, y=y), 0.9)
        second = decode(ProblemInstance(A=a, y=y), 0.9)
        np.testing.assert_array_equal(first.x_hat, second.x_hat)
        assert first.objective == second.objective
        assert first.iterations == second.iterations

    def test_budget_exhaustion_is_quiet(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(30, 20))
        y = rng.normal(size=30)
        result = decode(ProblemInstance(A=a, y=y), 1.0, DecoderConfig(max_iters=3))
        assert not result.converged
        assert result.iterations == 3
        assert result.objective <= np.sum(np.abs(y)) + 1e-12

    def test_sweep_is_bitwise_the_textbook_loop(self, monkeypatch):
        instance = _ensemble_instance(0.05, 0)
        x, s, prefix, collapsed = decoder._gamp(instance.A, instance.y, 1.0, decoder._GAMP_ITERS)
        assert collapsed  # the sweeps start warm from GAMP's point
        _without_polish(monkeypatch)
        sweeps = decoder._CHECK_EVERY - 13  # one check, at the last sweep
        result = decode(instance, 1.0, DecoderConfig(max_iters=prefix + sweeps))
        expected = chambolle_pock(instance.A, instance.y, 1.0, sweeps, x, -s)
        assert not result.converged and result.iterations == prefix + sweeps
        # x_hat is the last iterate only because it beats x = 0
        assert evaluate_objective(instance, expected, 1.0) < np.sum(np.abs(instance.y))
        assert np.array_equal(result.x_hat, expected)

    def test_invalid_penalty(self):
        instance = ProblemInstance(A=np.eye(2), y=np.ones(2))
        with pytest.raises(ValueError):
            decode(instance, 0.0)
        with pytest.raises(ValueError):
            decode(instance, -1.0)

    def test_zero_matrix_rejected(self):
        instance = ProblemInstance(A=np.zeros((3, 3)), y=np.ones(3))
        with pytest.raises(ValueError):
            decode(instance, 1.0)

    @pytest.mark.parametrize("where, value", [("A", np.nan), ("y", np.nan), ("y", np.inf)])
    def test_non_finite_data_rejected(self, monkeypatch, where, value):
        instance = _ensemble_instance(0.11, 0)
        data = {"A": instance.A.copy(), "y": instance.y.copy()}
        data[where].flat[3] = value
        shapes = _recording_linprog(monkeypatch)
        for cfg in (DecoderConfig(), DecoderConfig(max_iters=3)):
            with pytest.raises(ValueError, match="A and y must be finite"):
                decode(ProblemInstance(**data), 1.0, cfg)
        assert shapes == []


class TestProblemInstance:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ProblemInstance(A=np.ones(3), y=np.ones(3))
        with pytest.raises(ValueError):
            ProblemInstance(A=np.ones((2, 3)), y=np.ones(3))
        with pytest.raises(ValueError):
            ProblemInstance(A=np.ones((2, 3)), y=np.ones(2), x0=np.ones(2))
        with pytest.raises(ValueError):
            ProblemInstance(A=np.ones((2, 3)), y=np.ones(2), w=np.ones(3))
        with pytest.raises(ValueError):
            ProblemInstance(A=np.ones((2, 0)), y=np.ones(2))

    def test_dimensions(self):
        instance = ProblemInstance(A=np.ones((4, 7)), y=np.ones(4))
        assert instance.m == 4
        assert instance.n == 7

    def test_objective_evaluation(self):
        instance = ProblemInstance(A=np.eye(2), y=np.array([1.0, -2.0]))
        value = evaluate_objective(instance, np.zeros(2), 1.0)
        assert value == 3.0
