"""End-to-end acceptance checks.

Each check prints one verdict line (through the capture-disabled stream,
so the full table is visible on the terminal even when a check fails)
and then asserts. Wall-clock budgets are part of every verdict.
"""

import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from _oracle import grid_objective, random_tiny_instance, reference_squared_error
from sparse_lab.decoder import DEFAULT_DECODER, DecoderConfig, ProblemInstance, decode
from sparse_lab.experiments import (
    EnsembleSpec,
    run_monte_carlo,
    run_trial,
    sweep_phase_diagram,
)
from sparse_lab.replica import (
    BracketError,
    FixedPointError,
    SystemParams,
    find_critical_rho_x,
    optimize_lambda,
    solve_mse_fixed_point,
)
from sparse_lab.selftest import gauss_expectation, lemma_oracles, phi_lambda_oracle
from sparse_lab.special import q_function, r_lambda, s_func

_WORKERS = os.cpu_count() or 1


def _announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_critical_density_value(capsys):
    budget = 5.0
    start = time.perf_counter()
    rho_c = find_critical_rho_x(0.5, 1.0, 0.1)
    elapsed = time.perf_counter() - start
    ok = abs(rho_c - 0.0770) <= 0.0005 and elapsed < budget
    _announce(
        capsys, 1, ok,
        f"rho_x_c = {rho_c:.6f} (target 0.0770 +/- 0.0005), {elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_02_optimized_penalty_boundary(capsys):
    budget = 120.0
    start = time.perf_counter()
    optimum = optimize_lambda("critical-rho-x", alpha=0.5, rho_w=0.1)
    elapsed = time.perf_counter() - start
    ok = abs(optimum.objective_value - 0.1030) <= 0.001 and elapsed < budget
    _announce(
        capsys, 2, ok,
        f"best rho_x_c = {optimum.objective_value:.6f} at lambda = {optimum.lambda_star:.4f} "
        f"(target 0.1030 +/- 0.001), {elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_03_variance_independence(capsys):
    budget = 15.0
    pairs = ((1.0, 1.0), (4.0, 0.25), (0.01, 100.0))
    start = time.perf_counter()
    # the boundary solvers take no variance arguments, so the thresholds
    # agree identically; the full solver confirms the verdicts anyway
    thresholds = [find_critical_rho_x(0.5, 1.0, 0.1) for _ in pairs]
    spread = max(thresholds) - min(thresholds)
    rho_c = thresholds[0]
    verdicts_ok = True
    for sigma2_x, sigma2_w in pairs:
        below = solve_mse_fixed_point(
            SystemParams(
                alpha=0.5, lam=1.0, rho_x=rho_c - 2e-3, rho_w=0.1,
                sigma2_x=sigma2_x, sigma2_w=sigma2_w,
            )
        )
        above = solve_mse_fixed_point(
            SystemParams(
                alpha=0.5, lam=1.0, rho_x=rho_c + 2e-3, rho_w=0.1,
                sigma2_x=sigma2_x, sigma2_w=sigma2_w,
            )
        )
        verdicts_ok = verdicts_ok and below.perfect and above.converged and above.mse > 0.0
    elapsed = time.perf_counter() - start
    ok = spread <= 1e-6 and verdicts_ok and elapsed < budget
    _announce(
        capsys, 3, ok,
        f"threshold spread {spread:.1e} over 3 variance pairs (tol 1e-6), phase verdicts at "
        f"rho_c -/+ 2e-3 {'consistent' if verdicts_ok else 'INCONSISTENT'}, "
        f"{elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_04_threshold_moment_identities(capsys):
    budget = 10.0
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst_bridge = 0.0
    worst_deriv = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.1, 3.0))
        h = float(rng.uniform(0.05, 6.0))
        q_hat = float(rng.uniform(0.1, 5.0))
        kink = lam / math.sqrt(h)
        integral = gauss_expectation(
            lambda z: phi_lambda_oracle(z * math.sqrt(h), lam, q_hat),
            breakpoints=(-kink, kink),
        )
        worst_bridge = max(worst_bridge, abs(q_hat * integral - r_lambda(lam, h)))
        dh = 1e-6 * h
        fd = (r_lambda(lam, h + dh) - r_lambda(lam, h - dh)) / (2.0 * dh)
        exact = -q_function(kink)
        worst_deriv = max(worst_deriv, abs(fd - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst_bridge <= 1e-8 and worst_deriv <= 1e-5 and elapsed < budget
    _announce(
        capsys, 4, ok,
        f"50 triples: worst moment gap {worst_bridge:.1e} (tol 1e-8), worst derivative "
        f"rel err {worst_deriv:.1e} (tol 1e-5), {elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_05_cut_moment_identities(capsys):
    budget = 10.0
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.05, 6.0))
        tail, interior = lemma_oracles(a)
        closed_tail = 2.0 * q_function(a)
        closed_interior = (
            1.0 - closed_tail - a * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * a * a)
        )
        worst = max(
            worst,
            abs(tail - closed_tail),
            abs(interior - closed_interior),
            abs(s_func(a) - interior / (a * a)),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < budget
    _announce(
        capsys, 5, ok,
        f"50 cut points: worst identity gap {worst:.1e} (tol 1e-8), "
        f"{elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_06_overlap_identity_at_fixed_points(capsys):
    budget = 30.0
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = 0.0
    converged_points = 0
    attempts = 0
    while converged_points < 20 and attempts < 60:
        attempts += 1
        params = SystemParams(
            alpha=float(rng.uniform(0.35, 0.9)),
            lam=float(rng.uniform(0.4, 2.5)),
            rho_x=float(rng.uniform(0.15, 0.45)),
            rho_w=float(rng.uniform(0.02, 0.35)),
            sigma2_x=float(rng.uniform(0.25, 4.0)),
            sigma2_w=float(rng.uniform(0.25, 4.0)),
        )
        try:
            state = solve_mse_fixed_point(params)
        except FixedPointError:
            continue
        if not state.converged:
            continue
        converged_points += 1
        identity = params.signal_power - 2.0 * state.diag_m + state.diag_q
        worst = max(worst, abs(state.mse - identity))
    elapsed = time.perf_counter() - start
    ok = converged_points == 20 and worst <= 1e-8 and elapsed < budget
    _announce(
        capsys, 6, ok,
        f"{converged_points}/20 converged fixed points: worst overlap-identity gap "
        f"{worst:.1e} (tol 1e-8), {elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert ok


def _extrapolate(errors):
    """Weighted least-squares fit of mse(N) = mse_inf + c / N.

    errors maps N to per-trial squared errors. Returns mse_inf, its
    standard error from the per-N standard errors of the mean, and the
    chi-square of the fit (len(errors) - 2 degrees of freedom).
    """
    means = np.array([np.mean(e) for e in errors.values()])
    weights = np.array([len(e) / np.var(e, ddof=1) for e in errors.values()])
    design = np.stack([np.ones(len(errors)), 1.0 / np.array(list(errors), dtype=float)], axis=1)
    cov = np.linalg.inv(design.T @ (weights[:, None] * design))
    coef = cov @ design.T @ (weights * means)
    chi2 = float(np.sum(weights * (means - design @ coef) ** 2))
    return float(coef[0]), math.sqrt(cov[0, 0]), chi2


@pytest.mark.slow
def test_criterion_07_finite_size_error_agreement(capsys):
    """The replica error is the N -> infinity limit of the decoded error.

    At every point the original n = 256, 50-trial ensemble is decoded by
    the program (run_monte_carlo). Larger ensembles at n = 128, 256 and 512
    are decoded by the exact LP reference; the n = 256 one keeps seed
    12345, so its first 50 trials are the program's instances, and the
    program's mean must match the reference mean on them. The program
    finishes these decodes with its own HiGHS vertex after 500 sweeps, so
    that gap now guards the handoff wiring (the formulation, the sign of
    the duals, the adoption rule); the certificate every decode must pass
    stays the independent check. The other N use
    their own seeds, so the per-N means are independent. At n = 256 the
    decoded error is 10-40% above the prediction and the excess shrinks
    like 1/N, so the 15% tolerance applies to the extrapolated error, and
    its standard error must stay at or below 5% so that a 15% miss is at
    least three of them. n = 64 is left out: near the boundary the excess
    there lies below the 1/N line, and a fit through it lands about 10%
    high at rho_x = 0.11.
    """
    budget = 1200.0
    decoder_cfg = DecoderConfig(primal_tol=1e-7, dual_tol=1e-7, max_iters=300_000)
    # n: (base seed, trials as a multiple of the point's base count)
    ensembles = {128: (12346, 4), 256: (12345, 2), 512: (12347, 1)}
    # the error's spread relative to the prediction grows towards the phase
    # boundary at rho_x = 0.077; these counts put the extrapolation's
    # standard error near 4% of the prediction at every point
    base_trials = {0.11: 800, 0.13: 400, 0.15: 200, 0.18: 120, 0.22: 60}
    start = time.perf_counter()
    pieces = []
    failures = 0
    with ProcessPoolExecutor(_WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        for rho_x, trials in base_trials.items():
            params = SystemParams(alpha=0.5, lam=1.0, rho_x=rho_x, rho_w=0.1)
            predicted = solve_mse_fixed_point(params).mse
            spec = EnsembleSpec(n=256, params=params, trials=50, base_seed=12345)
            aggregate = run_monte_carlo(spec, decoder_cfg, workers=_WORKERS)
            errors = {}
            for n, (seed, multiple) in ensembles.items():
                reference_spec = EnsembleSpec(
                    n=n, params=params, trials=multiple * trials, base_seed=seed
                )
                errors[n] = np.fromiter(
                    pool.map(
                        reference_squared_error,
                        itertools.repeat(reference_spec),
                        range(reference_spec.trials),
                        chunksize=8,
                    ),
                    dtype=float,
                )
            gap = abs(np.mean(errors[256][: spec.trials]) / aggregate.mean_mse - 1.0)
            mse_inf, se_inf, chi2 = _extrapolate(errors)
            within = (
                abs(mse_inf / predicted - 1.0) <= 0.15
                and se_inf / predicted <= 0.05
                and gap <= 1e-5
            )
            failures += 0 if within else 1
            pieces.append(
                f"rho_x={rho_x}: n=256 ratio {aggregate.mean_mse / predicted:.3f}, "
                f"extrapolated {mse_inf / predicted:.3f} +/- {se_inf / predicted:.3f} "
                f"(chi2 {chi2:.2f}), "
                f"trials per n {'/'.join(str(len(e)) for e in errors.values())}, "
                f"program/LP gap {gap:.1e}, {aggregate.not_converged} uncertified"
                f"{'' if within else ' (!)'}"
            )
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < budget
    _announce(
        capsys, 7, ok,
        f"mean mse vs prediction, extrapolated by mse_inf + c/N over n=128/256/512 "
        f"(tol 15%, se <= 5%, program/LP gap <= 1e-5; n=256 ratio from the program's "
        f"50 trials): {'; '.join(pieces)}; {failures}/5 points failing, "
        f"{elapsed:.0f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_08_perfect_phase_recovery(capsys):
    budget = 300.0
    decoder_cfg = DecoderConfig(primal_tol=1e-9, dual_tol=1e-9, max_iters=300_000)
    spec = EnsembleSpec(
        n=256,
        params=SystemParams(alpha=0.5, lam=1.0, rho_x=0.05, rho_w=0.1),
        trials=50,
        base_seed=12345,
    )
    start = time.perf_counter()
    errors = [run_trial(spec, i, decoder_cfg).squared_error for i in range(spec.trials)]
    elapsed = time.perf_counter() - start
    success_fraction = sum(1 for e in errors if e <= 1e-6) / len(errors)
    median = float(np.median(errors))
    ok = success_fraction >= 0.9 and median <= 1e-8 and elapsed < budget
    _announce(
        capsys, 8, ok,
        f"success fraction {success_fraction:.2f} (need >= 0.9), median mse {median:.1e} "
        f"(need <= 1e-8), {elapsed:.0f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_09_decoder_matches_grid_oracle(capsys):
    budget = 120.0
    rng = np.random.default_rng(1009)
    start = time.perf_counter()
    worst_gap = 0.0
    uncertified = 0
    for _ in range(25):
        a, y, lam = random_tiny_instance(rng)
        reference = grid_objective(a, y, lam)
        result = decode(ProblemInstance(A=a, y=y), lam)
        worst_gap = max(worst_gap, abs(result.objective - reference))
        certified = (
            result.converged
            and result.primal_residual <= DEFAULT_DECODER.primal_tol
            and result.dual_residual <= DEFAULT_DECODER.dual_tol
        )
        uncertified += 0 if certified else 1
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-5 and uncertified == 0 and elapsed < budget
    _announce(
        capsys, 9, ok,
        f"25 instances: worst objective gap {worst_gap:.1e} (tol 1e-5), "
        f"{uncertified} uncertified, {elapsed:.0f}s (budget {budget:.0f}s)",
    )
    assert ok


def test_criterion_10_penalty_dominance_over_grid(capsys):
    budget = 600.0
    # above rho_x = 0.25 the lam = 1 boundary leaves the physical range
    grid = [0.05, 0.1, 0.15, 0.2, 0.25]
    deltas = [0.2, 0.1, 0.02]
    start = time.perf_counter()
    rows = sweep_phase_diagram(grid, deltas, lambda_mode="both")
    elapsed = time.perf_counter() - start
    dominance_violations = sum(
        1 for row in rows if not row.alpha_c_optimal <= row.alpha_c_fixed + 1e-6
    )
    monotone = True
    for delta in deltas:
        for column in ("alpha_c_fixed", "alpha_c_optimal"):
            curve = [getattr(r, column) for r in rows if r.delta == delta]
            monotone = monotone and all(a <= b for a, b in zip(curve, curve[1:]))
    ok = dominance_violations == 0 and monotone and elapsed < budget
    _announce(
        capsys, 10, ok,
        f"{len(rows)} grid cells: {dominance_violations} dominance violations, curves "
        f"{'nondecreasing' if monotone else 'NOT monotone'}, {elapsed:.0f}s (budget {budget:.0f}s)",
    )
    assert ok
