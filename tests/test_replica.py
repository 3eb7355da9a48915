"""Fixed-point solvers, phase boundaries, penalty optimization."""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from _oracle import damped_threshold_fixed_point, runaway_mse_verdict
from sparse_lab import replica
from sparse_lab.replica import (
    BracketError,
    FixedPointError,
    ObjectiveProbeError,
    SolverConfig,
    SystemParams,
    find_critical_alpha,
    find_critical_rho_x,
    optimize_lambda,
    solve_mse_fixed_point,
    solve_threshold_fixed_point,
    _boundary_root,
    _mse_start,
    _mse_sweep,
    _threshold_update,
)


def _threshold_oracle_points():
    """A seeded grid of 200 (alpha, lam, rho_x, rho_w) points plus edge rows."""
    rng = np.random.default_rng(2013)
    points = [
        (float(10.0 ** rng.uniform(-3.0, 0.0)), float(10.0 ** rng.uniform(-3.0, 3.0)),
         float(1.0 - rng.uniform()), float(rng.uniform()))
        for _ in range(200)
    ]
    points += [(0.5, 1.0, 0.3, 0.0), (0.5, 1.0, 0.3, 1.0), (0.5, 1.0, 1.0, 0.1),
               (1e-3, 1e-3, 1.0, 0.0), (0.9, 1e-3, 0.5, 0.0)]
    return points


def _verdict_oracle_points():
    """A seeded list of 330 SystemParams for the phase-verdict cross-check.

    60 points lie either side of the boundary in rho_x, at relative
    distances from 10^-2.5 to 10^-0.5, then 150 general points, 40 without
    noise, 40 without signal (lam / sqrt(alpha rho_w) from 0.5 to 60) and
    40 with rho_x in [0.95, 1]; the variances are log-uniform in [0.1, 10].
    """
    rng = np.random.default_rng(14)

    def uniform(lo, hi):
        return float(rng.uniform(lo, hi))

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    def params(alpha, lam, rho_x, rho_w):
        return SystemParams(alpha, lam, rho_x, rho_w, log_uniform(-1, 1), log_uniform(-1, 1))

    points = []
    while len(points) < 60:
        alpha, lam, rho_w = uniform(0.2, 1.0), log_uniform(-0.5, 0.5), uniform(0.0, 0.3)
        try:
            rho_c = find_critical_rho_x(alpha, lam, rho_w)
        except BracketError:
            continue
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        rho_x = min(rho_c * (1.0 + side * log_uniform(-2.5, -0.5)), 1.0)
        points.append(params(alpha, lam, rho_x, rho_w))
    for _ in range(150):
        points.append(params(uniform(0.1, 1.0), log_uniform(-1, 1), uniform(0.0, 0.5), uniform(0.0, 0.5)))
    for _ in range(40):
        points.append(params(uniform(0.1, 1.0), log_uniform(-1, 1), uniform(0.0, 0.5), 0.0))
    for _ in range(40):
        alpha, rho_w = uniform(0.05, 1.0), uniform(0.005, 0.5)
        points.append(params(alpha, uniform(0.5, 60.0) * math.sqrt(alpha * rho_w), 0.0, rho_w))
    for _ in range(40):
        points.append(params(uniform(0.1, 1.0), log_uniform(-1, 1), uniform(0.95, 1.0), uniform(0.0, 0.5)))
    return points


def _zero_estimate_points():
    """A seeded list of 300 SystemParams in the zero-estimate regime.

    lam / sqrt(alpha) is log-uniform in [38, 400] and alpha in [1e-3, 10];
    75 general points, then 75 each at rho_w = 0, rho_w = 1 and rho_x = 1.
    rho_x >= 0.01 keeps every point outside the perfect phase, and the
    variances are log-uniform in [0.1, 10].
    """
    rng = np.random.default_rng(15)
    points = []
    for case in ("general", "rho_w = 0", "rho_w = 1", "rho_x = 1"):
        for _ in range(75):
            alpha = float(10.0 ** rng.uniform(-3.0, 1.0))
            lam = float(10.0 ** rng.uniform(math.log10(38.0), math.log10(400.0))) * math.sqrt(alpha)
            rho_x = 1.0 if case == "rho_x = 1" else float(rng.uniform(0.01, 1.0))
            rho_w = {"rho_w = 0": 0.0, "rho_w = 1": 1.0}.get(case, float(rng.uniform()))
            sigma2_x, sigma2_w = (float(10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(2))
            points.append(SystemParams(alpha, lam, rho_x, rho_w, sigma2_x, sigma2_w))
    return points


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SystemParams(alpha=0.0, lam=1.0, rho_x=0.1, rho_w=0.1)
        with pytest.raises(ValueError):
            SystemParams(alpha=0.5, lam=-1.0, rho_x=0.1, rho_w=0.1)
        with pytest.raises(ValueError):
            SystemParams(alpha=0.5, lam=1.0, rho_x=1.5, rho_w=0.1)
        with pytest.raises(ValueError):
            SystemParams(alpha=0.5, lam=1.0, rho_x=0.1, rho_w=-0.1)
        with pytest.raises(ValueError):
            SystemParams(alpha=0.5, lam=1.0, rho_x=0.1, rho_w=0.1, sigma2_x=0.0)
        with pytest.raises(ValueError):
            SystemParams(alpha=0.5, lam=1.0, rho_x=0.1, rho_w=0.1, sigma2_w=float("inf"))

    def test_signal_power(self):
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.2, rho_w=0.1, sigma2_x=3.0)
        assert params.signal_power == 0.2 * 3.0

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(lambda_bracket=(1.0, 0.5))
        with pytest.raises(ValueError):
            SolverConfig(lambda_bracket=(0.0, 10.0))
        with pytest.raises(ValueError):
            SolverConfig(bisection_tol=-1e-6)


class TestMseFixedPoint:
    def test_error_phase_regression(self):
        """Frozen solver output for a point above the boundary."""
        params = SystemParams(alpha=0.6, lam=1.0, rho_x=0.15, rho_w=0.1)
        state = solve_mse_fixed_point(params)
        assert state.converged and not state.perfect
        np.testing.assert_allclose(state.mse, 0.01966141041380046, rtol=1e-9)
        np.testing.assert_allclose(state.chi, 0.07587004605739038, rtol=1e-9)
        np.testing.assert_allclose(state.m_hat, 2.976536399805326, rtol=1e-9)
        np.testing.assert_allclose(state.chi_hat, 0.4465951266645771, rtol=1e-9)

    def test_second_regression(self):
        params = SystemParams(alpha=0.5, lam=1.5, rho_x=0.3, rho_w=0.2)
        state = solve_mse_fixed_point(params)
        assert state.converged
        np.testing.assert_allclose(state.mse, 0.253377968631749, rtol=1e-9)

    def test_converged_state_is_fixed(self):
        """One more sweep from a converged state barely moves it."""
        params = SystemParams(alpha=0.6, lam=1.0, rho_x=0.15, rho_w=0.1)
        state = solve_mse_fixed_point(params)
        values = (state.mse, state.chi, state.m_hat, state.chi_hat)
        np.testing.assert_allclose(_mse_sweep(params, values, 0.0), values, rtol=1e-10)

    def test_residual_below_tolerance(self):
        cfg = SolverConfig(rel_tol=1e-12)
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.25, rho_w=0.1)
        state = solve_mse_fixed_point(params, cfg)
        assert state.converged
        assert state.residual <= cfg.rel_tol

    def test_overlap_identity(self):
        """mse = signal_power - 2 diag_m + diag_q at any fixed point."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            params = SystemParams(
                alpha=float(rng.uniform(0.4, 0.9)),
                lam=float(rng.uniform(0.5, 2.0)),
                rho_x=float(rng.uniform(0.15, 0.4)),
                rho_w=float(rng.uniform(0.05, 0.3)),
            )
            try:
                state = solve_mse_fixed_point(params)
            except FixedPointError:
                continue
            if not state.converged:
                continue
            lhs = state.mse
            rhs = params.signal_power - 2.0 * state.diag_m + state.diag_q
            np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, abs(lhs)))

    def test_perfect_phase_verdict(self):
        """Inside the phase the state is the limit of the runaway: no error,
        no susceptibility, m_hat infinite, chi_hat the threshold root's and
        the overlaps both equal to the signal power."""
        params = SystemParams(
            alpha=0.8, lam=0.7, rho_x=0.2, rho_w=0.05, sigma2_x=2.0, sigma2_w=0.5
        )
        state = solve_mse_fixed_point(params)
        threshold = solve_threshold_fixed_point(0.8, 0.7, 0.2, 0.05)
        assert threshold.condition_residual > 0.0
        assert state.perfect and not state.converged
        assert (state.mse, state.chi, state.m_hat) == (0.0, 0.0, math.inf)
        assert state.chi_hat == threshold.chi_hat
        assert state.diag_m == state.diag_q == params.signal_power
        assert state.residual == 0.0
        assert state.iterations == threshold.iterations

    def test_perfect_state_is_the_runaway_limit(self):
        """Next to the boundary the runaway iterates for 31,917 sweeps before
        m_hat passes 1e12; there its mse / chi^2 and chi_hat have come within
        1e-5 of the threshold root's A and chi_hat."""
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.0768572953263249, rho_w=0.1)
        outcome, (mse, chi, _, chi_hat), sweeps = runaway_mse_verdict(params)
        assert (outcome, sweeps) == ("perfect", 31917)
        threshold = solve_threshold_fixed_point(0.5, 1.0, params.rho_x, 0.1)
        np.testing.assert_allclose(mse / chi**2, threshold.A, rtol=1e-5)
        np.testing.assert_allclose(chi_hat, threshold.chi_hat, rtol=1e-5)
        assert solve_mse_fixed_point(params).chi_hat == threshold.chi_hat

    def test_verdict_matches_runaway_oracle(self):
        """The threshold root's verdict is the runaway iteration's at every
        seeded point where the runaway reaches one, and a converged state
        agrees with the runaway's plain loop to 1e-8 relative in fewer or as
        many sweeps; chi counts as 0 where both values have left the normal
        float range. The runaway runs out of its 200,000 sweeps at one
        point, 0.3% outside the boundary, where the damped iteration still
        runs out too."""
        exhausted = []
        verdicts = {"perfect": 0, "converged": 0}
        for index, params in enumerate(_verdict_oracle_points()):
            outcome, values, sweeps = runaway_mse_verdict(params)
            if outcome == "budget":
                exhausted.append(index)
                threshold = solve_threshold_fixed_point(
                    params.alpha, params.lam, params.rho_x, params.rho_w
                )
                assert -1e-4 < threshold.condition_residual < 0.0, (index, params)
                continue
            state = solve_mse_fixed_point(params)
            verdicts[outcome] += 1
            if outcome == "perfect":
                assert state.perfect, (index, params)
            else:
                assert outcome == "converged", (index, params)
                assert state.converged, (index, params)
                got = [state.mse, state.chi, state.m_hat, state.chi_hat]
                want = list(values)
                if max(got[1], want[1]) < sys.float_info.min:
                    got[1] = want[1] = 0.0
                np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0, err_msg=f"{index} {params}")
                assert state.iterations <= sweeps, (index, params)
        assert exhausted == [26]
        assert verdicts == {"perfect": 81, "converged": 248}

    def test_perfect_where_the_runaway_runs_out(self):
        """0.03% inside the boundary the runaway is still short of its
        verdict after 200,000 sweeps, which used to raise; the threshold root
        calls the point perfect."""
        rho_x = find_critical_rho_x(0.5, 1.0, 0.1) * (1.0 - 3e-4)
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=rho_x, rho_w=0.1)
        assert runaway_mse_verdict(params)[0] == "budget"
        assert solve_threshold_fixed_point(0.5, 1.0, rho_x, 0.1).condition_residual > 0.0
        assert solve_mse_fixed_point(params).perfect

    def test_budget_exhaustion(self):
        """A budget above the threshold root's evaluations and below the
        damped iteration's sweeps is spent on the mse sweeps."""
        params = SystemParams(alpha=0.6, lam=1.0, rho_x=0.15, rho_w=0.1)
        assert solve_threshold_fixed_point(0.6, 1.0, 0.15, 0.1).iterations < 20
        with pytest.raises(FixedPointError) as info:
            solve_mse_fixed_point(params, SolverConfig(max_iters=20))
        assert "no convergence after 20 sweeps" in str(info.value)
        assert info.value.state.iterations == 20
        assert not info.value.state.perfect

    @pytest.mark.parametrize("point", [
        (0.001262477542284923, 0.033206476924595246, 1.0, 0.5855832841816334,
         1.143876391282836, 3.1701605728784603),
        (0.0010187306179108883, 0.0014755902098984842, 0.14936475672551697, 0.6160520510794073,
         0.7319235980414476, 1.0601223004884217),
        (0.0010588378764971615, 0.016271261526819507, 0.0, 0.7011619178502114,
         1.4957316336854205, 1.9697096076792597),
        (0.0012245246702079877, 0.01259620153638366, 0.395993177463577, 0.0,
         0.12241854811811877, 0.12857862941121342),
        (0.0010947313089375813, 0.001715139065900893, 9.172999352014102e-07, 0.9460105271226591,
         1.377867698917554, 0.22816797316383192),
    ])
    def test_small_alpha_oscillation_converges(self, point):
        """Points 63, 156, 196, 325 and 3460 of the seeded 6,000-point grid of
        BENCH_bec7244.json, where the damped iteration oscillates and the
        plain loop ran out of 50,000 sweeps at the default damping: the
        solve converges, to the mse of the plain loop at damping 0.8 within
        1e-9 relative."""
        params = SystemParams(*point)
        state = solve_mse_fixed_point(params, SolverConfig(max_iters=50_000))
        assert state.converged and not state.perfect
        outcome, values, _ = runaway_mse_verdict(params, damping=0.8)
        assert outcome == "converged"
        np.testing.assert_allclose(state.mse, values[0], rtol=1e-9)

    def test_near_boundary_crawl(self):
        """Just outside the boundary (rho_c = 0.077) the plain loop contracts
        slowly and takes 4,163 sweeps at rho_x = 0.0801; the accelerated loop
        takes at most 400, to the plain loop's mse within 1e-8 relative."""
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.0801, rho_w=0.1)
        state = solve_mse_fixed_point(params)
        assert state.converged and state.iterations <= 400
        outcome, values, sweeps = runaway_mse_verdict(params)
        assert (outcome, sweeps) == ("converged", 4163)
        np.testing.assert_allclose(state.mse, values[0], rtol=1e-8)

    def test_progress_bound_cuts_a_crawl(self):
        """Point 2510 of the seeded grid: the weighted jump test alone lets
        the solve take 940 sweeps, and the progress bound ends it in 467.
        The plain loop takes 13,921 sweeps to the same mse within 1e-8
        relative."""
        params = SystemParams(5.817080197943293, 0.06278928574786148, 2.772070769761238e-07,
                              0.5081361428348946, 1.0013547655448332, 0.18556056425738252)
        state = solve_mse_fixed_point(params)
        assert state.converged and not state.perfect and state.iterations <= 600
        outcome, values, _ = runaway_mse_verdict(params)
        assert outcome == "converged"
        np.testing.assert_allclose(state.mse, values[0], rtol=1e-8)

    @pytest.mark.parametrize("failure", ["raises", "non-finite"])
    def test_failing_sweep_ends_the_solve(self, monkeypatch, failure):
        """A sweep that raises or yields a non-finite value at a plain point
        is not retried: the solve raises with the state after the sweeps
        before it, which the budget counts. Sweeps 1 and 2 are plain, sweep
        3 is at an extrapolated point; it fails here, which rejects that
        point, so sweep 4 is the plain step from sweep 2's point."""
        params = SystemParams(alpha=0.6, lam=1.0, rho_x=0.15, rho_w=0.1)
        sweep = replica._mse_sweep
        first = sweep(params, _mse_start(params), 0.5)
        second = sweep(params, first, 0.5)
        points, dampings = [], []

        def failing(p, v, damping):
            points.append(v)
            dampings.append(damping)
            if len(points) in (3, 4):
                if failure == "raises":
                    raise ZeroDivisionError("float division by zero")
                return (math.nan, *v[1:])
            return sweep(p, v, damping)

        monkeypatch.setattr(replica, "_mse_sweep", failing)
        message = "sweep 4 failed" if failure == "raises" else "sweep 4 produced a non-finite value"
        with pytest.raises(FixedPointError, match=message) as info:
            solve_mse_fixed_point(params)
        state = info.value.state
        assert dampings == [0.5] * 4
        assert points[1] == first and points[2] != second and points[3] == second
        assert (state.mse, state.chi, state.m_hat, state.chi_hat) == second
        assert state.iterations == 3 and state.rejections == 1
        assert not state.converged and not state.perfect

    @pytest.mark.parametrize("failure", ["raises", "non-finite", "jumps"])
    def test_failing_extrapolated_sweep_is_rejected(self, monkeypatch, failure):
        """A sweep that fails at an extrapolated point (sweep 3), or that
        jumps there by multiplying mse a thousandfold (a relative change
        under 1, so only the weighted jump test sees it), counts as a
        rejection and a sweep; the solve steps plainly from there and
        converges to the unpatched state."""
        params = SystemParams(alpha=0.6, lam=1.0, rho_x=0.15, rho_w=0.1)
        unpatched = solve_mse_fixed_point(params)
        sweep = replica._mse_sweep
        calls = []

        def failing(p, v, damping):
            calls.append(v)
            if len(calls) == 3:
                if failure == "raises":
                    raise ZeroDivisionError("float division by zero")
                if failure == "jumps":
                    out = sweep(p, v, damping)
                    return (1e3 * out[0], *out[1:])
                return (math.nan, *v[1:])
            return sweep(p, v, damping)

        monkeypatch.setattr(replica, "_mse_sweep", failing)
        state = solve_mse_fixed_point(params)
        assert state.converged and state.iterations == len(calls)
        assert state.rejections == unpatched.rejections + 1
        np.testing.assert_allclose(
            [state.mse, state.chi, state.m_hat, state.chi_hat],
            [unpatched.mse, unpatched.chi, unpatched.m_hat, unpatched.chi_hat],
            rtol=1e-9,
        )

    def test_sweep_into_undefined_diagnostics_raises(self):
        """An undamped noiseless sweep without signal keeps mse at 0 and
        drives chi_hat to exactly zero, where the overlap diagnostics are
        undefined; the zero-estimate limit does not apply at mse = 0."""
        params = SystemParams(alpha=1e-8, lam=0.0037835, rho_x=0.0, rho_w=0.0)
        start = _mse_start(params)
        assert start[0] == math.fsum(replica._mse_terms(params, *start[2:])) == 0.0
        with pytest.raises(ValueError, match="overlap diagnostics undefined"):
            _mse_sweep(params, start, 0.0)

    def test_zero_estimate_limit(self):
        """At a large penalty the estimate is zero: Q(lam / sqrt(chi_hat))
        underflows, chi falls out of the normal range and the m_hat update
        takes its chi -> 0 limit. The solve converges to mse = rho_x sigma2_x,
        chi_hat = alpha and m_hat = alpha sqrt(2/pi) [(1 - rho_w) / sqrt(mse)
        + rho_w / sqrt(mse + sigma2_w)]."""
        params = SystemParams(alpha=0.5, lam=50.0, rho_x=0.5, rho_w=0.1)
        state = solve_mse_fixed_point(params)
        assert state.converged and not state.perfect
        assert state.mse == 0.5 and state.chi_hat == 0.5
        assert state.chi < sys.float_info.min
        limit = 0.5 * math.sqrt(2.0 / math.pi) * (0.9 / math.sqrt(0.5) + 0.1 / math.sqrt(1.5))
        np.testing.assert_allclose(state.m_hat, limit, rtol=1e-12)

    def test_sweep_from_zero_chi(self):
        """A sweep from chi = 0 takes the m_hat update m_acc / chi, which
        would divide 0 by 0, at its closed-form limit; from the zero
        estimate with that limit it returns the same state."""
        params = SystemParams(alpha=0.64, lam=45.0, rho_x=0.82, rho_w=0.39)
        power = params.signal_power
        limit = 0.64 * math.sqrt(2.0 / math.pi) * (0.61 / math.sqrt(power) + 0.39 / math.sqrt(power + 1.0))
        mse, chi, m_hat, chi_hat = _mse_sweep(params, (power, 0.0, limit, 0.64), 0.5)
        assert chi == 0.0 and chi_hat == 0.64
        np.testing.assert_allclose([mse, m_hat], [power, limit], rtol=1e-12)

    def test_zero_estimate_grid(self):
        """Across a seeded grid with lam / sqrt(alpha) in [38, 400] every
        solve converges to the zero estimate, its mse within 4 ulp of
        rho_x sigma2_x."""
        for index, params in enumerate(_zero_estimate_points()):
            state = solve_mse_fixed_point(params)
            assert state.converged and not state.perfect, (index, params)
            power = params.signal_power
            assert abs(state.mse - power) <= 4.0 * math.ulp(power), (index, params, state.mse)

    def test_variance_invariant_phase(self):
        """The perfect/error verdict ignores the component variances."""
        base = dict(alpha=0.8, lam=0.7, rho_x=0.2, rho_w=0.05)
        verdicts = []
        for sx, sw in ((1.0, 1.0), (4.0, 0.25), (0.01, 100.0)):
            state = solve_mse_fixed_point(SystemParams(sigma2_x=sx, sigma2_w=sw, **base))
            verdicts.append(state.perfect)
        assert verdicts == [True, True, True]


class TestThresholdFixedPoint:
    def test_boundary_regression(self):
        rho_c = find_critical_rho_x(0.5, 1.0, 0.1)
        np.testing.assert_allclose(rho_c, 0.0772203317975998, atol=2e-6)

    def test_critical_alpha_inverts_critical_rho(self):
        alpha_c = find_critical_alpha(1.0, 0.0772203317975998, 0.1)
        np.testing.assert_allclose(alpha_c, 0.5, atol=2e-3)

    def test_state_regression_at_boundary(self):
        state = solve_threshold_fixed_point(0.5, 1.0, 0.0772203317975998, 0.1)
        assert state.converged
        np.testing.assert_allclose(state.A, 3.887884271674144, rtol=1e-6)
        np.testing.assert_allclose(state.chi_hat, 0.3816423032445103, rtol=1e-6)
        assert abs(state.condition_residual) < 1e-5

    def test_residual_sign_orientation(self):
        """Positive above the critical measurement ratio, negative below."""
        rho = 0.0772203317975998
        above = solve_threshold_fixed_point(0.6, 1.0, rho, 0.1)
        below = solve_threshold_fixed_point(0.42, 1.0, rho, 0.1)
        assert above.condition_residual > 0.0
        assert below.condition_residual < 0.0

    def test_map_without_signal_stays_finite(self):
        """Without signal Q(lam / sqrt(chi_hat))^2 underflows long before A
        matters: the root is alpha, where t = 1 / sqrt(A) is 0 and A is
        +inf, and the residual's sign is decided in log form."""
        state = solve_threshold_fixed_point(0.001, 1.0, 0.0, 0.0)
        assert state.converged and state.iterations == 1
        assert state.chi_hat == 0.001
        assert 0.0 < state.condition_residual < 1e-100
        state = solve_threshold_fixed_point(0.001, 20.0, 0.0, 0.0)
        assert state.chi_hat == 0.001 and state.A == math.inf
        assert state.condition_residual == 5e-324
        assert solve_mse_fixed_point(SystemParams(0.001, 20.0, 0.0, 0.0)).perfect

    def test_tiny_signal_density(self):
        """With Q(lam / sqrt(chi_hat)) underflowed and rho_x below about
        1e-160, the square of 2 (1 - rho_x) Q + rho_x underflows; t = 1 /
        sqrt(A) is then formed from its root, and the points stay perfect."""
        state = solve_threshold_fixed_point(0.001, 1.0, 1e-150, 0.0)
        np.testing.assert_allclose(state.A, 1.001e150, rtol=1e-12)
        for rho_x in (1e-170, 1e-200):
            state = solve_threshold_fixed_point(0.001, 1.0, rho_x, 0.0)
            assert state.converged and state.condition_residual > 0.0, rho_x
            np.testing.assert_allclose(state.A, 1.001 / rho_x, rtol=1e-12)
            assert solve_mse_fixed_point(SystemParams(0.001, 1.0, rho_x, 0.0)).perfect, rho_x

    def test_map_without_signal_matches_damped_iteration(self):
        """Where the plain A-update stays finite without signal, the root
        built from Mills-ratio terms is the damped iteration's; at
        (0.142, 1.99, 0, 0.0316) the plain update underflows at the lower
        end, and the root still lies inside the phase."""
        for point in ((0.0957, 1.193, 0.0, 0.0068), (0.5, 1.0, 0.0, 0.1), (0.3, 2.0, 0.0, 0.05)):
            state = solve_threshold_fixed_point(*point)
            a_ref, chi_hat_ref, _ = damped_threshold_fixed_point(*point)
            np.testing.assert_allclose([state.A, state.chi_hat], [a_ref, chi_hat_ref], rtol=1e-9)
        state = solve_threshold_fixed_point(0.142, 1.99, 0.0, 0.0316)
        assert state.converged and math.isfinite(state.A)
        assert state.condition_residual > 0.0
        assert solve_mse_fixed_point(SystemParams(0.142, 1.99, 0.0, 0.0316)).perfect

    def test_critical_alpha_without_signal(self):
        """Without signal the residual is positive already at alpha = 1e-4,
        so the rising search reports an empty bracket instead of a
        non-finite map at its lower end."""
        assert solve_threshold_fixed_point(1e-4, 1.0, 0.0, 0.1).condition_residual > 0.0
        with pytest.raises(BracketError, match="no phase boundary"):
            find_critical_alpha(1.0, 0.0, 0.1)

    def test_non_finite_map(self, monkeypatch):
        """A map value that is not finite ends the search at once, with the
        NaN state of no evaluation."""
        monkeypatch.setattr(replica, "r_lambda", lambda lam, h: math.nan)
        with pytest.raises(FixedPointError) as info:
            solve_threshold_fixed_point(0.5, 1.0, 0.1, 0.1)
        assert "non-finite" in str(info.value)
        assert info.value.state.iterations == 0
        assert math.isnan(info.value.state.condition_residual)
        assert math.isnan(info.value.state.chi_hat)

    def test_budget_exhaustion(self):
        with pytest.raises(FixedPointError) as info:
            solve_threshold_fixed_point(0.5, 1.0, 0.0772, 0.1, SolverConfig(max_iters=3))
        assert "not converged after 3 map evaluations" in str(info.value)
        assert info.value.state.iterations == 3

    def test_matches_damped_iteration(self):
        """The Brent root is the fixed point the damped two-variable
        iteration converges to, and it is the only sign change of
        G(c) - c on the bracket [alpha rho_w, alpha]."""
        for alpha, lam, rho_x, rho_w in _threshold_oracle_points():
            point = f"alpha={alpha!r} lam={lam!r} rho_x={rho_x!r} rho_w={rho_w!r}"
            state = solve_threshold_fixed_point(alpha, lam, rho_x, rho_w)
            a_ref, chi_hat_ref, _ = damped_threshold_fixed_point(alpha, lam, rho_x, rho_w)
            assert state.converged, point
            np.testing.assert_allclose(state.A, a_ref, rtol=1e-9, err_msg=point)
            np.testing.assert_allclose(state.chi_hat, chi_hat_ref, rtol=1e-9, err_msg=point)

            grid = np.linspace(alpha * rho_w, alpha, 200)
            if rho_w == 0.0:
                grid[0] = 1e-300  # the chi_hat -> 0+ limit
            gaps = np.array([_threshold_update(alpha, lam, rho_x, rho_w, c)[1] - c for c in grid])
            if rho_w == 1.0:
                # the bracket is the single point alpha, a root of the gap
                assert np.all(gaps == 0.0), point
                continue
            signs = np.sign(gaps[gaps != 0.0])
            assert signs[0] > 0.0 > signs[-1], point
            assert np.count_nonzero(signs[1:] != signs[:-1]) == 1, point

    def test_top_of_bracket_root(self):
        """Without signal, G(alpha) can round an ulp above alpha; the root is
        then alpha itself, where the damped iteration also lands."""
        point = (0.030928873773077247, 3.6449871909683584, 0.0, 0.6371801975109873)
        assert _threshold_update(*point, point[0])[1] > point[0]
        state = solve_threshold_fixed_point(*point)
        a_ref, chi_hat_ref, _ = damped_threshold_fixed_point(*point)
        assert state.chi_hat == point[0] and state.iterations == 1
        np.testing.assert_allclose([state.A, state.chi_hat], [a_ref, chi_hat_ref], rtol=1e-9)

    def test_slow_iteration_point(self):
        """The damped iteration needs 949 sweeps here; the root, a dozen
        evaluations of the map."""
        state = solve_threshold_fixed_point(0.9, 1e-3, 0.5, 0.0)
        _, _, sweeps = damped_threshold_fixed_point(0.9, 1e-3, 0.5, 0.0)
        assert sweeps == 949
        assert state.iterations <= 20

    def test_boundary_roots_within_half_tolerance(self):
        """At the default tolerance both boundary searches land within
        bisection_tol / 2 of the same search run at a far tighter one."""
        tight = SolverConfig(bisection_tol=1e-12)
        half = SolverConfig().bisection_tol / 2
        # the criterion-10 cells at lam = 1
        for rho_x in (0.05, 0.1, 0.15, 0.2, 0.25):
            for delta in (0.2, 0.1, 0.02):
                rho_w = delta * rho_x
                coarse = find_critical_alpha(1.0, rho_x, rho_w)
                assert abs(coarse - find_critical_alpha(1.0, rho_x, rho_w, tight)) <= half
        for alpha, lam, rho_w in ((0.5, 1.0, 0.1), (0.7, 0.6, 0.05), (0.4, 1.5, 0.2)):
            coarse = find_critical_rho_x(alpha, lam, rho_w)
            assert abs(coarse - find_critical_rho_x(alpha, lam, rho_w, tight)) <= half
            rho_x = 0.5 * coarse
            coarse = find_critical_alpha(lam, rho_x, rho_w)
            assert abs(coarse - find_critical_alpha(lam, rho_x, rho_w, tight)) <= half

    @pytest.mark.parametrize("rising", [True, False])
    def test_boundary_root_solves_each_abscissa_once(self, rising):
        """The end values of the bracket check are handed on to Brent's
        method, and the root is the one Brent's method finds alone."""
        cfg = SolverConfig()
        sign = 1.0 if rising else -1.0

        def residual(t):
            return sign * float(np.tanh(4.0 * (t - 0.3)))

        seen = []

        def counting(t):
            seen.append(t)
            return residual(t)

        root = _boundary_root(counting, "t", 1e-4, 1.0, rising, cfg)
        assert len(seen) == len(set(seen))
        assert root == brentq(residual, 1e-4, 1.0, xtol=cfg.bisection_tol / 2)

    def test_bracket_error(self):
        """A penalty too weak to ever reconstruct leaves no sign change."""
        with pytest.raises(BracketError) as info:
            find_critical_alpha(1.0, 0.9, 0.9)
        assert "no phase boundary" in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_phase_consistency_with_full_solver(self):
        """Both fixed points must agree on which side of the boundary a
        point sits: the runaway iteration's divergence verdict below the
        critical density, a finite positive error above it."""
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            alpha = float(rng.uniform(0.35, 0.85))
            lam = float(rng.uniform(0.5, 2.0))
            rho_w = float(rng.uniform(0.02, 0.3))
            try:
                rho_c = find_critical_rho_x(alpha, lam, rho_w)
            except BracketError:
                continue
            inside = runaway_mse_verdict(
                SystemParams(alpha=alpha, lam=lam, rho_x=rho_c * 0.9, rho_w=rho_w)
            )
            outside = solve_mse_fixed_point(
                SystemParams(alpha=alpha, lam=lam, rho_x=min(rho_c * 1.1, 0.999), rho_w=rho_w)
            )
            assert inside[0] == "perfect", (alpha, lam, rho_w, rho_c)
            assert outside.converged and outside.mse > 0.0, (alpha, lam, rho_w, rho_c)
            checked += 1

    def test_error_vanishes_at_boundary(self):
        """Approaching the boundary from above, the error falls
        continuously to zero instead of jumping."""
        rho_c = find_critical_rho_x(0.5, 1.0, 0.1)
        grid = [rho_c + step for step in (0.02, 0.01, 0.005, 0.002, 0.001)]
        errors = []
        for rho in grid:
            state = solve_mse_fixed_point(
                SystemParams(alpha=0.5, lam=1.0, rho_x=rho, rho_w=0.1)
            )
            assert state.converged
            errors.append(state.mse)
        assert all(a > b for a, b in zip(errors, errors[1:]))
        near = solve_mse_fixed_point(
            SystemParams(alpha=0.5, lam=1.0, rho_x=rho_c + 1e-4, rho_w=0.1)
        )
        assert near.mse < 1e-6


class TestOptimizeLambda:
    def test_critical_rho_regression(self):
        opt = optimize_lambda("critical-rho-x", alpha=0.5, rho_w=0.1)
        np.testing.assert_allclose(opt.lambda_star, 0.573166566622814, rtol=1e-3)
        np.testing.assert_allclose(opt.objective_value, 0.10313065747928618, atol=1e-4)

    def test_beats_coarse_grid(self):
        """No penalty on a coarse grid reconstructs a denser signal."""
        opt = optimize_lambda("critical-rho-x", alpha=0.5, rho_w=0.1)
        for lam in (0.2, 0.4, 0.8, 1.0, 1.6, 3.0):
            try:
                value = find_critical_rho_x(0.5, lam, 0.1)
            except BracketError:
                continue
            assert value <= opt.objective_value + 1e-4, lam

    def test_critical_alpha_improves_on_default(self):
        opt = optimize_lambda("critical-alpha", rho_x=0.15, rho_w=0.015)
        fixed = find_critical_alpha(1.0, 0.15, 0.015)
        assert opt.objective_value <= fixed + 1e-6

    def test_mse_objective_dominance(self):
        params = dict(alpha=0.55, rho_x=0.2, rho_w=0.15)
        opt = optimize_lambda("mse", **params)
        for lam in (0.3, 0.7, 1.0, 2.0):
            state = solve_mse_fixed_point(SystemParams(lam=lam, **params))
            assert opt.objective_value <= state.mse + 1e-8, lam

    def test_mse_objective_onto_the_zero_estimate(self):
        """At alpha = 0.05 the mse falls with lam onto the zero-estimate
        plateau mse = rho_x; the search probes past lam / sqrt(alpha) = 38
        and returns a plateau weight instead of failing there."""
        opt = optimize_lambda("mse", alpha=0.05, rho_x=0.3, rho_w=0.1)
        assert 1e-3 <= opt.lambda_star <= 1e3
        np.testing.assert_allclose(opt.objective_value, 0.3, rtol=1e-12)
        state = solve_mse_fixed_point(SystemParams(0.05, opt.lambda_star, 0.3, 0.1))
        assert state.converged and state.mse == opt.objective_value

    def test_returns_probed_pair(self):
        """The optimum is a weight that was evaluated, with its own value."""
        opt = optimize_lambda("critical-rho-x", alpha=0.5, rho_w=0.1)
        assert opt.objective_value == find_critical_rho_x(0.5, opt.lambda_star, 0.1)
        opt = optimize_lambda("critical-alpha", rho_x=0.15, rho_w=0.015)
        assert opt.objective_value == find_critical_alpha(opt.lambda_star, 0.15, 0.015)

    def test_argument_requirements(self):
        with pytest.raises(ValueError):
            optimize_lambda("critical-rho-x", rho_w=0.1)  # alpha missing
        with pytest.raises(ValueError):
            optimize_lambda("critical-alpha", rho_w=0.1)  # rho_x missing
        with pytest.raises(ValueError):
            optimize_lambda("mse", alpha=0.5, rho_w=0.1)  # rho_x missing
        with pytest.raises(ValueError):
            optimize_lambda("deepest-descent", alpha=0.5, rho_x=0.1, rho_w=0.1)

    def test_all_probes_failing(self):
        """A regime where no penalty reconstructs surfaces as a typed error."""
        cfg = SolverConfig(bisection_tol=1e-2)
        with pytest.raises(ObjectiveProbeError) as info:
            optimize_lambda("critical-alpha", rho_x=0.9, rho_w=0.9, cfg=cfg)
        assert info.value.lam > 0.0

    @pytest.mark.parametrize(
        "objective, solver, kwargs",
        [
            ("mse", "solve_mse_fixed_point", dict(alpha=0.55, rho_x=0.2, rho_w=0.15)),
            ("critical-alpha", "solve_threshold_fixed_point", dict(rho_x=0.15, rho_w=0.015)),
        ],
    )
    def test_solver_failure_names_the_probe(self, monkeypatch, objective, solver, kwargs):
        """A solver that runs out of budget fails the search at the first
        probe, tagged with that weight and chained to the solver error."""
        probed = []
        inner = getattr(replica, solver)

        def recording(*args, **kw):
            probed.append(args[0].lam if objective == "mse" else args[1])
            return inner(*args, **kw)

        monkeypatch.setattr(replica, solver, recording)
        with pytest.raises(ObjectiveProbeError) as info:
            optimize_lambda(objective, cfg=SolverConfig(max_iters=3), **kwargs)
        kind = "mse" if objective == "mse" else "threshold"
        assert str(info.value).startswith(f"{kind} solve failed at probe lam=0.195793: ")
        # the first golden-section point of the bounded search on log(lam)
        assert info.value.lam == probed[-1]
        np.testing.assert_allclose(info.value.lam, 0.19579250709528276, rtol=1e-12)
        assert isinstance(info.value.__cause__, FixedPointError)


class TestInitialState:
    def test_matches_signal_power(self):
        params = SystemParams(alpha=0.5, lam=1.0, rho_x=0.2, rho_w=0.1, sigma2_x=3.0)
        assert _mse_start(params) == (params.signal_power, 1.0, 1.0, params.alpha)
