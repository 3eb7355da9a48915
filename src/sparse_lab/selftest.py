"""Built-in invariant checks, runnable from the command line.

Each check reruns one of the package's cross-validation routes: closed
forms against quadrature oracles, identities between independent
formulas, frozen regression values, and known-answer decodes. The suite
is a fast subset of the full test battery, meant to certify an
installation in seconds.

The quadrature oracles defined here trade speed for an evaluation route
independent of the closed forms in ``sparse_lab.special``. The checks
and the tests call them; the solvers never do.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate

from .decoder import DecoderConfig, ProblemInstance, decode, estimate_operator_norm
from .replica import (
    SolverConfig,
    SystemParams,
    find_critical_alpha,
    find_critical_rho_x,
    solve_mse_fixed_point,
)
from .special import gauss_pdf, q_function, r_lambda, s_func

__all__ = [
    "CheckResult",
    "run_all",
    "CHECKS",
    "QuadratureError",
    "phi_lambda_oracle",
    "gauss_expectation",
    "lemma_oracles",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# --- quadrature oracles ------------------------------------------------------


# Absolute tolerance and subdivision budget of the quadrature oracles.
_QUAD_ABS_TOL = 1e-10
_QUAD_LIMIT = 200

# Half-width of the integration range in standard deviations; it must be at
# least 8, beyond which the Gaussian mass is below 1e-15.
_QUAD_HALFWIDTH = 10.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float) -> None:
        super().__init__(message)
        self.achieved_tol = achieved_tol


def phi_lambda_oracle(h_arg: float, lam: float, q_hat: float) -> float:
    """Minimum over v of the scalar cost (q_hat/2) v^2 - h_arg v + lam |v|.

    Piecewise value: zero when |h_arg| <= lam, else -(|h_arg| - lam)^2 / (2 q_hat).
    Even in h_arg and nonpositive everywhere. Its Gaussian average ties the
    closed form r_lambda to an integral route: for z ~ N(0, 1),

        q_hat * E[phi_lambda_oracle(z * sqrt(h), lam, q_hat)] = r_lambda(lam, h).
    """
    if not q_hat > 0.0:
        raise ValueError(f"phi_lambda_oracle requires q_hat > 0, got {q_hat!r}")
    excess = abs(h_arg) - lam
    if excess <= 0.0:
        return 0.0
    return -(excess * excess) / (2.0 * q_hat)


def _checked_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    points: Sequence[float] | None = None,
) -> float:
    if hi <= lo:
        return 0.0
    result = integrate.quad(
        f,
        lo,
        hi,
        epsabs=_QUAD_ABS_TOL,
        epsrel=0.0,
        limit=_QUAD_LIMIT,
        points=points,
        full_output=1,
    )
    value, abserr = result[0], result[1]
    if abserr > _QUAD_ABS_TOL:
        raise QuadratureError(
            f"quadrature achieved absolute tolerance {abserr:.3e}, "
            f"requested {_QUAD_ABS_TOL:.3e}",
            abserr,
        )
    return value


def gauss_expectation(
    f: Callable[[float], float], breakpoints: Sequence[float] = ()
) -> float:
    """E[f(z)] for z ~ N(0,1) by adaptive quadrature on [-hw, hw].

    breakpoints lists known kink locations of f so the subdivision can land
    on them exactly.
    """
    hw = _QUAD_HALFWIDTH
    pts = sorted(p for p in breakpoints if -hw < p < hw) or None
    return _checked_quad(lambda z: f(z) * gauss_pdf(z), -hw, hw, points=pts)


def lemma_oracles(a: float) -> tuple[float, float]:
    """Tail mass and interior second moment of the unit Gaussian at cut a.

    Returns (P(|z| > a), E[z^2; |z| < a]) with both integrals evaluated by
    adaptive quadrature. The pair certifies the closed forms 2*Q(a) and
    1 - 2*Q(a) - a*sqrt(2/pi)*exp(-a^2/2), and s_func via the bridge
    s(a) = a^-2 * E[z^2; |z| < a].
    """
    if not a > 0.0:
        raise ValueError(f"lemma_oracles requires a > 0, got {a!r}")
    hw = _QUAD_HALFWIDTH
    tail = 2.0 * _checked_quad(gauss_pdf, a, max(a, hw))
    interior = 2.0 * _checked_quad(lambda t: t * t * gauss_pdf(t), 0.0, min(a, hw))
    return tail, interior


# --- checks -----------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_tail_reflection() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for x in rng.uniform(-8.0, 8.0, size=200):
        err = abs(q_function(x) + q_function(-x) - 1.0)
        worst = max(worst, err)
    return CheckResult("tail-reflection", worst <= 1e-14, f"worst |Q(x)+Q(-x)-1| = {worst:.3e}")


def check_tail_values() -> CheckResult:
    # frozen high-precision references
    refs = {
        0.0: 0.5,
        1.0: 0.15865525393145705,
        5.0: 2.866515718791939e-07,
        9.0: 1.1285884059538406e-19,
    }
    worst = max(abs(q_function(x) - v) / v for x, v in refs.items() if v)
    ok = worst <= 1e-14 and q_function(0.0) == 0.5
    return CheckResult("tail-values", ok, f"worst relative error = {worst:.3e}")


def check_cut_moments() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for a in rng.uniform(0.05, 6.0, size=30):
        tail, interior = lemma_oracles(float(a))
        closed_tail = 2.0 * q_function(float(a))
        closed_interior = 1.0 - closed_tail - a * _SQRT_2_OVER_PI * math.exp(-0.5 * a * a)
        worst = max(worst, abs(tail - closed_tail), abs(interior - closed_interior))
    return CheckResult("cut-moments", worst <= 1e-8, f"worst absolute gap = {worst:.3e}")


def check_interior_moment_bridge() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for a in rng.uniform(0.05, 6.0, size=30):
        _, interior = lemma_oracles(float(a))
        worst = max(worst, abs(s_func(float(a)) - interior / (a * a)))
    return CheckResult("interior-moment-bridge", worst <= 1e-8, f"worst gap = {worst:.3e}")


def check_threshold_moment_integral() -> CheckResult:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(25):
        lam = float(rng.uniform(0.1, 3.0))
        h = float(rng.uniform(0.05, 4.0))
        q_hat = float(rng.uniform(0.2, 5.0))
        root_h = math.sqrt(h)
        kink = lam / root_h
        integral = q_hat * gauss_expectation(
            lambda z: phi_lambda_oracle(z * root_h, lam, q_hat),
            breakpoints=(-kink, kink),
        )
        worst = max(worst, abs(integral - r_lambda(lam, h)))
    return CheckResult(
        "threshold-moment-integral", worst <= 1e-8, f"worst absolute gap = {worst:.3e}"
    )


def check_threshold_moment_derivative() -> CheckResult:
    # d r_lambda / d h = -Q(lam / sqrt(h)), via central differences
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(25):
        lam = float(rng.uniform(0.1, 3.0))
        h = float(rng.uniform(0.1, 4.0))
        dh = 1e-6 * h
        fd = (r_lambda(lam, h + dh) - r_lambda(lam, h - dh)) / (2.0 * dh)
        exact = -q_function(lam / math.sqrt(h))
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-300))
    return CheckResult(
        "threshold-moment-derivative", worst <= 1e-5, f"worst relative gap = {worst:.3e}"
    )


def check_sign_properties() -> CheckResult:
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(2000):
        lam = float(rng.uniform(0.01, 10.0))
        h = float(rng.uniform(1e-4, 50.0))
        x = float(rng.uniform(1e-6, 40.0))
        if r_lambda(lam, h) > 0.0 or s_func(x) < 0.0:
            ok = False
            break
    return CheckResult("sign-properties", ok, "r_lambda <= 0 and s_func >= 0 on random draws")


def check_mse_diagnostics() -> CheckResult:
    # at a fixed point the overlaps satisfy mse = signal_power - 2 m + q
    worst = 0.0
    for params in (
        SystemParams(alpha=0.6, lam=1.0, rho_x=0.15, rho_w=0.1),
        SystemParams(alpha=0.55, lam=0.7, rho_x=0.25, rho_w=0.15, sigma2_x=2.0, sigma2_w=0.5),
        SystemParams(alpha=0.5, lam=1.5, rho_x=0.3, rho_w=0.2),
    ):
        state = solve_mse_fixed_point(params)
        if not state.converged:
            return CheckResult("mse-diagnostics", False, "fixed point did not converge")
        identity = params.signal_power - 2.0 * state.diag_m + state.diag_q
        worst = max(worst, abs(state.mse - identity))
    return CheckResult(
        "mse-diagnostics", worst <= 1e-8, f"worst identity gap = {worst:.3e}"
    )


def check_boundary_regression() -> CheckResult:
    value = find_critical_rho_x(0.5, 1.0, 0.1)
    ok = abs(value - 0.0770) <= 5e-4
    return CheckResult("boundary-regression", ok, f"critical density = {value:.6f}")


def check_boundary_round_trip() -> CheckResult:
    # the alpha boundary, one root in chi_hat, inverts the rho_x boundary,
    # a root in rho_x with a threshold solve at every probe
    tight = SolverConfig(bisection_tol=1e-12)
    rho_c = find_critical_rho_x(0.5, 1.0, 0.1, tight)
    gap = abs(find_critical_alpha(1.0, rho_c, 0.1, tight) - 0.5)
    return CheckResult("boundary-round-trip", gap <= 1e-10, f"|alpha_c(rho_c(0.5)) - 0.5| = {gap:.3e}")


def check_decoder_known_answer() -> CheckResult:
    # single unknown, two rows: objective |1 - x| + |2 - 2 x| + 0.5 |x|
    # is minimized at x = 1 with value 0.5
    instance = ProblemInstance(A=np.array([[1.0], [2.0]]), y=np.array([1.0, 2.0]))
    result = decode(instance, 0.5)
    ok = (
        result.converged
        and abs(float(result.x_hat[0]) - 1.0) <= 1e-6
        and abs(result.objective - 0.5) <= 1e-8
    )
    return CheckResult(
        "decoder-known-answer",
        ok,
        f"x = {float(result.x_hat[0]):.9f}, objective = {result.objective:.9f}",
    )


def check_decoder_identity_matrix() -> CheckResult:
    # A = I decouples: each component solves min |y_i - x| + lam |x|,
    # optimal at x = y_i whenever lam < 1
    y = np.array([1.5, -0.3, 0.0, 2.0, -4.0, 0.7, 0.0, 0.1])
    instance = ProblemInstance(A=np.eye(8), y=y)
    result = decode(instance, 0.5)
    worst = float(np.max(np.abs(result.x_hat - y)))
    return CheckResult(
        "decoder-identity-matrix",
        result.converged and worst <= 1e-8,
        f"worst |x - y| = {worst:.3e}",
    )


def check_operator_norm() -> CheckResult:
    rng = np.random.default_rng(29)
    a = rng.standard_normal((12, 20))
    estimate = estimate_operator_norm(a, iters=5000)
    exact = float(np.linalg.svd(a, compute_uv=False)[0])
    rel = abs(estimate - exact) / exact
    return CheckResult("operator-norm", rel <= 1e-8, f"relative gap to SVD = {rel:.3e}")


def check_config_validation() -> CheckResult:
    probes: list[Callable[[], object]] = [
        lambda: SystemParams(alpha=0.5, lam=-1.0, rho_x=0.1, rho_w=0.1),
        lambda: SystemParams(alpha=0.5, lam=1.0, rho_x=1.5, rho_w=0.1),
        lambda: DecoderConfig(max_iters=0),
        lambda: s_func(0.0),
        lambda: r_lambda(1.0, -1.0),
        lambda: phi_lambda_oracle(1.0, 1.0, 0.0),
    ]
    for probe in probes:
        try:
            probe()
        except ValueError:
            continue
        return CheckResult("config-validation", False, "an invalid input was accepted")
    return CheckResult("config-validation", True, "invalid inputs rejected")


CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_tail_reflection,
    check_tail_values,
    check_cut_moments,
    check_interior_moment_bridge,
    check_threshold_moment_integral,
    check_threshold_moment_derivative,
    check_sign_properties,
    check_mse_diagnostics,
    check_boundary_regression,
    check_boundary_round_trip,
    check_decoder_known_answer,
    check_decoder_identity_matrix,
    check_operator_norm,
    check_config_validation,
)


def run_all() -> list[CheckResult]:
    """Run every check, never raising; failures are reported as results."""
    results = []
    for check in CHECKS:
        try:
            result = check()
            # numpy comparison results masquerade as bool; normalize
            results.append(CheckResult(result.name, bool(result.passed), result.detail))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__, False, f"raised {exc!r}"))
    return results
