"""Asymptotic mean square error and phase boundary of L1-L1 reconstruction.

The estimator under study is

    x_hat = argmin_x  ||y - A x||_1 + lam ||x||_1

for y = A x0 + w with iid Gaussian A (variance 1/N), Bernoulli-Gaussian
signal x0 (density rho_x, variance sigma2_x) and Bernoulli-Gaussian noise w
(density rho_w, variance sigma2_w), in the proportional limit
M/N -> alpha. Two coupled descriptions are implemented:

* a four-variable fixed point (mse, chi, m_hat, chi_hat) whose solution
  gives the per-component mean square error of the estimate, and
* a two-variable fixed point (A, chi_hat) valid inside the perfect
  reconstruction phase, whose stability condition locates the phase
  boundary.

The A-update of the threshold system depends on chi_hat alone, so that
system is one scalar equation in chi_hat, solved by Brent's root finder
(scipy's brentq) on a known bracket. The error fixed point first solves
it: inside the perfect phase (positive condition residual) it returns the
scaling limit of that phase, where m_hat runs away while mse / chi^2 and
chi_hat tend to the threshold root's A and chi_hat. Elsewhere the sweep,
damped by the fixed weight 0.5, is iterated with safeguarded type-II
Anderson acceleration of memory 2: an extrapolated point that leaves the
domain, or whose sweep fails, jumps or misses a progress bound that
shrinks with each extrapolated point kept, is replaced by the plain step.
The budget counts sweeps, rejected ones too; a sweep that raises or goes
non-finite at a plain point ends the solve. In the zero-estimate regime
of a large penalty chi leaves the normal float range, and the sweep takes
the m_hat update at its chi -> 0 limit. The overlap diagnostics are
evaluated once, for the state a solve returns or raises.

The boundary in rho_x is pinned by brentq in rho_x, each probe a
threshold solve, since rho_x enters the map nonlinearly. alpha enters it
only as a factor, G = alpha g(chi_hat), so the fixed point chi_hat
belongs to alpha = chi_hat / g(chi_hat): the boundary in alpha is one
brentq root in chi_hat of the condition residual along that curve,
between the roots of the threshold solves at alpha = 1e-4 and 1, with no
solve nested inside it. Brent's bounded minimizer (scipy's
minimize_scalar) tunes the penalty weight lam.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal

from scipy import special
from scipy.optimize import brentq, minimize_scalar

from .special import q_function, r_lambda, s_func

__all__ = [
    "SystemParams",
    "SolverConfig",
    "DEFAULT_SOLVER",
    "FixedPointState",
    "ThresholdState",
    "FixedPointError",
    "BracketError",
    "ObjectiveProbeError",
    "LambdaOptimum",
    "solve_mse_fixed_point",
    "solve_threshold_fixed_point",
    "find_critical_rho_x",
    "find_critical_alpha",
    "optimize_lambda",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
_SQRT_PI_2 = math.sqrt(math.pi / 2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_FLOAT_MIN = sys.float_info.min

_SWEEP_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

# Relaxation weight of the mse sweep: it moves the path of a solve, not its fixed point
_DAMPING = 0.5

# Anderson acceleration of the mse sweep: the differences kept; the largest
# ratio of an extrapolated sweep's weighted change to that of the sweep it
# extrapolates from (a strict decrease, ratio 1, keeps 1,327 sweeps at
# (0.5, 1, 0.0801, 0.1) against 133); the scale D and power p of the progress
# bound D r_1 (k + 1)^-p on the relative change of an extrapolated sweep, with
# k the extrapolated sweeps kept before it and r_1 the first sweep's change
# (after Zhang, O'Donoghue & Boyd, SIOPT 2020), which ends cycles of
# extrapolations that each pass the ratio test (D = 10 keeps 427 sweeps at
# that point); and the relative size below which a difference is rounding and
# is not extrapolated
_ANDERSON_MEMORY = 2
_ANDERSON_SLACK = 10.0
_ANDERSON_PROGRESS = 100.0
_ANDERSON_POWER = 1.1
_ANDERSON_ROUNDING = 1e-14


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Ensemble description for one reconstruction problem family.

    alpha is the measurement ratio M/N, lam the penalty weight, rho_x and
    rho_w the densities of the signal and the noise, sigma2_x and sigma2_w
    the variances of their Gaussian components.
    """

    alpha: float
    lam: float
    rho_x: float
    rho_w: float
    sigma2_x: float = 1.0
    sigma2_w: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        _check_positive("lam", self.lam)
        _check_unit_interval("rho_x", self.rho_x)
        _check_unit_interval("rho_w", self.rho_w)
        _check_positive("sigma2_x", self.sigma2_x)
        _check_positive("sigma2_w", self.sigma2_w)

    @property
    def signal_power(self) -> float:
        """Per-component second moment of the signal, rho_x * sigma2_x."""
        return self.rho_x * self.sigma2_x


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and search knobs shared by the solvers.

    rel_tol is the largest relative change of an mse sweep that counts as
    converged, and the relative tolerance on chi_hat of the threshold
    root and of the alpha boundary's root. max_iters bounds the mse sweeps,
    or the evaluations of the threshold map in one root. bisection_tol is
    the search tolerance: the rho_x boundary is pinned to within half of
    it, and the penalty search stops when its bracket on log(lam) is about
    that wide. The mse sweep's damping is the constant _DAMPING, not a
    setting.
    """

    rel_tol: float = 1e-12
    max_iters: int = 200_000
    lambda_bracket: tuple[float, float] = (1e-3, 1e3)
    bisection_tol: float = 1e-6

    def __post_init__(self) -> None:
        _check_positive("rel_tol", self.rel_tol)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")
        lo, hi = self.lambda_bracket
        if not (0.0 < lo < hi and math.isfinite(hi)):
            raise ValueError(f"lambda_bracket must satisfy 0 < lo < hi, got {self.lambda_bracket!r}")
        _check_positive("bisection_tol", self.bisection_tol)


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class FixedPointState:
    """Result of the four-variable mean square error fixed point.

    diag_m is the signal-estimate overlap and diag_q the estimate
    self-overlap, both evaluated at this state; at any fixed point they
    satisfy mse = signal_power - 2 diag_m + diag_q. residual is the largest
    relative change of the four variables in the producing sweep,
    iterations counts sweeps and rejections counts the extrapolated points
    the Anderson safeguard rejected.

    perfect marks the perfect reconstruction phase, decided by the
    threshold root (positive condition residual). The state is then the
    limit of the runaway iteration there: mse = chi = 0, m_hat = inf,
    chi_hat the threshold root's and diag_m = diag_q = signal_power, with
    residual 0, converged False, iterations the number of threshold map
    evaluations and rejections 0.
    """

    mse: float
    chi: float
    m_hat: float
    chi_hat: float
    diag_m: float
    diag_q: float
    residual: float
    converged: bool
    iterations: int
    perfect: bool = False
    rejections: int = 0


@dataclass(frozen=True)
class ThresholdState:
    """Fixed point of the two-variable system valid at perfect reconstruction.

    condition_residual is positive inside the perfect phase and crosses
    zero at the boundary. iterations counts evaluations of the scalar map
    chi_hat -> G(chi_hat) that the root search made.
    """

    A: float
    chi_hat: float
    condition_residual: float
    converged: bool
    iterations: int


class FixedPointError(RuntimeError):
    """Iteration exhausted its budget or produced a non-finite value."""

    def __init__(self, message: str, state: object = None) -> None:
        super().__init__(message)
        self.state = state


class BracketError(ValueError):
    """Boundary search endpoints do not straddle a sign change."""


class ObjectiveProbeError(RuntimeError):
    """The penalty-weight search hit an unevaluable probe point."""

    def __init__(self, message: str, lam: float = math.nan) -> None:
        super().__init__(message)
        self.lam = lam


def _interior_moment_pair(t: float) -> float:
    """s(t) + 2 Q(t), the chi_hat kernel; t = +inf is an exact zero and t = 0 an exact one."""
    if t == math.inf:
        return 0.0
    if t == 0.0:
        return 1.0
    return s_func(t) + 2.0 * q_function(t)


def _mse_terms(p: SystemParams, m_hat: float, chi_hat: float) -> tuple[float, float, float]:
    """The three nonnegative contributions to the mse update.

    The naive arrangement subtracts O(1) quantities and bottoms out near
    1e-17 from rounding; regrouping into provably nonnegative terms lets
    the perfect phase reach exact zero. Term 1 uses the identity
    erf(b/sqrt2) - 2 b phi(b) + 2 b^2 Q(b) = b^2 (s(b) + 2 Q(b)), and
    term 2 evaluates r_lambda(lam, H)/H at the widened variance
    H = chi_hat + sigma2_x m_hat^2 so that both r_lambda calls share one
    branch selection.
    """
    wide = chi_hat + p.sigma2_x * m_hat * m_hat
    b = p.lam / math.sqrt(wide)
    inv_m2 = 1.0 / (m_hat * m_hat)
    on_support = 0.0
    on_support_tail = 0.0
    if p.rho_x > 0.0:
        on_support = p.rho_x * p.sigma2_x * b * b * _interior_moment_pair(b)
        on_support_tail = -2.0 * p.rho_x * chi_hat * (r_lambda(p.lam, wide) / wide) * inv_m2
    off_support = 0.0
    if p.rho_x < 1.0:
        off_support = -2.0 * (1.0 - p.rho_x) * r_lambda(p.lam, chi_hat) * inv_m2
    return on_support, on_support_tail, off_support


def _diagnostics(p: SystemParams, m_hat: float, chi_hat: float) -> tuple[float, float]:
    """Overlap diagnostics (diag_m, diag_q) at conjugate values (m_hat, chi_hat).

    diag_m = 2 sigma2_x rho_x Q(b) with b = lam / sqrt(chi_hat + sigma2_x m_hat^2);
    diag_q = -(2/m_hat^2) [(1 - rho_x) r_lambda(chi_hat) + rho_x r_lambda(chi_hat + sigma2_x m_hat^2)].
    At a fixed point, mse = signal_power - 2 diag_m + diag_q.
    """
    wide = chi_hat + p.sigma2_x * m_hat * m_hat
    b = p.lam / math.sqrt(wide)
    diag_m = 2.0 * p.sigma2_x * p.rho_x * q_function(b)
    acc = 0.0
    if p.rho_x < 1.0:
        acc += (1.0 - p.rho_x) * r_lambda(p.lam, chi_hat)
    if p.rho_x > 0.0:
        acc += p.rho_x * r_lambda(p.lam, wide)
    diag_q = -2.0 * acc / (m_hat * m_hat)
    return diag_m, diag_q


def _mse_start(params: SystemParams) -> tuple[float, float, float, float]:
    """Standard starting iterate (mse, chi, m_hat, chi_hat): the all-zero estimate."""
    return params.signal_power, 1.0, 1.0, params.alpha


def _mse_sweep(p: SystemParams, values: tuple[float, ...], damping: float) -> tuple[float, ...]:
    """One damped sweep of the four update equations over (mse, chi, m_hat, chi_hat).

    The sweep is sequential: chi uses the incoming m_hat and chi_hat, the
    conjugate pair uses the fresh mse and chi. Each variable is blended as
    new = (1 - damping) * update + damping * old; solves sweep at _DAMPING,
    and reference iterations may vary it. Where chi has left the
    normal float range and mse > 0 (the zero estimate of a large penalty),
    the m_hat update m_acc / chi is taken at its chi -> 0 limit
    alpha sqrt(2/pi) [(1 - rho_w) / sqrt(mse) + rho_w / sqrt(mse + sigma2_w)].
    Raises the underlying ValueError or OverflowError if the incoming
    values have diverged beyond floating point range, and ValueError if the
    overlap diagnostics are undefined at the new values.
    """
    mse_old, chi_old, m_hat_old, chi_hat_old = values
    keep = damping
    mix = 1.0 - damping

    mse_raw = math.fsum(_mse_terms(p, m_hat_old, chi_hat_old))
    mse = mix * mse_raw + keep * mse_old

    wide = chi_hat_old + p.sigma2_x * m_hat_old * m_hat_old
    acc = 0.0
    if p.rho_x < 1.0:
        acc += (1.0 - p.rho_x) * q_function(p.lam / math.sqrt(chi_hat_old))
    if p.rho_x > 0.0:
        acc += p.rho_x * q_function(p.lam / math.sqrt(wide))
    chi_raw = 2.0 * acc / m_hat_old
    chi = mix * chi_raw + keep * chi_old

    t_clean = chi / math.sqrt(mse) if mse > 0.0 else math.inf
    t_noisy = chi / math.sqrt(mse + p.sigma2_w)
    m_acc = 0.0
    h_acc = 0.0
    if p.rho_w < 1.0:
        weight = p.alpha * (1.0 - p.rho_w)
        m_acc += weight * math.erf(t_clean / _SQRT2)
        h_acc += weight * _interior_moment_pair(t_clean)
    if p.rho_w > 0.0:
        weight = p.alpha * p.rho_w
        m_acc += weight * math.erf(t_noisy / _SQRT2)
        h_acc += weight * _interior_moment_pair(t_noisy)
    if chi < _FLOAT_MIN and mse > 0.0:
        # m_acc / chi would lose its digits and end in 0 / 0; each
        # erf(t / sqrt 2) / chi tends to sqrt(2 / pi) / sqrt(variance)
        m_ratio = _SQRT_2_OVER_PI * p.alpha * (
            (1.0 - p.rho_w) / math.sqrt(mse) + p.rho_w / math.sqrt(mse + p.sigma2_w)
        )
    else:
        m_ratio = m_acc / chi
    m_hat = mix * m_ratio + keep * m_hat_old
    chi_hat = mix * h_acc + keep * chi_hat_old
    wide_new = chi_hat + p.sigma2_x * m_hat * m_hat
    if not (m_hat * m_hat > 0.0 and (chi_hat if p.rho_x < 1.0 else wide_new) > 0.0):
        raise ValueError("overlap diagnostics undefined at the new iterate")
    return mse, chi, m_hat, chi_hat


def _anderson_candidate(
    w: list[float],
    f: tuple[float, ...],
    g: tuple[float, ...],
    past: list[tuple[tuple[float, ...], tuple[float, ...]]],
) -> tuple[float, ...] | None:
    """Type-II Anderson extrapolation from the sweep g = x + f and up to two earlier (f, g).

    The weights gamma minimize |f - sum_j gamma_j (f - f_j)| with each
    component i multiplied by w[i] = 1 / max(|x_i|, 1e-300), solved by the
    2 x 2 normal equations; where their determinant is not positive only the
    newest difference is kept. The candidate is g - sum_j gamma_j (g - g_j), a
    difference within rounding of g left out, so that a component that has
    settled is not moved by amplified rounding. Returns g itself where the
    differences vanish, and None for a candidate that is not finite or has
    mse < 0 or chi, m_hat or chi_hat <= 0.
    """
    r = [fi * wi for fi, wi in zip(f, w)]
    cols = [[(fi - fj) * wi for fi, fj, wi in zip(f, fp, w)] for fp, _ in reversed(past)]
    d1 = cols[0]
    a11 = d1[0] * d1[0] + d1[1] * d1[1] + d1[2] * d1[2] + d1[3] * d1[3]
    b1 = d1[0] * r[0] + d1[1] * r[1] + d1[2] * r[2] + d1[3] * r[3]
    if not a11 > 0.0:
        return g
    gammas = [b1 / a11]
    if len(cols) > 1:
        d2 = cols[1]
        a12 = d1[0] * d2[0] + d1[1] * d2[1] + d1[2] * d2[2] + d1[3] * d2[3]
        a22 = d2[0] * d2[0] + d2[1] * d2[1] + d2[2] * d2[2] + d2[3] * d2[3]
        b2 = d2[0] * r[0] + d2[1] * r[1] + d2[2] * r[2] + d2[3] * r[3]
        det = a11 * a22 - a12 * a12
        if det > 0.0:
            gammas = [(a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det]
    out = list(g)
    for gamma, (_, gp) in zip(gammas, reversed(past)):
        for i in range(4):
            d = g[i] - gp[i]
            if abs(d) > _ANDERSON_ROUNDING * abs(g[i]):
                out[i] -= gamma * d
    mse, chi, m_hat, chi_hat = out
    inside = mse >= 0.0 and chi > 0.0 and m_hat > 0.0 and chi_hat > 0.0
    return (mse, chi, m_hat, chi_hat) if inside and math.isfinite(mse + chi + m_hat + chi_hat) else None


def solve_mse_fixed_point(params: SystemParams, cfg: SolverConfig = DEFAULT_SOLVER) -> FixedPointState:
    """Solve the mse fixed point, or return the perfect state inside the phase.

    The threshold system is solved first, with the same cfg. A positive
    condition residual returns the perfect state (see FixedPointState),
    whose iterations count the threshold map evaluations. Otherwise the
    sweep damped at 0.5 is iterated from the all-zero estimate with
    safeguarded type-II Anderson acceleration (Walker & Ni, SINUM 2011) of
    memory 2: each sweep's output, with those of up to two sweeps before it,
    gives an extrapolated point to sweep next. That point is rejected, the
    history cleared and the plain step (the last sweep's output) taken
    instead when it is not finite or leaves the domain (mse < 0, or chi,
    m_hat or chi_hat <= 0), or when the sweep at it raises or goes
    non-finite, or changes the variables by more than 10 times the sweep it
    was extrapolated from, both changes divided by the magnitudes at that
    sweep's point, or when its largest relative change exceeds
    100 r_1 (k + 1)^-1.1, with k the extrapolated points kept before it and
    r_1 the first sweep's largest relative change. The solve returns the
    output of the first sweep whose largest relative change is at most
    cfg.rel_tol, with converged=True. Every sweep counts toward
    cfg.max_iters, rejected ones too. A sweep at a plain point that raises
    or produces a non-finite value, or cfg.max_iters sweeps without
    convergence, raises FixedPointError carrying the last accepted sweep's
    output. The overlap diagnostics are evaluated once, for the state
    returned or raised. A failed threshold solve raises its own
    FixedPointError, which carries a ThresholdState.
    """
    threshold = solve_threshold_fixed_point(params.alpha, params.lam, params.rho_x, params.rho_w, cfg)
    if threshold.condition_residual > 0.0:
        power = params.signal_power
        return FixedPointState(
            0.0, 0.0, math.inf, threshold.chi_hat, power, power,
            residual=0.0, converged=False, iterations=threshold.iterations, perfect=True,
        )
    point = values = _mse_start(params)  # the point to sweep; the last accepted output
    fallback = None  # at an extrapolated point, the plain step it replaced
    past: list[tuple[tuple[float, ...], tuple[float, ...]]] = []  # (f, g) of earlier sweeps
    w: list[float] = []  # 1 / |x| at the point of the sweep a candidate extrapolates
    reference = math.inf  # that sweep's largest w-weighted change
    first = residual = math.inf  # the largest relative change of the first and last accepted sweeps
    iterations = rejections = accepted = 0  # accepted counts the extrapolated points kept
    failure = None
    while True:
        if iterations == cfg.max_iters:
            failure = f"no convergence after {cfg.max_iters} sweeps (last residual {residual:.3e})"
            break
        try:
            new = _mse_sweep(params, point, _DAMPING)
        except _SWEEP_ERRORS as exc:
            new, error = None, f"failed: {exc}"
        else:
            # old is finite, so a change is NaN exactly when x is not; the sum keeps
            # the NaN. The scale max(|x|, |old|, 1e-300) is spelled out for speed.
            total = largest = 0.0
            for x, old in zip(new, point):
                a, b = abs(x), abs(old)
                change = abs(x - old) / (a if a > b and a > 1e-300 else b if b > 1e-300 else 1e-300)
                total += change
                if change > largest:
                    largest = change
            if math.isnan(total):
                new, error = None, "produced a non-finite value"
        if fallback is not None:
            # the relative change saturates near 1, so the jump test weighs the
            # change by w, which does not; the progress bound ends cycles of
            # extrapolations that each pass it
            if (
                new is None
                or largest > _ANDERSON_PROGRESS * first * (accepted + 1) ** -_ANDERSON_POWER
                or max(abs(x - old) * wi for x, old, wi in zip(new, point, w)) > _ANDERSON_SLACK * reference
            ):
                iterations += 1
                rejections += 1
                past.clear()
                point, fallback = fallback, None
                continue
            accepted += 1
        if new is None:
            failure = f"sweep {iterations + 1} {error}"
            break
        iterations += 1
        values, residual = new, largest
        if residual <= cfg.rel_tol:
            break
        if iterations == 1:
            first = residual
        f = (new[0] - point[0], new[1] - point[1], new[2] - point[2], new[3] - point[3])
        candidate = new
        if past:
            w = [1.0 / (abs(v) if abs(v) > 1e-300 else 1e-300) for v in point]
            reference = max(abs(fi) * wi for fi, wi in zip(f, w))
            candidate = _anderson_candidate(w, f, new, past)
        past.append((f, new))
        del past[:-_ANDERSON_MEMORY]
        if candidate is None:
            rejections += 1
            past.clear()
            candidate = new
        point, fallback = candidate, None if candidate is new else new
    state = FixedPointState(
        *values,
        *_diagnostics(params, *values[2:]),
        residual=residual,
        converged=failure is None,
        iterations=iterations,
        rejections=rejections,
    )
    if failure is not None:
        raise FixedPointError(failure, state)
    return state


def _mills_terms(u: float) -> tuple[float, float]:
    """(m, (u^2 + 1) m - u) at u > 0, with m = Q(u) / phi(u) the Mills ratio.

    Both come from the scaled complementary error function, as in r_lambda,
    so neither underflows: Q(u) = phi(u) m and r_lambda(lam, h) =
    -h phi(u) ((u^2 + 1) m - u) at u = lam / sqrt(h). The second term loses
    about u^4 / 2 ulp to cancellation.
    """
    m = _SQRT_PI_2 * float(special.erfcx(u * _INV_SQRT2))
    return m, (u * u + 1.0) * m - u


def _threshold_update(
    alpha: float, lam: float, rho_x: float, rho_w: float, chi_hat: float
) -> tuple[float, float]:
    """Undamped update (A, G) of the two-variable system from chi_hat > 0.

    A is the A-update at chi_hat and G = alpha [rho_w + (1 - rho_w)(s(t) +
    2 Q(t))] with t = 1 / sqrt(A) the chi_hat update it feeds, so G lies in
    [alpha rho_w, alpha]. Without signal A = -r_lambda / (2 Q^2) overflows
    once Q(lam / sqrt(chi_hat))^2 underflows, so t is formed there from the
    Mills-ratio terms; it underflows to 0, where the kernel s + 2 Q is
    exactly 1, and A is +inf wherever t^2 underflows. With a tiny rho_x the
    denominator (2 (1 - rho_x) Q + rho_x)^2 of A underflows too; t is then
    formed as its root over sqrt(numer), and A is +inf where t^2 underflows.
    Raises ZeroDivisionError or ValueError where the update is not finite.
    """
    if rho_x > 0.0:
        numer = rho_x * (lam * lam + chi_hat)
        if rho_x < 1.0:
            numer -= 2.0 * (1.0 - rho_x) * r_lambda(lam, chi_hat)
        denom = 2.0 * (1.0 - rho_x) * q_function(lam / math.sqrt(chi_hat)) + rho_x
        square = denom * denom
        if square >= _FLOAT_MIN:
            a_value = numer / square
            t = 1.0 / math.sqrt(a_value)
        else:
            t = denom / math.sqrt(numer)
            a_value = math.inf if t * t == 0.0 else 1.0 / (t * t)
    else:
        # t = m sqrt(2 phi(u) / (chi_hat bracket)), with sqrt(phi(u)) = exp(-u^2/4) / (2 pi)^(1/4)
        u = lam / math.sqrt(chi_hat)
        root_phi = math.exp(-0.25 * u * u)
        t = 0.0
        if root_phi > 0.0:
            m, bracket = _mills_terms(u)
            t = m * root_phi * math.sqrt(2.0 / (_SQRT_2PI * chi_hat * bracket))
        a_value = math.inf if t * t == 0.0 else 1.0 / (t * t)
    g = alpha * rho_w
    if rho_w < 1.0:
        g += alpha * (1.0 - rho_w) * _interior_moment_pair(t)
    return a_value, g


def _counted_map(
    alpha: float, lam: float, rho_x: float, rho_w: float, cfg: SolverConfig
) -> tuple[Callable[[float], tuple[float, float]], dict[float, float]]:
    """_threshold_update at fixed (alpha, lam, rho_x, rho_w), counted against cfg.max_iters.

    Returns the map chi_hat -> (A, G) and the dict of A at each evaluated
    chi_hat, in order. An evaluation past the budget, or a map value that is
    not finite, raises FixedPointError carrying the last evaluated point
    (NaN before the first) with a NaN condition_residual.
    """
    a_of: dict[float, float] = {}

    def update(chi_hat: float) -> tuple[float, float]:
        if len(a_of) == cfg.max_iters:
            message = f"threshold fixed point not converged after {cfg.max_iters} map evaluations"
        else:
            try:
                a_value, g = _threshold_update(alpha, lam, rho_x, rho_w, chi_hat)
            except _SWEEP_ERRORS:
                g = math.nan
            if math.isnan(g):
                message = f"threshold map is non-finite at chi_hat={chi_hat:.6g}"
            else:
                a_of[chi_hat] = a_value
                return a_value, g
        last_chi_hat, last_a = next(reversed(a_of.items()), (math.nan, math.nan))
        raise FixedPointError(message, ThresholdState(last_a, last_chi_hat, math.nan, False, len(a_of)))

    return update, a_of


def _condition_residual(
    alpha: float, lam: float, rho_x: float, rho_w: float, a_value: float, chi_hat: float
) -> float:
    """The boundary condition at a threshold fixed point (A, chi_hat) of alpha.

    alpha (1 - rho_w) erf(1 / sqrt(2 A)) - (2 (1 - rho_x) Q(lam / sqrt(chi_hat))
    + rho_x), positive inside the perfect phase. Without signal both terms
    can underflow; the residual is then the smallest subnormal, with the
    sign of their log ratio.
    """
    # erf form of 1 - 2 Q avoids cancellation for small arguments
    clean = alpha * (1.0 - rho_w) * math.erf(1.0 / math.sqrt(2.0 * a_value))
    u = lam / math.sqrt(chi_hat)
    residual = clean - (2.0 * (1.0 - rho_x) * q_function(u) + rho_x)
    if clean == 0.0 and rho_x == 0.0 and rho_w < 1.0:
        # the clean term underflows, or t^2 did, and the support term 2 Q(u)
        # is zero or subnormal: decide the sign in log form. With erf(t /
        # sqrt 2) ~ t sqrt(2 / pi) the ratio of the two terms is
        # alpha (1 - rho_w) / sqrt(pi chi_hat bracket phi(u)); the bracket is
        # floored at its rounding noise, reached only far past any sign change
        bracket = max(_mills_terms(u)[1], math.ulp(u))
        log_ratio = (math.log(alpha * (1.0 - rho_w)) + 0.25 * u * u + 0.5 * math.log(_SQRT_2PI)
                     - 0.5 * math.log(math.pi * chi_hat * bracket))
        residual = math.copysign(math.ulp(0.0), log_ratio)
    return residual


def solve_threshold_fixed_point(
    alpha: float,
    lam: float,
    rho_x: float,
    rho_w: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> ThresholdState:
    """Solve the two-variable fixed point and evaluate the boundary condition.

    The A-update depends on chi_hat alone, so the system is the scalar
    equation G(chi_hat) = chi_hat, solved by Brent's method on the bracket
    [alpha rho_w, alpha] that G maps into, to relative tolerance
    cfg.rel_tol. At rho_w = 0 the lower end takes the chi_hat -> 0+ limit,
    where r_lambda and Q vanish: A -> lam^2 / rho_x, or +inf (s + 2 Q -> 1)
    when rho_x = 0. cfg.max_iters bounds the evaluations of the map.

    The system involves no variance parameters, so the returned state (and
    hence every phase boundary) is independent of sigma2_x and sigma2_w.
    condition_residual > 0 means (alpha, lam, rho_x, rho_w) sits inside the
    perfect reconstruction phase. Without signal both of its terms can
    underflow; the residual is then the smallest subnormal, with the sign
    of their log ratio. A non-finite map value or an exhausted
    budget raises FixedPointError carrying the last evaluated point (NaN
    before the first) with a NaN condition_residual.
    """
    _check_positive("alpha", alpha)
    _check_positive("lam", lam)
    _check_unit_interval("rho_x", rho_x)
    _check_unit_interval("rho_w", rho_w)

    update, a_of = _counted_map(alpha, lam, rho_x, rho_w, cfg)

    def gap(chi_hat: float) -> float:
        return update(chi_hat)[1] - chi_hat

    # G(alpha) <= alpha, so a gap of zero or more at the top is rounding:
    # the root is alpha itself
    f_hi = gap(alpha)
    if f_hi >= 0.0:
        chi_hat = alpha
    else:
        lo = alpha * rho_w
        if lo > 0.0:
            f_lo = gap(lo)
        else:
            f_lo = alpha * _interior_moment_pair(math.sqrt(rho_x) / lam) if rho_x > 0.0 else alpha
        # the root is positive, so the relative tolerance governs; the
        # evaluation budget stops the search before brentq's own cap does
        chi_hat = _brent(gap, lo, alpha, f_lo, f_hi,
                         xtol=1e-300, rtol=cfg.rel_tol, maxiter=cfg.max_iters)
    a_value = a_of[chi_hat]  # brentq returns a point it evaluated
    residual = _condition_residual(alpha, lam, rho_x, rho_w, a_value, chi_hat)
    return ThresholdState(a_value, chi_hat, residual, True, len(a_of))


def _brent(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float, **tols: float
) -> float:
    """brentq's root of f on (lo, hi) with brentq's tols, given f_lo = f(lo)
    and f_hi = f(hi): the ends are not evaluated again."""
    ends = {lo: f_lo, hi: f_hi}
    return brentq(lambda v: ends[v] if v in ends else f(v), lo, hi, **tols)


def _check_bracket(name: str, lo: float, hi: float, f_lo: float, f_hi: float, rising: bool) -> None:
    """Raise BracketError unless the residual changes sign on (lo, hi) as rising says.

    rising says the residual must be negative at lo and positive at hi;
    otherwise the reverse.
    """
    if not (f_lo < 0.0 < f_hi if rising else f_lo > 0.0 > f_hi):
        raise BracketError(
            "no phase boundary in range: condition residual is "
            f"{f_lo:.6e} at {name}={lo:g} and {f_hi:.6e} at {name}={hi:g}"
        )


def _boundary_root(
    residual_at: Callable[[float], float],
    name: str,
    lo: float,
    hi: float,
    rising: bool,
    cfg: SolverConfig,
) -> float:
    """Root of the condition residual on (lo, hi) by Brent's method.

    The ends are checked by _check_bracket with rising. The root is pinned
    to within cfg.bisection_tol / 2. Each end is solved once.
    """
    f_lo = residual_at(lo)
    f_hi = residual_at(hi)
    _check_bracket(name, lo, hi, f_lo, f_hi, rising)
    return _brent(residual_at, lo, hi, f_lo, f_hi, xtol=cfg.bisection_tol / 2)


def find_critical_rho_x(
    alpha: float,
    lam: float,
    rho_w: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> float:
    """Largest signal density with perfect reconstruction.

    The boundary condition residual is positive on the sparse side and
    negative on the dense side; the root is bracketed on (1e-6, 1 - 1e-6)
    and pinned by Brent's method to within cfg.bisection_tol / 2, each
    probe a threshold solve.
    """

    def residual_at(rho_x: float) -> float:
        return solve_threshold_fixed_point(alpha, lam, rho_x, rho_w, cfg).condition_residual

    return _boundary_root(residual_at, "rho_x", 1e-6, 1.0 - 1e-6, rising=False, cfg=cfg)


def find_critical_alpha(
    lam: float,
    rho_x: float,
    rho_w: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> float:
    """Measurement ratio where the condition residual turns positive.

    The condition residual is negative at alpha = 1e-4 and must be positive
    at alpha = 1 for a boundary to exist in the physical range; both ends
    are threshold solves. Where the residual crosses zero once on that
    range, the root is the smallest measurement ratio with perfect
    reconstruction. It can cross more than once, at small rho_x and lam
    of about 0.1 to 0.5: a residual negative at both ends but positive
    between them raises BracketError, and with three crossings the root
    returned is one of them, not necessarily the smallest.

    alpha enters the threshold map only as the factor of
    G = alpha g(chi_hat), so a fixed point chi_hat belongs to
    alpha(chi_hat) = chi_hat / g(chi_hat), and the boundary is one Brent
    root in chi_hat of the condition residual at (alpha(chi_hat), chi_hat),
    between the two ends' roots, to relative tolerance cfg.rel_tol. It
    returns alpha at that root. The root's map evaluations count against
    cfg.max_iters, and an exhausted budget or a non-finite map raises
    FixedPointError as the threshold solve does.
    """
    bottom = solve_threshold_fixed_point(1e-4, lam, rho_x, rho_w, cfg)
    top = solve_threshold_fixed_point(1.0, lam, rho_x, rho_w, cfg)
    f_lo, f_hi = bottom.condition_residual, top.condition_residual
    _check_bracket("alpha", 1e-4, 1.0, f_lo, f_hi, rising=True)
    update, _ = _counted_map(1.0, lam, rho_x, rho_w, cfg)  # G at alpha = 1 is g
    alpha_of = {bottom.chi_hat: 1e-4, top.chi_hat: 1.0}

    def residual_at(chi_hat: float) -> float:
        a_value, g = update(chi_hat)
        alpha = alpha_of[chi_hat] = chi_hat / g
        return _condition_residual(alpha, lam, rho_x, rho_w, a_value, chi_hat)

    # the ends are not evaluated again, so brentq's cap sits one past the budget
    chi_hat = _brent(residual_at, bottom.chi_hat, top.chi_hat, f_lo, f_hi,
                     xtol=1e-300, rtol=cfg.rel_tol, maxiter=cfg.max_iters + 1)
    return alpha_of[chi_hat]


@dataclass(frozen=True)
class LambdaOptimum:
    """Best probe of the penalty-weight search: a weight and its objective."""

    lambda_star: float
    objective_value: float


Objective = Literal["critical-rho-x", "critical-alpha", "mse"]


def optimize_lambda(
    objective: Objective,
    *,
    alpha: float | None = None,
    rho_x: float | None = None,
    rho_w: float,
    sigma2_x: float = SystemParams.sigma2_x,
    sigma2_w: float = SystemParams.sigma2_w,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> LambdaOptimum:
    """Bounded Brent search for the best penalty weight.

    Three objectives are supported: "critical-rho-x" maximizes the
    boundary density at fixed alpha, "critical-alpha" minimizes the
    boundary measurement ratio at fixed rho_x, and "mse" minimizes the
    reconstruction error at fixed (alpha, rho_x). The search runs on
    log(lam) over cfg.lambda_bracket with absolute tolerance
    cfg.bisection_tol, and returns the best weight it probed together
    with that weight's objective value.

    Probe weights whose perfect phase is empty (no boundary in range)
    score as the worst possible objective rather than failing: an empty
    phase is a legitimate, maximally bad outcome for a weight. Probes
    where the underlying solver itself fails raise ObjectiveProbeError
    tagged with the offending weight.
    """
    if objective == "critical-rho-x":
        if alpha is None:
            raise ValueError("objective 'critical-rho-x' requires alpha")

        def score(lam: float) -> tuple[float, float]:
            try:
                value = find_critical_rho_x(alpha, lam, rho_w, cfg)
            except BracketError:
                return 0.0, 0.0
            return value, value

    elif objective == "critical-alpha":
        if rho_x is None:
            raise ValueError("objective 'critical-alpha' requires rho_x")

        def score(lam: float) -> tuple[float, float]:
            try:
                value = find_critical_alpha(lam, rho_x, rho_w, cfg)
            except BracketError:
                # empty perfect phase: worse than any attainable ratio
                return -2.0, math.nan
            return -value, value

    elif objective == "mse":
        if alpha is None or rho_x is None:
            raise ValueError("objective 'mse' requires alpha and rho_x")

        def score(lam: float) -> tuple[float, float]:
            params = SystemParams(alpha, lam, rho_x, rho_w, sigma2_x, sigma2_w)
            mse = solve_mse_fixed_point(params, cfg).mse
            return -mse, mse

    else:
        raise ValueError(f"unknown objective {objective!r}")

    lo = math.log(cfg.lambda_bracket[0])
    hi = math.log(cfg.lambda_bracket[1])
    best_score = -math.inf
    best = LambdaOptimum(lambda_star=math.nan, objective_value=math.nan)
    solver = "mse" if objective == "mse" else "threshold"

    def probe(u: float) -> float:
        nonlocal best_score, best
        lam = math.exp(u)
        try:
            s, value = score(lam)
        except FixedPointError as exc:
            raise ObjectiveProbeError(f"{solver} solve failed at probe lam={lam:.6g}: {exc}", lam) from exc
        if s > best_score:
            best_score = s
            best = LambdaOptimum(lambda_star=lam, objective_value=value)
        return s

    # the best probe is kept, not the minimizer's own answer: it is a pair
    # that was actually evaluated, with empty-phase plateaus scored worst
    minimize_scalar(
        lambda u: -probe(u),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": cfg.bisection_tol},
    )

    if not math.isfinite(best.lambda_star) or math.isnan(best.objective_value):
        raise ObjectiveProbeError(
            "no probe weight produced a finite objective", math.exp(0.5 * (lo + hi))
        )
    return best
