"""Reference solvers for the decoding problem.

grid_objective is a brute-force objective oracle for tiny problems. It
minimizes ||y - A x||_1 + lam ||x||_1 by exhaustive evaluation on a
sequence of grids. The zero vector is feasible, so ||x*||_1 <= ||y||_1
/ lam and a box of that half-width contains the minimizer. A coarse
pass scans the full box; each refinement then re-evaluates a window of
one previous cell around every surviving candidate at a tenfold finer
step. A beam of distinct candidate cells (not just the single best
point) survives each stage, because the objective can have shallow
valleys in which the best coarse cell is far from the true minimizer.
Intended for n <= 3 only.

lp_decode solves problems of any size exactly as a linear program, with
HiGHS through scipy, and reference_squared_error scores one sampled
trial with it. evaluate_objective is the objective at a given point.

chambolle_pock is the textbook primal-dual loop the decoder's sweep
implements, written the plain way, for bitwise comparison.

damped_threshold_fixed_point solves the two-variable threshold system by
damped forward iteration over (A, chi_hat), a reference for the scalar
root that solve_threshold_fixed_point finds. nested_critical_alpha pins the
boundary in alpha by a Brent root in alpha with a full threshold solve at
every probe, a reference for the single root in chi_hat that
find_critical_alpha takes. runaway_mse_verdict iterates
the four-variable mse fixed point until it converges or m_hat runs away
while mse collapses, a phase verdict that never consults the threshold
system.
"""

import math

import numpy as np
from scipy.optimize import brentq, linprog

from sparse_lab.decoder import (
    _PRIMAL_WEIGHT,
    _STEP_SCALE,
    ProblemInstance,
    estimate_operator_norm,
)
from sparse_lab.experiments import EnsembleSpec, sample_instance
from sparse_lab.replica import (
    DEFAULT_SOLVER,
    BracketError,
    _interior_moment_pair,
    _mse_start,
    _mse_sweep,
    solve_threshold_fixed_point,
)
from sparse_lab.special import q_function, r_lambda

REFINEMENTS = 7
BEAM_WIDTH = 64
# windows of neighboring beam members overlap, so a cell can be evaluated
# up to 3^n = 27 times; a pool this deep still holds 64 distinct cells
POOL = 2048


def _evaluate(points: np.ndarray, a: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    residual = y[None, :] - points @ a.T
    return np.sum(np.abs(residual), axis=1) + lam * np.sum(np.abs(points), axis=1)


def _best_distinct(points: np.ndarray, values: np.ndarray, cell: float) -> np.ndarray:
    """Rows of the lowest-value points, at most one per grid cell."""
    if len(values) > POOL:
        pool = np.argpartition(values, POOL - 1)[:POOL]
    else:
        pool = np.arange(len(values))
    pool = pool[np.argsort(values[pool], kind="stable")]
    cells = np.round(points[pool] / cell).astype(np.int64)
    _, first = np.unique(cells, axis=0, return_index=True)
    return pool[np.sort(first)[:BEAM_WIDTH]]


def grid_objective(a: np.ndarray, y: np.ndarray, lam: float) -> float:
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    n = a.shape[1]
    if n > 3:
        raise ValueError("grid oracle is exponential in n; use n <= 3")

    half = float(np.sum(np.abs(y))) / lam + 1e-9
    step = half / 50.0
    offsets = np.arange(-50, 51) * step
    mesh = np.meshgrid(*[offsets] * n, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    values = _evaluate(points, a, y, lam)
    chosen = _best_distinct(points, values, step)
    best_value = float(values[chosen[0]])
    centers = points[chosen]

    for _ in range(REFINEMENTS):
        fine = step / 10.0
        window = np.arange(-10, 11) * fine
        mesh = np.meshgrid(*[window] * n, indexing="ij")
        shifts = np.stack([m.ravel() for m in mesh], axis=1)
        points = (centers[:, None, :] + shifts[None, :, :]).reshape(-1, n)
        values = _evaluate(points, a, y, lam)
        chosen = _best_distinct(points, values, fine)
        best_value = min(best_value, float(values[chosen[0]]))
        centers = points[chosen]
        step = fine
    return best_value


def evaluate_objective(instance: ProblemInstance, x: np.ndarray, lam: float) -> float:
    """Objective ||y - A x||_1 + lam ||x||_1 at the point x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.n,):
        raise ValueError(f"x must have shape ({instance.n},), got {x.shape}")
    residual = instance.y - instance.A @ x
    return float(np.sum(np.abs(residual)) + lam * np.sum(np.abs(x)))


def lp_decode(a: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Exact minimizer of ||y - A x||_1 + lam ||x||_1 at an LP vertex.

    Splits x = x+ - x- and the residual y - A x = r+ - r- into nonnegative
    parts, so the problem reads min lam 1'(x+ + x-) + 1'(r+ + r-) subject
    to [A, -A, I, -I] (x+, x-, r+, r-) = y. Raises RuntimeError unless
    HiGHS reports an optimal solution.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = a.shape
    eye = np.eye(m)
    cost = np.concatenate([np.full(2 * n, lam), np.ones(2 * m)])
    # presolve removes nothing from these dense programs and costs about a
    # third of the solve time
    res = linprog(
        cost,
        A_eq=np.hstack([a, -a, eye, -eye]),
        b_eq=y,
        bounds=(0.0, None),
        method="highs",
        options={"presolve": False},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the L1-L1 program: {res.message}")
    return res.x[:n] - res.x[n : 2 * n]


def reference_squared_error(spec: EnsembleSpec, trial_index: int) -> float:
    """Per-component squared error of the exact LP estimate on one trial.

    The instance is drawn by sample_instance, so it is the one that
    run_trial decodes for the same (spec, trial_index).
    """
    instance = sample_instance(spec, trial_index)
    diff = lp_decode(instance.A, instance.y, spec.params.lam) - instance.x0
    return float(diff @ diff) / spec.n


def random_tiny_instance(rng: np.random.Generator):
    """One random problem with n <= 3, m <= 4 and a log-uniform penalty."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    a = rng.normal(size=(m, n))
    y = rng.normal(scale=1.5, size=m)
    lam = float(10.0 ** rng.uniform(-0.5, 0.5))
    return a, y, lam


def chambolle_pock(
    a: np.ndarray, y: np.ndarray, lam: float, sweeps: int, x=None, xi=None
) -> np.ndarray:
    """Primal iterate after `sweeps` Chambolle-Pock sweeps from (x, xi), zero by default.

    The decoder's steps, tau = _STEP_SCALE / (w ||A||_2) and sigma =
    _STEP_SCALE w / ||A||_2 at the primal weight w = _PRIMAL_WEIGHT, with
    its default operator-norm budget; extrapolation weight 1.
    """
    norm = estimate_operator_norm(a)
    tau = _STEP_SCALE / (_PRIMAL_WEIGHT * norm)
    sigma = _STEP_SCALE * _PRIMAL_WEIGHT / norm
    x = np.zeros(a.shape[1]) if x is None else x
    xi = np.zeros(a.shape[0]) if xi is None else xi
    for _ in range(sweeps):
        v = x - tau * (a.T @ xi)
        x_new = np.sign(v) * np.maximum(np.abs(v) - tau * lam, 0.0)
        xi = np.clip(xi + sigma * (a @ (2.0 * x_new - x) - y), -1.0, 1.0)
        x = x_new
    return x


def _threshold_sweep(alpha, lam, rho_x, rho_w, values, damping):
    """One damped sweep of the two-variable system over (A, chi_hat)."""
    a_value, chi_hat = values
    mix = 1.0 - damping
    numer = 0.0
    if rho_x > 0.0:
        numer += rho_x * (lam * lam + chi_hat)
    if rho_x < 1.0:
        numer -= 2.0 * (1.0 - rho_x) * r_lambda(lam, chi_hat)
    denom = 2.0 * (1.0 - rho_x) * q_function(lam / math.sqrt(chi_hat)) + rho_x
    a_new = mix * (numer / (denom * denom)) + damping * a_value
    h_acc = alpha * rho_w
    if rho_w < 1.0:
        h_acc += alpha * (1.0 - rho_w) * _interior_moment_pair(1.0 / math.sqrt(a_new))
    return a_new, mix * h_acc + damping * chi_hat


def damped_threshold_fixed_point(alpha, lam, rho_x, rho_w, cfg=DEFAULT_SOLVER, damping=0.5):
    """(A, chi_hat, sweeps) of the iteration damped at damping from (1, alpha).

    Tolerance and budget are cfg's. Raises RuntimeError unless the largest
    relative change of a sweep falls to cfg.rel_tol.
    """
    values = (1.0, alpha)
    for sweeps in range(1, cfg.max_iters + 1):
        new = _threshold_sweep(alpha, lam, rho_x, rho_w, values, damping)
        if not all(map(math.isfinite, new)):
            raise RuntimeError(f"damped threshold iteration went non-finite at sweep {sweeps}")
        change = max(abs(x - old) / max(abs(x), abs(old), 1e-300) for x, old in zip(new, values))
        values = new
        if change <= cfg.rel_tol:
            return (*values, sweeps)
    raise RuntimeError(f"damped threshold iteration not converged after {cfg.max_iters} sweeps")



def nested_critical_alpha(lam, rho_x, rho_w, cfg=DEFAULT_SOLVER):
    """The boundary in alpha on (1e-4, 1) by Brent's method in alpha.

    Every probe is a threshold solve at that alpha, the ends included, and
    the root is pinned to within cfg.bisection_tol / 2. Raises BracketError
    as find_critical_alpha does when the residual does not rise through zero.
    """

    def residual_at(alpha):
        return solve_threshold_fixed_point(alpha, lam, rho_x, rho_w, cfg).condition_residual

    f_lo, f_hi = residual_at(1e-4), residual_at(1.0)
    if not f_lo < 0.0 < f_hi:
        raise BracketError(f"no phase boundary in range: residual {f_lo:.6e} to {f_hi:.6e}")
    return brentq(residual_at, 1e-4, 1.0, xtol=cfg.bisection_tol / 2)

# Divergence verdict on (mse, chi, m_hat, chi_hat): m_hat grows without
# bound and the error collapses.
_RUNAWAY_M_HAT = 1e12
_RUNAWAY_MSE = 1e-24


def runaway_mse_verdict(params, cfg=DEFAULT_SOLVER, damping=0.5):
    """(outcome, values, sweeps) of the damped mse iteration with a divergence stop.

    The iteration starts from the all-zero estimate at damping, with cfg's
    tolerance and budget. outcome is "perfect" when m_hat > 1e12 while
    mse < 1e-24 before a sweep, "converged" once the largest relative
    change of a sweep falls to cfg.rel_tol, "non-finite" after a fifth
    sweep that raises or yields a non-finite value (each halves the step
    and is not counted), and "budget" after cfg.max_iters sweeps.
    """
    retries = sweeps = 0
    values = _mse_start(params)
    while sweeps < cfg.max_iters:
        if values[2] > _RUNAWAY_M_HAT and values[0] < _RUNAWAY_MSE:
            return "perfect", values, sweeps
        try:
            new = _mse_sweep(params, values, damping)
        except (ValueError, OverflowError, ZeroDivisionError):
            new = None
        if new is None or not all(map(math.isfinite, new)):
            if retries == 4:
                return "non-finite", values, sweeps
            retries += 1
            damping = 1.0 - 0.5 * (1.0 - damping)
            continue
        change = max(abs(x - old) / max(abs(x), abs(old), 1e-300) for x, old in zip(new, values))
        values = new
        sweeps += 1
        if change <= cfg.rel_tol:
            return "converged", values, sweeps
    return "budget", values, sweeps
