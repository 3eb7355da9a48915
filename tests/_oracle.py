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
trial with it.

chambolle_pock is the textbook primal-dual loop the decoder's sweep
implements, written the plain way, for bitwise comparison.
"""

import numpy as np
from scipy.optimize import linprog

from sparse_lab.decoder import DEFAULT_DECODER, estimate_operator_norm
from sparse_lab.experiments import EnsembleSpec, sample_instance

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


def chambolle_pock(a: np.ndarray, y: np.ndarray, lam: float, sweeps: int) -> np.ndarray:
    """Primal iterate after `sweeps` Chambolle-Pock sweeps from zero.

    Steps tau = sigma = step_scale / ||A||_2 with the decoder's default
    step_scale and operator-norm budget; extrapolation weight 1.
    """
    cfg = DEFAULT_DECODER
    tau = sigma = cfg.step_scale / estimate_operator_norm(a, cfg.power_iters, cfg.power_tol)
    x = np.zeros(a.shape[1])
    xi = np.zeros(a.shape[0])
    for _ in range(sweeps):
        v = x - tau * (a.T @ xi)
        x_new = np.sign(v) * np.maximum(np.abs(v) - tau * lam, 0.0)
        xi = np.clip(xi + sigma * (a @ (2.0 * x_new - x) - y), -1.0, 1.0)
        x = x_new
    return x
