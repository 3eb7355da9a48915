"""Primal-dual decoder for the L1-L1 reconstruction problem.

Solves

    min_x  ||y - A x||_1 + lam ||x||_1

with the Chambolle-Pock first-order scheme, finished by an exact HiGHS
vertex after _LP_HANDOFF uncertified sweeps: first on the columns the
iterate screens as possibly active (as Gap Safe screening and working-set
solvers do), then once on the full program if that vertex fails. Both
objective terms are polyhedral, so exact optimality can be certified: a
subgradient vector is assembled from a dual vector and its stationarity
violation, always on the full problem, is measured in the max norm. The
decoder only reports success when that certificate passes together with
small primal-dual residuals, whichever of the iteration or a linear
program produced the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import linprog

__all__ = [
    "ProblemInstance",
    "DecoderConfig",
    "DEFAULT_DECODER",
    "DecodeResult",
    "estimate_operator_norm",
    "evaluate_objective",
    "decode",
]

# Residuals above this multiple of the measurement scale force the
# stationarity certificate to take the subgradient sign of the row.
_ACTIVE_RESIDUAL_SCALE = 1e-8

# Estimates below this magnitude count as zero in the certificate.
_SUPPORT_EPS_SCALE = 1e-12

# A run still uncertified after this many sweeps is finished by one exact
# linear-programming solve. Inside the perfect-recovery phase the iteration
# certifies in a few hundred sweeps, cheaper than the LP; outside it the
# iteration crawls for tens of thousands.
_LP_HANDOFF = 500

# The screened finish keeps the columns with |A^T xi|_j >= (1 - _SCREEN_MARGIN)
# lam or x_j != 0 at the handoff iterate.
_SCREEN_MARGIN = 0.2

# The screened finish is tried only when the handoff iterate has at most this
# many unsaturated dual rows per nonzero. A nondegenerate vertex has as many
# zero-residual rows as nonzeros; inside the perfect-recovery phase far more
# rows are free, and the restricted duals rarely certify the full problem.
_DEGENERACY_RATIO = 1.6

# Sweeps between certificate checks.
_CHECK_EVERY = 50

_POWER_SEED = 0x5EED


@dataclass(frozen=True)
class ProblemInstance:
    """One realized reconstruction problem.

    y is stored exactly as constructed; when the ground truth x0 and the
    noise w are carried along, y = A @ x0 + w holds bitwise for instances
    produced by the sampling helpers.
    """

    A: np.ndarray
    y: np.ndarray
    x0: np.ndarray | None = None
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"A must be a 2-d array, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"A must be nonempty, got shape {a.shape}")
        if y.shape != (a.shape[0],):
            raise ValueError(f"y must have shape ({a.shape[0]},), got {y.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "y", y)
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (a.shape[1],):
                raise ValueError(f"x0 must have shape ({a.shape[1]},), got {x0.shape}")
            object.__setattr__(self, "x0", x0)
        if self.w is not None:
            w = np.asarray(self.w, dtype=float)
            if w.shape != (a.shape[0],):
                raise ValueError(f"w must have shape ({a.shape[0]},), got {w.shape}")
            object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class DecoderConfig:
    """Step sizing, stopping tolerances and iteration budgets."""

    step_scale: float = 0.99
    primal_tol: float = 1e-9
    dual_tol: float = 1e-9
    max_iters: int = 100_000
    power_iters: int = 200
    power_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.step_scale < 1.0:
            raise ValueError(f"step_scale must lie in (0, 1), got {self.step_scale!r}")
        if not self.primal_tol > 0.0:
            raise ValueError(f"primal_tol must be positive, got {self.primal_tol!r}")
        if not self.dual_tol > 0.0:
            raise ValueError(f"dual_tol must be positive, got {self.dual_tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")
        if self.power_iters < 1:
            raise ValueError(f"power_iters must be at least 1, got {self.power_iters!r}")
        if not self.power_tol > 0.0:
            raise ValueError(f"power_tol must be positive, got {self.power_tol!r}")


DEFAULT_DECODER = DecoderConfig()


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output.

    x_hat is the certified point when converged is True, either an iterate
    or an LP vertex, otherwise the best-objective iterate encountered.
    finish names what produced x_hat: "iteration", "screened-lp" (the LP
    restricted to the screened columns) or "lp" (the full LP).
    """

    x_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    finish: str


def estimate_operator_norm(A: np.ndarray, iters: int = 200, tol: float = 1e-12) -> float:
    """Largest singular value of A by Krylov iteration on A^T A.

    Lanczos with full reorthogonalization, at most iters applications of
    A^T A, stopping once the top Ritz value has stabilized to tol. Plain
    power iteration cannot reach the accuracy this routine is relied on
    for within that budget when the top of the spectrum is crowded; the
    orthogonalized Krylov basis does. Deterministic: the starting vector
    comes from a fixed-seed generator. Returns 0.0 for an all-zero matrix.
    """
    a = np.asarray(A, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if not np.any(a):
        return 0.0
    n = a.shape[1]
    rng = np.random.default_rng(_POWER_SEED)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = [q]
    diag: list[float] = []
    offdiag: list[float] = []
    top = 0.0
    for step in range(min(iters, n)):
        w = a.T @ (a @ basis[-1])
        alpha = float(basis[-1] @ w)
        diag.append(alpha)
        w -= alpha * basis[-1]
        if offdiag:
            w -= offdiag[-1] * basis[-2]
        for q_prev in basis:  # full reorthogonalization
            w -= (q_prev @ w) * q_prev
        previous = top
        top = float(
            eigvalsh_tridiagonal(diag, offdiag)[-1] if offdiag else diag[0]
        )
        beta = float(np.linalg.norm(w))
        if step >= 1 and abs(top - previous) <= tol * max(top, 1e-300):
            break
        if beta <= 1e-14 * max(top, 1.0):
            break  # Krylov space is exhausted; the Ritz value is exact
        offdiag.append(beta)
        basis.append(w / beta)
    return math.sqrt(max(top, 0.0))


def evaluate_objective(instance: ProblemInstance, x: np.ndarray, lam: float) -> float:
    """Objective ||y - A x||_1 + lam ||x||_1 at the point x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.n,):
        raise ValueError(f"x must have shape ({instance.n},), got {x.shape}")
    residual = instance.y - instance.A @ x
    return float(np.sum(np.abs(residual)) + lam * np.sum(np.abs(x)))


def _soft_threshold(v: np.ndarray, cut: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - cut, 0.0)


def _certificate_norm(
    a: np.ndarray,
    x: np.ndarray,
    xi: np.ndarray,
    residual: np.ndarray,
    lam: float,
    active_eps: float,
    support_eps: float,
) -> float:
    """Max-norm violation of the subgradient stationarity condition.

    A vector u in the subdifferential of ||r||_1 is chosen as sign(r) on
    clearly active residuals and as the (clipped) dual iterate elsewhere;
    the free subgradient entries at zero components of x are picked to
    minimize the violation. Optimality requires A^T u to match
    lam * sign(x) on the support of x and to lie within [-lam, lam] off it.
    """
    u = np.where(np.abs(residual) > active_eps, np.sign(residual), np.clip(-xi, -1.0, 1.0))
    t = a.T @ u
    on_support = np.abs(x) > support_eps
    worst = 0.0
    if np.any(on_support):
        worst = float(np.max(np.abs(lam * np.sign(x[on_support]) - t[on_support])))
    if not np.all(on_support):
        slack = np.abs(t[~on_support]) - lam
        worst = max(worst, float(np.max(slack)), 0.0)
    return worst


def _complementarity_gap(residual: np.ndarray, xi: np.ndarray) -> float:
    """Worst complementary-slackness violation of the dual iterate.

    The dual variable u = -xi must select the subgradient sign(r_i) on
    every row with a nonzero residual; the violation |r_i| (1 - u_i
    sign(r_i)) vanishes exactly when r_i = 0 or u_i has saturated at the
    correct sign.
    """
    return float(np.max(np.abs(residual) + residual * xi, initial=0.0))


def _lp_vertex(
    a: np.ndarray, y: np.ndarray, lam: float, columns: np.ndarray | slice = slice(None)
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact minimizer and dual iterate from one HiGHS solve, or None.

    Splits x = x+ - x- and the residual y - A x = r+ - r- into nonnegative
    parts, so the problem reads min lam 1'(x+ + x-) + 1'(r+ + r-) subject
    to [A, -A, I, -I] (x+, x-, r+, r-) = y. The equality duals u are the
    subgradient of ||y - A x||_1, so the decoder's dual iterate is -u.
    Only the given columns of A enter the program; the others stay zero in
    the returned point, which is embedded back into R^n. Returns None
    unless HiGHS reports an optimal solution.
    """
    sub = a[:, columns]
    m, k = sub.shape
    eye = np.eye(m)
    # presolve removes nothing from these dense programs and costs about a
    # third of the solve time
    res = linprog(
        np.concatenate([np.full(2 * k, lam), np.ones(2 * m)]),
        A_eq=np.hstack([sub, -sub, eye, -eye]),
        b_eq=y,
        bounds=(0.0, None),
        method="highs",
        options={"presolve": False},
    )
    if res.status != 0:
        return None
    x = np.zeros(a.shape[1])
    x[columns] = res.x[:k] - res.x[k : 2 * k]
    return x, -res.eqlin.marginals


def decode(
    instance: ProblemInstance,
    lam: float,
    cfg: DecoderConfig = DEFAULT_DECODER,
) -> DecodeResult:
    """Minimize ||y - A x||_1 + lam ||x||_1 from a zero start.

    Runs the primal-dual iteration with steps tau = sigma =
    step_scale / ||A||_2 and extrapolation weight 1, starting from x = 0
    and a zero dual vector, with optimality checks every
    _CHECK_EVERY sweeps. The primal residual is the subgradient
    certificate scaled by 1 + ||A^T sign(y)||_inf and the dual residual
    is the worst complementary-slackness violation scaled by
    1 + ||y||_inf; the run counts as converged only when both fall below
    their tolerances. A run still uncertified after _LP_HANDOFF sweeps is
    finished by an exact HiGHS vertex with its equality duals. If the
    iterate looks nondegenerate (at most _DEGENERACY_RATIO unsaturated
    dual rows per nonzero of x) and screening drops a column, the first
    solve keeps only the columns with |A^T xi|_j >= (1 - _SCREEN_MARGIN)
    lam or x_j != 0, and its vertex is scored against the full problem:
    a restricted primal with a dual that certifies the full problem is
    optimal by LP duality. If that vertex is not adopted, or was not
    tried, the full program is solved once, with no further retry. A
    vertex is adopted, with iterations = _LP_HANDOFF, only if it does not
    worsen the best objective seen and passes both tests itself.
    Otherwise the iteration goes on. Exhausting max_iters returns a
    result with converged=False rather than raising. Zero data takes the
    same path: x = 0 is certified exactly at the first check, so
    iterations reads min(_CHECK_EVERY, max_iters). A zero measurement
    matrix is rejected.
    """
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    a = instance.A
    y = instance.y
    norm_a = estimate_operator_norm(a, cfg.power_iters, cfg.power_tol)
    if norm_a == 0.0:
        raise ValueError("measurement matrix is identically zero")

    step = cfg.step_scale / norm_a
    tau = step
    sigma = step

    y_scale = 1.0 + float(np.max(np.abs(y)))
    active_eps = _ACTIVE_RESIDUAL_SCALE * y_scale
    support_eps = _SUPPORT_EPS_SCALE
    cert_scale = 1.0 + float(np.max(np.abs(a.T @ np.sign(y))))

    def score(x: np.ndarray, xi: np.ndarray) -> tuple[float, float, float]:
        """Objective and both scaled residuals of (x, xi)."""
        residual = y - a @ x
        obj = float(np.sum(np.abs(residual)) + lam * np.sum(np.abs(x)))
        cert = _certificate_norm(a, x, xi, residual, lam, active_eps, support_eps)
        return obj, cert / cert_scale, _complementarity_gap(residual, xi) / y_scale

    x = np.zeros(instance.n)
    xi = np.zeros(instance.m)
    at_xi = np.zeros(instance.n)

    best_obj = evaluate_objective(instance, x, lam)
    best_x = x.copy()

    converged = False
    finish = "iteration"
    iterations = 0

    for sweep in range(1, cfg.max_iters + 1):
        iterations = sweep
        x_new = _soft_threshold(x - tau * at_xi, tau * lam)
        x_bar = 2.0 * x_new - x
        xi_new = np.clip(xi + sigma * (a @ x_bar - y), -1.0, 1.0)
        at_xi_new = a.T @ xi_new

        if sweep % _CHECK_EVERY == 0 or sweep == cfg.max_iters:
            final_x = x_new
            final_obj, primal_res, dual_res = score(x_new, xi_new)
            if final_obj < best_obj:
                best_obj = final_obj
                best_x = x_new.copy()
            if primal_res <= cfg.primal_tol and dual_res <= cfg.dual_tol:
                converged = True
                break

        if sweep == _LP_HANDOFF:
            nonzero = x_new != 0.0
            free_rows = np.count_nonzero(np.abs(xi_new) < 1.0)
            nondegenerate = free_rows <= _DEGENERACY_RATIO * np.count_nonzero(nonzero)
            screened = np.flatnonzero(
                nonzero | (np.abs(at_xi_new) >= (1.0 - _SCREEN_MARGIN) * lam)
            )
            finishes = [("lp", slice(None))]
            if nondegenerate and screened.size < instance.n:
                finishes.insert(0, ("screened-lp", screened))
            for path, columns in finishes:
                vertex = _lp_vertex(a, y, lam, columns)
                if vertex is None:
                    continue
                final_x, xi_lp = vertex
                final_obj, primal_res, dual_res = score(final_x, xi_lp)
                if (
                    final_obj <= best_obj
                    and primal_res <= cfg.primal_tol
                    and dual_res <= cfg.dual_tol
                ):
                    converged = True
                    finish = path
                    break
            if converged:
                break

        x = x_new
        xi = xi_new
        at_xi = at_xi_new

    if not converged:
        # report the best point seen, with its own residuals
        final_x = best_x
        final_obj, primal_res, dual_res = score(final_x, xi)

    return DecodeResult(
        x_hat=final_x,
        objective=final_obj,
        iterations=iterations,
        converged=converged,
        primal_residual=primal_res,
        dual_residual=dual_res,
        finish=finish,
    )
