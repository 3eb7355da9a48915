"""Certified decoder for the L1-L1 reconstruction problem.

Solves

    min_x  ||y - A x||_1 + lam ||x||_1

routed by a short damped max-sum GAMP prefix (Rangan, ISIT 2011). Inside
the perfect-recovery phase GAMP's tau_r collapses, and the Chambolle-Pock
first-order scheme runs warm-started from GAMP's point with a dual step
_PRIMAL_WEIGHT times its primal step; at every failed check a pair solved
on the iterate's active set is offered. Outside it the iteration starts
only if a linear program fails first. There is one linear program: its
rows and columns are screened at a primal-dual point (as Gap Safe
screening and working-set solvers do) and it is solved exactly by HiGHS,
at GAMP's point outside the phase and at the iterate after _LP_HANDOFF
sweeps on every route. Both objective terms are polyhedral, so exact
optimality can be certified: a subgradient vector is assembled from a
dual vector and its stationarity violation, always on the full problem,
is measured in the max norm. The decoder only reports success when that
certificate passes together with small primal-dual residuals, whichever
of the iteration, the polish or the linear program produced the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstebz, dtrtrs
from scipy.optimize import linprog

__all__ = [
    "ProblemInstance",
    "DecoderConfig",
    "DEFAULT_DECODER",
    "DecodeResult",
    "estimate_operator_norm",
    "decode",
]

# Residuals above this multiple of the measurement scale force the
# stationarity certificate to take the subgradient sign of the row.
_ACTIVE_RESIDUAL_SCALE = 1e-8

# Estimates below this magnitude count as zero in the certificate.
_SUPPORT_EPS_SCALE = 1e-12

# Damped max-sum GAMP iterations run before the route is chosen; about 4 ms
# at n = 256, and enough for tau_r to collapse inside the perfect phase.
_GAMP_ITERS = 100

# GAMP's tau_r falling below this fraction of its first value marks the
# perfect-recovery phase; outside it tau_r stays near its start.
_COLLAPSE = 1e-2

# A run still uncertified after this many sweeps solves the LP screened at
# its iterate, once. Inside the phase the polish usually certifies at the
# first check; the handoff serves late GAMP collapses just outside it and
# runs whose LP at GAMP's point was rejected. One n = 256 trial at rho_x 0.11
# needs 182,250 sweeps (about 5 s); with the handoff it decodes in about 40 ms.
_LP_HANDOFF = 500

# The screened LP keeps the columns with |A^T s|_j >= (1 - _SCREEN_MARGIN)
# lam or x_j != 0 at the screening point.
_SCREEN_MARGIN = 0.2

# The screened LP keeps this many rows per unsaturated dual row, adding
# those with the smallest residuals: a vertex needs a zero-residual row per
# nonzero, and the free rows of the screening point miss a few of them.
_ROW_WIDEN = 1.5

# The iterate is checked at sweep _FIRST_CHECK and at every multiple of
# _CHECK_EVERY. Inside the phase the polish certifies after 25 sweeps about
# as often as after 50, so the first check comes early: of 10, 15, 20 and 25,
# 20 decoded in-phase trials at n = 128-512 fastest. A failed check costs a
# score and a polish, so the later ones stay sparse.
_FIRST_CHECK = 20
_CHECK_EVERY = 50

# tau sigma ||A||_2^2 = _STEP_SCALE^2; any value below 1 converges
# (Chambolle & Pock, JMIV 2011): it sets speed, not answer.
_STEP_SCALE = 0.99

# sigma / tau, the primal weight of PDLP (Applegate et al., NeurIPS 2021):
# tau = _STEP_SCALE / (w ||A||_2), sigma = _STEP_SCALE w / ||A||_2. A larger
# dual step certifies in-phase decodes at n = 256-512 in fewer sweeps.
_PRIMAL_WEIGHT = 16.0

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
    """Stopping tolerances and budgets; the primal-dual steps are fixed (see decode)."""

    primal_tol: float = 1e-9
    dual_tol: float = 1e-9
    max_iters: int = 100_000
    power_iters: int = 200
    power_tol: float = 1e-12

    def __post_init__(self) -> None:
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

    x_hat is the certified point when converged is True, either an iterate,
    a polished pair or an LP vertex, otherwise the best-objective iterate
    encountered. finish names what produced x_hat: "iteration", "polish"
    (least squares on the active set of an iterate, see _polish) or
    "reduced-lp" (the LP screened at GAMP's point or at the handoff
    iterate, see _screened_lp). iterations counts GAMP iterations plus
    primal-dual sweeps.
    """

    x_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    finish: str


def estimate_operator_norm(
    A: np.ndarray, iters: int = DecoderConfig.power_iters, tol: float = DecoderConfig.power_tol
) -> float:
    """Largest singular value of A by Krylov iteration on A^T A.

    Lanczos with full reorthogonalization, at most iters applications of
    A^T A, stopping once the top Ritz value has stabilized to tol. Plain
    power iteration cannot reach the accuracy this routine is relied on
    for within that budget when the top of the spectrum is crowded; the
    orthogonalized Krylov basis does. Each new vector is reorthogonalized
    against the whole preallocated basis by classical Gram-Schmidt applied
    twice ("twice is enough"), two matrix products a pass. Deterministic:
    the starting vector comes from a fixed-seed generator. Returns 0.0 for
    an all-zero matrix.
    """
    a = np.asarray(A, dtype=float)
    if a.ndim != 2 or not np.isfinite(a).all():
        raise ValueError(f"expected a finite 2-d array, got shape {a.shape}")
    if not np.any(a):
        return 0.0
    n = a.shape[1]
    steps = min(iters, n)
    basis = np.empty((steps + 1, n))
    q = np.random.default_rng(_POWER_SEED).standard_normal(n)
    basis[0] = q / np.linalg.norm(q)
    diag = np.empty(steps)
    offdiag = np.empty(steps)
    top = 0.0
    for step in range(steps):
        q = basis[step]
        w = a.T @ (a @ q)
        diag[step] = q @ w
        filled = basis[: step + 1]
        for _ in range(2):  # full reorthogonalization, twice
            w -= filled.T @ (filled @ w)
        previous = top
        # top Ritz value by bisection; dstebz rejects an empty off-diagonal
        top = float(dstebz(diag[: step + 1], offdiag[:step], 2, 0.0, 0.0, step + 1, step + 1,
                           0.0, "E")[1][0] if step else diag[0])
        beta = float(np.linalg.norm(w))
        if step >= 1 and abs(top - previous) <= tol * max(top, 1e-300):
            break
        if beta <= 1e-14 * max(top, 1.0):
            break  # Krylov space is exhausted; the Ritz value is exact
        offdiag[step] = beta
        basis[step + 1] = w / beta
    return math.sqrt(max(top, 0.0))


def _certificate_norm(
    a: np.ndarray,
    x: np.ndarray,
    xi: np.ndarray,
    residual: np.ndarray,
    lam: float,
    active_eps: float,
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
    on_support = np.abs(x) > _SUPPORT_EPS_SCALE
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


def _gamp(
    a: np.ndarray, y: np.ndarray, lam: float, iters: int
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Damped max-sum GAMP with scalar variances, from x = 0 and s = 0.

    The output step is the prox of |y - z| and the input step the soft
    threshold, with c_row = ||A||_F^2 / m and c_col = ||A||_F^2 / n:

        p = A x - tau_p s,  s = clip((y - p) / tau_p, -1, 1),
        tau_r = tau_p / (c_col mean(|y - p| < tau_p)),
        x = soft(x + tau_r A^T s, lam tau_r),
        tau_p = c_row tau_r mean(x != 0),

    starting from tau_p = c_row. Both means are taken over the undamped
    updates and floored at one element; s, x and tau_p are then damped by
    0.5. For any positive variances a fixed point is a KKT point of the
    L1-L1 program with dual u = s. Stops early once tau_r falls below
    _COLLAPSE times its first value. Returns the last soft-threshold
    output (sparse, unlike the damped x), s, the iterations run and
    whether tau_r collapsed.
    """
    m, n = a.shape
    fro2 = float(np.vdot(a, a))
    c_row = fro2 / m
    c_col = fro2 / n
    x = np.zeros(n)
    s = np.zeros(m)
    tau_p = c_row
    first = 0.0
    for it in range(1, iters + 1):
        gap = y - (a @ x - tau_p * s)
        s = 0.5 * s + 0.5 * np.clip(gap / tau_p, -1.0, 1.0)
        tau_r = tau_p * m / (c_col * max(np.count_nonzero(np.abs(gap) < tau_p), 1))
        v = x + tau_r * (a.T @ s)
        cut = lam * tau_r
        shrunk = v - v.clip(-cut, cut)
        x = 0.5 * x + 0.5 * shrunk
        tau_p = 0.5 * tau_p + 0.5 * c_row * tau_r * max(np.count_nonzero(shrunk), 1) / n
        first = first or tau_r
        if tau_r < _COLLAPSE * first:
            return shrunk, s, it, True
    return shrunk, s, iters, False


def _screened_lp(
    a: np.ndarray, y: np.ndarray, lam: float, x: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact minimizer and dual iterate of the LP screened at (x, s), or None.

    Keeps the columns with x_j != 0 or |A^T s|_j >= (1 - _SCREEN_MARGIN)
    lam, and the rows with |s_i| < 1 widened to _ROW_WIDEN times their
    count by the smallest |y - A x|. Every other row i is held at the
    subgradient u_i = sign(y_i - a_i x) and enters as the linear cost
    u_i (y_i - a_i x); the other columns stay zero. On the kept part, x and
    the residual y - A x = r+ - r- are split into nonnegative parts, so one
    HiGHS call solves min (lam - A^T u)'x+ + (lam + A^T u)'x- + 1'(r+ + r-)
    subject to [A, -A, I, -I] (x+, x-, r+, r-) = y. Its equality duals are
    the subgradient of ||y - A x||_1 on the kept rows, so the returned dual
    iterate is their negation there and -u elsewhere. Returns None unless
    HiGHS reports an optimal solution.
    """
    residual = y - a @ x
    columns = np.flatnonzero((x != 0.0) | (np.abs(a.T @ s) >= (1.0 - _SCREEN_MARGIN) * lam))
    free = np.abs(s) < 1.0
    keep = min(len(y), max(1, math.ceil(_ROW_WIDEN * np.count_nonzero(free))))
    rows = np.sort(np.argsort(np.where(free, -1.0, np.abs(residual)), kind="stable")[:keep])
    u = np.sign(residual)
    u[rows] = 0.0
    sub = a[rows][:, columns]
    m, k = sub.shape
    pull = (a.T @ u)[columns]
    eye = np.eye(m)
    # presolve removes nothing from these dense programs and costs about a
    # third of the solve time
    res = linprog(
        np.concatenate([lam - pull, lam + pull, np.ones(2 * m)]),
        A_eq=np.hstack([sub, -sub, eye, -eye]),
        b_eq=y[rows],
        bounds=(0.0, None),
        method="highs",
        options={"presolve": False},
    )
    if res.status != 0:
        return None
    x = np.zeros(a.shape[1])
    x[columns] = res.x[:k] - res.x[k : 2 * k]
    xi = -u
    xi[rows] = -res.eqlin.marginals
    return x, xi


def _polish(
    a: np.ndarray, y: np.ndarray, lam: float, x: np.ndarray, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Primal-dual pair solved on the active set of the iterate (x, xi), or None.

    The support is the nonzeros of x and the free rows those with
    |xi_i| < 1. The polished values are the least-squares solution on
    A[free, support] against y[free], zero off the support. The dual
    u = -xi keeps its saturated entries on every other row, and a
    minimum-norm correction on the free rows makes A^T u = lam sign(x) on
    the support, at the polished x. Those entries are not reset to the
    sign of the polished residual: on a row whose residual is rounding
    noise that sign is arbitrary, while the certificate reads -xi there.
    Both solves share one QR factorization A[free, support] = Q R.
    Returns None when the free rows are fewer than the support, the
    support is empty or R has a numerically zero pivot (below the relative
    cutoff np.linalg.lstsq uses by default). This is the solution polishing of
    OSQP (Stellato et al., Math. Prog. Comp. 2020); the caller keeps the
    pair only if it certifies the full problem.
    """
    support = np.flatnonzero(x)
    free = np.abs(xi) < 1.0
    if not support.size or np.count_nonzero(free) < support.size:
        return None
    columns = a[:, support]
    sub = columns[free]
    q, r = np.linalg.qr(sub)
    pivots = np.abs(np.diag(r))
    if pivots.min() <= max(sub.shape) * np.finfo(float).eps * pivots.max():
        return None
    polished = np.zeros_like(x)
    # LAPACK's triangular solve, R^-1 b and R^-T b; scipy.linalg.solve_triangular
    # checks its arguments for about 15 us a call at n = 256
    polished[support] = dtrtrs(r, q.T @ y[free])[0]
    u = -xi
    mismatch = lam * np.sign(polished[support]) - columns.T @ u
    u[free] += q @ dtrtrs(r, mismatch, trans=1)[0]
    return polished, -u


def decode(
    instance: ProblemInstance,
    lam: float,
    cfg: DecoderConfig = DEFAULT_DECODER,
) -> DecodeResult:
    """Minimize ||y - A x||_1 + lam ||x||_1, routed by a GAMP prefix.

    Non-finite data and a zero measurement matrix are rejected. The run
    starts with up to _GAMP_ITERS iterations of damped max-sum GAMP (see
    _gamp), which needs only ||A||_F, and takes its route from them:

    - If GAMP's tau_r collapses, the instance sits inside the perfect-
      recovery phase. The Chambolle-Pock iteration runs, warm-started from
      GAMP's x and xi = -s, with the fixed primal step tau = 0.99 /
      (w ||A||_2) and dual step sigma = 0.99 w / ||A||_2 at the primal
      weight w = _PRIMAL_WEIGHT (||A||_2 from estimate_operator_norm,
      computed only when sweeps run) and extrapolation weight 1; a sweep
      is two matrix-vector products, a soft threshold at tau lam and a
      dual update done in place, and its iterates are bitwise those of
      the textbook loop. At every check the iterate fails, the pair that
      _polish solves on its active set is offered; inside the phase the
      optimum is x0 and the first check usually ends the run there.
    - Otherwise, after the whole prefix, the LP screened at GAMP's (x, s)
      is solved (see _screened_lp); if its vertex is not adopted the
      iteration runs from GAMP's point as above.

    On either route a run still uncertified after _LP_HANDOFF sweeps
    solves the LP screened at the iterate (x, -xi), once; if that vertex
    is not adopted either, the iteration and the polish go on.

    Every point is scored on the full problem. The primal residual is the
    subgradient certificate scaled by 1 + ||A^T sign(y)||_inf and the dual
    residual is the worst complementary-slackness violation scaled by
    1 + ||y||_inf; a point counts as converged only when both fall below
    their tolerances. The iteration is checked at sweep _FIRST_CHECK, at
    every multiple of _CHECK_EVERY and at the last sweep of the budget.
    A polished pair or an LP vertex (with its equality duals) is adopted
    only if it does not worsen the best objective seen and passes both
    tests itself: a restricted primal with a dual that certifies the full
    problem is optimal by LP duality. iterations counts GAMP iterations
    plus sweeps, and max_iters bounds that sum; a budget that ends inside
    the prefix ends the run there. Exhausting max_iters returns the
    best-objective iterate seen (from x = 0) with converged=False rather
    than raising.
    """
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    a = instance.A
    y = instance.y
    if not (np.isfinite(a).all() and np.isfinite(y).all()):
        raise ValueError("A and y must be finite")
    if not np.any(a):
        raise ValueError("measurement matrix is identically zero")

    y_scale = 1.0 + float(np.max(np.abs(y)))
    active_eps = _ACTIVE_RESIDUAL_SCALE * y_scale
    cert_scale = 1.0 + float(np.max(np.abs(a.T @ np.sign(y))))

    def score(x: np.ndarray, xi: np.ndarray) -> tuple[float, float, float]:
        """Objective and both scaled residuals of (x, xi)."""
        residual = y - a @ x
        obj = float(np.sum(np.abs(residual)) + lam * np.sum(np.abs(x)))
        cert = _certificate_norm(a, x, xi, residual, lam, active_eps)
        return obj, cert / cert_scale, _complementarity_gap(residual, xi) / y_scale

    def certified(vertex: tuple[np.ndarray, np.ndarray] | None):
        """(x, objective, residuals) of a vertex or polished pair that may be adopted, else None."""
        if vertex is None:
            return None
        obj, primal_res, dual_res = score(*vertex)
        if obj <= best_obj and primal_res <= cfg.primal_tol and dual_res <= cfg.dual_tol:
            return vertex[0], obj, primal_res, dual_res
        return None

    best_obj = float(np.sum(np.abs(y)))
    best_x = np.zeros(instance.n)

    x, s, prefix, collapsed = _gamp(a, y, lam, min(_GAMP_ITERS, cfg.max_iters))
    xi = -s
    done = None
    finish = "iteration"
    if not collapsed and prefix == _GAMP_ITERS:
        done = certified(_screened_lp(a, y, lam, x, s))
        if done is not None:
            finish = "reduced-lp"

    iterations = prefix
    if done is None and prefix < cfg.max_iters:
        norm = estimate_operator_norm(a, cfg.power_iters, cfg.power_tol)
        tau = _STEP_SCALE / (_PRIMAL_WEIGHT * norm)
        sigma = _STEP_SCALE * _PRIMAL_WEIGHT / norm
        cut = tau * lam
        at_xi = a.T @ xi
        for iterations in range(prefix + 1, cfg.max_iters + 1):
            sweep = iterations - prefix
            v = x - tau * at_xi
            x_new = v - v.clip(-cut, cut)  # soft threshold at cut
            x_bar = 2.0 * x_new - x
            xi_new = a @ x_bar  # clip(xi + sigma (A x_bar - y), -1, 1), in place
            xi_new -= y
            xi_new *= sigma
            xi_new += xi
            xi_new.clip(-1.0, 1.0, out=xi_new)
            at_xi_new = a.T @ xi_new

            if sweep == _FIRST_CHECK or sweep % _CHECK_EVERY == 0 or iterations == cfg.max_iters:
                obj, primal_res, dual_res = score(x_new, xi_new)
                if obj < best_obj:
                    best_obj = obj
                    best_x = x_new.copy()
                if primal_res <= cfg.primal_tol and dual_res <= cfg.dual_tol:
                    done = (x_new, obj, primal_res, dual_res)
                    break
                done = certified(_polish(a, y, lam, x_new, xi_new))
                if done is not None:
                    finish = "polish"
                    break

            if sweep == _LP_HANDOFF:
                done = certified(_screened_lp(a, y, lam, x_new, -xi_new))
                if done is not None:
                    finish = "reduced-lp"
                    break

            x = x_new
            xi = xi_new
            at_xi = at_xi_new

    converged = done is not None
    if not converged:
        # report the best point seen, with its own residuals
        done = (best_x, *score(best_x, xi))
    final_x, final_obj, primal_res, dual_res = done

    return DecodeResult(
        x_hat=final_x,
        objective=final_obj,
        iterations=iterations,
        converged=converged,
        primal_residual=primal_res,
        dual_residual=dual_res,
        finish=finish,
    )
