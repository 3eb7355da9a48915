"""Numerical laboratory for L1-penalized L1 reconstruction of sparse signals.

The package predicts the asymptotic mean square error and the perfect
recovery phase boundary of

    x_hat = argmin_x  ||y - A x||_1 + lam ||x||_1

for Gaussian measurement matrices, sparse Gaussian signals and sparse
Gaussian corruption, and validates those predictions by decoding sampled
finite instances with a certified decoder: a short GAMP prefix routes
each instance to a primal-dual iteration or to an exact linear-programming
vertex.
"""

from .decoder import (
    DEFAULT_DECODER,
    DecodeResult,
    DecoderConfig,
    ProblemInstance,
    decode,
    estimate_operator_norm,
    evaluate_objective,
)
from .experiments import (
    Aggregate,
    EnsembleSpec,
    PhaseDiagramRow,
    TrialSummary,
    run_monte_carlo,
    run_trial,
    sample_instance,
    sample_mixture,
    sweep_phase_diagram,
)
from .replica import (
    DEFAULT_SOLVER,
    BracketError,
    FixedPointError,
    FixedPointState,
    LambdaOptimum,
    ObjectiveProbeError,
    SolverConfig,
    SystemParams,
    ThresholdState,
    find_critical_alpha,
    find_critical_rho_x,
    optimize_lambda,
    solve_mse_fixed_point,
    solve_threshold_fixed_point,
)
from .special import gauss_pdf, q_function, r_lambda, s_func

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "q_function",
    "gauss_pdf",
    "s_func",
    "r_lambda",
    # asymptotic solvers
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
    # decoding
    "ProblemInstance",
    "DecoderConfig",
    "DEFAULT_DECODER",
    "DecodeResult",
    "decode",
    "estimate_operator_norm",
    "evaluate_objective",
    # finite-size experiments
    "EnsembleSpec",
    "TrialSummary",
    "Aggregate",
    "PhaseDiagramRow",
    "sample_mixture",
    "sample_instance",
    "run_trial",
    "run_monte_carlo",
    "sweep_phase_diagram",
]
