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

from . import decoder, experiments, replica, special
from .decoder import *  # noqa: F403
from .experiments import *  # noqa: F403
from .replica import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *special.__all__, *replica.__all__, *decoder.__all__, *experiments.__all__]
