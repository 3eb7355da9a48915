"""Scalar special functions built on the standard Gaussian measure.

The fixed-point equations and the phase-boundary condition are assembled
from three ingredients: the Gaussian tail probability, a scaled interior
second moment ``s_func``, and a soft-threshold excess moment ``r_lambda``.
All entry points are closed-form, allocation-free scalar functions; the
quadrature oracles that certify them live in ``sparse_lab.selftest``.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "q_function",
    "gauss_pdf",
    "s_func",
    "r_lambda",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_2 = math.sqrt(math.pi / 2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# 1/sqrt(2) as a double plus its residual. Feeding x/sqrt(2) to erfc with a
# single rounding costs about 2*t^2*eps relative error in the deep tail
# (1e-13 by x = 37); capturing the rounding exactly and correcting to first
# order keeps the tail at a few ulp.
_INV_SQRT2_HI = 0.7071067811865476
_INV_SQRT2_LO = -4.833646656726457e-17

_SPLITTER = 134217729.0  # 2**27 + 1


def _product_residual(a: float, b: float, p: float) -> float:
    """Exact rounding residual a*b - p for p = fl(a*b), by Dekker splitting."""
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def q_function(x: float) -> float:
    """Gaussian tail probability P(Z > x) for standard normal Z.

    Evaluated through the complementary error function with a compensated
    argument: the rounding of x/sqrt(2) is removed by a first-order
    correction, so the relative error stays near machine precision out to
    x = 37 where the tail is ~1e-300.
    """
    t = x * _INV_SQRT2_HI
    q = 0.5 * math.erfc(t)
    if abs(t) < 26.7:
        # past this band exp(-t*t) underflows and the correction vanishes
        dt = _product_residual(x, _INV_SQRT2_HI, t) + x * _INV_SQRT2_LO
        q -= dt * _INV_SQRT_PI * math.exp(-t * t)
    return q


def gauss_pdf(x: float) -> float:
    """Standard normal density at x."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def s_func(x: float) -> float:
    """Interior second moment of the unit Gaussian, scaled by the cut.

    s(x) = x^-2 * E[z^2; |z| < x] = erf(x/sqrt(2))/x^2 - sqrt(2/pi) exp(-x^2/2)/x.

    The two terms cancel to O(x) as x -> 0, so below the switch point 0.1
    a five-term odd series in x is used instead; both routes agree to about
    1e-13 relative at the seam.
    """
    if not x > 0.0:
        raise ValueError(f"s_func requires x > 0, got {x!r}")
    if x < 0.1:
        x2 = x * x
        poly = 1.0 / 3.0 - x2 * (
            1.0 / 10.0 - x2 * (1.0 / 56.0 - x2 * (1.0 / 432.0 - x2 / 4224.0))
        )
        return _SQRT_2_OVER_PI * x * poly
    return math.erf(x / _SQRT2) / (x * x) - _SQRT_2_OVER_PI * math.exp(-0.5 * x * x) / x


def r_lambda(lam: float, h: float) -> float:
    """Negative half mean squared excess of |z|*sqrt(h) over the threshold lam.

    r_lambda(h) = lam * sqrt(h/(2 pi)) * exp(-lam^2/(2h)) - (lam^2 + h) * Q(lam/sqrt(h))
                = -E[(|z| sqrt(h) - lam)_+^2] / 2,   z ~ N(0, 1),

    hence always <= 0. Written as h * phi(u) * (u - (u^2 + 1) sqrt(pi/2)
    erfcx(u/sqrt(2))) with u = lam/sqrt(h). The scaled complementary error
    function keeps full relative accuracy in the deep tail, where forming
    Q(u) directly would cancel the leading u * phi(u) term into noise. The
    subtraction inside the bracket still loses about u^4/2 ulp, acceptable
    for any u at which the value is representable.
    """
    if not lam > 0.0:
        raise ValueError(f"r_lambda requires lam > 0, got {lam!r}")
    if not h > 0.0:
        raise ValueError(f"r_lambda requires h > 0, got {h!r}")
    u = lam / math.sqrt(h)
    bracket = u - (u * u + 1.0) * _SQRT_PI_2 * float(special.erfcx(u * _INV_SQRT2_HI))
    return h * gauss_pdf(u) * bracket
