"""Scalar special functions: frozen references, identities, oracles.

Reference values were generated with mpmath at 60 decimal digits, feeding
it the exact binary64 inputs (mp.mpf of the float, never a decimal
string), so the comparisons measure implementation error only.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from sparse_lab import selftest
from sparse_lab.selftest import (
    QuadratureError,
    gauss_expectation,
    lemma_oracles,
    phi_lambda_oracle,
)
from sparse_lab.special import gauss_pdf, q_function, r_lambda, s_func

mp.dps = 60

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# P(Z > x) for standard normal Z, spanning the full double range of the tail
Q_REFS = {
    -8.0: 0.99999999999999938,
    -5.0: 0.99999971334842812,
    -2.0: 0.97724986805182079,
    -1.0: 0.84134474606854295,
    -0.5: 0.69146246127401310,
    0.3: 0.38208857781104737,
    0.5: 0.30853753872598690,
    1.0: 0.15865525393145705,
    2.0: 0.022750131948179207,
    3.5: 0.00023262907903552504,
    5.0: 2.8665157187919391e-7,
    9.0: 1.1285884059538406e-19,
    15.0: 3.6709661993127509e-51,
    25.0: 3.0566967063825609e-138,
    33.0: 4.0611856209158551e-239,
    37.0: 5.7255712225245768e-300,
}

# x^-2 E[z^2; |z| < x], covering the series branch, the seam, and the tail
S_REFS = {
    1e-05: 2.6596152025964296e-6,
    0.001: 0.00026596144047917996,
    0.5: 0.12343838313490692,
    1.0: 0.19874804309879920,
    3.0: 0.10785656816279020,
    10.0: 0.010000000000000000,
}

# -E[(|z| sqrt(h) - lam)_+^2]/2, including deep-tail (lam, h) pairs
R_REFS = {
    (1.0, 1.0): -0.075339783343770753,
    (0.5, 2.0): -0.54912927871670487,
    (3.0, 0.25): -1.2111441863779571e-11,
    (13.0, 1.0): -7.0339512594051280e-41,
    (2.5, 0.04): -1.8526500650487246e-39,
}


def _q_mp(x: float):
    return mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2


def _s_mp(x: float):
    z = mp.mpf(x)
    return mp.erf(z / mp.sqrt(2)) / z**2 - mp.sqrt(2 / mp.pi) * mp.e ** (-(z**2) / 2) / z


def _r_mp(lam: float, h: float):
    u = mp.mpf(lam) / mp.sqrt(mp.mpf(h))
    phi = mp.e ** (-(u**2) / 2) / mp.sqrt(2 * mp.pi)
    return mp.mpf(h) * (u * phi - (u**2 + 1) * mp.erfc(u / mp.sqrt(2)) / 2)


class TestQFunction:
    def test_frozen_references(self):
        for x, ref in Q_REFS.items():
            assert abs(q_function(x) - ref) <= 5e-15 * ref, x

    def test_against_mpmath_across_range(self):
        """Relative accuracy holds everywhere the tail is representable."""
        rng = np.random.default_rng(42)
        for x in rng.uniform(-8.0, 37.0, size=200):
            got = q_function(float(x))
            ref = _q_mp(float(x))
            assert abs(mp.mpf(got) - ref) / ref <= 5e-15, x

    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_reflection(self):
        """Q(x) + Q(-x) = 1."""
        rng = np.random.default_rng(7)
        for x in rng.uniform(-8.0, 8.0, size=500):
            assert abs(q_function(float(x)) + q_function(float(-x)) - 1.0) <= 1e-15

    def test_monotone_decreasing(self):
        grid = np.linspace(-8.0, 37.0, 400)
        values = [q_function(float(x)) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-8.0, 37.0, size=300):
            assert 0.0 < q_function(float(x)) < 1.0
        # far left tail saturates: 1 - Q(37) is below one ulp of 1.0
        assert q_function(-37.0) == 1.0


class TestGaussPdf:
    def test_known_values(self):
        np.testing.assert_allclose(gauss_pdf(0.0), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-15)
        np.testing.assert_allclose(gauss_pdf(1.0), math.exp(-0.5) / math.sqrt(2.0 * math.pi), rtol=1e-15)

    def test_even(self):
        rng = np.random.default_rng(13)
        for x in rng.uniform(-10.0, 10.0, size=100):
            assert gauss_pdf(float(x)) == gauss_pdf(float(-x))


class TestSFunc:
    def test_frozen_references(self):
        for x, ref in S_REFS.items():
            assert abs(s_func(x) - ref) <= 1e-13 * ref, x

    def test_against_mpmath_across_range(self):
        rng = np.random.default_rng(17)
        xs = np.concatenate([
            10.0 ** rng.uniform(-8.0, -1.0, size=60),
            rng.uniform(0.05, 0.2, size=40),  # straddles the series seam
            rng.uniform(0.2, 40.0, size=60),
        ])
        for x in xs:
            got = s_func(float(x))
            ref = _s_mp(float(x))
            assert abs(mp.mpf(got) - ref) / ref <= 5e-13, x

    def test_domain(self):
        with pytest.raises(ValueError):
            s_func(0.0)
        with pytest.raises(ValueError):
            s_func(-1.0)

    def test_positive(self):
        rng = np.random.default_rng(19)
        for x in rng.uniform(1e-6, 40.0, size=300):
            assert s_func(float(x)) > 0.0

    def test_inverse_square_tail(self):
        """All interior mass is captured once the cut passes the bulk."""
        np.testing.assert_allclose(s_func(10.0), 1e-2, rtol=1e-14)
        np.testing.assert_allclose(s_func(40.0), 1.0 / 1600.0, rtol=1e-14)

    def test_small_x_linear(self):
        """s(x) ~ sqrt(2/pi) x / 3 as x -> 0."""
        x = 1e-8
        np.testing.assert_allclose(s_func(x), SQRT_2_OVER_PI * x / 3.0, rtol=1e-10)


class TestRLambda:
    def test_frozen_references(self):
        for (lam, h), ref in R_REFS.items():
            assert abs(r_lambda(lam, h) - ref) <= 5e-10 * abs(ref), (lam, h)

    def test_against_mpmath_across_range(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            lam = float(10.0 ** rng.uniform(-2.0, 1.0))
            h = float(10.0 ** rng.uniform(-2.0, 2.0))
            if lam / math.sqrt(h) > 30.0:
                continue  # below this the value itself is ~1e-200
            got = r_lambda(lam, h)
            ref = _r_mp(lam, h)
            assert abs(mp.mpf(got) - ref) / abs(ref) <= 5e-10, (lam, h)

    def test_domain(self):
        with pytest.raises(ValueError):
            r_lambda(0.0, 1.0)
        with pytest.raises(ValueError):
            r_lambda(1.0, 0.0)
        with pytest.raises(ValueError):
            r_lambda(-1.0, 1.0)

    def test_nonpositive(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            lam = float(rng.uniform(0.01, 10.0))
            h = float(rng.uniform(1e-4, 50.0))
            assert r_lambda(lam, h) <= 0.0

    def test_scaling_homogeneity(self):
        """r(c lam, c^2 h) = c^2 r(lam, h)."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            lam = float(rng.uniform(0.1, 3.0))
            h = float(rng.uniform(0.1, 4.0))
            c = float(rng.uniform(0.5, 2.0))
            np.testing.assert_allclose(
                r_lambda(c * lam, c * c * h), c * c * r_lambda(lam, h), rtol=1e-12
            )

    def test_derivative_in_h(self):
        """d r / d h = -Q(lam / sqrt(h)), checked by central differences."""
        rng = np.random.default_rng(37)
        for _ in range(40):
            lam = float(rng.uniform(0.1, 3.0))
            h = float(rng.uniform(0.1, 4.0))
            dh = 1e-6 * h
            fd = (r_lambda(lam, h + dh) - r_lambda(lam, h - dh)) / (2.0 * dh)
            exact = -q_function(lam / math.sqrt(h))
            assert abs(fd - exact) <= 1e-5 * abs(exact)


class TestQuadratureOracles:
    def test_gauss_expectation_moments(self):
        np.testing.assert_allclose(gauss_expectation(lambda z: 1.0), 1.0, atol=1e-10)
        np.testing.assert_allclose(gauss_expectation(lambda z: z), 0.0, atol=1e-10)
        np.testing.assert_allclose(gauss_expectation(lambda z: z * z), 1.0, atol=1e-10)

    def test_lemma_oracles_match_closed_forms(self):
        """Tail mass 2Q(a); interior moment 1 - 2Q(a) - a sqrt(2/pi) e^{-a^2/2}."""
        rng = np.random.default_rng(41)
        for a in rng.uniform(0.05, 6.0, size=50):
            a = float(a)
            tail, interior = lemma_oracles(a)
            closed_tail = 2.0 * q_function(a)
            closed_interior = 1.0 - closed_tail - a * SQRT_2_OVER_PI * math.exp(-0.5 * a * a)
            np.testing.assert_allclose(tail, closed_tail, atol=1e-8)
            np.testing.assert_allclose(interior, closed_interior, atol=1e-8)

    def test_s_func_bridge(self):
        """s(a) equals the interior second moment divided by a^2."""
        rng = np.random.default_rng(43)
        for a in rng.uniform(0.05, 6.0, size=50):
            a = float(a)
            _, interior = lemma_oracles(a)
            np.testing.assert_allclose(s_func(a), interior / (a * a), atol=1e-8)

    def test_threshold_moment_bridge(self):
        """q_hat E[phi(z sqrt(h))] recovers r_lambda for any positive q_hat."""
        rng = np.random.default_rng(47)
        for _ in range(50):
            lam = float(rng.uniform(0.1, 3.0))
            h = float(rng.uniform(0.05, 6.0))
            q_hat = float(rng.uniform(0.1, 5.0))
            kink = lam / math.sqrt(h)
            integral = gauss_expectation(
                lambda z: phi_lambda_oracle(z * math.sqrt(h), lam, q_hat),
                breakpoints=(-kink, kink),
            )
            np.testing.assert_allclose(q_hat * integral, r_lambda(lam, h), atol=1e-8)

    def test_phi_lambda_piecewise(self):
        assert phi_lambda_oracle(0.5, 1.0, 2.0) == 0.0
        assert phi_lambda_oracle(-0.9, 1.0, 2.0) == 0.0
        np.testing.assert_allclose(phi_lambda_oracle(3.0, 1.0, 2.0), -1.0, rtol=1e-15)
        np.testing.assert_allclose(
            phi_lambda_oracle(-3.0, 1.0, 2.0), phi_lambda_oracle(3.0, 1.0, 2.0), rtol=1e-15
        )

    def test_phi_lambda_domain(self):
        with pytest.raises(ValueError):
            phi_lambda_oracle(1.0, 1.0, 0.0)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        """A kinked integrand with one subdivision cannot hit 1e-13."""
        monkeypatch.setattr(selftest, "_QUAD_ABS_TOL", 1e-13)
        monkeypatch.setattr(selftest, "_QUAD_LIMIT", 1)
        with pytest.raises(QuadratureError) as info:
            gauss_expectation(lambda z: abs(z - 0.3))
        assert info.value.achieved_tol > 1e-13
