import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nide.gaussian_stats import (
    abs_noise_cdf,
    erf_std,
    shifted_abs_cdf,
    std_normal_cdf,
)


def erf_series(x, terms=200):
    """Independent oracle: Maclaurin series of the conventional erf."""
    total, term = 0.0, x
    for k in range(terms):
        total += term / (2 * k + 1)
        term *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * total


def erf_trapezoid(x, points=200_001):
    """Independent oracle: trapezoidal quadrature of (2/sqrt(pi)) exp(-t^2)."""
    t = np.linspace(0.0, x, points)
    return float(np.trapezoid(2.0 / math.sqrt(math.pi) * np.exp(-(t**2)), t))


class TestErf:
    def test_zero(self):
        assert erf_std(0.0) == 0.0

    def test_against_series_oracle(self):
        # frozen from the series oracle
        assert erf_std(1.0) == pytest.approx(0.8427007929497148, abs=1e-10)
        assert erf_std(3 / math.sqrt(2)) == pytest.approx(0.997300203937, abs=1e-10)
        for x in (-2.0, -0.7, 0.1, 1.3, 3.0):
            assert erf_std(x) == pytest.approx(erf_series(x), abs=1e-12)

    def test_against_quadrature_oracle(self):
        for x in np.linspace(-6.0, 6.0, 13):
            assert erf_std(float(x)) == pytest.approx(erf_trapezoid(float(x)), abs=1e-8)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 1.0])
        out = erf_std(x)
        assert out.shape == (3,)
        assert out[1] == 0.0


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_value(self):
        # frozen from the series oracle: phi(1)
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685428, abs=1e-12)

    @given(st.floats(-8, 8))
    def test_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)


class TestAbsNoiseCdf:
    def test_origin(self):
        assert abs_noise_cdf(0.0, 1.0) == 0.0

    def test_three_sigma(self):
        for sigma in (1.0, 2.5):
            assert abs_noise_cdf(3 * sigma, sigma) == pytest.approx(0.997300203937, abs=1e-9)

    def test_one_sigma_quadrature(self):
        # phi(1) via quadrature of the density: 2 phi(1) - 1
        f = 2 * (0.5 + 0.5 * erf_trapezoid(1 / math.sqrt(2))) - 1
        assert abs_noise_cdf(1.0, 1.0) == pytest.approx(f, abs=1e-8)
        assert abs_noise_cdf(1.0, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            abs_noise_cdf(-0.1, 1.0)
        with pytest.raises(ValueError):
            abs_noise_cdf(1.0, 0.0)
        with pytest.raises(ValueError):
            abs_noise_cdf(1.0, -2.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            abs_noise_cdf(1.0, sigma)

    def test_rejects_nan_z(self):
        with pytest.raises(ValueError, match="not NaN"):
            abs_noise_cdf(np.nan, 1.0)
        with pytest.raises(ValueError, match="not NaN"):
            abs_noise_cdf(np.array([0.5, np.nan]), 1.0)

    @given(st.floats(0, 20), st.floats(0.01, 50))
    def test_range(self, z, sigma):
        val = abs_noise_cdf(z, sigma)
        assert 0.0 <= val <= 1.0

    @given(
        st.lists(st.floats(0.0, 1e300), min_size=1, max_size=20),
        st.floats(1e-300, 1e300),
    )
    def test_bitwise_equal_to_two_phi_minus_one(self, z, sigma):
        """``(1 + erf) - 1`` equals ``2 phi(z/sigma) - 1`` in every bit, for huge
        and tiny ratios alike, since scaling by 2 and 0.5 is exact."""
        z = np.asarray(z)
        with np.errstate(over="ignore"):  # z / sigma may round to inf; F is then 1
            want = 2.0 * std_normal_cdf(z / sigma) - 1.0
            got = abs_noise_cdf(z, sigma)
            assert got.tobytes() == want.tobytes()
            assert abs_noise_cdf(float(z[0]), sigma) == float(want[0])

    def test_monotone_and_limits(self):
        z = np.linspace(0, 12, 400)
        vals = abs_noise_cdf(z, 1.3)
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)


class TestShiftedAbsCdf:
    def test_zero_shift_reduces_to_noise_cdf(self):
        z = np.linspace(0, 6, 50)
        assert np.allclose(shifted_abs_cdf(z, 0.0, 1.0), abs_noise_cdf(z, 1.0), atol=1e-14)

    @given(st.floats(0, 30), st.floats(-20, 20), st.floats(0.1, 10))
    def test_sign_symmetry(self, z, theta, sigma):
        assert shifted_abs_cdf(z, theta, sigma) == pytest.approx(
            shifted_abs_cdf(z, -theta, sigma), abs=1e-12
        )

    def test_sigmoid_midpoint(self):
        # For theta=15, sigma=4 the curve passes through 1/2 essentially at
        # z = theta (the second branch contributes ~1e-14 there).
        from scipy.optimize import brentq

        mid = brentq(lambda z: shifted_abs_cdf(z, 15.0, 4.0) - 0.5, 5.0, 25.0)
        assert mid == pytest.approx(15.0, abs=1e-6)

    def test_bounded_and_monotone(self):
        z = np.linspace(0, 40, 300)
        for theta in (0.0, 2.0, 15.0):
            vals = shifted_abs_cdf(z, theta, 2.0)
            assert np.all((0 <= vals) & (vals <= 1))
            assert np.all(np.diff(vals) >= -1e-15)

    def test_limit_at_large_z(self):
        theta, sigma = 7.0, 2.0
        assert shifted_abs_cdf(theta + 10 * sigma, theta, sigma) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            shifted_abs_cdf(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, np.array([1.0, np.inf])])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            shifted_abs_cdf(1.0, 0.5, sigma)

    def test_array_sigma_is_elementwise(self):
        sigma = np.array([0.5, 2.0])
        expected = [shifted_abs_cdf(1.0, 0.5, s) for s in sigma]
        assert np.array_equal(shifted_abs_cdf(1.0, 0.5, sigma), expected)
