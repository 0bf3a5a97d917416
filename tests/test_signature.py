import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nide.gaussian_stats import abs_noise_cdf, shifted_abs_cdf
from nide.noise_model import NoiseSpec, gen_noise, theoretical_profile
from nide.signature import (
    ConfidenceBand,
    CorrelationProfile,
    colored_band,
    colored_variance_bound,
    empirical_signature,
    white_band,
)


class TestEmpiricalSignature:
    def test_counts(self):
        samples = [1.0, -2.0, 3.0]
        assert empirical_signature(0.5, samples) == 0.0
        assert empirical_signature(10.0, samples) == 1.0
        # tie at |-2| = 2 counts as inside
        assert empirical_signature(2.0, samples) == pytest.approx(2 / 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_signature(1.0, [])

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="samples must be finite"):
            empirical_signature(1.0, [np.nan, 0.5, 2.0])

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        st.floats(0, 120),
    )
    def test_matches_direct_count(self, samples, z):
        expected = sum(1 for s in samples if abs(s) <= z) / len(samples)
        assert empirical_signature(z, samples) == pytest.approx(expected)

    def test_rejects_nan_z(self):
        with pytest.raises(ValueError, match="z must not be NaN"):
            empirical_signature(np.nan, [1.0, 2.0])
        with pytest.raises(ValueError, match="z must not be NaN"):
            empirical_signature(np.array([0.5, np.nan]), [1.0, 2.0])
        assert empirical_signature(np.inf, [1.0, 2.0]) == 1.0

    def test_array_evaluation(self):
        out = empirical_signature(np.array([0.5, 2.0, 10.0]), [1.0, -2.0, 3.0])
        assert np.allclose(out, [0.0, 2 / 3, 1.0])


class TestConfidenceBand:
    @pytest.mark.parametrize("fields, message", [
        ({"n": 2.5}, "n must be an integer, got 2.5"),
        ({"n": 0}, "n must be at least 1, got 0"),
        ({"lam": -1.0}, r"lam must lie in \[0, 8\], got -1.0"),
        ({"lam": np.inf}, r"lam must lie in \[0, 8\], got inf"),
        ({"lam": np.nan}, r"lam must lie in \[0, 8\], got nan"),
        ({"lower": [0.6]}, "band edges must satisfy"),
        ({"lower": [-0.1]}, "band edges must satisfy"),
        ({"upper": [0.4]}, "band edges must satisfy"),
        ({"upper": [1.5]}, "band edges must satisfy"),
        ({"center": [np.nan]}, "band edges must satisfy"),
        ({"lower": [0.0, 0.0]}, "^z_grid, lower, center, upper must have equal shapes$"),
        ({"z_grid": [[0.0]]}, "^z_grid, lower, center, upper must have equal shapes$"),
    ])
    def test_rejects_a_bad_size_width_or_edge(self, fields, message):
        good = {"z_grid": [0.0], "lower": [0.0], "upper": [1.0], "center": [0.5], "lam": 1.0, "n": 2}
        ConfidenceBand(**good)
        with pytest.raises(ValueError, match=message):
            ConfidenceBand(**{**good, **fields})


class TestWhiteBand:
    def test_degenerate_lambda_zero(self):
        z = np.linspace(0, 5, 64)
        band = white_band(z, 1.0, 2048, 0.0)
        assert np.allclose(band.lower, band.upper)
        assert np.allclose(band.lower, band.center)

    def test_half_width_arithmetic(self):
        # F = 0.5 at z = sigma * Phi^{-1}(0.75); frozen oracle value
        from scipy.stats import norm

        z_half = norm.ppf(0.75)
        band = white_band([z_half], 1.0, 2048, 4.5)
        half = 4.5 * np.sqrt(0.25 / 2048)
        assert half == pytest.approx(0.04971844555217913, abs=1e-12)
        assert band.upper[0] - band.lower[0] == pytest.approx(2 * half, abs=1e-6)

    def test_band_ordering_and_clamping(self):
        z = np.linspace(0, 8, 200)
        band = white_band(z, 2.5, 1024, 4.5)
        assert np.all(band.lower >= 0)
        assert np.all(band.upper <= 1)
        assert np.all(band.lower <= band.upper)
        assert np.all(band.upper >= band.center - 1e-15)
        assert np.all(band.lower <= band.center + 1e-15)
        assert np.all(np.diff(band.center) >= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            white_band([0.0, 1.0], 0.0, 100, 4.5)
        with pytest.raises(ValueError):
            white_band([0.0, 1.0], 1.0, 0, 4.5)
        with pytest.raises(ValueError):
            white_band([1.0, 0.5], 1.0, 100, 4.5)  # not ascending
        with pytest.raises(ValueError, match="^z_grid must be nonnegative$"):
            white_band([-0.5, 1.0], 1.0, 100, 4.5)

    def test_per_z_coverage_in_clt_region(self):
        # Pointwise coverage at lam=4.5 in the region where the normal
        # approximation holds (N F (1-F) well above 1, here z <= 3 sigma).
        n, runs = 2048, 2000
        zs = np.linspace(0.1, 3.0, 25)
        band = white_band(zs, 1.0, n, 4.5)
        rng = np.random.default_rng(1234)
        hits = np.zeros(zs.size)
        for _ in range(runs):
            g = empirical_signature(zs, rng.normal(0, 1, n))
            hits += band.contains(g)
        assert np.min(hits / runs) >= 0.999


class TestAveragedSignatureMoments:
    """Monte Carlo validation of the analytic mean/variance identities."""

    def test_indicator_mean_and_variance(self):
        # mean F(z), variance F(1-F)/N for the indicator signature
        n, runs, z = 2048, 2000, 1.0
        rng = np.random.default_rng(7)
        g = (np.abs(rng.normal(0, 1, size=(runs, n))) <= z).mean(axis=1)
        F = abs_noise_cdf(z, 1.0)
        var_th = F * (1 - F) / n
        se_mean = np.sqrt(var_th / runs)
        assert abs(g.mean() - F) <= 5 * se_mean
        assert abs(g.var(ddof=1) - var_th) <= 0.2 * var_th

    def test_general_signature_variance_scaling(self):
        # var of the N-average is the per-sample variance over N, for a
        # bounded non-indicator signature (Gaussian kernel, closed form).
        n, runs, z, sigma = 1024, 2000, 0.8, 1.0
        rng = np.random.default_rng(11)
        v = rng.normal(0, sigma, size=(runs, n))
        g = np.exp(-(v**2) / (2 * z**2)).mean(axis=1)
        mean_th = z / np.sqrt(z**2 + sigma**2)
        second_th = z / np.sqrt(z**2 + 2 * sigma**2)
        var_th = (second_th - mean_th**2) / n
        se_mean = np.sqrt(var_th / runs)
        se_var = var_th * np.sqrt(2.0 / (runs - 1))
        assert abs(g.mean() - mean_th) <= 5 * se_mean
        assert abs(g.var(ddof=1) - var_th) <= 5 * se_var

    def test_shifted_coefficient_mean(self):
        # mean of the indicator curve for Theta = theta_bar + V equals H
        n, runs, theta, sigma = 2048, 500, 1.5, 1.0
        rng = np.random.default_rng(13)
        shifted = np.abs(theta + rng.normal(0, sigma, size=(runs, n)))
        for z in (0.5, 1.5, 2.5):
            H = shifted_abs_cdf(z, theta, sigma)
            se = np.sqrt(H * (1 - H) / (runs * n))
            assert abs((shifted <= z).mean() - H) <= 5 * se


class TestExpectedNoisyCurve:
    """The expected sorted curve of coefficients ``theta_i + V_i`` with
    independent noise is ``(1/N) sum_i H(z, theta_i)``."""

    def test_separation_from_noise_band(self):
        # Noisy sparse-signal coefficients: the expected curve drops below
        # the noise band's lower edge over an intermediate z range.
        from nide.signals import gen_signal
        from nide.wavelet import dwt_forward

        truth = gen_signal("blocks", 2048).samples
        coeffs = dwt_forward(truth, 5).detail_values()
        sigma = np.linalg.norm(truth) * 10 ** (-5 / 20) / np.sqrt(2048)
        z = np.linspace(0, 6 * sigma, 120)
        mean = shifted_abs_cdf(z[:, None], coeffs[None, :], sigma).mean(axis=1)
        band = white_band(z, sigma, coeffs.size, 4.5)
        below = mean < band.lower - 1e-9
        assert below.any()


class TestCorrelationProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationProfile(rho=np.array([0.9, 0.5]))
        with pytest.raises(ValueError):
            CorrelationProfile(rho=np.array([1.0, 1.4]))
        assert CorrelationProfile(rho=np.array([1.0, 1.0 + 1e-13])).rho[1] == 1.0

    @pytest.mark.parametrize("rho", [[], np.empty(0), [[1.0, 0.5]]], ids=["list", "array", "2-D"])
    def test_rejects_an_empty_or_2d_rho(self, rho):
        with pytest.raises(ValueError, match="^rho must be a nonempty 1-D sequence$"):
            CorrelationProfile(rho=rho)

    def test_bound_truncates_small_and_out_of_range_lags(self):
        z = np.linspace(0.0, 4.0, 41)
        F = abs_noise_cdf(z, 1.3)
        # every lag below RHO_TRUNCATION = 1e-6: exactly the white variance
        small = CorrelationProfile(rho=np.array([1.0, 9e-7, -9e-7]))
        assert np.array_equal(colored_variance_bound(z, 1.3, small, 64), F * (1.0 - F) / 64)
        # a lag at k >= n adds nothing: lag 2 is out of range at n = 2
        far = CorrelationProfile(rho=np.array([1.0, 0.0, 0.9]))
        assert np.array_equal(colored_variance_bound(z, 1.3, far, 2), F * (1.0 - F) / 2)
        assert np.all(colored_variance_bound(z[1:-1], 1.3, far, 3) > F[1:-1] * (1.0 - F[1:-1]) / 3)

    @pytest.mark.parametrize("rho", [[1.0, np.nan, 0.5], [np.nan], [1.0, -np.inf]])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be finite"):
            CorrelationProfile(rho=np.array(rho))


def per_lag_variance_bound(z, sigma, profile, n):
    """The variance bound as one pass per lag, written out independently: the
    reference ``colored_variance_bound`` must match in every bit."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    F = abs_noise_cdf(z, sigma)
    var = F * (1.0 - F) / n
    rho = profile.rho
    for k in range(1, min(rho.size, n)):
        r = rho[k]
        if abs(r) < 1e-6:
            continue
        if 1.0 + r > 0:
            t_plus = abs_noise_cdf(np.sqrt(2.0) * z / np.sqrt(1.0 + r), sigma)
        else:
            t_plus = np.ones_like(z)
        if 1.0 - r > 0:
            t_minus = abs_noise_cdf(np.sqrt(2.0) * z / np.sqrt(1.0 - r), sigma)
        else:
            t_minus = np.ones_like(z)
        var = var + (2.0 * (n - k) / n**2) * (t_plus * t_minus - F * F)
    return var


class TestColoredVarianceBound:
    @pytest.mark.parametrize(
        "rho, n, points",
        [
            (theoretical_profile(NoiseSpec.ar1(0.8), 2047).rho, 2048, 1984),
            (theoretical_profile(NoiseSpec.ar1(-0.6), 2047).rho, 2048, 64),
            (theoretical_profile(NoiseSpec.ma([1.0, 0.5, 0.25]), 2047).rho, 2048, 300),
            (np.array([1.0, 1.0, -1.0, 0.4, 1e-7, -0.2]), 5, 257),
            (np.array([1.0, 1.0, -1.0, 0.4, 1e-7, -0.2]), 3, 10),
            # 1374 active lags x 4096 points
            (theoretical_profile(NoiseSpec.ar1(0.99), 4095).rho, 4096, 4096),
        ],
    )
    def test_matches_per_lag_loop_exactly(self, rho, n, points):
        profile = CorrelationProfile(rho=rho)
        z = np.sort(np.abs(np.random.default_rng(points).normal(0.0, 1.7, points)))
        z[0] = 0.0
        expected = per_lag_variance_bound(z, 1.7, profile, n)
        assert np.array_equal(colored_variance_bound(z, 1.7, profile, n), expected)

    def test_white_profile_reduces_exactly(self):
        z = np.linspace(0.1, 4, 30)
        prof = CorrelationProfile(rho=np.array([1.0, 0.0, 0.0]))
        F = abs_noise_cdf(z, 1.0)
        assert np.allclose(
            colored_variance_bound(z, 1.0, prof, 512), F * (1 - F) / 512, atol=1e-15
        )

    def test_dominates_white_variance_for_positive_rho(self):
        z = np.linspace(0.1, 4, 30)
        prof = theoretical_profile(NoiseSpec.ar1(0.8), 64)
        F = abs_noise_cdf(z, 1.0)
        assert np.all(colored_variance_bound(z, 1.0, prof, 1024) >= F * (1 - F) / 1024)

    def test_unit_correlation_limit(self):
        # rho = 1 reproduces the single-variable variance F(1-F) contribution
        prof = CorrelationProfile(rho=np.array([1.0, 1.0]))
        n = 2
        z = 1.0
        F = abs_noise_cdf(z, 1.0)
        # var = F(1-F)/2 + (2*1/4) * (F*1 - F^2) = F(1-F)
        assert colored_variance_bound(z, 1.0, prof, n) == pytest.approx(F * (1 - F))

    def test_monte_carlo_variance_below_bound(self):
        # AR(1) noise: sample variance of the curve never exceeds the bound
        # except possibly at isolated grid points at MC resolution.
        n, runs = 1024, 800
        spec = NoiseSpec.ar1(0.8)
        zs = np.linspace(0.15, 4.0, 25)
        g = np.empty((runs, zs.size))
        for i, noise in enumerate(gen_noise(spec, n, range(50_000, 50_000 + runs))):
            v = np.sort(np.abs(noise))
            g[i] = np.searchsorted(v, zs, side="right") / n
        bound = colored_variance_bound(zs, 1.0, theoretical_profile(spec, n - 1), n)
        assert np.sum(g.var(axis=0, ddof=1) > bound) <= 1


class TestColoredBand:
    def test_white_profile_matches_white_band(self):
        z = np.linspace(0, 5, 50)
        prof = CorrelationProfile(rho=np.array([1.0, 0.0]))
        cb = colored_band(z, 1.0, prof, 1024, 4.5)
        wb = white_band(z, 1.0, 1024, 4.5)
        assert np.allclose(cb.lower, wb.lower)
        assert np.allclose(cb.upper, wb.upper)

    def test_wider_than_white_for_ar1(self):
        z = np.linspace(0.2, 4, 40)
        prof = theoretical_profile(NoiseSpec.ar1(0.8), 128)
        cb = colored_band(z, 1.0, prof, 1024, 4.5)
        wb = white_band(z, 1.0, 1024, 4.5)
        assert np.all(cb.upper >= wb.upper - 1e-15)
        assert np.all(cb.lower <= wb.lower + 1e-15)
        assert np.any(cb.upper > wb.upper + 1e-6)

    def test_coverage_of_correlated_noise(self):
        n, runs = 1024, 2000
        spec = NoiseSpec.ar1(0.8)
        zs = np.linspace(0.0, 4.0, 30)
        band = colored_band(zs, 1.0, theoretical_profile(spec, n - 1), n, 4.5)
        hits = np.zeros(zs.size)
        for noise in gen_noise(spec, n, range(90_000, 90_000 + runs)):
            hits += band.contains(empirical_signature(zs, noise))
        assert np.min(hits / runs) >= 0.999
