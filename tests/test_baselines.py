import numpy as np
import pytest

from nide.baselines import (
    bayes_threshold,
    denoise_with,
    sure_minimizer,
    sure_risk,
    sure_threshold,
    visu_threshold,
)
from nide.denoise import DenoiseConfig
from nide.noise_model import NoiseSpec, calibrate_noise_to_snr, gen_noise
from nide.signals import gen_signal


class TestVisuThreshold:
    def test_value(self):
        # sigma * sqrt(2 ln n); frozen arithmetic oracle
        assert visu_threshold(2048, 1.0) == pytest.approx(3.905027269087733, abs=1e-12)

    def test_zero_sigma(self):
        assert visu_threshold(2048, 0.0) == 0.0

    def test_linear_in_sigma(self):
        assert visu_threshold(1024, 2.0) == pytest.approx(2 * visu_threshold(1024, 1.0))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, [1.0, np.nan]])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            visu_threshold(64, sigma)


class TestSureThreshold:
    def test_minimizer_is_argmin_over_candidates(self):
        rng = np.random.default_rng(0)
        band = rng.normal(0, 1, 1024)
        t = sure_minimizer(band, 1.0)
        best = sure_risk(band, 1.0, t)
        for cand in np.concatenate([[0.0], np.abs(band)]):
            assert best <= sure_risk(band, 1.0, float(cand)) + 1e-9

    def test_minimizer_against_brute_force_sweep(self):
        rng = np.random.default_rng(1)
        band = rng.normal(0, 1, 256)
        band[:12] += 5.0
        t = sure_minimizer(band, 1.0)
        grid = np.linspace(0, np.max(np.abs(band)), 4000)
        grid_risks = [sure_risk(band, 1.0, g) for g in grid]
        assert sure_risk(band, 1.0, t) <= min(grid_risks) + 1e-9

    def test_dominant_coefficients_give_small_threshold(self):
        rng = np.random.default_rng(2)
        band = 10.0 + rng.normal(0, 0.1, 512)  # everything far above sigma
        assert sure_threshold(band, 1.0) < 0.5

    def test_sparse_band_falls_back_to_universal(self):
        band = np.full(1024, 1e-8)
        assert sure_threshold(band, 1.0) == pytest.approx(visu_threshold(1024, 1.0))

    def test_pure_noise_band_is_sparse_by_the_energy_test(self):
        rng = np.random.default_rng(3)
        band = rng.normal(0, 1, 1024)
        assert sure_threshold(band, 1.0) == pytest.approx(visu_threshold(1024, 1.0))

    def test_capped_at_universal(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            band = rng.normal(0, 1, 512) + rng.choice([0, 6], size=512, p=[0.9, 0.1])
            assert sure_threshold(band, 1.0) <= visu_threshold(512, 1.0) + 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        band = rng.normal(0, 1, 512)
        band[:40] += 4.0
        assert sure_threshold(3 * band, 3.0) == pytest.approx(3 * sure_threshold(band, 1.0), rel=1e-12)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            sure_threshold(np.array([0.5, -1.0, 2.0]), sigma)


class TestBayesThreshold:
    def test_pure_noise_band_killed(self):
        band = np.array([0.1, -0.2, 0.05])
        assert bayes_threshold(band, 1.0) == pytest.approx(0.2)

    def test_arithmetic_example(self):
        # band variance 2 sigma^2 with sigma=1: threshold 1/sqrt(2-1) = 1
        band = np.array([np.sqrt(2.0), -np.sqrt(2.0)] * 64)
        assert bayes_threshold(band, 1.0) == pytest.approx(1.0)

    def test_vanishing_sigma(self):
        rng = np.random.default_rng(5)
        band = rng.normal(0, 1, 256)
        assert bayes_threshold(band, 1e-6) < 1e-5

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        band = rng.normal(0, 2, 256)
        assert bayes_threshold(5 * band, 5.0) == pytest.approx(5 * bayes_threshold(band, 1.0), rel=1e-12)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        # inf would otherwise read the band as pure noise and zero it
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            bayes_threshold(np.array([0.5, -1.0, 2.0]), sigma)


class TestDenoiseWith:
    @pytest.fixture()
    def noisy_blocks(self):
        truth = gen_signal("blocks", 2048).samples
        noise = calibrate_noise_to_snr(truth, gen_noise(NoiseSpec.white(1.0), 2048, 9), 8.0)
        return truth, truth + noise

    @pytest.mark.parametrize("method", ["visu", "sure", "bayes", "nide"])
    def test_all_methods_run_and_reduce_error(self, noisy_blocks, method):
        truth, observed = noisy_blocks
        result = denoise_with(method, observed, DenoiseConfig())
        err_before = np.sum((observed - truth) ** 2)
        err_after = np.sum((result.denoised - truth) ** 2)
        assert err_after < err_before
        assert result.threshold >= 0
        assert result.sigma_used > 0

    def test_unknown_method_rejected(self, noisy_blocks):
        with pytest.raises(ValueError):
            denoise_with("hard", noisy_blocks[1], DenoiseConfig())

    def test_visu_reported_threshold(self, noisy_blocks):
        _, observed = noisy_blocks
        result = denoise_with("visu", observed, DenoiseConfig())
        assert result.threshold == pytest.approx(
            visu_threshold(observed.size, result.sigma_used)
        )

    def test_approximation_band_untouched(self, noisy_blocks):
        _, observed = noisy_blocks
        from nide.wavelet import dwt_forward

        result = denoise_with("bayes", observed, DenoiseConfig())
        before = dwt_forward(observed, 5).approx_band
        after = dwt_forward(result.denoised, 5).approx_band
        assert np.allclose(before, after, rtol=1e-9)
