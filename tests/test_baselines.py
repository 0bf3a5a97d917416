import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nide.baselines
from nide.baselines import (
    _RULES,
    bayes_threshold,
    denoise_with,
    sure_minimizer,
    sure_threshold,
    visu_threshold,
)
from nide.denoise import DenoiseConfig, _noise_scale, _transform
from nide.noise_model import NoiseSpec, calibrate_noise_to_snr, gen_noise
from nide.signals import gen_signal
from nide.wavelet import CoefficientSet


def sure_risk(band, sigma: float, t: float) -> float:
    """Reference for ``sure_minimizer``: Stein's unbiased risk estimate of soft
    thresholding ``band`` at ``t``, ``n sigma^2 - 2 sigma^2 #{|x| <= t} + sum min(x^2, t^2)``.
    Called at sigma = 1 only; it overflows where ``sure_minimizer`` rejects sigma."""
    band = np.asarray(band, dtype=float)
    n = band.size
    below = np.count_nonzero(np.abs(band) <= t)
    return float(n * sigma**2 - 2.0 * sigma**2 * below + np.sum(np.minimum(band**2, t**2)))


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

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match=r"^sigma must be nonnegative, got -1.0$"):
            visu_threshold(64, -1.0)


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

    @pytest.mark.parametrize("sigma", [1e154, np.sqrt(np.finfo(float).max), 1e155, np.inf, np.nan,
                                       [1.0, 1e154], [1.0, np.nan]])
    def test_minimizer_rejects_a_sigma_whose_n_sigma_squared_overflows(self, sigma):
        # 4 sigma^2 overflows at 1e154 although sigma^2 does not; at 1e150 it is finite
        band = np.array([1.0, 2.0, 3.0, 4.0])
        assert sure_minimizer(band, 1e150) == 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n sigma\\^2 must be finite, got sigma"):
                sure_minimizer(np.broadcast_to(band, np.shape(sigma) + (4,)), sigma)

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

    def test_sigma_far_below_the_band_reads_dense_without_overflow_warnings(self):
        # (band / sigma)**2 overflows to inf: the band is dense, and SURE keeps everything.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sure_threshold(np.ones(64), 1e-300) == 0.0


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


@pytest.mark.parametrize("rule", [sure_threshold, bayes_threshold, sure_minimizer])
@pytest.mark.parametrize("band", [np.empty(0), np.empty((3, 0))], ids=["1-D", "rows"])
def test_empty_band_is_rejected(rule, band):
    with pytest.raises(ValueError, match="^band must be nonempty$"):
        rule(band, 1.0)


@pytest.mark.parametrize("rule", [sure_threshold, bayes_threshold])
def test_sigma_whose_square_overflows_is_rejected(rule):
    # Squared with Python's float power, a sigma above sqrt(float max) would raise OverflowError.
    band = np.array([0.5, -1.0, 2.0]) * 1e153
    largest = np.sqrt(np.finfo(float).max)
    assert np.isfinite(rule(band, largest))
    with pytest.raises(ValueError, match="sigma must be at most"):
        rule(band, np.nextafter(largest, np.inf))
    with pytest.raises(ValueError, match="sigma must be at most"):
        rule(np.stack([band, band]), [1.0, 1e155])


@pytest.mark.parametrize("method", ["sure", "bayes"])
def test_thresholds_scale_with_the_input_until_the_squares_overflow(method):
    # Noisy blocks: at 1e100 every level's threshold and the output scale with the
    # input.  At 1e153 the MAD sigma (2.02e153) is accepted but the coefficient
    # squares overflow, and the rule rejects the input rather than return
    # thresholds that are too low (Bayes 0 at every level).
    x = gen_signal("blocks", 2048).samples + 2 * np.random.default_rng(0).normal(size=2048)

    def thresholds(scale):
        coeffs = _transform(x[None] * scale, DenoiseConfig.levels)
        sigma = _noise_scale(coeffs)
        return _RULES[method](coeffs, sigma, DenoiseConfig())[0][0]

    np.testing.assert_allclose(thresholds(1e100), thresholds(1.0) * 1e100, rtol=1e-12)
    np.testing.assert_allclose(denoise_with(method, x * 1e100).denoised,
                               denoise_with(method, x).denoised * 1e100, rtol=1e-12)
    truth = gen_signal("blocks", 2048).samples
    limit = np.finfo(float).max / (4.0 * np.sqrt(2048))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the noisy input, and the noise-free one just under the magnitude limit (MAD sigma 0)
        for big in (x * 1e153, truth * (0.99 * limit / np.abs(truth).max())):
            with pytest.raises(ValueError, match="squares of the band sum past the largest float"):
                denoise_with(method, big)


def test_denoise_with_rejects_a_sigma_whose_square_overflows():
    x = gen_noise(NoiseSpec.white(1.0), 256, 2) * 1e160
    with pytest.raises(ValueError, match="sigma must be at most"):
        denoise_with("sure", x)
    with pytest.raises(ValueError, match="sigma must be at most"):
        denoise_with("bayes", x)
    for method in ("nide", "visu"):
        assert np.isfinite(denoise_with(method, x).denoised).all()


TINY = np.finfo(float).tiny
# A row's noise scale b, then each row kind's coefficients in units of b: "sparse" passes
# SURE's sparsity test, "dense" fails it, "noise-only" has a variance below Bayes's sigma^2.
SCALES = (1.0, 5.682141868614868, 0.3808171146238585)


def level_stack(rng, n, kinds, scales):
    rows = []
    for kind, b in zip(kinds, scales):
        row = b * rng.standard_normal(n) * (0.5 if kind == "noise-only" else 1.0)
        if kind == "dense":
            row[rng.choice(n, n // 8, replace=False)] += 12.0 * b
        rows.append(np.zeros(n) if kind == "zero" else row)
    return np.array(rows)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.sampled_from([64, 512, 2048]),
    rows=st.lists(st.tuples(st.sampled_from(["sparse", "dense", "noise-only", "zero"]),
                            st.sampled_from(SCALES),
                            st.sampled_from(["scale", 0.0, TINY / 4, TINY])), min_size=1, max_size=6),
)
def test_per_level_rules_equal_the_band_rules_level_by_level(seed, n, rows):
    """``_RULES["sure"]`` and ``_RULES["bayes"]`` check sigma once and run one kernel per
    level; every threshold equals that of ``sure_threshold`` and ``bayes_threshold`` on the
    level's band, stacked and row by row, in every bit, sigma below the smallest normal
    float included (the rules floor it there)."""
    kinds, scales, given_sigma = zip(*rows)
    values = level_stack(np.random.default_rng(seed), n, kinds, scales)
    sigma = np.array([b if s == "scale" else s for b, s in zip(scales, given_sigma)])
    coeffs = CoefficientSet(values, 5)
    floored = np.maximum(sigma, TINY)
    for method, threshold in (("sure", sure_threshold), ("bayes", bayes_threshold)):
        t, bands = _RULES[method](coeffs, sigma, DenoiseConfig())
        assert bands is None and t.shape == (len(rows), 5)
        for j, band in enumerate(coeffs.detail_bands):
            assert np.array_equal(t[:, j], threshold(band, floored)), (method, j)
            for i, row in enumerate(band):
                assert threshold(row, float(floored[i])) == t[i, j]


_NAN_SIGMA = r"^sigma must be finite and positive, got \[nan\]$"
_BIG_SIGMA = r"^sigma must be at most 1.34078e\+154 \(its square overflows\), got 1e\+155$"


@pytest.mark.parametrize("method, threshold", [("sure", sure_threshold), ("bayes", bayes_threshold)])
def test_per_level_rules_check_sigma_once_with_the_band_rules_messages(monkeypatch, method, threshold):
    x = gen_noise(NoiseSpec.white(), 256, 4)
    coeffs = CoefficientSet(np.stack([x, 2 * x]), 5)
    checks, check = [], nide.baselines._check_sigma
    monkeypatch.setattr(nide.baselines, "_check_sigma", lambda s: checks.append(s) or check(s))
    _RULES[method](coeffs, np.array([1.0, 2.0]), DenoiseConfig())
    assert len(checks) == 1
    for sigma, message in ((np.nan, _NAN_SIGMA), (1e155, _BIG_SIGMA)):
        with pytest.raises(ValueError, match=message):
            _RULES[method](CoefficientSet(x[None], 5), np.array([sigma]), DenoiseConfig())
        with pytest.raises(ValueError, match=message):
            threshold(x[None], np.array([sigma]))
    with pytest.raises(ValueError, match=r"^sigma must be finite and positive, got nan$"):
        denoise_with(method, x, DenoiseConfig(sigma=np.nan))
    with pytest.raises(ValueError, match=_BIG_SIGMA):
        denoise_with(method, x, DenoiseConfig(sigma=1e155))


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

    def test_sure_on_a_noise_free_input_keeps_every_coefficient_without_warnings(self):
        # the MAD sigma of blocks is 0, floored at the smallest normal float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = denoise_with("sure", gen_signal("blocks", 2048).samples)
        assert result.threshold == 0.0
        assert result.coefficients_kept == 49

    @pytest.mark.parametrize("method", ["visu", "sure", "bayes", "nide"])
    def test_sigma_used_is_the_analysed_sigma_of_a_silent_input(self, method):
        # MAD sigma is 0 here: the baselines floor it for their thresholds only.
        result = denoise_with(method, np.zeros(256), DenoiseConfig())
        assert result.sigma_used == 0.0
        assert not result.denoised.any() and result.coefficients_kept == 0

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
