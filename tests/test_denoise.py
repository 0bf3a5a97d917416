import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfinv

from nide.baselines import denoise_with
from nide.bench import ExperimentConfig
from nide.denoise import DenoiseConfig, denoise, select_threshold, soft_threshold
from nide.noise_model import (NoiseSpec, _level_ratios, calibrate_noise_to_snr, gen_noise,
                              theoretical_profile)
from nide.signals import gen_signal
from nide.signature import CorrelationProfile, colored_band, white_band
from nide.wavelet import dwt_forward, dwt_inverse

denoise_module = importlib.import_module("nide.denoise")

SPECS = {"ar1(0.8)": NoiseSpec.ar1(0.8), "ar1(-0.6)": NoiseSpec.ar1(-0.6),
         "ma": NoiseSpec.ma([1.0, 0.5, 0.25])}
PROFILES = {name: theoretical_profile(spec, 2047) for name, spec in SPECS.items()}


def full_band(coeffs, sigma, lam, profile):
    """The white band over the sorted detail magnitudes of ``coeffs``, each level
    divided by its noise ratio under a ``profile``."""
    ratios = np.ones(coeffs.levels) if profile is None else _level_ratios(profile, coeffs.levels)
    a = np.sort(np.concatenate([np.abs(b) / r for b, r in zip(coeffs.detail_bands, ratios)]))
    return white_band(a, sigma, a.size, lam)


def reference_threshold(coeffs, sigma, n, lam):
    """Last sorted |coefficient| whose midpoint position lies in the full band."""
    a = np.sort(np.abs(np.asarray(coeffs, dtype=float)))
    g_mid = (np.arange(1, a.size + 1) - 0.5) / a.size
    inside = np.nonzero(white_band(a, sigma, n, lam).contains(g_mid))[0]
    return float(a[inside[-1]]) if inside.size else 0.0


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold([5.0], 2.0)[0] == 3.0
        assert soft_threshold([-5.0], 2.0)[0] == -3.0
        assert soft_threshold([1.5], 2.0)[0] == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.array([0.1, -4.0, 2.0])
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold([1.0, -2.0, 3.0], np.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold([[1.0], [2.0]], [[0.5], [np.nan]])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.floats(0, 1e6),
    )
    def test_shrink_identity_and_contraction(self, values, t):
        x = np.asarray(values)
        out = soft_threshold(x, t)
        assert np.allclose(np.abs(out), np.maximum(np.abs(x) - t, 0.0))
        assert np.all(np.abs(out) <= np.abs(x))
        nonzero = out != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(x[nonzero]))

    @pytest.mark.parametrize("shape", ["scalar", "per-row", "per-coefficient"])
    @pytest.mark.parametrize("target", ["fresh", "in-place", "separate"])
    def test_equals_sign_times_excess(self, shape, target):
        """Same values as ``sgn(c) max(|c| - t, 0)``, including ties |c| = t,
        t = 0 and signed zeros; a nonzero coefficient shrunk to zero is +0.0."""
        rng = np.random.default_rng(7)
        c = rng.standard_normal((4, 12)) * 3.0
        c[:, :2] = [0.0, -0.0]
        t = {"scalar": np.float64(1.25), "per-row": np.array([[0.0], [0.5], [1.25], [40.0]]),
             "per-coefficient": np.abs(rng.standard_normal((4, 12)))}[shape]
        c[:, 2], c[:, 3] = np.broadcast_to(t, c.shape)[:, 2], -np.broadcast_to(t, c.shape)[:, 3]
        want = np.sign(c) * np.maximum(np.abs(c) - t, 0.0)
        work = c.copy()
        out = {"fresh": None, "in-place": work, "separate": np.full_like(c, np.nan)}[target]
        got = soft_threshold(work, t, out=out)
        assert np.array_equal(got, want)
        assert got is out or out is None
        assert not np.any(np.signbit(got[(got == 0.0) & (c != 0.0)]))
        if target != "in-place":
            assert np.array_equal(work, c)


class TestSelectThreshold:
    def test_pure_noise_invalidates_nearly_everything(self):
        n, hits = 2048, 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            coeffs = rng.normal(0, 1, n)
            tstar = select_threshold(coeffs, sigma=1.0, lam=4.5)
            a = np.sort(np.abs(coeffs))
            hits += tstar >= a[-40]
        assert hits >= 190  # 95% of 200 seeds

    def test_spikes_survive(self):
        n, sigma, hits = 2048, 1.0, 0
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            coeffs = rng.normal(0, sigma, n)
            idx = rng.choice(n, 20, replace=False)
            coeffs[idx] += 10 * sigma
            tstar = select_threshold(coeffs, sigma=sigma, lam=4.5)
            survivors = np.sum(np.abs(soft_threshold(coeffs, tstar)[idx]) > 0)
            hits += (tstar < 10 * sigma) and survivors == 20
        assert hits >= 190

    def test_noisy_blocks_departure_location(self):
        # the sorted curve of noisy sparse data leaves the band at a few sigma
        truth = gen_signal("blocks", 2048).samples
        rng = np.random.default_rng(77)
        noise = calibrate_noise_to_snr(truth, rng.normal(size=2048), 5.0)
        from nide.wavelet import dwt_forward

        details = dwt_forward(truth + noise, 5).detail_values()
        sigma = np.linalg.norm(noise) / np.sqrt(2048)
        tstar = select_threshold(details, sigma=sigma, lam=4.5)
        assert 1.0 <= tstar / sigma <= 5.0

    def test_scale_equivariance_exact(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(0, 1, 512)
        coeffs[:10] += 8.0
        base = select_threshold(coeffs, sigma=1.0)
        scaled = select_threshold(7.0 * coeffs, sigma=7.0)
        assert scaled == 7.0 * base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        coeffs = rng.normal(0, 1, 256)
        tstar = select_threshold(coeffs, sigma=1.0)
        assert select_threshold(coeffs[::-1], sigma=1.0) == tstar
        assert select_threshold(rng.permutation(coeffs), sigma=1.0) == tstar

    def test_inband_set_grows_with_lambda(self):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(0, 1, 512)
        coeffs[:30] += 6.0
        a = np.sort(np.abs(coeffs))
        g_mid = (np.arange(1, a.size + 1) - 0.5) / a.size
        inside = {}
        for lam in (2.0, 3.0, 4.5, 6.0):
            band = white_band(a, 1.0, a.size, lam)
            inside[lam] = set(np.nonzero(band.contains(g_mid))[0])
        assert inside[2.0] <= inside[3.0] <= inside[4.5] <= inside[6.0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            select_threshold([], sigma=1.0)
        with pytest.raises(ValueError):
            select_threshold([1.0], sigma=0.0)
        with pytest.raises(ValueError):
            select_threshold([1.0], sigma=1.0, lam=-1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: select_threshold([1.0, 2.0, 3.0], np.inf), "sigma must be finite"),
        (lambda: select_threshold([1.0, 2.0], 1.0, lam=np.nan), "lam must lie in"),
        (lambda: white_band([0.1, 0.2], 1.0, 10, np.inf), "lam must lie in"),
        (lambda: white_band([0.1], 1.0, 2.5, 4.5), "n must be an integer"),
        (lambda: DenoiseConfig(sigma=np.inf), "sigma must be finite"),
    ], ids=["select-sigma-inf", "select-lam-nan", "band-lam-inf", "band-n-fractional",
            "config-sigma-inf"])
    def test_rejects_non_finite_scale_width_and_fractional_n(self, call, message):
        """Unchecked, each gives a silent answer: threshold 0 (keep everything), a band
        of [0, 1], or a band that reports n=2 while its width uses 2.5."""
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("lam", [-1.0, 8.0 + 1e-12, 9.0, np.inf, np.nan])
    def test_lambda_has_one_range(self, lam):
        """Every entry that takes lambda rejects it outside [0, 8], the range the scan's
        inverted white band is proven for, with one message."""
        message = rf"^lam must lie in \[0, 8\], got {lam}$"
        for call in (lambda: select_threshold(np.ones(4), 1.0, lam=lam),
                     lambda: white_band([0.0, 1.0], 1.0, 10, lam),
                     lambda: colored_band([0.0, 1.0], 1.0, PROFILES["ar1(0.8)"], 10, lam),
                     lambda: DenoiseConfig(lam=lam),
                     lambda: ExperimentConfig(signals=("blocks",), snr_db=(8.0,), lam=lam)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_rejects_non_finite_input(self):
        ar1 = PROFILES["ar1(0.8)"]
        for call in (lambda: select_threshold([np.nan, 0.1, 0.2, 5.0], 1.0),
                     lambda: select_threshold([np.inf] + [0.1] * 20, 1.0),
                     lambda: white_band([0.1, np.nan], 1.0, 10, 4.5),
                     lambda: colored_band([0.1, np.inf], 1.0, ar1, 10, 4.5)):
            with pytest.raises(ValueError, match="must be finite"):
                call()


class TestBandScan:
    """The top-down blockwise scan returns exactly the last in-band point of
    the band built over the whole sorted curve."""

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(1, 3000),
        spikes=st.integers(0, 1200),
        amplitude=st.floats(0.0, 40.0),
        lam=st.sampled_from([0.0, 1.0, 3.0, 4.5, 8.0]),
        sigma=st.floats(0.05, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_band(self, size, spikes, amplitude, lam, sigma, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(0.0, sigma, size)
        coeffs[: min(spikes, size)] += amplitude * sigma
        expected = reference_threshold(coeffs, sigma, size, lam)
        assert select_threshold(coeffs, sigma, lam=lam) == expected

    def test_all_in_band(self):
        # Coefficients at the midpoint quantiles of |N(0, 1)|: the curve is F.
        m = 1000
        coeffs = np.sqrt(2.0) * erfinv((np.arange(1, m + 1) - 0.5) / m)
        tstar = select_threshold(coeffs, 1.0, lam=4.5)
        assert tstar == coeffs.max() == reference_threshold(coeffs, 1.0, m, 4.5)

    def test_none_in_band(self):
        # Every coefficient far above the noise: F = 1 and the band is {1}.
        coeffs = np.linspace(100.0, 200.0, 700)
        assert select_threshold(coeffs, 1.0, lam=4.5) == 0.0
        assert reference_threshold(coeffs, 1.0, 700, 4.5) == 0.0

    def test_threshold_several_blocks_deep(self):
        # 600 large coefficients on top of 1400 noise ones: the scan passes
        # its first blocks and reaches T* further down.
        rng = np.random.default_rng(11)
        coeffs = rng.normal(0.0, 1.0, 2000)
        coeffs[:600] = rng.uniform(20.0, 60.0, 600)
        tstar = select_threshold(coeffs, 1.0, lam=4.5)
        assert tstar == reference_threshold(coeffs, 1.0, 2000, 4.5)
        assert np.count_nonzero(np.abs(coeffs) > tstar) >= 64 + 128 + 256


class TestDenoisePipeline:
    def test_noise_free_passthrough(self):
        truth = gen_signal("blocks", 2048).samples
        result = denoise(truth, DenoiseConfig())
        rel = np.linalg.norm(result.denoised - truth) / np.linalg.norm(truth)
        assert rel < 1e-6
        assert result.threshold == 0.0
        assert result.band is None
        assert denoise_with("visu", truth).band is None

    def test_pure_noise_is_suppressed(self):
        n, hits = 2048, 0
        for seed in range(50):
            noise = gen_noise(NoiseSpec.white(1.0), n, seed)
            result = denoise(noise, DenoiseConfig())
            hits += np.sum(result.denoised**2) < 0.05 * np.sum(noise**2)
        assert hits >= 45  # 90% of seeds

    def test_pipeline_scale_equivariance(self):
        truth = gen_signal("heavysine", 1024).samples
        noise = gen_noise(NoiseSpec.white(1.0), 1024, 3)
        observed = truth + calibrate_noise_to_snr(truth, noise, 8.0)
        base = denoise(observed, DenoiseConfig())  # MAD path
        scaled = denoise(7.0 * observed, DenoiseConfig())
        assert np.allclose(scaled.denoised, 7.0 * base.denoised, rtol=1e-12, atol=1e-9)
        sigma = float(np.linalg.norm(noise) / np.sqrt(noise.size))
        known = denoise(observed, DenoiseConfig(sigma=sigma))
        known7 = denoise(7.0 * observed, DenoiseConfig(sigma=7.0 * sigma))
        assert np.allclose(known7.denoised, 7.0 * known.denoised, rtol=1e-12, atol=1e-9)
        assert known7.threshold == pytest.approx(7.0 * known.threshold, rel=1e-15)

    def test_shrinkage_is_contractive(self):
        truth = gen_signal("doppler", 1024).samples
        observed = truth + gen_noise(NoiseSpec.white(2.0), 1024, 11)
        result = denoise(observed, DenoiseConfig())
        from nide.wavelet import dwt_forward

        before = dwt_forward(observed, 5).values
        after = dwt_forward(result.denoised, 5).values
        assert np.linalg.norm(after) <= np.linalg.norm(before) + 1e-9

    def test_colored_band_configuration(self):
        spec = NoiseSpec.ar1(0.8, 1.0)
        truth = gen_signal("blocks", 2048).samples
        raw = gen_noise(spec, 2048, 21)
        scaled = calibrate_noise_to_snr(truth, raw, 8.0)
        sigma = float(np.linalg.norm(scaled) / np.linalg.norm(raw))
        profile = theoretical_profile(spec, 2047)
        colored = denoise(truth + scaled, DenoiseConfig(sigma=sigma, profile=profile))
        white = denoise(truth + scaled, DenoiseConfig(sigma=sigma))
        assert colored.threshold >= white.threshold  # wider band departs later
        assert colored.band is not None

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_colored_thresholds_stop_at_each_level_peak_and_leave_the_output(self, profile):
        """Under a profile level j gets min(T* r_j, max |c_j|).  A threshold at or
        above a level's largest magnitude zeroes the level either way, so the output
        equals the unclipped shrink T* r_j in every bit, and no reported threshold
        exceeds the largest detail magnitude."""
        spec, prof = SPECS[profile], PROFILES[profile]
        ratios, clipped = _level_ratios(prof, 5), 0
        for seed, (name, snr) in enumerate([(s, snr) for s in ("blocks", "heavysine", "doppler")
                                            for snr in (-20.0, 4.0, 14.0)]):
            truth = gen_signal(name, 2048).samples
            raw = gen_noise(spec, 2048, seed)
            scale = np.linalg.norm(truth) * 10.0 ** (-snr / 20.0) / np.linalg.norm(raw)
            x = truth + raw * scale
            result = denoise(x, DenoiseConfig(sigma=scale, profile=prof))
            coeffs = dwt_forward(x, 5)
            tstar = select_threshold(np.concatenate(
                [np.abs(b) / r for b, r in zip(coeffs.detail_bands, ratios)]), scale)
            peaks = [np.abs(b).max() for b in coeffs.detail_bands]
            clipped += any(tstar * r > peak for r, peak in zip(ratios, peaks))
            for band, r in zip(coeffs.detail_bands, ratios):
                soft_threshold(band, tstar * r, out=band)
            assert np.array_equal(result.denoised, dwt_inverse(coeffs)), (name, snr)
            assert result.threshold == max(min(tstar * r, peak) for r, peak in zip(ratios, peaks))
            assert result.threshold <= max(peaks)
        assert clipped > 0  # the clip is exercised

    @pytest.mark.parametrize("rho", [[1.0, 1.0, 0.5], [1.0, -1.0, 0.3, 1.0]])
    def test_profile_with_a_level_of_no_positive_variance_is_rejected(self, rho):
        # rho_1 = 1 makes the finest details noise free; the second sequence is
        # no autocorrelation and gives the second level a negative variance.
        config = DenoiseConfig(sigma=1.0, profile=CorrelationProfile(rho=np.array(rho)))
        with pytest.raises(ValueError, match=r"Haar level \d gets noise variance .*, not > 0"):
            denoise(gen_noise(NoiseSpec.white(), 256, 1), config)

    @pytest.mark.parametrize("method", ["nide", "visu", "sure", "bayes"])
    @pytest.mark.parametrize("observed", [np.zeros(256), np.full(256, -3.25), np.resize([-0.0, 0.0], 256),
                                          gen_noise(NoiseSpec.white(1.0), 256, 6)],
                             ids=["zeros", "constant", "signed-zeros", "noise"])
    def test_kept_count_is_the_nonzero_shrunk_details(self, method, observed, monkeypatch):
        # Exact zeros, -0.0 and the +0.0 that soft thresholding makes of shrunk
        # negatives all count as dropped, as numpy counts the float values.
        shrunk = []
        inverse = denoise_module.dwt_inverse
        monkeypatch.setattr(denoise_module, "dwt_inverse",
                            lambda coeffs: shrunk.append(coeffs.detail_values().copy()) or inverse(coeffs))
        result = denoise(observed) if method == "nide" else denoise_with(method, observed)
        assert result.coefficients_kept == np.count_nonzero(shrunk[0])
        if observed.std() > 0:  # the noise: most details shrink to zero, negatives to +0.0
            zeros = shrunk[0][shrunk[0] == 0.0]
            assert zeros.size > 100 and not np.signbit(zeros).any()

    def test_result_bookkeeping(self):
        truth = gen_signal("blocks", 2048).samples
        observed = truth + gen_noise(NoiseSpec.white(3.0), 2048, 5)
        result = denoise(observed, DenoiseConfig())
        from nide.wavelet import dwt_forward

        details = dwt_forward(observed, 5).detail_values()
        assert result.coefficients_kept == int(np.sum(np.abs(details) > result.threshold))
        assert result.threshold >= 0
        assert result.sigma_used > 0
        assert result.band.n == details.size

    @pytest.mark.parametrize("profile", [None, *sorted(PROFILES)])
    def test_band_built_on_request_equals_full_band(self, profile):
        # Under a profile the band is the white one over the standardized curve.
        profile = PROFILES.get(profile)
        truth = gen_signal("blocks", 2048).samples
        observed = truth + gen_noise(NoiseSpec.white(1.0), 2048, 8)
        config = DenoiseConfig(sigma=1.0, profile=profile)
        result = denoise(observed, config)
        expected = full_band(dwt_forward(observed, 5), 1.0, 4.5, profile)
        band = result.band
        assert band is result.band  # built once, then cached
        for name in ("z_grid", "lower", "upper", "center"):
            assert np.array_equal(getattr(band, name), getattr(expected, name)), name
        assert (band.lam, band.n) == (expected.lam, expected.n)

    @pytest.mark.parametrize("method", ["nide", "visu", "sure", "bayes"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_samples(self, method, bad):
        # The first, a middle and the last sample; alone, and beside a sample past
        # the magnitude limit of either sign.
        message = r"^observed samples must be finite; found 1 NaN or infinite value\(s\)$"
        for where, huge in ((17, 0.0), (0, 0.0), (255, 0.0), (17, 1e308), (17, -1e308)):
            observed = gen_noise(NoiseSpec.white(1.0), 256, 2)
            observed[[where, 100]] = bad, huge
            with pytest.raises(ValueError, match=message):
                denoise_with(method, observed)
            with pytest.raises(ValueError, match=message):
                denoise(observed)

    @pytest.mark.parametrize("method", ["nide", "visu", "sure", "bayes"])
    def test_rejects_a_2d_input(self, method):
        observed = gen_noise(NoiseSpec.white(1.0), 64, [1, 2])
        message = r"^observed must be a 1-D sample vector, got shape \(2, 64\)$"
        with pytest.raises(ValueError, match=message):
            denoise_with(method, observed)
        with pytest.raises(ValueError, match=message):
            denoise(observed)

    @pytest.mark.parametrize("method", ["nide", "visu", "sure", "bayes"])
    def test_samples_whose_haar_sums_overflow_are_rejected(self, method):
        # Blocks at a peak of 1.7e308, where (x[2i] + x[2i+1]) overflows to inf, of
        # either sign, and noise with one sample of either sign just past the limit.
        limit = np.finfo(float).max / (4.0 * np.sqrt(2048))
        message = (rf"^observed samples must be at most {re.escape(f'{limit:.6g}')} in magnitude "
                   r"at N = 2048, or the Haar transform overflows$")
        truth = gen_signal("blocks", 2048).samples
        noise = gen_noise(NoiseSpec.white(1.0), 2048, 3)
        for x in (truth * (1.7e308 / np.abs(truth).max()), truth * (-1.7e308 / np.abs(truth).max()),
                  np.where(np.arange(2048) == 9, np.nextafter(limit, np.inf), noise),
                  np.where(np.arange(2048) == 2047, -np.nextafter(limit, np.inf), noise)):
            with pytest.raises(ValueError, match=message):
                denoise_with(method, x)
            with pytest.raises(ValueError, match=message):
                denoise(x)

    @pytest.mark.parametrize("method", ["nide", "visu"])
    def test_samples_at_the_magnitude_limit_give_finite_output(self, method):
        # A constant (largest approximations), alternating signs (largest details)
        # and noisy blocks, each with its peak at the limit.
        limit = np.finfo(float).max / (4.0 * np.sqrt(2048))
        noisy = gen_signal("blocks", 2048).samples + gen_noise(NoiseSpec.white(1.0), 2048, 4)
        for x in (np.full(2048, limit), np.resize([limit, -limit], 2048),
                  noisy * (limit / np.abs(noisy).max())):
            assert np.isfinite(denoise_with(method, x).denoised).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DenoiseConfig(levels=0)
        with pytest.raises(ValueError, match="levels must be an integer"):
            DenoiseConfig(levels=2.5)
        with pytest.raises(ValueError):
            DenoiseConfig(lam=9.0)
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=-1.0)
        with pytest.raises(TypeError):
            DenoiseConfig(threshold_scope="all")  # every rule thresholds the details
        with pytest.raises(ValueError):
            denoise(np.ones(100), DenoiseConfig())  # non-dyadic length
