import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nide.bench import ExperimentConfig
from nide.gaussian_stats import abs_noise_cdf
from nide.noise_model import (
    SNR_DB_MIN,
    NoiseSpec,
    _level_ratios,
    calibrate_noise_to_snr,
    estimate_sigma_mad,
    gen_noise,
    theoretical_profile,
)
from nide.signature import CorrelationProfile
from nide.wavelet import dwt_forward


class TestNoiseSpec:
    def test_parse_roundtrip(self):
        for text in ("white", "ar1:0.8", "ma:1,0.5,0.25"):
            assert NoiseSpec.parse(text).describe() == text

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec.ar1(1.0)
        with pytest.raises(ValueError):
            NoiseSpec.white(0.0)
        with pytest.raises(ValueError):
            NoiseSpec.ma([])
        with pytest.raises(ValueError):
            NoiseSpec.parse("pink:1")

    @pytest.mark.parametrize("make, field", [
        (lambda: NoiseSpec.white(np.inf), "sigma"),
        (lambda: NoiseSpec.parse("ma:1,nan"), "ma taps"),
        (lambda: NoiseSpec.ma([1.0, np.inf]), "ma taps"),
    ])
    def test_rejects_non_finite_fields(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

    @pytest.mark.parametrize("taps, energy", [([1.0, 1e308], "inf"), ([1e-200, 1e-200], "0")])
    def test_rejects_taps_whose_squares_overflow_or_underflow(self, taps, energy):
        """Finite, nonzero taps whose sum of squares is inf or 0 would give zero or NaN
        noise; they are rejected, and the message names the taps."""
        with pytest.raises(ValueError, match=rf"sum of squares .* got {energy} for taps \[") as err:
            NoiseSpec.ma(taps)
        assert str(np.asarray(taps)) in str(err.value)

    @pytest.mark.parametrize("make, message", [
        (lambda: NoiseSpec("pink"), "^unknown noise kind 'pink'$"),
        (lambda: NoiseSpec.ma([[1.0, 0.5], [0.2, 0.1]]), r"^ma taps must be a 1-D sequence, got shape \(2, 2\)$"),
        (lambda: NoiseSpec.ma(np.ones((1, 3))), r"^ma taps must be a 1-D sequence, got shape \(1, 3\)$"),
    ], ids=["unknown-kind", "2-D-taps", "row-of-taps"])
    def test_rejection_messages(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_ma_specs_compare_and_hash_by_value(self):
        """MA taps are kept as a tuple of floats: specs built from a list, an array or
        parsed text compare equal and hash alike, and so do experiments that hold them."""
        spec = NoiseSpec.ma([1.0, 0.5])
        assert spec.ma_taps == (1.0, 0.5) and all(type(t) is float for t in spec.ma_taps)
        for same in (NoiseSpec.ma(np.array([1.0, 0.5])), NoiseSpec.ma((1, 0.5)), NoiseSpec.parse("ma:1,0.5")):
            assert same == spec and hash(same) == hash(spec)
        for other in (NoiseSpec.ma([1.0, 0.25]), NoiseSpec.ma([1.0, 0.5, 0.0]), NoiseSpec.ma([1.0, 0.5], 2.0),
                      NoiseSpec.white(), NoiseSpec.ar1(0.5)):
            assert other != spec
        assert NoiseSpec.ma(2.0).ma_taps == (2.0,)
        assert len({spec, NoiseSpec.ma([1.0, 0.5]), NoiseSpec.ma([1.0, 0.25])}) == 2
        config = ExperimentConfig(signals=("blocks",), snr_db=(8.0,), noise=spec, sigma_policy="known")
        assert config == ExperimentConfig(signals=("blocks",), snr_db=(8.0,), noise=NoiseSpec.ma([1.0, 0.5]),
                                          sigma_policy="known")
        assert config != ExperimentConfig(signals=("blocks",), snr_db=(8.0,), noise=NoiseSpec.ma([1.0, 0.25]),
                                          sigma_policy="known")


class TestGenNoise:
    def test_deterministic(self):
        spec = NoiseSpec.ar1(0.5, 2.0)
        a = gen_noise(spec, 512, seed=7)
        b = gen_noise(spec, 512, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_noise(spec, 512, seed=8))

    def test_white_moments(self):
        x = gen_noise(NoiseSpec.white(1.0), 100_000, seed=1)
        assert abs(x.mean()) < 0.02
        assert x.var() == pytest.approx(1.0, rel=0.02)

    def test_ar1_lag_one_autocorrelation(self):
        x = gen_noise(NoiseSpec.ar1(0.8, 1.0), 100_000, seed=2)
        x = x - x.mean()
        rho1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert rho1 == pytest.approx(0.8, abs=0.02)
        assert x.var() == pytest.approx(1.0, rel=0.03)

    def test_ar1_marginal_variance_exact_at_start(self):
        # stationary initialization: the first samples are not transient
        first = gen_noise(NoiseSpec.ar1(0.9, 2.0), 4, seed=range(4000))[:, 0]
        assert first.var() == pytest.approx(4.0, rel=0.1)

    def test_ma_marginal_variance(self):
        x = gen_noise(NoiseSpec.ma([1.0, 1.0], 3.0), 100_000, seed=3)
        assert x.var() == pytest.approx(9.0, rel=0.03)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            gen_noise(NoiseSpec.white(), 0, seed=0)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be at least 0, got -1"),
        ([3, 2.5], "seed must be an integer, got 2.5"),
        ([0, -2], "seed must be at least 0, got -2"),
        ("7", "seed must be an integer, got '7'"),
    ])
    @pytest.mark.parametrize("spec", [NoiseSpec.white(), NoiseSpec.ar1(0.8), NoiseSpec.ma([1.0, 0.5])],
                             ids=["white", "ar1", "ma"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, spec, seed, message):
        # One message, as ExperimentConfig and mc_validate give, not numpy's traceback.
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_noise(spec, 8, seed)

    @pytest.mark.parametrize("spec", [
        NoiseSpec.white(), NoiseSpec.ar1(0.8), NoiseSpec.ar1(-0.6, 2.0), NoiseSpec.ma([1.0, 0.5, -0.2]),
    ], ids=["white", "ar1", "ar1-neg", "ma"])
    @pytest.mark.parametrize("n", [1, 4, 2048])
    def test_seed_list_stacks_the_single_seed_rows(self, spec, n):
        seeds = [0, 7, 2**63 + 5, 123]
        got = gen_noise(spec, n, seeds)
        want = np.stack([gen_noise(spec, n, s) for s in seeds])
        assert got.shape == (len(seeds), n)
        assert got.tobytes() == want.tobytes()
        assert gen_noise(spec, n, range(3)).tobytes() == gen_noise(spec, n, [0, 1, 2]).tobytes()
        assert gen_noise(spec, n, []).shape == (0, n)
        assert gen_noise(spec, n, 7).shape == (n,)
        assert gen_noise(spec, n, np.int64(7)).tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("a, sigma, seed", [
        (0.8, 1.0, 0), (0.8, 2.5, 11), (-0.6, 1.0, 3), (0.99, 0.3, 7), (-0.95, 4.0, 123), (0.0, 1.0, 5),
    ])
    def test_ar1_equals_its_recurrence_bit_for_bit(self, a, sigma, seed):
        rng = np.random.default_rng(seed)  # the generator's own draws
        e = rng.normal(0.0, sigma * np.sqrt(1.0 - a * a), 300)
        x_prev = rng.normal(0.0, sigma)
        want = np.empty_like(e)
        want[0] = a * x_prev + e[0]
        for k in range(1, e.size):
            want[k] = e[k] + a * want[k - 1]
        got = gen_noise(NoiseSpec.ar1(a, sigma), 300, seed=seed)
        assert got.tobytes() == want.tobytes()


# The first 16 hex digits of the SHA-256 of gen_noise(spec, 2048, 7), of
# gen_noise(spec, 2048, [1, 2, 3]) and of theoretical_profile(spec, 2047).rho, each as
# native float64 bytes.  ma:2 draws at std 1/2 and doubles, so its noise equals white's in
# every bit; drawn at std 1/2 without the filter, it would not.
NOISE_PINS = {
    "white": (NoiseSpec.white(), ("611d9f6475a5feb7", "c2bfabf724068e54", "9e97833609b18418")),
    "white-sigma3": (NoiseSpec.white(3.0), ("2e183e2e147fdb50", "cb43b6ab9c92c4da", "9e97833609b18418")),
    "ar1(0.8)": (NoiseSpec.ar1(0.8), ("16cadd8536480b0a", "4358f29963dc15f1", "80e6a355f176d84a")),
    "ar1(-0.6)": (NoiseSpec.ar1(-0.6), ("061880d53e15d5fc", "1458eb077a972c09", "58567cd53a828470")),
    "ma(1,0.5,0.25)": (NoiseSpec.ma([1.0, 0.5, 0.25]),
                       ("1fa064d2145fe759", "e673fbd1d5d668f7", "28dc2cb708c0e086")),
    "ma:2": (NoiseSpec.parse("ma:2"), ("611d9f6475a5feb7", "c2bfabf724068e54", "9e97833609b18418")),
}


@pytest.mark.parametrize("name", sorted(NOISE_PINS))
def test_noise_and_profile_bits_are_pinned(name):
    """Every noise kind draws and correlates in the same bits as recorded: a change to how
    a kind is drawn or filtered (a one-tap filter skipped, an innovation scale rounded
    another way, the AR start value drawn first) moves a digest."""
    spec, pins = NOISE_PINS[name]
    arrays = (gen_noise(spec, 2048, 7), gen_noise(spec, 2048, [1, 2, 3]), theoretical_profile(spec, 2047).rho)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays) == pins


_SCIPY_SIGNAL_PROBE = """
import sys
import numpy as np
from nide import ExperimentConfig, NoiseSpec, denoise, denoise_with, gen_noise, run_experiment
x = gen_noise(NoiseSpec.white(), 256, seed=0) + np.repeat([0.0, 4.0], 128)
denoise(x)
denoise_with("sure", x)
gen_noise(NoiseSpec.ma([1.0, 0.5]), 256, seed=1)
gen_noise(NoiseSpec.ar1(0.8), 256, seed=2)
gen_noise(NoiseSpec.ar1(0.8), 256, seed=[3, 4])
run_experiment(ExperimentConfig(signals=("blocks",), snr_db=(8.0,), noise=NoiseSpec.ar1(0.8),
                                trials=1, n=256, levels=4, sigma_policy="known"))
print("scipy.signal" in sys.modules)
"""


def test_scipy_signal_is_never_loaded():
    """A fresh interpreter: importing the package, denoising, drawing white, MA and
    AR(1) noise (one seed and a seed list) and an AR(1) benchmark matrix all leave
    ``scipy.signal`` unloaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_SIGNAL_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


class TestTheoreticalProfile:
    def test_white(self):
        prof = theoretical_profile(NoiseSpec.white(), 5)
        assert np.allclose(prof.rho, [1, 0, 0, 0, 0, 0])

    def test_ar1_powers(self):
        prof = theoretical_profile(NoiseSpec.ar1(0.8), 4)
        assert prof.rho[3] == pytest.approx(0.512)
        assert np.allclose(prof.rho, 0.8 ** np.arange(5))

    def test_ma_tap_autocorrelation(self):
        prof = theoretical_profile(NoiseSpec.ma([1.0, 1.0]), 4)
        assert np.allclose(prof.rho, [1.0, 0.5, 0.0, 0.0, 0.0])

    def test_matches_sample_autocorrelation(self):
        spec = NoiseSpec.ma([1.0, -0.6, 0.3])
        x = gen_noise(spec, 200_000, seed=4)
        x = x - x.mean()
        sample = [np.dot(x[: x.size - k], x[k:]) / np.dot(x, x) for k in range(6)]
        assert np.allclose(sample, theoretical_profile(spec, 5).rho, atol=0.02)


def haar_filter_variance(rho, j):
    """h^T R h for the level-j Haar detail filter, with R built from ``rho``
    (zero past its end) as a dense Toeplitz matrix."""
    m = 2 ** (j - 1)
    h = np.concatenate([np.full(m, 1.0), np.full(m, -1.0)]) / np.sqrt(2 * m)
    r = np.zeros(2 * m)
    r[: min(2 * m, rho.size)] = rho[: 2 * m]
    R = r[np.abs(np.subtract.outer(np.arange(2 * m), np.arange(2 * m)))]
    return h @ R @ h


class TestLevelRatios:
    @pytest.mark.parametrize("rho", [
        theoretical_profile(NoiseSpec.ar1(0.8), 2047).rho,
        theoretical_profile(NoiseSpec.ar1(-0.6), 2047).rho,
        theoretical_profile(NoiseSpec.ma([1.0, 0.5, 0.25]), 2047).rho,
        np.array([1.0, 0.5, 0.3]),  # shorter than every filter past the first level
        np.array([1.0]),  # white: every ratio is 1
    ], ids=["ar1(0.8)", "ar1(-0.6)", "ma", "short", "white"])
    def test_equals_the_filter_quadratic_form(self, rho):
        ratios = _level_ratios(CorrelationProfile(rho=rho), 9)
        want = [haar_filter_variance(rho, j) for j in range(1, 10)]
        assert np.allclose(ratios**2, want, rtol=0.0, atol=4e-15)

    def test_ar1_values(self):
        # The Haar detail std under ar1(0.8), finest to coarsest, in marginal sigmas.
        ratios = _level_ratios(theoretical_profile(NoiseSpec.ar1(0.8), 2047), 5)
        assert np.round(ratios, 3).tolist() == [0.447, 0.71, 1.163, 1.763, 2.322]

    def test_standardized_pool_follows_the_white_model_only_with_each_levels_sigma(self):
        """Pure ar1(0.8) noise with known sigma, N = 2048 at 5 levels, 2000 draws.  With
        each level divided by sigma_j, the pooled curve's mean at z lies within 4 standard
        errors of F(z).  Its variance is 1.0-1.26 times the white model's F (1 - F) / N
        (coefficients of one draw stay correlated across and within levels, so a band of
        lam = 4.5 acts like one of about 4.0 there); it is held to [0.9, 1.35].  Divided by
        the marginal sigma, the mean lies hundreds of standard errors off F and the variance
        leaves that range."""
        spec, n, levels, runs = NoiseSpec.ar1(0.8), 2048, 5, 2000
        coeffs = dwt_forward(gen_noise(spec, n, list(range(runs))), levels)
        z = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5])
        center = abs_noise_cdf(z, 1.0)

        def moments(ratios):
            pooled = np.concatenate([np.abs(b) / r for b, r in zip(coeffs.detail_bands, ratios)], axis=-1)
            curve = np.stack([np.mean(pooled <= point, axis=-1) for point in z], axis=-1)
            white_var = center * (1.0 - center) / pooled.shape[-1]
            mean_error = (curve.mean(axis=0) - center) / np.sqrt(curve.var(axis=0, ddof=1) / runs)
            return np.abs(mean_error), curve.var(axis=0, ddof=1) / white_var

        errors, var_ratio = moments(_level_ratios(theoretical_profile(spec, n - 1), levels))
        assert np.all(errors < 4.0), errors
        assert np.all((0.9 <= var_ratio) & (var_ratio <= 1.35)), var_ratio
        errors, var_ratio = moments(np.ones(levels))
        assert np.all(errors > 30.0), errors
        assert not np.all((0.9 <= var_ratio) & (var_ratio <= 1.35)), var_ratio


class TestCalibrateNoise:
    def test_zero_db_matches_norms(self):
        rng = np.random.default_rng(0)
        signal, noise = rng.normal(size=256), rng.normal(size=256)
        scaled = calibrate_noise_to_snr(signal, noise, 0.0)
        assert np.linalg.norm(scaled) == pytest.approx(np.linalg.norm(signal), rel=1e-12)

    def test_exact_ratio(self):
        from nide.signals import gen_signal

        signal = gen_signal("blocks", 2048).samples
        noise = np.random.default_rng(5).normal(size=2048)
        scaled = calibrate_noise_to_snr(signal, noise, 8.0)
        ratio = 10 * np.log10(np.sum(signal**2) / np.sum(scaled**2))
        assert ratio == pytest.approx(8.0, abs=1e-9)

    def test_each_row_of_a_stack_lands_at_the_target(self):
        from nide.signals import gen_signal

        signal = gen_signal("blocks", 2048).samples
        noise = gen_noise(NoiseSpec.white(), 2048, range(100))
        scaled = calibrate_noise_to_snr(signal, noise, 8.0)
        snr = 10 * np.log10(np.sum(signal**2) / np.sum(scaled**2, axis=-1))
        assert np.all(np.abs(snr - 8.0) < 1e-9)
        assert np.array_equal(scaled[7], calibrate_noise_to_snr(signal, noise[7], 8.0))

    def test_rejects_a_stack_with_a_zero_energy_row(self):
        noise = np.ones((3, 8))
        noise[1] = 0.0
        with pytest.raises(ValueError, match="zero energy"):
            calibrate_noise_to_snr(np.ones(8), noise, 3.0)

    @given(st.floats(-20, 40), st.floats(-20, 40))
    def test_scale_monotone_in_snr(self, a, b):
        rng = np.random.default_rng(1)
        signal, noise = rng.normal(size=64), rng.normal(size=64)
        na = np.linalg.norm(calibrate_noise_to_snr(signal, noise, a))
        nb = np.linalg.norm(calibrate_noise_to_snr(signal, noise, b))
        if a < b:
            assert na >= nb

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        signal, noise = rng.normal(size=128), rng.normal(size=128)
        one = calibrate_noise_to_snr(signal, noise, 6.0)
        two = calibrate_noise_to_snr(2 * signal, noise, 6.0)
        assert np.allclose(two, 2 * one, rtol=1e-12)

    @pytest.mark.parametrize("signal, noise, snr_db, what", [
        (np.ones(4), np.arange(4.0), np.nan, "snr_db"),
        (np.ones(4), np.arange(4.0), np.inf, "snr_db"),
        (np.array([1.0, np.nan, 1.0, 1.0]), np.arange(4.0), 3.0, "signal"),
        (np.ones(4), np.array([0.0, 1.0, np.inf, 3.0]), 3.0, "noise"),
    ])
    def test_rejects_non_finite_input(self, signal, noise, snr_db, what):
        with pytest.raises(ValueError, match=f"{what} must be finite"):
            calibrate_noise_to_snr(signal, noise, snr_db)

    def test_rejects_zero_energy(self):
        with pytest.raises(ValueError):
            calibrate_noise_to_snr(np.zeros(8), np.ones(8), 3.0)
        with pytest.raises(ValueError):
            calibrate_noise_to_snr(np.ones(8), np.zeros(8), 3.0)

    def test_snr_bound_is_the_experiments(self):
        # -7000 dB had overflowed Python's float power; ExperimentConfig has the same bound
        with pytest.raises(ValueError, match=f"snr_db must be finite and at least {SNR_DB_MIN:g}"):
            calibrate_noise_to_snr(np.ones(8), np.arange(8.0), -7000.0)
        assert np.isfinite(calibrate_noise_to_snr(np.ones(8), np.arange(8.0), SNR_DB_MIN)).all()


class TestMadEstimator:
    def test_constant_band(self):
        assert estimate_sigma_mad([3.0, -3.0, 3.0]) == pytest.approx(3.0 / 0.6745)

    def test_three_point_example(self):
        # |coeffs| = [1, 0, 1], median 1
        assert estimate_sigma_mad([-1.0, 0.0, 1.0]) == pytest.approx(1 / 0.6745, abs=1e-12)
        assert estimate_sigma_mad([-1.0, 0.0, 1.0]) == pytest.approx(1.4825796886582654)

    def test_even_length_uses_central_mean(self):
        assert estimate_sigma_mad([1.0, 3.0]) == pytest.approx(2.0 / 0.6745)

    def test_consistency_on_gaussian_bands(self):
        sigma, hits = 2.0, 0
        for seed in range(500):
            rng = np.random.default_rng(seed)
            est = estimate_sigma_mad(rng.normal(0, sigma, 2048))
            hits += abs(est - sigma) / sigma < 0.05
        assert hits >= 450  # 90% of seeds within 5%

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            estimate_sigma_mad([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN would sort last and leave a median of the finite values
        with pytest.raises(ValueError, match="must be finite"):
            estimate_sigma_mad([bad, 1.0, 2.0])
