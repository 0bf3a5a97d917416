import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nide.noise_model import (
    NoiseSpec,
    calibrate_noise_to_snr,
    estimate_sigma_mad,
    gen_noise,
    theoretical_profile,
)


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
