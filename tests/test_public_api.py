"""The package's public names, and the functions the benchmark tracer wraps."""

from pathlib import Path

import numpy as np
import pytest

import nide
from nide.baselines import denoise_with, visu_threshold
from nide.bench import ExperimentConfig, lambda_sweep, mc_validate
from nide.denoise import DenoiseConfig, denoise, select_threshold
from nide.noise_model import NoiseSpec, gen_noise, theoretical_profile
from nide.signals import gen_signal
from nide.signature import white_band
from nide.wavelet import dwt_forward

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", nide.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(nide, name) is not None


def test_tracer_wraps_and_restores_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    inst = tracer.Instrumentation()  # looks up every traced nide.<module>.<fn>

    def traced():
        return {m: [getattr(inst.modules[m], fn) for fn in fns] for m, fns in tracer.TRACED.items()}

    originals = traced()
    inst.install(tracer.SpanRecorder())
    try:
        wrapped = traced()
    finally:
        inst.uninstall()
    for m, fns in originals.items():
        assert not any(a is b for a, b in zip(fns, wrapped[m])), m
    assert traced() == originals


@pytest.mark.parametrize("noise", ["white", "ar1:0.8"])
def test_denoise_with_nide_is_denoise(noise):
    spec = NoiseSpec.parse(noise)
    x = gen_signal("blocks", 1024).samples + 2.0 * gen_noise(spec, 1024, 3)
    profile = None if noise == "white" else theoretical_profile(spec, 1023)
    config = DenoiseConfig(profile=profile)
    a, b = denoise_with("nide", x, config), denoise(x, config)
    assert a.threshold == b.threshold and a.sigma_used == b.sigma_used
    assert a.coefficients_kept == b.coefficients_kept
    assert a.denoised.tobytes() == b.denoised.tobytes()


def _experiment(**count):
    return ExperimentConfig(signals=("blocks",), snr_db=(8.0,), **count)


# Every public count: (name, call with that count, least value, a value it accepts).
COUNTS = {
    "DenoiseConfig.levels": ("levels", lambda v: DenoiseConfig(levels=v), 1, 3),
    "ExperimentConfig.trials": ("trials", lambda v: _experiment(trials=v), 1, 2),
    "ExperimentConfig.n": ("n", lambda v: _experiment(n=v), 1, 256),
    "ExperimentConfig.levels": ("levels", lambda v: _experiment(levels=v), 1, 3),
    "ExperimentConfig.seed": ("seed", lambda v: _experiment(seed=v), 0, 7),
    "mc_validate.n": ("n", lambda v: mc_validate("appendixC", {"n": v}, runs=2), 1, 64),
    "mc_validate.runs": ("runs", lambda v: mc_validate("appendixC", {"n": 64}, runs=v), 1, 2),
    "mc_validate.seed": ("seed", lambda v: mc_validate("appendixC", {"n": 64}, runs=2, seed=v),
                         0, 3),
    "white_band.n": ("n", lambda v: white_band([0.0, 1.0], 1.0, v, 4.5), 1, 100),
    "gen_noise.n": ("n", lambda v: gen_noise(NoiseSpec.ar1(0.5), v, 0), 1, 16),
    "gen_signal.n": ("n", lambda v: gen_signal("blocks", v), 64, 64),
    "dwt_forward.levels": ("levels", lambda v: dwt_forward(np.ones(8), v), 1, 2),
    "theoretical_profile.max_lag": ("max_lag", lambda v: theoretical_profile(NoiseSpec.ar1(0.5), v),
                                    0, 3),
    "visu_threshold.n": ("n", lambda v: visu_threshold(v, 1.0), 1, 64),
}


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("bad", [2.5, 2048.0, np.nan, True, "below the least"])
def test_every_public_count_rejects_a_non_integer_or_a_value_below_its_least(entry, bad):
    name, call, least, _ = COUNTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(least - 1 if bad == "below the least" else bad)


@pytest.mark.parametrize("entry", COUNTS)
def test_every_public_count_accepts_a_numpy_integer(entry):
    _, call, _, good = COUNTS[entry]
    call(np.int64(good))


# Every scalar real setting: (name, call with that setting, a value it accepts, which
# must be a whole number so it can be given as an int64 too).
REALS = {
    "DenoiseConfig.sigma": ("sigma", lambda v: DenoiseConfig(sigma=v), 2),
    "DenoiseConfig.lam": ("lam", lambda v: DenoiseConfig(lam=v), 2),
    "NoiseSpec.sigma": ("sigma", lambda v: NoiseSpec.white(v), 2),
    "NoiseSpec.ar_coeff": ("ar_coeff", lambda v: NoiseSpec.ar1(v), 0),  # |a| < 1
    "ExperimentConfig.lam": ("lam", lambda v: _experiment(lam=v), 2),
    "ExperimentConfig.snr_db": ("snr_db", lambda v: ExperimentConfig(("blocks",), (v,)), 2),
    "select_threshold.sigma": ("sigma", lambda v: select_threshold([1.0, 2.0], v), 2),
    "select_threshold.lam": ("lam", lambda v: select_threshold([1.0, 2.0], 1.0, v), 2),
    "white_band.lam": ("lam", lambda v: white_band([0.0, 1.0], 1.0, 100, v), 2),
    "lambda_sweep.lambdas": ("lam", lambda v: lambda_sweep("blocks", 8.0, [v], trials=1, n=64), 2),
}
# The settings kept on a config: reads the stored value back.
STORED = {
    "DenoiseConfig.sigma": lambda v: DenoiseConfig(sigma=v).sigma,
    "DenoiseConfig.lam": lambda v: DenoiseConfig(lam=v).lam,
    "NoiseSpec.sigma": lambda v: NoiseSpec.white(v).sigma,
    "NoiseSpec.ar_coeff": lambda v: NoiseSpec.ar1(v).ar_coeff,
    "ExperimentConfig.lam": lambda v: _experiment(lam=v).lam,
    "ExperimentConfig.snr_db": lambda v: ExperimentConfig(("blocks",), (v,)).snr_db[0],
}


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), [1.0], "1.0", True],
                         ids=["array", "list", "string", "bool"])
def test_every_scalar_setting_rejects_what_is_not_a_real_number(entry, bad):
    name, call, _ = REALS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call(bad)


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("as_numpy", [np.float64, np.int64], ids=["float64", "int64"])
def test_every_scalar_setting_accepts_a_numpy_number(entry, as_numpy):
    _, call, good = REALS[entry]
    call(as_numpy(good))


@pytest.mark.parametrize("entry", STORED)
@pytest.mark.parametrize("as_type", [np.float64, np.int64, np.float32, int],
                         ids=["float64", "int64", "float32", "int"])
def test_every_stored_scalar_setting_is_a_python_float(entry, as_type):
    good = REALS[entry][2]
    stored = STORED[entry](as_type(good))
    assert type(stored) is float and stored == good


@pytest.mark.parametrize("make", [lambda s: DenoiseConfig(sigma=s), NoiseSpec.white],
                         ids=["DenoiseConfig", "NoiseSpec"])
def test_a_numpy_sigma_compares_and_hashes_as_its_float(make):
    assert make(np.float64(2)) == make(2.0)
    assert hash(make(np.float64(2))) == hash(make(2.0))
