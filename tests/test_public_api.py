"""The package's public names, and the functions the benchmark tracer wraps."""

from pathlib import Path

import numpy as np
import pytest

import nide
from nide.baselines import denoise_with, visu_threshold
from nide.bench import ExperimentConfig, mc_validate
from nide.denoise import DenoiseConfig, denoise
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
