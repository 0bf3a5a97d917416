"""The package's public names, and the functions the benchmark tracer wraps."""

from pathlib import Path

import numpy as np
import pytest

import nide
from nide.baselines import denoise_with
from nide.denoise import DenoiseConfig, denoise
from nide.noise_model import NoiseSpec, gen_noise, theoretical_profile
from nide.signals import gen_signal

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
