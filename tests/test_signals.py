import numpy as np
import pytest
from scipy.stats import kurtosis

from nide.signals import SIGNAL_NAMES, gen_signal
from nide.wavelet import dwt_forward


@pytest.mark.parametrize("name", SIGNAL_NAMES)
def test_generators_deterministic_and_normalized(name):
    one = gen_signal(name, 2048)
    two = gen_signal(name, 2048)
    assert np.array_equal(one.samples, two.samples)
    assert np.all(np.isfinite(one.samples))
    assert one.samples.size == 2048
    assert np.std(one.samples) == pytest.approx(one.nominal_norm, rel=1e-12)
    assert one.nominal_norm == 7.0


def test_blocks_has_eleven_breakpoints():
    samples = gen_signal("blocks", 2048).samples
    jumps = np.nonzero(np.diff(samples))[0]
    # A breakpoint that falls exactly on the grid (t = 0.25 at n = 2048)
    # produces a half-height sample, i.e. two adjacent nonzero differences;
    # count distinct jump locations by clustering adjacent indices.
    clusters = 1 + np.count_nonzero(np.diff(jumps) > 1)
    assert clusters == 11
    assert jumps.size <= 12


def test_heavysine_has_two_jumps():
    samples = gen_signal("heavysine", 2048).samples
    diffs = np.abs(np.diff(samples))
    # the sine contributes a smooth slope; jumps stand out as outliers
    smooth_scale = np.median(diffs)
    jumps = np.nonzero(diffs > 20 * smooth_scale)[0]
    assert jumps.size == 2


def test_heavisine_alias():
    assert np.array_equal(
        gen_signal("HeaviSine", 1024).samples, gen_signal("heavysine", 1024).samples
    )


def test_sparse_versus_dense_coefficient_structure():
    # Blocks concentrates energy in few coefficients, MishMash spreads it:
    # excess kurtosis of the detail coefficients ranks them.
    blocks = dwt_forward(gen_signal("blocks", 2048).samples, 5).detail_values()
    mishmash = dwt_forward(gen_signal("mishmash", 2048).samples, 5).detail_values()
    assert kurtosis(blocks) > kurtosis(mishmash)


@pytest.mark.parametrize("name", ["blocks", "bumps", "heavysine", "doppler"])
def test_time_domain_signals_length_covariant(name):
    # The four pure-time-domain signals agree on shared grid points before
    # normalization; the chirp family scales its frequency with n by design.
    from nide.signals import _raw_signal

    coarse = _raw_signal(name, 1024)
    fine = _raw_signal(name, 2048)
    assert np.allclose(coarse, fine[1::2], rtol=1e-12, atol=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gen_signal("blocks", 100)  # not a power of two
    with pytest.raises(ValueError):
        gen_signal("blocks", 32)  # too short
    with pytest.raises(ValueError):
        gen_signal("unknown", 1024)
