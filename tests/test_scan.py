"""The threshold scan equals a pointwise band over the whole sorted curve, in
every bit, and evaluates F on only the part of the curve it needs.

The curves here are built point by point to sit on a band edge, within
1e-12 of it or exactly on it, with runs of tied values and noise scales
from 1e-300 to 1e300, so that the partial sort, the small pointwise blocks
and the chunk certificates of the white band all meet their boundary cases.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfinv

from nide.denoise import (SIGMA_FLOOR_RATIO, DenoiseConfig, _analyse, _nide_rule, _shrink,
                          select_threshold)
from nide.noise_model import NoiseSpec, gen_noise, theoretical_profile
from nide.signals import gen_signal
from nide.signature import colored_band, white_band
from nide.wavelet import CoefficientSet, dwt_forward, dwt_inverse

denoise_module = importlib.import_module("nide.denoise")
signature_module = importlib.import_module("nide.signature")

N, LEVELS = 512, 5
AR1 = theoretical_profile(NoiseSpec.ar1(0.8), N - 1)
KINDS = ("upper", "lower", "center", "signal", "tie")
SIGMAS = st.sampled_from([1e-300, 1e-150, 1e-7, 0.3, 1.0, 7.5, 1e9, 1e150, 1e300])
SEGMENTS = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 400)), min_size=1, max_size=6)
OFFSETS = st.sampled_from([-1e-12, 0.0, 1e-12])


def edge_f(g, lam, n, side):
    """F whose band edge passes through g: the upper edge (g = F + h) for
    ``side`` +1, the lower edge (g = F - h) for -1, with h = lam sqrt(F (1 - F) / n)."""
    c = lam * lam / n
    b = 2.0 * g + c
    return (b - side * np.sqrt(np.maximum(b * b - 4.0 * (1.0 + c) * g * g, 0.0))) / (2.0 * (1.0 + c))


def curve(segments, m, sigma, lam, n, offset, signal_top=0):
    """Ascending magnitudes of ``m`` points, segment by segment: on the upper
    or lower band edge or on F itself (shifted by ``offset`` in F), far above
    the noise, or tied with the point before; the top ``signal_top`` points
    are far above the noise."""
    kinds = np.resize(np.repeat([k for k, _ in segments], [c for _, c in segments]), m)
    kinds[m - min(signal_top, m):] = "signal"
    g = (np.arange(1, m + 1) - 0.5) / m
    f = np.select([kinds == "upper", kinds == "lower"], [edge_f(g, lam, n, 1), edge_f(g, lam, n, -1)], g)
    z = sigma * np.sqrt(2.0) * erfinv(np.clip(f + offset, 0.0, 1.0 - 1e-16))
    z = np.where(kinds == "signal", sigma * (40.0 + g), z)
    for k in np.flatnonzero(kinds == "tie"):
        z[k] = z[k - 1] if k else z[k]
    return np.sort(z)


def reference(magnitudes, sigma, n, lam, profile):
    """Last point of the sorted curve whose midpoint position lies in a band
    built pointwise over the whole curve, and that band."""
    a = np.sort(np.abs(magnitudes))
    band = white_band(a, sigma, n, lam) if profile is None else colored_band(a, sigma, profile, n, lam)
    inside = np.flatnonzero(band.contains((np.arange(1, a.size + 1) - 0.5) / a.size))
    return (float(a[inside[-1]]) if inside.size else 0.0), band


def scrambled(z, seed):
    rng = np.random.default_rng(seed)
    return rng.permutation(z) * rng.choice([-1.0, 1.0], z.size)


@settings(max_examples=120, deadline=None)
@given(segments=SEGMENTS, m=st.one_of(st.integers(1, 2500), st.integers(2500, 20000)), sigma=SIGMAS, offset=OFFSETS,
       lam=st.sampled_from([0.5, 2.0, 4.5, 8.0]), signal_top=st.sampled_from([0, 5, 200, 1000]),
       colored=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_select_threshold_equals_pointwise_band(segments, m, sigma, offset, lam, signal_top,
                                                colored, seed):
    profile = AR1 if colored and m <= 600 else None
    coeffs = scrambled(curve(segments, m, sigma, lam, m, offset, signal_top), seed)
    expected, _ = reference(coeffs, sigma, m, lam, profile)
    assert select_threshold(coeffs, sigma, lam=lam, profile=profile) == expected


@pytest.mark.parametrize("sigma", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("offset", [-1e-12, 0.0, 1e-12])
@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_tied_chunk_on_band_edge(edge, offset, sigma):
    # A chunk of CHUNK tied points below the sorted top, all the same value:
    # F is flat over it, so its end point on the band edge decides between
    # T* = the tied value and a lower point.  Everything above is signal.
    chunk, m = denoise_module.CHUNK, denoise_module.SORTED_TOP + 8 * denoise_module.CHUNK
    low, high = 5 * chunk, 6 * chunk - 1
    g = (np.arange(1, m + 1) - 0.5) / m
    # The first tied point on the upper edge, or the last on the lower edge.
    f = edge_f(g[low], 4.5, m, 1) if edge == "upper" else edge_f(g[high], 4.5, m, -1)
    tied = sigma * np.sqrt(2.0) * erfinv(f + offset)
    z = np.concatenate([tied * (1.0 - 1e-3) * g[:low] / g[low], np.full(chunk, tied),
                        sigma * (40.0 + g[high + 1:])])
    band = white_band(np.sort(z), sigma, m, 4.5)
    edges = band.upper[low] - g[low] if edge == "upper" else g[high] - band.lower[high]
    assert abs(edges) < 1e-11
    expected, _ = reference(z, sigma, m, 4.5, None)
    assert select_threshold(scrambled(z, 0), sigma, lam=4.5) == expected


ROW_KINDS = ("shallow", "deep", "none-in-band", "all-in-band", "passthrough", "edge")


def stack_row(kind, sigma, segments, offset, rng):
    """Coefficients of one row: the detail prefix shaped by ``kind``, the
    approximation noise-sized."""
    values = rng.normal(0.0, sigma, N)
    m = N - (N >> LEVELS)
    if kind == "shallow":
        values[rng.choice(m, 5, replace=False)] += 30.0 * sigma
    elif kind == "deep":
        values[rng.choice(m, 300, replace=False)] += rng.uniform(20.0, 60.0, 300) * sigma
    elif kind == "none-in-band":
        values[:m] = rng.uniform(50.0, 90.0, m) * sigma
    elif kind == "all-in-band":
        values[:m] = scrambled(curve([("center", m)], m, sigma, 4.5, m, 0.0), rng.integers(2**32))
    elif kind == "passthrough":
        values[:] = 0.0
    else:
        values[:m] = scrambled(curve(segments, m, sigma, 4.5, m, offset), rng.integers(2**32))
    return values


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=7),
       known=st.booleans(), colored=st.booleans(),
       sigma=SIGMAS, segments=SEGMENTS, offset=OFFSETS, seed=st.integers(0, 2**32 - 1))
def test_pipeline_equals_pointwise_band(kinds, known, colored, sigma, segments, offset, seed):
    rng = np.random.default_rng(seed)
    values = np.array([stack_row(k, sigma, segments, offset, rng) for k in kinds])
    rows = dwt_inverse(CoefficientSet(values, LEVELS))
    config = DenoiseConfig(levels=LEVELS, profile=AR1 if colored else None)
    sigmas = np.full(len(kinds), sigma) if known else None
    analysed, used = _analyse(rows, LEVELS, sigmas)
    threshold, _, kept, used, bands = _shrink(analysed, used, config, _nide_rule,
                                              np.empty_like(analysed.values))
    coeffs = dwt_forward(rows, LEVELS)
    m = N - (N >> LEVELS)
    for i in range(len(kinds)):
        magnitudes = np.abs(coeffs.values[i, :m])
        peak = np.abs(coeffs.values[i]).max()
        if not (used[i] > SIGMA_FLOOR_RATIO * peak and peak != 0.0):
            assert threshold[i] == 0.0 and bands[i] is None
            continue
        expected, band = reference(magnitudes, used[i], m, config.lam, config.profile)
        assert threshold[i] == expected
        assert kept[i] == np.count_nonzero(magnitudes > expected)
        got = bands[i]()
        for name in ("z_grid", "lower", "upper", "center"):
            assert np.array_equal(getattr(got, name), getattr(band, name)), name


@pytest.fixture
def f_points(monkeypatch):
    """Number of points the scan evaluates F at: through the band kernel, which
    every white or colored band calls once per point, and through the chunk
    certificates' own F at chunk ends."""
    count = [0]

    def counted(fn):
        def wrapper(z, *args, **kwargs):
            count[0] += np.size(z)
            return fn(z, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(signature_module, "_band_moments", counted(signature_module._band_moments))
    monkeypatch.setattr(denoise_module, "abs_noise_cdf", counted(denoise_module.abs_noise_cdf))
    return count


def test_deep_white_row_evaluates_under_a_tenth(f_points):
    # Quadchirp at 4 dB, N = 65536: T* lies tens of thousands of points deep.
    n = 65536
    truth = gen_signal("quadchirp", n).samples
    noise = gen_noise(NoiseSpec.white(), n, 4)
    x = truth + noise * np.linalg.norm(truth) * 10.0 ** (-4.0 / 20.0) / np.linalg.norm(noise)
    result = denoise_module.denoise(x)
    scope = n - (n >> 5)
    assert result.coefficients_kept > 20000
    assert 0 < f_points[0] < 0.1 * scope
    magnitudes = np.abs(dwt_forward(x, 5).values[:scope])
    assert result.threshold == reference(magnitudes, result.sigma_used, scope, 4.5, None)[0]


def test_shallow_ar1_row_stays_in_first_block(f_points):
    # Pure ar1(0.8) noise with its known sigma: T* is among the top 8 points.
    n = 2048
    profile = theoretical_profile(NoiseSpec.ar1(0.8), n - 1)
    result = denoise_module.denoise(gen_noise(NoiseSpec.ar1(0.8), n, 3),
                                    DenoiseConfig(sigma=1.0, profile=profile))
    assert result.coefficients_kept < 8
    assert 0 < f_points[0] <= 8  # the first block only
