"""The threshold scan equals a pointwise band over the whole sorted curve, in
every bit, and evaluates F on only the part of the curve it needs.

The curves here are built point by point to sit on a band edge, within
1e-12 of it or exactly on it, with runs of tied values and noise scales
from 1e-300 to 1e300, so that the partial sort, the small first blocks and
the inverted white band with its 1e-9 margin all meet their boundary cases.
"""

import importlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfinv

from nide.denoise import (SIGMA_FLOOR_RATIO, DenoiseConfig, _nide_rule, _noise_scale, _shrink,
                          _transform, select_threshold)
from nide.noise_model import NoiseSpec, _level_ratios, gen_noise, theoretical_profile
from nide.signals import gen_signal
from nide.signature import white_band
from nide.wavelet import CoefficientSet, dwt_forward, dwt_inverse

denoise_module = importlib.import_module("nide.denoise")

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


def reference(magnitudes, sigma, n, lam):
    """Last point of the sorted curve whose midpoint position lies in a band
    built pointwise over the whole curve, and that band."""
    a = np.sort(np.abs(magnitudes))
    band = white_band(a, sigma, n, lam)
    inside = np.flatnonzero(band.contains((np.arange(1, a.size + 1) - 0.5) / a.size))
    return (float(a[inside[-1]]) if inside.size else 0.0), band


def scrambled(z, seed):
    rng = np.random.default_rng(seed)
    return rng.permutation(z) * rng.choice([-1.0, 1.0], z.size)


@settings(max_examples=120, deadline=None)
@given(segments=SEGMENTS, m=st.one_of(st.integers(1, 2500), st.integers(2500, 20000)), sigma=SIGMAS, offset=OFFSETS,
       lam=st.sampled_from([0.0, 0.5, 2.0, 4.5, 8.0]), signal_top=st.sampled_from([0, 5, 200, 1000]),
       table=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(segments=[("upper", 300), ("tie", 40), ("lower", 200), ("center", 7)], m=65536, sigma=1.0,
         offset=0.0, lam=4.5, signal_top=1000, table=True, seed=0)
# T* in each chunk of the stepped sort at N = 65536 (the top 120, then 3,840 points,
# then the whole rest), as the last point, or nowhere; and at N = 2^18 in a chunk that
# is not the whole rest (126,720 points below the first 3,960).
@example(segments=[("center", 1)], m=65536, sigma=1.0, offset=0.0, lam=4.5, signal_top=60,
         table=True, seed=1)
@example(segments=[("center", 1)], m=65536, sigma=7.5, offset=0.0, lam=4.5, signal_top=3000,
         table=True, seed=2)
@example(segments=[("center", 1)], m=65536, sigma=1.0, offset=0.0, lam=4.5, signal_top=20000,
         table=True, seed=3)
@example(segments=[("center", 1)], m=65536, sigma=1.0, offset=0.0, lam=4.5, signal_top=65535,
         table=True, seed=4)
@example(segments=[("signal", 1)], m=65536, sigma=1.0, offset=0.0, lam=4.5, signal_top=0,
         table=True, seed=5)
@example(segments=[("center", 1)], m=1 << 18, sigma=1.0, offset=0.0, lam=4.5, signal_top=50000,
         table=True, seed=6)
def test_select_threshold_equals_pointwise_band(segments, m, sigma, offset, lam, signal_top,
                                                table, seed):
    # A scan evaluates every point without a table: on the first scan of an
    # (N, lam), and on a curve too long for the budget; the second scan builds
    # one and the third reads it.
    coeffs = scrambled(curve(segments, m, sigma, lam, m, offset, signal_top), seed)
    expected, _ = reference(coeffs, sigma, m, lam)
    budget = denoise_module._EDGE_CACHE_BYTES if table else 0
    with mock.patch.multiple(denoise_module, _EDGE_CACHE_BYTES=budget, _edge_cache={}):
        for _ in range(3):
            assert select_threshold(coeffs, sigma, lam=lam) == expected


@pytest.mark.parametrize("sigma", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("offset", [-1e-12, 0.0, 1e-12])
@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_tied_chunk_on_band_edge(edge, offset, sigma):
    # A run of 64 tied points below the sorted top, all the same value: F is
    # flat over it, so its end point on the band edge decides between T* = the
    # tied value and a lower point.  Everything above is signal.
    chunk = 64
    m = denoise_module.SORTED_TOP + 8 * chunk
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
    expected, _ = reference(z, sigma, m, 4.5)
    assert select_threshold(scrambled(z, 0), sigma, lam=4.5) == expected


def test_edge_tables_keep_to_their_byte_budget(monkeypatch):
    # The first call for an (N, lam) records it, the second builds the whole table,
    # read-only, and every later call returns that same table.  Tables are dropped
    # oldest first, and nothing is recorded for a curve longer than the budget allows.
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    white_edges, kept = denoise_module._white_edges, denoise_module._edge_cache
    budget, n = denoise_module._EDGE_CACHE_BYTES, 1 << 16
    assert white_edges(n, 1.0) is None and kept == {(n, 1.0): None}
    table = white_edges(n, 1.0)
    assert table.shape == (4, n) and not table.flags.writeable and kept[n, 1.0] is table
    assert np.all(np.diff(table[[0, 2, 3, 1]], axis=0) >= 0)  # out_lo <= in_lo <= in_hi <= out_hi
    assert all(white_edges(n, 1.0) is table for _ in range(3))
    for lam in (2.0, 3.0, 4.0, 4.5):
        assert white_edges(n, lam) is None and white_edges(n, lam).shape == (4, n)
    assert list(kept) == [(n, 2.0), (n, 3.0), (n, 4.0), (n, 4.5)]
    assert sum(e.nbytes for e in kept.values()) <= budget
    assert white_edges(budget // 32 + 1, 4.5) is None
    assert white_edges(budget // 32 + 1, 4.5) is None
    assert list(kept) == [(n, 2.0), (n, 3.0), (n, 4.0), (n, 4.5)]


def test_scan_deeper_than_earlier_scans_builds_nothing(monkeypatch):
    # The table is built whole, so a scan that goes deeper than every earlier scan
    # of its (N, lam) uses it as it is: erfinv runs once, at the build.
    m, lam, calls = 2048, 4.5, []
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    monkeypatch.setattr(denoise_module, "erfinv", lambda f: calls.append(f.shape) or erfinv(f))
    shallow = curve([("center", m)], m, 1.0, lam, m, 0.0, 5)
    deep = curve([("center", m)], m, 1.0, lam, m, 0.0, 1000)
    for z in (shallow, shallow, deep):
        assert select_threshold(z, 1.0, lam=lam) == reference(z, 1.0, m, lam)[0]
    assert calls == [(4, m)]


def test_scan_with_only_passthrough_rows_records_nothing(monkeypatch):
    # A zero row and a row whose sigma is negligible next to its peak pass through:
    # _select has no live row, so it never asks for a table.
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    rows = np.stack([np.zeros(N), gen_noise(NoiseSpec.white(), N, 1)])
    analysed = _transform(rows, LEVELS)
    used = _noise_scale(analysed, [1.0, 1e-300])
    t, bands = _nide_rule(analysed, used, DenoiseConfig(levels=LEVELS))
    assert t.ravel().tolist() == [0.0, 0.0] and bands == [None, None]
    assert denoise_module._edge_cache == {}


def test_threads_share_the_edge_tables(monkeypatch):
    # Four threads scan three curves through a budget that holds one table, so
    # tables are recorded, built and dropped under each other; every threshold
    # must still be the pointwise one.
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    monkeypatch.setattr(denoise_module, "_EDGE_CACHE_BYTES", 32 * 3000)
    cases = []
    for m, lam in ((2000, 4.5), (2500, 2.0), (1500, 4.5)):
        z = scrambled(curve([("upper", 300), ("tie", 20), ("lower", 200)], m, 1.0, lam, m, 0.0, 200), m)
        cases.append((z, lam, reference(z, 1.0, m, lam)[0]))
    errors = []

    def scan(k):
        try:
            for i in range(150):
                z, lam, expected = cases[(i + k) % len(cases)]
                assert select_threshold(z, 1.0, lam=lam) == expected
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


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
    analysed = _transform(rows, LEVELS)
    used = _noise_scale(analysed, sigmas)
    t, bands = _nide_rule(analysed, used, config)
    shrunk = np.empty_like(analysed.values)
    _shrink(analysed, t, shrunk)
    threshold = t.max(axis=-1)
    kept = np.count_nonzero(shrunk[:, : analysed.detail_values().shape[-1]], axis=-1)
    coeffs = dwt_forward(rows, LEVELS)
    m = N - (N >> LEVELS)
    # Under the profile each level is divided by its noise ratio, then thresholded at T* r_j,
    # or at its largest magnitude if that is lower.
    ratios = _level_ratios(AR1, LEVELS) if colored else np.ones(LEVELS)
    for i in range(len(kinds)):
        levels = [np.abs(band[i]) for band in coeffs.detail_bands]
        peak = np.abs(coeffs.values[i]).max()
        if not (used[i] > SIGMA_FLOOR_RATIO * peak and peak != 0.0):
            assert threshold[i] == 0.0 and bands[i] is None
            continue
        magnitudes = np.concatenate([level / r for level, r in zip(levels, ratios)])
        expected, band = reference(magnitudes, used[i], m, config.lam)
        per_level = [min(expected * r, level.max()) if colored else expected
                     for level, r in zip(levels, ratios)]
        assert threshold[i] == max(per_level)
        assert kept[i] == sum(np.count_nonzero(level > t) for level, t in zip(levels, per_level))
        got = bands[i]()
        for name in ("z_grid", "lower", "upper", "center"):
            assert np.array_equal(getattr(got, name), getattr(band, name)), name


@pytest.mark.parametrize("company", ["alone", "beside-early-stops", "beside-a-passthrough"])
@pytest.mark.parametrize("depth", [60, 3000, 20000, "last", "none"])
def test_stepped_sort_in_a_stack_equals_pointwise_band(depth, company, monkeypatch):
    # A row at N = 65536 whose T* lies in the sorted top, in the first partitioned
    # chunk, in the whole rest, at its last point, or nowhere.  It is scanned alone,
    # beside two rows that stop in the first block, so that every later sort runs row
    # by row, or beside one of those and a zero row that passes through, so that the
    # first sort does too.  The first scan of the (N, lam) has no table, the second
    # builds it and the third reads it; every T* and band is the pointwise one.
    n = 65536
    m = n - (n >> LEVELS)
    top = {"last": m - 1, "none": 0}.get(depth, depth)
    values = np.random.default_rng(7).normal(0.0, 1.0, (3, n))
    values[0, :m] = scrambled(curve([("signal" if depth == "none" else "center", 1)], m, 1.0, 4.5, m,
                                    0.0, top), 8)
    for i in (1, 2):
        values[i, :m] = scrambled(curve([("center", 1)], m, 1.0, 4.5, m, 0.0, 3), i)
    if company == "beside-a-passthrough":
        values[2] = 0.0
    stack = values[:1] if company == "alone" else values
    live = [row.any() for row in stack]
    expected = [reference(row[:m], 1.0, m, 4.5) if ok else (0.0, None) for row, ok in zip(stack, live)]
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    for scan in range(3):
        t, bands = _nide_rule(CoefficientSet(stack, LEVELS), np.ones(len(stack)),
                              DenoiseConfig(levels=LEVELS))
        assert t.ravel().tolist() == [threshold for threshold, _ in expected]
        for factory, (_, band) in zip(bands, expected):
            assert (factory is None) == (band is None)
            if band is not None:
                got = factory()
                for name in ("z_grid", "lower", "upper", "center"):
                    assert np.array_equal(getattr(got, name), getattr(band, name)), name
    # Each live row ends in its largest values sorted, down to the end of the chunk
    # that holds T* (120, 120 + 32 x 120 or all points), over the rest in no order.
    a = np.abs(stack[:, :m])
    denoise_module._select(a, np.ones(len(stack)), 4.5, np.flatnonzero(live))
    chunks = (denoise_module.SORTED_TOP, 33 * denoise_module.SORTED_TOP, m)
    for row, ok, read in zip(a, live, [m if depth == "none" else top + 1, 4, 4]):
        if ok:
            done = next(end for end in chunks if end >= read)
            assert np.array_equal(row[m - done:], np.sort(row)[m - done:])
            assert row[: m - done].max(initial=0.0) <= row[m - done]
            assert np.all(np.diff(row) >= 0) == (done == m)


def test_stepped_sort_leaves_each_rows_largest_values_on_top():
    # A partition leaves the left part's largest value just below kth in most rows
    # (numpy sorts a small window around kth), so a partition one place off would
    # still put the right values on top.  In about 1 in 200 rows of noise the window
    # starts at kth and the largest left value lies far from it: 2,000 rows at
    # N = 2048, where the first chunk is partitioned out of a 1,984-point rest.
    n = 2048
    m = n - (n >> LEVELS)
    a = np.abs(np.random.default_rng(5).normal(size=(2000, m)))
    expected = np.sort(a, axis=-1)[:, m - denoise_module.SORTED_TOP:]
    denoise_module._select(a, np.ones(len(a)), 4.5, np.arange(len(a)))
    assert np.array_equal(a[:, m - denoise_module.SORTED_TOP:], expected)


@pytest.fixture
def f_points(monkeypatch):
    """Number of points the scan evaluates F at exactly: through ``_band_edges``,
    its only call of the exact band, once per point."""
    count = [0]
    band_edges = denoise_module._band_edges

    def counted(z, *args, **kwargs):
        count[0] += np.size(z)
        return band_edges(z, *args, **kwargs)

    monkeypatch.setattr(denoise_module, "_band_edges", counted)
    return count


def test_deep_white_row_with_a_table_skips_the_band_kernel(f_points, monkeypatch):
    # Quadchirp at 4 dB, N = 65536: T* lies tens of thousands of points deep.  The
    # first scan of an (N, lam) evaluates every point it reaches; on the second, the
    # inverted band places every point, as none lies within 1e-9 of an edge.
    n = 65536
    truth = gen_signal("quadchirp", n).samples
    noise = gen_noise(NoiseSpec.white(), n, 4)
    x = truth + noise * np.linalg.norm(truth) * 10.0 ** (-4.0 / 20.0) / np.linalg.norm(noise)
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    denoise_module.denoise(x)
    assert f_points[0] > 20000
    f_points[0] = 0
    result = denoise_module.denoise(x)
    scope = n - (n >> 5)
    assert result.coefficients_kept > 20000
    assert f_points[0] == 0
    magnitudes = np.abs(dwt_forward(x, 5).values[:scope])
    assert result.threshold == reference(magnitudes, result.sigma_used, scope, 4.5)[0]


@pytest.mark.parametrize("offset", [-1e-12, 0.0, 1e-12])
def test_white_row_with_its_candidate_in_the_margin_evaluates_one_block(f_points, monkeypatch, offset):
    # Three rows under 200 signal points: the first has its point 200 from the top
    # within 1e-12 of the band's lower edge, the others have it on F.  On the second
    # scan the table exists, and only the first row's block at 120 .. 631 (eight times
    # the last block of the sorted top) goes through the band kernel; every T* is the
    # pointwise one.
    m, lam = 2048, 4.5
    rows = np.array([curve([("center", m - 201), ("lower", 1), ("signal", 200)], m, 1.0, lam, m, offset),
                     curve([("center", m)], m, 1.0, lam, m, 0.0, 200),
                     curve([("center", m)], m, 0.7, lam, m, 0.0, 200)])
    sigma = np.array([1.0, 1.0, 0.7])
    expected = [reference(row, s, m, lam)[0] for row, s in zip(rows, sigma)]
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    for scan in range(2):
        f_points[0] = 0
        t = denoise_module._select(rows[:, ::-1].copy(), sigma, lam, np.arange(3))
        assert t.tolist() == expected
    assert denoise_module._edge_cache[m, lam].shape == (4, m)
    assert f_points[0] == 512


def test_ar1_rows_scan_on_the_white_table(f_points, monkeypatch):
    # Pure ar1(0.8) noise with its known sigma, standardized level by level: T* is
    # among the top 8 points.  The first scan of its (N, lam) evaluates the first
    # block only; from the second on the white edge table places every point.
    n = 2048
    profile = theoretical_profile(NoiseSpec.ar1(0.8), n - 1)
    monkeypatch.setattr(denoise_module, "_edge_cache", {})
    for scan, most in enumerate((8, 0, 0)):
        f_points[0] = 0
        result = denoise_module.denoise(gen_noise(NoiseSpec.ar1(0.8), n, 3 + scan),
                                        DenoiseConfig(sigma=1.0, profile=profile))
        assert result.coefficients_kept < 8
        assert (0 < f_points[0] <= 8) if most else f_points[0] == 0
    assert denoise_module._edge_cache[n - (n >> 5), 4.5].shape == (4, n - (n >> 5))
