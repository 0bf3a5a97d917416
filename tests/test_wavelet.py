import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nide.signals import gen_signal
from nide.wavelet import CoefficientSet, dwt_forward, dwt_inverse


def test_constant_signal_has_zero_details():
    coeffs = dwt_forward([1.0, 1.0, 1.0, 1.0], levels=2)
    assert np.allclose(coeffs.detail_values(), 0.0)
    # energy preservation pins the approximation value: 2^2 = 4 * 1^2
    assert np.allclose(coeffs.approx_band, [2.0])


def test_single_pair_analysis():
    coeffs = dwt_forward([1.0, -1.0], levels=1)
    assert np.allclose(coeffs.approx_band, [0.0])
    assert np.allclose(coeffs.detail_bands[0], [np.sqrt(2.0)])


# Each level scales its sums and differences by this double, the one nearest
# 1 / fl(sqrt(2)); np.sqrt(0.5) is one ulp above it.
C = 0.7071067811865475
PIN_N = 64
PIN_KINDS = ("decades", "signed-zeros", "subnormal", "near-limit")


def pin_samples(kind, shape):
    """Samples of ``shape`` (last axis ``PIN_N``): normals spread over 26 decades,
    signed zeros among unit values, subnormals and the smallest normals, or values at
    up to the magnitude limit that ``denoise._transform`` accepts at ``PIN_N``."""
    rng = np.random.default_rng(PIN_KINDS.index(kind))
    size = int(np.prod(shape))
    sign = rng.choice([-1.0, 1.0], size)
    if kind == "decades":
        x = rng.normal(size=size) * 10.0 ** rng.uniform(-13.0, 13.0, size)
    elif kind == "signed-zeros":
        x = sign * rng.choice([0.0, 0.0, 1.0, 0.5], size)
    elif kind == "subnormal":
        tiny = np.finfo(float).smallest_subnormal
        x = np.where(rng.random(size) < 0.8, rng.integers(-2**40, 2**40, size) * tiny,
                     sign * np.finfo(float).tiny)
    else:
        limit = np.finfo(float).max / (4.0 * np.sqrt(PIN_N))
        x = sign * limit * rng.choice([1.0, 1.0, np.nextafter(1.0, 0.0), 0.5], size)
    return x.reshape(shape)


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shape", [(PIN_N,), (5, PIN_N)])
@pytest.mark.parametrize("kind", PIN_KINDS)
def test_each_analysis_level_multiplies_by_one_over_root_two(kind, shape):
    x = pin_samples(kind, shape)
    coeffs = dwt_forward(x, 6)
    approx = x
    for band in coeffs.detail_bands:
        even, odd = approx[..., 0::2], approx[..., 1::2]
        assert same_bits(band, (even - odd) * C)
        approx = (even + odd) * C
    assert same_bits(coeffs.approx_band, approx)
    assert np.isfinite(coeffs.values).all()


@pytest.mark.parametrize("shape", [(PIN_N,), (5, PIN_N)])
@pytest.mark.parametrize("kind", PIN_KINDS)
def test_each_synthesis_level_multiplies_by_one_over_root_two(kind, shape):
    coeffs = CoefficientSet(pin_samples(kind, shape), 6)
    approx = coeffs.approx_band
    for detail in reversed(coeffs.detail_bands):
        out = np.empty(approx.shape[:-1] + (2 * approx.shape[-1],))
        out[..., 0::2] = (approx + detail) * C
        out[..., 1::2] = (approx - detail) * C
        approx = out
    assert same_bits(dwt_inverse(coeffs), approx)


def test_energy_preservation():
    rng = np.random.default_rng(0)
    x = rng.normal(size=2048)
    coeffs = dwt_forward(x, levels=5)
    assert np.sum(coeffs.values**2) == pytest.approx(np.sum(x**2), rel=1e-9)


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
def test_roundtrip(levels):
    rng = np.random.default_rng(levels)
    x = rng.normal(size=256)
    back = dwt_inverse(dwt_forward(x, levels))
    assert np.allclose(back, x, rtol=1e-9, atol=1e-12)


@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_roundtrip_random_shapes(k, seed):
    n = 2**k
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, size=n)
    levels = rng.integers(1, k + 1)
    back = dwt_inverse(dwt_forward(x, int(levels)))
    assert np.allclose(back, x, rtol=1e-9, atol=1e-12)


def test_zero_coefficients_give_zero_signal():
    coeffs = dwt_forward(np.zeros(64), levels=3)
    assert np.allclose(dwt_inverse(coeffs), 0.0)


def test_unit_impulse_column_norm():
    # one unit detail coefficient reconstructs to a unit-norm signal
    coeffs = dwt_forward(np.zeros(64), levels=3)
    coeffs.detail_bands[1][3] = 1.0
    signal = dwt_inverse(coeffs)
    assert np.linalg.norm(signal) == pytest.approx(1.0, rel=1e-12)


def test_linearity():
    rng = np.random.default_rng(42)
    x, y = rng.normal(size=128), rng.normal(size=128)
    a, b = 2.5, -1.25
    combined = dwt_forward(a * x + b * y, levels=4).values
    separate = a * dwt_forward(x, levels=4).values + b * dwt_forward(y, levels=4).values
    assert np.allclose(combined, separate, rtol=1e-9, atol=1e-12)


def test_white_noise_stays_white():
    # coefficients of IID Gaussian input have the same variance (orthonormality)
    n, sigma, runs = 2048, 1.5, 40
    rng = np.random.default_rng(9)
    flat = np.concatenate([dwt_forward(rng.normal(0, sigma, n), 5).values for _ in range(runs)])
    assert flat.var() == pytest.approx(sigma**2, rel=0.05)
    assert abs(flat.mean()) < 5 * sigma / np.sqrt(flat.size)


def test_blocks_details_sparse_at_breakpoints():
    signal = gen_signal("blocks", 2048).samples
    breakpoints = np.nonzero(np.diff(signal))[0]  # jump between i and i+1
    coeffs = dwt_forward(signal, 5)
    for level, band in enumerate(coeffs.detail_bands, start=1):
        width = 2**level
        buckets = set(breakpoints // width)
        hot = set(np.nonzero(np.abs(band) > 1e-9)[0])
        allowed = buckets | {b + 1 for b in buckets} | {b - 1 for b in buckets}
        assert hot <= allowed


def test_forward_validation():
    with pytest.raises(ValueError):
        dwt_forward([1.0, 2.0, 3.0], levels=1)  # not a power of two
    with pytest.raises(ValueError):
        dwt_forward(np.ones(8), levels=4)  # too many levels
    with pytest.raises(ValueError):
        dwt_forward(np.ones(8), levels=0)


def test_constructor_validation():
    with pytest.raises(ValueError, match="power of two"):
        CoefficientSet(np.zeros(12), levels=1)
    with pytest.raises(ValueError, match="levels"):
        CoefficientSet(np.zeros(8), levels=4)
    with pytest.raises(ValueError, match="levels"):
        CoefficientSet(np.zeros((3, 8)), levels=0)


def test_stacked_rows_match_single_rows():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 64))
    stacked = dwt_forward(x, 4)
    back = dwt_inverse(stacked)
    for row, values, out in zip(x, stacked.values, back):
        single = dwt_forward(row, 4)
        assert np.array_equal(values, single.values)
        assert np.array_equal(out, dwt_inverse(single))
    assert [b.shape for b in stacked.detail_bands] == [(5, 32), (5, 16), (5, 8), (5, 4)]
    assert stacked.approx_band.shape == (5, 4)


def test_flatten_order():
    coeffs = dwt_forward(np.arange(8, dtype=float), levels=2)
    flat = coeffs.values
    assert flat.size == 8
    assert np.allclose(flat[:4], coeffs.detail_bands[0])
    assert np.allclose(flat[4:6], coeffs.detail_bands[1])
    assert np.allclose(flat[6:], coeffs.approx_band)
