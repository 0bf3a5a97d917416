"""Noise-invalidation threshold selection and the soft-threshold pipeline.

The threshold is chosen by sorting the absolute coefficients and testing, at
each sorted value, whether the empirical curve is still inside the noise
confidence band.  Everything at or below the last in-band point behaves like
pure noise and is invalidated; the last in-band value is the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .gaussian_stats import _check_finite, _check_sigma, abs_noise_cdf
from .noise_model import estimate_sigma_mad
from .signature import (
    ConfidenceBand,
    CorrelationProfile,
    _band_edges,
    _check_band_args,
    colored_band,
    white_band,
)
from .wavelet import dwt_forward, dwt_inverse

__all__ = [
    "DenoiseConfig",
    "DenoiseResult",
    "soft_threshold",
    "select_threshold",
    "denoise",
]

# Below this fraction of the largest coefficient the noise scale is treated
# as zero: the band degenerates to a line and thresholding must be skipped.
SIGMA_FLOOR_RATIO = 1e-12

# Points in the first block of the top-down band scan; each further block is
# twice as long.  After POINTWISE_BLOCKS blocks a white row is finished by
# chunk certificates (see _select), which sorts only the top SORTED_TOP up front.
SCAN_BLOCK = 8
POINTWISE_BLOCKS = 4
SORTED_TOP = SCAN_BLOCK * (2**POINTWISE_BLOCKS - 1)
CHUNK = 64
CHUNK_MARGIN = 1e-9


@dataclass(frozen=True)
class DenoiseConfig:
    """Configuration of the denoising pipeline.

    ``sigma=None`` estimates the noise scale from the finest detail band by the robust median
    rule.  ``profile=None`` selects the white-noise band; a :class:`CorrelationProfile` selects
    the correlated-noise band.  Every rule thresholds the detail bands, never the approximation.
    """

    levels: int = 5
    lam: float = 4.5
    sigma: float | None = None
    profile: CorrelationProfile | None = None
    threshold_scope = "details"  # not a field: perfbench's tracer reads it on denoise calls

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if not 0.0 <= self.lam <= 8.0:
            raise ValueError(f"lam must lie in [0, 8], got {self.lam}")
        if self.sigma is not None:
            _check_sigma(self.sigma)


@dataclass
class DenoiseResult:
    """Output of one pipeline run.

    ``band`` is the noise band the threshold was selected against.  It is
    built from ``band_factory`` on first read and cached, and it is ``None``
    when no band was used (noise-free passthrough, baseline rules).
    """

    threshold: float
    denoised: np.ndarray
    coefficients_kept: int
    sigma_used: float
    band_factory: Callable[[], ConfidenceBand] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def band(self) -> ConfidenceBand | None:
        return None if self.band_factory is None else self.band_factory()


def soft_threshold(coeffs, t, out=None) -> np.ndarray:
    """Shrink toward zero: ``sgn(c) * max(|c| - t, 0)``, as ``c - clip(c, -t, t)`` (so a
    negative value shrunk to zero is +0.0); ``t`` is one threshold, one per row or one
    per coefficient, and ``out=coeffs`` shrinks in place."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"threshold must be nonnegative, got {np.min(t)}")
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.empty_like(coeffs) if out is None else out
    clipped = np.clip(coeffs, -t, t, out=None if np.may_share_memory(coeffs, out) else out)
    return np.subtract(coeffs, clipped, out=out)


def _select(a, sigma, lam, profile, rows) -> np.ndarray:
    """Thresholds for the rows ``rows`` of ``a`` (absolute coefficients,
    shape ``(rows, N)``, each row with the band over its N points) with per-row
    noise scales ``sigma``, positive on ``rows`` and not checked here; the other
    rows get 0.  ``a`` is reordered in place: every row is partitioned at
    N - ``SORTED_TOP`` with its top sorted, and a row's lower points are sorted
    when its scan reaches them.

    Band membership is tested at the midpoint plotting position
    (m - 1/2) / N.  With g = m/N the final point (g = 1) always lies inside
    the clamped band, so a curve that departed and never returned would
    still report its maximum as "in band"; the half-step removes that
    artifact without moving interior points by more than half a grid step.

    The threshold is the *last* in-band point, so the band is evaluated
    from the top of the curve down, in blocks of ``SCAN_BLOCK``,
    ``2 * SCAN_BLOCK``, ... points, and a row leaves the scan at the first
    block holding one of its in-band points.  Each point gets the same band
    values as in a band built over its whole row.

    A white row still in the scan after ``POINTWISE_BLOCKS`` blocks is cut
    into chunks of ``CHUNK`` points: *out* when the widest band over a chunk
    misses its g range, *in* when the narrowest band holds it.  Only the
    undecided chunks above a row's top *in* chunk are evaluated pointwise;
    with no in-band point there, T* is the top of that *in* chunk.  Sound,
    because F is nondecreasing in z, so over a chunk it lies between its end
    values (widened by ``CHUNK_MARGIN``, far above the pointwise rounding);
    the half-width ``lam * sqrt(F (1 - F) / N)`` is concave in F, so its
    minimum lies at an end and its maximum at the F nearest 1/2; and the
    [0, 1] clamp never changes membership, as 0 < g < 1.  The colored band
    has no cheap interval bound and is scanned pointwise throughout.
    """
    unsorted = max(a.shape[-1] - SORTED_TOP, 0)
    if unsorted:
        a.partition(unsorted, axis=-1)
    a[..., unsorted:].sort(axis=-1)
    t = np.zeros(a.shape[0])
    end, size, blocks = a.shape[-1], SCAN_BLOCK, 0
    while end > 0 and rows.size:
        if end <= unsorted:  # in place, as a fancy-index copy costs twice a sort
            for part in [a[:, :end]] if rows.size == a.shape[0] else [a[i, :end] for i in rows]:
                part.sort(axis=-1)
            unsorted = 0
        if profile is None and blocks == POINTWISE_BLOCKS:
            t[rows] = _certified(a, end, sigma, lam, rows)
            break
        start = max(end - size, unsorted)
        z = a[rows, start:end]
        _, lower, upper = _band_edges(z, sigma[rows, None], a.shape[-1], lam, profile)
        g_mid = (np.arange(start + 1, end + 1) - 0.5) / a.shape[-1]
        inside = (g_mid >= lower) & (g_mid <= upper)
        hit = inside.any(axis=-1)
        last = end - start - 1 - np.argmax(inside[:, ::-1], axis=-1)
        t[rows[hit]] = z[hit, last[hit]]
        rows = rows[~hit]
        end, size, blocks = start, 2 * size, blocks + 1
    return t


def _certified(a, end, sigma, lam, rows) -> np.ndarray:
    """Thresholds of the white ``rows`` from chunk certificates over the sorted
    ``a[rows, :end]`` (see :func:`_select`); 0 where no point there is in band."""
    n = a.shape[-1]
    low = np.arange(0, end, CHUNK)
    high = np.minimum(low + CHUNK, end) - 1
    f_low = np.maximum(abs_noise_cdf(a[rows[:, None], low], sigma[rows, None]) - CHUNK_MARGIN, 0.0)
    f_high = np.minimum(abs_noise_cdf(a[rows[:, None], high], sigma[rows, None]) + CHUNK_MARGIN, 1.0)
    mid = np.clip(0.5, f_low, f_high)
    widest = lam * np.sqrt(mid * (1.0 - mid) / n)
    narrowest = lam * np.sqrt(np.minimum(f_low * (1.0 - f_low), f_high * (1.0 - f_high)) / n)
    g_low, g_high = (low + 0.5) / n, (high + 0.5) / n
    out = (g_low > f_high + widest) | (g_high < f_low - widest)
    inside = (g_low >= f_high - narrowest) & (g_high <= f_low + narrowest)
    top_in = np.where(inside.any(axis=-1), low.size - 1 - np.argmax(inside[:, ::-1], axis=-1), -1)
    r, c = np.nonzero(~out & ~inside & (np.arange(low.size) > top_in[:, None]))
    pos = np.minimum(low[c, None] + np.arange(CHUNK), high[c, None])
    _, lower, upper = _band_edges(a[rows[r, None], pos], sigma[rows[r], None], n, lam)
    g = (pos + 0.5) / n
    best = np.where(top_in >= 0, high[top_in], -1)
    np.maximum.at(best, r, np.where((g >= lower) & (g <= upper), pos, -1).max(axis=-1))
    return np.where(best >= 0, a[rows, best], 0.0)


def select_threshold(coeffs, sigma: float, lam: float = 4.5,
                     profile: CorrelationProfile | None = None) -> float:
    """Largest sorted absolute coefficient still inside the noise band.

    The band is over the N finite coefficients given: half-width
    ``lam * sqrt(F (1 - F) / N)``, or the correlated-noise band for a ``profile``.
    Returns 0 when no point is inside the band (keep everything) and the maximum
    absolute coefficient when every point is inside (discard everything).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    _check_finite(coeffs, "coefficients")
    a = np.abs(coeffs.ravel())[None]
    if a.size == 0:
        raise ValueError("coefficient vector must be nonempty")
    _check_band_args(sigma, a.size, lam)
    return float(_select(a, np.asarray([sigma], dtype=float), lam, profile, np.arange(1))[0])


def _analyse(observed, levels: int, sigma=None):
    """Finite check, transform and noise scale of every row of ``observed``, shape
    ``(rows, N)``; sigma is ``sigma`` (one, or one per row) if given, else the MAD
    estimate of the finest details.  Returns the coefficients and sigma."""
    observed = np.asarray(observed, dtype=float)
    _check_finite(observed, "observed samples")
    coeffs = dwt_forward(observed, levels)
    if sigma is None:
        return coeffs, estimate_sigma_mad(coeffs.detail_bands[0])
    return coeffs, np.broadcast_to(np.asarray(sigma, dtype=float), coeffs.values.shape[:-1])


def _shrink(coeffs, sigma, config: DenoiseConfig, rule, out):
    """Shrink the output of :func:`_analyse` with ``rule`` into ``out`` (``coeffs.values``,
    or a buffer rules share).  ``rule(coeffs, sigma, config)`` returns per-row thresholds,
    sigma and per-row band factories (or None); the thresholds have one column for all
    detail coefficients or one per detail level, and the approximation is copied unshrunk.
    Returns, per row, the largest threshold, ``out``, the kept count, sigma and the band
    factory.  Nothing is inverted: scoring ``out`` needs an orthonormal transform."""
    t, sigma, bands = rule(coeffs, sigma, config)
    segments = [coeffs.detail_values()] if t.shape[-1] == 1 else coeffs.detail_bands
    stop = 0
    for j, segment in enumerate(segments):
        start, stop = stop, stop + segment.shape[-1]
        soft_threshold(segment, t[:, j, None], out=out[..., start:stop])
    out[..., stop:] = coeffs.values[..., stop:]
    return np.max(t, axis=-1), out, np.count_nonzero(out[..., :stop], axis=-1), sigma, bands


def _nide_rule(coeffs, sigma, config):
    """The invalidation threshold of each row.  A row whose noise scale is
    negligible next to its largest coefficient passes through: 0, no band."""
    magnitude = np.abs(coeffs.values)
    peak = magnitude.max(axis=-1, initial=0.0)
    live = (sigma > SIGMA_FLOOR_RATIO * peak) & (peak != 0.0)
    a = magnitude[..., : coeffs.detail_values().shape[-1]]  # the details are a prefix
    t = _select(a, sigma, config.lam, config.profile, np.flatnonzero(live))
    bands = [
        partial(_sorted_band, curve, s, config) if ok else None
        for curve, ok, s in zip(a, live.tolist(), sigma.tolist())
    ]
    return t[:, None], sigma, bands


def _sorted_band(curve, sigma, config):
    """The band of ``config`` over ``curve`` sorted in place, a magnitude row owned
    by one result; built through the public band names, which tracers wrap."""
    curve.sort()
    if config.profile is None:
        return white_band(curve, sigma, n=curve.size, lam=config.lam)
    return colored_band(curve, sigma, config.profile, n=curve.size, lam=config.lam)


def _one(observed, config: DenoiseConfig, rule) -> DenoiseResult:
    """One signal through :func:`_analyse`, :func:`_shrink` in place and :func:`dwt_inverse`."""
    observed = np.asarray(observed, dtype=float)
    if observed.ndim > 1:
        raise ValueError(f"observed must be a 1-D sample vector, got shape {observed.shape}")
    coeffs, sigma = _analyse(observed[None], config.levels, config.sigma)
    threshold, _, kept, sigma, bands = _shrink(coeffs, sigma, config, rule, coeffs.values)
    return DenoiseResult(float(threshold[0]), dwt_inverse(coeffs)[0], int(kept[0]), float(sigma[0]),
                         bands[0] if bands else None)


def denoise(observed, config: DenoiseConfig = DenoiseConfig()) -> DenoiseResult:
    """Full pipeline: transform, band, threshold selection, shrink, inverse.

    The observed vector must have dyadic length at least ``2**config.levels``.
    """
    return _one(observed, config, _nide_rule)
