"""Noise-invalidation threshold selection and the soft-threshold pipeline.

The threshold is chosen by sorting the absolute coefficients and testing, at
each sorted value, whether the empirical curve is still inside the noise
confidence band.  Everything at or below the last in-band point behaves like
pure noise and is invalidated; the last in-band value is the threshold.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy.special import erfinv

from .gaussian_stats import _check_count, _check_finite, _check_real, _check_sigma
from .noise_model import _level_ratios, estimate_sigma_mad
from .signature import (
    ConfidenceBand,
    CorrelationProfile,
    _band_edges,
    _check_band_args,
    _check_lam,
    white_band,
)
from .wavelet import CoefficientSet, dwt_forward, dwt_inverse

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

# Points in the first block of the top-down band scan.  Blocks double within the top
# SORTED_TOP points (four blocks, and the first points sorted) and grow eight times
# below them, where each further sort takes 32 times the points already sorted.
SCAN_BLOCK = 8
SORTED_TOP = 15 * SCAN_BLOCK

# Margin in F of the inverted white band; _select says why it is sound.
EDGE_MARGIN = 1e-9

# Most bytes the inverted white band tables may take, 32 per curve point: four
# tables for N = 2^16, one for N = 2^18.  _white_edges drops the oldest (n, lam)
# first; a longer curve gets no table.
_EDGE_CACHE_BYTES = 1 << 23
_edge_cache: dict = {}  # (n, lam) -> its read-only (4, n) table, or None until built
_edge_lock = threading.Lock()


@dataclass(frozen=True)
class DenoiseConfig:
    """Configuration of the denoising pipeline.

    ``sigma=None`` estimates the noise scale from the finest detail band by the robust median
    rule.  A :class:`CorrelationProfile` gives the noise's correlation: invalidation then
    standardizes each detail level by its noise ratio (see :func:`_nide_rule`), and sigma
    stays the marginal noise scale.  Every rule thresholds the detail bands, never the
    approximation.
    """

    levels: int = 5
    lam: float = 4.5
    sigma: float | None = None
    profile: CorrelationProfile | None = None
    threshold_scope = "details"  # not a field: perfbench's tracer reads it on denoise calls

    def __post_init__(self):
        _check_count(1, levels=self.levels)
        object.__setattr__(self, "lam", _check_lam(self.lam))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _check_real(self.sigma, "sigma"))
            _check_sigma(self.sigma)

    @cached_property
    def level_ratios(self) -> np.ndarray | None:
        """The noise ratios r_j of ``profile`` at the detail levels (see
        :func:`~nide.noise_model._level_ratios`), worked out on first read and kept for
        every later call with this config; None without a profile."""
        return None if self.profile is None else _level_ratios(self.profile, self.levels)


@dataclass
class DenoiseResult:
    """Output of one pipeline run.

    ``band`` is the noise band the threshold was selected against.  It is
    built from ``band_factory`` on first read and cached, and it is ``None``
    when no band was used (noise-free passthrough, baseline rules).  Under a
    correlation profile its ``z_grid`` is the standardized curve, each detail
    level divided by its noise ratio r_j, with the white band's edges; its last
    in-band point is T*, and ``threshold`` is the largest ``min(T* r_j, max |c_j|)``.
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
    if not np.all(t >= 0):  # a NaN fails too
        raise ValueError(f"threshold must be nonnegative, got {np.min(t)}")
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.empty_like(coeffs) if out is None else out
    clipped = np.clip(coeffs, -t, t, out=None if np.may_share_memory(coeffs, out) else out)
    return np.subtract(coeffs, clipped, out=out)


def _white_edges(n, lam):
    """The white band inverted, as a read-only table of rows ``(out_lo, out_hi, in_lo,
    in_hi)`` of u = z / sigma at the positions p = 0 .. n - 1 of an n-point curve counted
    from its top: at g = (n - p - 1/2) / n, the roots of ``(F - g)^2 = (lam^2 / n) F (1 - F)``,
    where F = erf(u / sqrt(2)) meets a band edge, widened and narrowed by ``EDGE_MARGIN``.
    Its erfinv costs more than the band at a point, so a table pays only when (n, lam)
    repeats: the first call for an (n, lam) only records it and returns None, the second
    builds the whole table, and every later one returns that table.  Tables share
    ``_EDGE_CACHE_BYTES``, the oldest (n, lam) dropped first when a new one is recorded;
    a curve too long for the budget gets None."""
    edges = _edge_cache.get((n, lam))
    if edges is not None or 32 * n > _EDGE_CACHE_BYTES:
        return edges
    with _edge_lock:  # the cache is checked, then changed
        if (n, lam) not in _edge_cache:
            _edge_cache[n, lam] = None
            while sum(32 * m for m, _ in _edge_cache) > _EDGE_CACHE_BYTES:
                del _edge_cache[next(iter(_edge_cache))]  # the oldest first
        elif _edge_cache[n, lam] is None:
            g = (n - np.arange(n) - 0.5) / n
            c = lam * lam / n
            root = np.sqrt(c * (4.0 * g * (1.0 - g) + c))  # sqrt((2g + c)^2 - 4 (1 + c) g^2)
            f_lo, f_hi = (2.0 * g + c - root) / (2.0 + 2.0 * c), (2.0 * g + c + root) / (2.0 + 2.0 * c)
            f = np.stack([f_lo - EDGE_MARGIN, f_hi + EDGE_MARGIN, f_lo + EDGE_MARGIN, f_hi - EDGE_MARGIN])
            edges = np.sqrt(2.0) * erfinv(np.clip(f, 0.0, 1.0))
            edges.flags.writeable = False
            _edge_cache[n, lam] = edges
        return _edge_cache[n, lam]


def _select(a, sigma, lam, rows) -> np.ndarray:
    """Thresholds for the rows ``rows`` of ``a`` (absolute coefficients, shape
    ``(rows, N)``, each row with the band over its N points) with per-row noise
    scales ``sigma``, positive on ``rows`` and not checked here; the other rows get 0.
    ``a`` is reordered in place, no deeper than the scans read: each row of ``rows``
    ends in its largest values sorted ascending, at least as many as its scan read,
    above the rest in no order.  They are sorted in chunks, each partitioned out of the
    rest and sorted: first ``SORTED_TOP`` points, then 32 times those already sorted,
    or the whole rest when that is smaller.  The other rows are left as given.

    Membership is tested at the midpoint position (m - 1/2) / N: at m / N the top
    point is always in the clamped band, so a curve that left it would report its
    maximum as "in band".  T* is the *last* in-band point, so the scan runs from the
    top down in blocks of ``SCAN_BLOCK``, twice that, ... points within ``SORTED_TOP``
    and eight times the last below it (each cut at the sorted depth), up to the first
    block with an in-band point.  A white point is placed by its ``z / sigma``
    against the table of :func:`_white_edges`, looked up once per call: outside the
    widened band it is out, and a row whose first point inside that lies inside the
    narrowed band is done.  Every other row (every row of a scan with no table: the
    first scan of an (N, lam), or one too long for the budget; a row with its first
    candidate in the margin) has its whole block evaluated
    by :func:`~nide.signature._band_edges`.  Sound: outside the margin the
    exact band misses or holds g by at least 5e-10 (the slack is concave in F inside
    the band and convex outside, so least at the margin's edges: 5.04e-10 for N up
    to 2^20 and lam up to ``signature.LAM_MAX`` = 8, the most any lam may be), while
    F, the band edges and the table are evaluated to about 1e-15.
    """
    n, t = a.shape[-1], np.zeros(a.shape[0])
    stop, size, s, done = 0, SCAN_BLOCK, sigma[rows, None], 0  # done: points sorted on top
    edges = _white_edges(n, float(lam)) if rows.size else None
    while stop < n and rows.size:
        if stop == done:  # every sorted point read: the next chunk of the rest goes on top
            rest = n - done
            chunk = min(max(SORTED_TOP, 32 * done), rest)
            # in place, as a fancy-index copy costs twice a sort
            for part in [a[:, :rest]] if rows.size == a.shape[0] else [a[i, :rest] for i in rows]:
                if chunk < rest:
                    part.partition(rest - chunk, axis=-1)
                part[..., rest - chunk:].sort(axis=-1)
            done += chunk
        top, stop = stop, min(stop + size, done)
        size *= 2 if stop < SORTED_TOP else 8
        z, r = a[:, ::-1][rows, top:stop], np.arange(rows.size)  # descending
        if edges is None:  # exact: the rows the table cannot decide
            exact, inside = r, np.empty(z.shape, bool)
        else:
            out_lo, out_hi, in_lo, in_hi = edges[:, top:stop]
            u = z / s
            inside = (u >= out_lo) & (u <= out_hi)
            first = np.argmax(inside, axis=-1)
            hit = inside[r, first]
            if not hit.any():
                continue
            u_first = u[r, first]
            exact = r[hit & ((u_first < in_lo[first]) | (u_first > in_hi[first]))]
        if exact.size:
            _, lower, upper = _band_edges(z[exact], s[exact], n, lam)
            g = (n - 0.5 - np.arange(top, stop)) / n
            inside[exact] = (g >= lower) & (g <= upper)
            first = np.argmax(inside, axis=-1)
            hit = inside[r, first]
        if hit.any():
            t[rows[hit]] = z[hit, first[hit]]
            rows, s = rows[~hit], s[~hit]
    return t


def select_threshold(coeffs, sigma: float, lam: float = DenoiseConfig.lam) -> float:
    """Largest sorted absolute coefficient still inside the noise band.

    The band is over the N finite coefficients given, as independent noise of scale
    ``sigma``: half-width ``lam * sqrt(F (1 - F) / N)``.
    Returns 0 when no point is inside the band (keep everything) and the maximum
    absolute coefficient when every point is inside (discard everything).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    _check_finite(coeffs, "coefficients")
    a = np.abs(coeffs.ravel())[None]
    if a.size == 0:
        raise ValueError("coefficient vector must be nonempty")
    sigma = _check_real(sigma, "sigma")
    _check_band_args(sigma, a.size, lam)
    return float(_select(a, np.asarray([sigma]), lam, np.arange(1))[0])


def _transform(observed, levels: int) -> CoefficientSet:
    """Magnitude check and transform of every row of ``observed``, shape ``(rows, N)``.

    Every sum the forward and inverse transforms form, with the details shrunk or
    not, stays below 2.2 sqrt(N) times the largest sample magnitude, so samples up
    to the largest float over 4 sqrt(N) cannot overflow; larger ones, NaN and
    infinities are rejected."""
    observed = np.asarray(observed, dtype=float)
    n = observed.shape[-1]
    limit = np.finfo(float).max / (4.0 * np.sqrt(max(n, 1)))
    if not max(-observed.min(initial=0.0), observed.max(initial=0.0)) <= limit:  # NaN fails too
        _check_finite(observed, "observed samples")
        raise ValueError(f"observed samples must be at most {limit:.6g} in magnitude at N = {n}, "
                         "or the Haar transform overflows")
    return dwt_forward(observed, levels)


def _noise_scale(coeffs: CoefficientSet, sigma=None) -> np.ndarray:
    """The noise scale of every row of ``coeffs``: ``sigma`` (one, or one per row) if
    given, else the MAD estimate of the finest details."""
    return (estimate_sigma_mad(coeffs.detail_bands[0]) if sigma is None
            else np.broadcast_to(np.asarray(sigma, dtype=float), coeffs.values.shape[:-1]))


def _shrink(coeffs, t, out) -> None:
    """Soft-threshold the detail coefficients of ``coeffs`` with a rule's per-row thresholds
    ``t`` into ``out`` (``coeffs.values``, or a buffer rules share) and copy the approximation
    unshrunk.  ``t`` has one column for all detail coefficients or one per detail level.
    Nothing is inverted: scoring ``out`` needs an orthonormal transform."""
    segments = [coeffs.detail_values()] if t.shape[-1] == 1 else coeffs.detail_bands
    stop = 0
    for j, segment in enumerate(segments):
        start, stop = stop, stop + segment.shape[-1]
        soft_threshold(segment, t[:, j, None], out=out[..., start:stop])
    out[..., stop:] = coeffs.values[..., stop:]


def _nide_rule(coeffs, sigma, config):
    """The invalidation threshold of each row.  A row whose noise scale is
    negligible next to its largest coefficient passes through: 0, no band.

    Under a ``config.profile`` each detail level j is divided by its noise ratio
    r_j = sigma_j / sigma (:attr:`DenoiseConfig.level_ratios`), so every pooled
    coefficient has noise scale sigma, and the white scan's T* gives level j the threshold
    ``min(T* r_j, max |c_j|)``: at or above the level's largest magnitude it zeroes the
    level either way, so the clip changes no output and no threshold exceeds the details."""
    magnitude = np.abs(coeffs.values)
    peak = magnitude.max(axis=-1, initial=0.0)
    live = (sigma > SIGMA_FLOOR_RATIO * peak) & (peak != 0.0)
    a = magnitude[..., : coeffs.detail_values().shape[-1]]  # the details are a prefix
    if config.profile is not None:  # each detail level divided by its noise ratio, in place
        levels = CoefficientSet(magnitude, coeffs.levels).detail_bands
        peaks = np.stack([level.max(axis=-1) for level in levels], axis=-1)
        a /= np.repeat(config.level_ratios, [level.shape[-1] for level in levels])
    t = _select(a, sigma, config.lam, np.flatnonzero(live))[:, None]
    bands = [
        partial(_sorted_band, curve, s, config.lam) if ok else None
        for curve, ok, s in zip(a, live.tolist(), sigma.tolist())
    ]
    return (t if config.profile is None else np.minimum(t * config.level_ratios, peaks)), bands


def _sorted_band(curve, sigma, lam):
    """The white band over ``curve`` sorted in place, a magnitude row owned by one
    result (standardized under a profile); built through the public band name, which
    tracers wrap."""
    curve.sort()
    return white_band(curve, sigma, n=curve.size, lam=lam)


def _one(observed, config: DenoiseConfig, rule) -> DenoiseResult:
    """One signal through :func:`_transform`, :func:`_noise_scale`, ``rule``, :func:`_shrink`
    in place and :func:`dwt_inverse`.  ``rule(coeffs, sigma, config)`` returns per-row
    thresholds (see :func:`_shrink`) and per-row band factories, or None; sigma is reported
    as analysed."""
    observed = np.asarray(observed, dtype=float)
    if observed.ndim > 1:
        raise ValueError(f"observed must be a 1-D sample vector, got shape {observed.shape}")
    coeffs = _transform(observed[None], config.levels)
    sigma = _noise_scale(coeffs, config.sigma)
    t, bands = rule(coeffs, sigma, config)
    _shrink(coeffs, t, coeffs.values)
    return DenoiseResult(float(t.max()), dwt_inverse(coeffs)[0],
                         int(np.count_nonzero(coeffs.detail_values() != 0.0)), float(sigma[0]),
                         bands[0] if bands else None)


def denoise(observed, config: DenoiseConfig = DenoiseConfig()) -> DenoiseResult:
    """Full pipeline: transform, band, threshold selection, shrink, inverse.

    The observed vector must have dyadic length at least ``2**config.levels``.
    """
    return _one(observed, config, _nide_rule)
