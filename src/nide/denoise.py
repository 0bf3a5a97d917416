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

from .noise_model import estimate_sigma_mad
from .signature import (
    ConfidenceBand,
    CorrelationProfile,
    _band_edges,
    _band_moments,
    _checked_grid,
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

# Points in the first block of the top-down band scan; each further block
# is twice as long.
SCAN_BLOCK = 64


@dataclass(frozen=True)
class DenoiseConfig:
    """Configuration of the denoising pipeline.

    ``sigma=None`` estimates the noise scale from the finest detail band by
    the robust median rule.  ``profile=None`` selects the white-noise band;
    a :class:`CorrelationProfile` selects the correlated-noise band.
    ``threshold_scope`` is ``"details"`` (approximation band untouched, the
    default) or ``"all"``.
    """

    levels: int = 5
    lam: float = 4.5
    sigma: float | None = None
    profile: CorrelationProfile | None = None
    threshold_scope: str = "details"

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if not 0.0 <= self.lam <= 8.0:
            raise ValueError(f"lam must lie in [0, 8], got {self.lam}")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError(f"sigma must be positive when given, got {self.sigma}")
        if self.threshold_scope not in ("details", "all"):
            raise ValueError("threshold_scope must be 'details' or 'all'")


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


def _finite_samples(observed) -> np.ndarray:
    """``observed`` as a float array; raises ValueError on NaN or infinity."""
    observed = np.asarray(observed, dtype=float)
    bad = np.count_nonzero(~np.isfinite(observed))
    if bad:
        raise ValueError(
            f"observed samples must be finite; found {bad} NaN or infinite value(s)"
        )
    return observed


def soft_threshold(coeffs, t: float) -> np.ndarray:
    """Shrink toward zero: ``sgn(c) * max(|c| - t, 0)`` elementwise."""
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    coeffs = np.asarray(coeffs, dtype=float)
    return np.sign(coeffs) * np.maximum(np.abs(coeffs) - t, 0.0)


def _select(a, sigma, n, lam, profile) -> float:
    """Threshold for the ascending absolute coefficients ``a``.

    Band membership is tested at the midpoint plotting position
    (m - 1/2) / N.  With g = m/N the final point (g = 1) always lies inside
    the clamped band, so a curve that departed and never returned would
    still report its maximum as "in band"; the half-step removes that
    artifact without moving interior points by more than half a grid step.

    The threshold is the *last* in-band point, so the band is evaluated
    from the top of the curve down, in blocks of ``SCAN_BLOCK``,
    ``2 * SCAN_BLOCK``, ... points, and the scan stops at the first block
    holding an in-band point.  Each point gets the same band values as in a
    band built over the whole curve.
    """
    if a.size == 0:
        raise ValueError("coefficient vector must be nonempty")
    _checked_grid(a, sigma, n, lam)
    end, size = a.size, SCAN_BLOCK
    while end > 0:
        start = max(end - size, 0)
        center, var = _band_moments(a[start:end], sigma, n, profile)
        lower, upper = _band_edges(center, var, lam)
        g_mid = (np.arange(start + 1, end + 1) - 0.5) / a.size
        inside = np.flatnonzero((g_mid >= lower) & (g_mid <= upper))
        if inside.size:
            return float(a[start + inside[-1]])
        end, size = start, 2 * size
    return 0.0


def select_threshold(coeffs, sigma: float, n: int | None = None,
                     lam: float = 4.5, profile: CorrelationProfile | None = None) -> float:
    """Largest sorted absolute coefficient still inside the noise band.

    Returns 0 when no point is inside the band (keep everything) and the
    maximum absolute coefficient when every point is inside (discard
    everything).  ``n`` defaults to the number of coefficients and controls
    the band width; ``profile`` switches to the correlated-noise band.
    """
    a = np.sort(np.abs(np.asarray(coeffs, dtype=float).ravel()))
    return _select(a, sigma, a.size if n is None else int(n), lam, profile)


def denoise(observed, config: DenoiseConfig = DenoiseConfig()) -> DenoiseResult:
    """Full pipeline: transform, band, threshold selection, shrink, inverse.

    The observed vector must have dyadic length at least ``2**config.levels``.
    """
    coeffs = dwt_forward(_finite_samples(observed), config.levels)
    if config.sigma is not None:
        sigma = float(config.sigma)
    else:
        sigma = estimate_sigma_mad(coeffs.detail_bands[0])

    if config.threshold_scope == "details":
        scope = coeffs.detail_values()
    else:
        scope = coeffs.flatten()

    peak = float(np.max(np.abs(coeffs.flatten()), initial=0.0))
    if sigma <= SIGMA_FLOOR_RATIO * peak or peak == 0.0:
        # Noise-free input: the band collapses to a line, pass through.
        return DenoiseResult(
            threshold=0.0,
            denoised=dwt_inverse(coeffs),
            coefficients_kept=int(np.count_nonzero(scope)),
            sigma_used=sigma,
        )

    a = np.sort(np.abs(scope))
    tstar = _select(a, sigma, a.size, config.lam, config.profile)

    shrunk = coeffs.copy()
    shrunk.detail_bands = [soft_threshold(b, tstar) for b in shrunk.detail_bands]
    if config.threshold_scope == "all":
        shrunk.approx_band = soft_threshold(shrunk.approx_band, tstar)
    kept = int(np.sum(np.abs(scope) > tstar))
    return DenoiseResult(
        threshold=tstar,
        denoised=dwt_inverse(shrunk),
        coefficients_kept=kept,
        sigma_used=sigma,
        band_factory=(
            partial(white_band, a, sigma, a.size, config.lam)
            if config.profile is None
            else partial(colored_band, a, sigma, config.profile, a.size, config.lam)
        ),
    )
