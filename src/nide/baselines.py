"""Classical shrinkage baselines: universal, SURE-based and Bayes thresholds.

These are the standard comparison rules for the benchmark tables.  The
universal (VisuShrink) threshold is applied globally; the SURE and Bayes
rules are applied per detail level, which is how those methods are normally
defined.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .denoise import DenoiseConfig, DenoiseResult, _nide_rule, _one
from .gaussian_stats import _check_finite, _check_sigma

__all__ = [
    "visu_threshold",
    "sure_risk",
    "sure_minimizer",
    "sure_threshold",
    "bayes_threshold",
    "denoise_with",
    "BASELINE_METHODS",
]

BASELINE_METHODS = ("visu", "sure", "bayes")


def _squares(sigma) -> np.ndarray:
    """``sigma**2`` elementwise with Python's float power, which can round
    differently from numpy's array square; the scalar rules used the former."""
    sigma = np.asarray(sigma, dtype=float)
    return np.array([s**2 for s in sigma.ravel().tolist()]).reshape(sigma.shape)


def _rows(band, sigma):
    """``band`` as ``(rows, n)`` and one finite positive sigma per row, validated."""
    band = np.asarray(band, dtype=float)
    if band.shape[-1] == 0:
        raise ValueError("band must be nonempty")
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), band.shape[:-1]).ravel()
    _check_sigma(sigma)
    return band.reshape(-1, band.shape[-1]), sigma


def visu_threshold(n: int, sigma):
    """Universal threshold ``sigma * sqrt(2 ln n)``; one per element of ``sigma``."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    sigma = np.asarray(sigma, dtype=float)
    _check_finite(sigma, "sigma")
    if np.any(sigma < 0):
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    t = sigma * np.sqrt(2.0 * np.log(n))
    return float(t) if t.ndim == 0 else t


def sure_risk(band, sigma: float, t: float) -> float:
    """Unbiased risk estimate of soft thresholding ``band`` at ``t``.

    ``n sigma^2 - 2 sigma^2 #{|x| <= t} + sum min(x^2, t^2)``.
    """
    band = np.asarray(band, dtype=float)
    n = band.size
    below = np.count_nonzero(np.abs(band) <= t)
    return float(n * sigma**2 - 2.0 * sigma**2 * below + np.sum(np.minimum(band**2, t**2)))


def sure_minimizer(band, sigma):
    """Threshold minimizing :func:`sure_risk` over candidates ``{0} | sorted |band|``,
    per row of ``band`` (last axis), with one ``sigma`` per row."""
    band = np.asarray(band, dtype=float)
    n = band.shape[-1]
    if n == 0:
        raise ValueError("band must be nonempty")
    sq = np.concatenate([np.zeros(band.shape[:-1] + (1,)), np.sort(band**2, axis=-1)], axis=-1)
    candidates, cumsq = np.sqrt(sq), np.cumsum(sq, axis=-1)
    k = np.arange(n + 1)  # number of |x| <= candidate (ties share the value)
    s2 = _squares(sigma)[..., None]
    risks = n * s2 - 2.0 * s2 * k + (cumsq + (n - k) * candidates**2)
    best = np.take_along_axis(candidates, np.argmin(risks, axis=-1)[..., None], axis=-1)[..., 0]
    return float(best) if best.ndim == 0 else best


def sure_threshold(band, sigma):
    """Hybrid SURE threshold for one detail band, per row of ``band`` (last
    axis) with one ``sigma`` per row; a float for a 1-D band.

    When the band passes the standard sparsity test (centered energy below
    ``(log2 n)^(3/2) / sqrt(n)``) the SURE estimate is unreliable and the
    universal threshold is used instead.  The result is always capped at the
    universal threshold.
    """
    rows, sigma = _rows(band, sigma)
    n = rows.shape[-1]
    t = visu_threshold(n, sigma)
    energy_excess = (np.sum((rows / sigma[:, None]) ** 2, axis=-1) - n) / n
    dense = ~(energy_excess <= np.log2(n) ** 1.5 / np.sqrt(n))
    if dense.any():  # the risk search runs only where its result is used
        t[dense] = np.minimum(sure_minimizer(rows[dense], sigma[dense]), t[dense])
    return float(t[0]) if np.ndim(band) == 1 else t.reshape(np.shape(band)[:-1])


def bayes_threshold(band, sigma):
    """Bayes threshold ``sigma^2 / sigma_x`` with
    ``sigma_x = sqrt(max(var(band) - sigma^2, 0))``, per row of ``band``
    (last axis) with one ``sigma`` per row; a float for a 1-D band.

    A band whose variance does not exceed the noise variance is treated as
    pure noise: the threshold is ``max |band|``, which zeroes it.
    """
    rows, sigma = _rows(band, sigma)
    s2 = _squares(sigma)
    variance = np.mean(rows**2, axis=-1)  # detail bands are zero mean
    sigma_x = np.sqrt(np.maximum(variance - s2, 0.0))
    noise_only = sigma_x == 0.0
    t = s2 / np.where(noise_only, 1.0, sigma_x)
    t[noise_only] = np.max(np.abs(rows[noise_only]), axis=-1)
    return float(t[0]) if np.ndim(band) == 1 else t.reshape(np.shape(band)[:-1])


def _baseline_rule(method, coeffs, sigma, config):
    """Pipeline rule of a classical threshold: one per row for ``visu``, one per row and
    detail level for ``sure`` and ``bayes``; sigma is floored at the smallest normal float."""
    sigma = np.maximum(sigma, np.finfo(float).tiny)
    if method == "visu":
        t = visu_threshold(coeffs.values.shape[-1], sigma)[..., None]
    else:
        rule = sure_threshold if method == "sure" else bayes_threshold
        t = np.stack([rule(b, sigma) for b in coeffs.detail_bands], axis=-1)
    return t, sigma, None


# The nide.denoise._shrink rule of every method.
_RULES = {"nide": _nide_rule, **{m: partial(_baseline_rule, m) for m in BASELINE_METHODS}}


def denoise_with(method: str, observed, config: DenoiseConfig = DenoiseConfig()) -> DenoiseResult:
    """Run the shrinkage pipeline with the threshold rule of ``method``.

    ``nide`` is the invalidation rule, the same run as
    :func:`nide.denoise.denoise`.  ``visu`` uses one global threshold over
    all detail bands; ``sure`` and ``bayes`` compute one threshold per detail
    level.  The reported ``threshold`` is the largest threshold applied.
    """
    if method not in _RULES:
        raise ValueError(f"unknown method {method!r}; choose from {tuple(_RULES)}")
    return _one(observed, config, _RULES[method])
