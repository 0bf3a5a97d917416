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
from .gaussian_stats import _check_count, _check_finite, _check_sigma

__all__ = [
    "visu_threshold",
    "sure_minimizer",
    "sure_threshold",
    "bayes_threshold",
    "denoise_with",
    "BASELINE_METHODS",
]

_SIGMA_MAX = float(np.sqrt(np.finfo(float).max))  # above it, sigma^2 overflows

# A rule whose squares of the band sum to inf would return a wrong threshold without a word.
_SQUARES_OVERFLOW = "the squares of the band sum past the largest float; scale the input down"


def _rows(band, sigma):
    """``band`` as ``(rows, n)``, one positive sigma up to ``_SIGMA_MAX`` per row, validated,
    and the sigmas' squares by ``np.float_power``, which rounds as Python's ``**`` does
    (numpy's array square can differ in the last bit)."""
    band = np.asarray(band, dtype=float)
    if band.shape[-1] == 0:
        raise ValueError("band must be nonempty")
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), band.shape[:-1]).ravel()
    _check_sigma(sigma)
    if sigma.max(initial=0.0) > _SIGMA_MAX:
        raise ValueError(f"sigma must be at most {_SIGMA_MAX:.6g} (its square overflows), got {sigma.max():.6g}")
    return band.reshape(-1, band.shape[-1]), sigma, np.float_power(sigma, 2.0)


def visu_threshold(n: int, sigma):
    """Universal threshold ``sigma * sqrt(2 ln n)``; one per element of ``sigma``."""
    _check_count(1, n=n)
    sigma = np.asarray(sigma, dtype=float)
    _check_finite(sigma, "sigma")
    if np.any(sigma < 0):
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    t = sigma * np.sqrt(2.0 * np.log(n))
    return float(t) if t.ndim == 0 else t


def sure_minimizer(band, sigma):
    """Threshold minimizing Stein's unbiased risk of soft thresholding at ``t``,
    ``n sigma^2 - 2 sigma^2 #{|x| <= t} + sum min(x^2, t^2)``, over the candidates
    ``{0} | sorted |band|``, per row of ``band`` (last axis), with one ``sigma`` per
    row.  A row whose squares sum past the largest float, or a sigma whose
    ``n sigma^2`` is not finite, is rejected with ``ValueError``."""
    band = np.asarray(band, dtype=float)
    n = band.shape[-1]
    if n == 0:
        raise ValueError("band must be nonempty")
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(over="ignore"):  # checked below
        s2 = np.float_power(sigma, 2.0)[..., None]
        sq = np.concatenate([np.zeros(band.shape[:-1] + (1,)), np.sort(band**2, axis=-1)], axis=-1)
        candidates, cumsq, ns2 = np.sqrt(sq), np.cumsum(sq, axis=-1), n * s2
    if np.isinf(cumsq[..., -1]).any():
        raise ValueError(_SQUARES_OVERFLOW)
    if not np.isfinite(ns2).all():
        raise ValueError(f"n sigma^2 must be finite, got sigma up to {np.max(sigma):.6g} at n = {n}")
    k = np.arange(n + 1)  # number of |x| <= candidate (ties share the value)
    # ns2 - 2 s2 k + (cumsq + (n - k) candidates^2), each operation in that order, in two buffers
    lead, risks = np.multiply(2.0 * s2, k), np.multiply(candidates, candidates)
    np.add(cumsq, np.multiply(n - k, risks, out=risks), out=risks)
    np.add(np.subtract(ns2, lead, out=lead), risks, out=risks)
    best = np.take_along_axis(candidates, np.argmin(risks, axis=-1)[..., None], axis=-1)[..., 0]
    return float(best) if best.ndim == 0 else best


def _sure_rows(rows, sigma, s2):
    """:func:`sure_threshold` of validated ``(rows, n)`` and their sigmas; ``s2`` is not
    read, as the risk search squares the sigmas of the dense rows itself."""
    n = rows.shape[-1]
    t = visu_threshold(n, sigma)
    with np.errstate(over="ignore"):  # a sigma far below the band: inf energy reads as dense
        energy_excess = (np.sum((rows / sigma[:, None]) ** 2, axis=-1) - n) / n
    dense = ~(energy_excess <= np.log2(n) ** 1.5 / np.sqrt(n))
    if dense.any():  # the risk search runs only where its result is used
        t[dense] = np.minimum(sure_minimizer(rows[dense], sigma[dense]), t[dense])
    return t


def sure_threshold(band, sigma):
    """Hybrid SURE threshold for one detail band, per row of ``band`` (last
    axis) with one ``sigma`` per row; a float for a 1-D band.

    When the band passes the standard sparsity test (centered energy below
    ``(log2 n)^(3/2) / sqrt(n)``) the SURE estimate is unreliable and the
    universal threshold is used instead.  The result is always capped at the
    universal threshold.
    """
    t = _sure_rows(*_rows(band, sigma))
    return float(t[0]) if np.ndim(band) == 1 else t.reshape(np.shape(band)[:-1])


def _bayes_rows(rows, sigma, s2):
    """:func:`bayes_threshold` of validated ``(rows, n)``, their sigmas and their
    squares ``s2``."""
    with np.errstate(over="ignore"):  # checked below
        variance = np.mean(rows**2, axis=-1)  # detail bands are zero mean
    if np.isinf(variance).any():
        raise ValueError(_SQUARES_OVERFLOW)
    sigma_x = np.sqrt(np.maximum(variance - s2, 0.0))
    noise_only = sigma_x == 0.0
    t = s2 / np.where(noise_only, 1.0, sigma_x)
    t[noise_only] = np.max(np.abs(rows[noise_only]), axis=-1)
    return t


def bayes_threshold(band, sigma):
    """Bayes threshold ``sigma^2 / sigma_x`` with
    ``sigma_x = sqrt(max(var(band) - sigma^2, 0))``, per row of ``band``
    (last axis) with one ``sigma`` per row; a float for a 1-D band.

    A band whose variance does not exceed the noise variance is treated as
    pure noise: the threshold is ``max |band|``, which zeroes it.  A row whose
    squares sum past the largest float is rejected with ``ValueError``.
    """
    t = _bayes_rows(*_rows(band, sigma))
    return float(t[0]) if np.ndim(band) == 1 else t.reshape(np.shape(band)[:-1])


def _visu_rule(coeffs, sigma, config):
    """Pipeline rule of the universal threshold: one per row for all detail coefficients,
    from sigma floored at the smallest normal float."""
    sigma = np.maximum(sigma, np.finfo(float).tiny)
    return visu_threshold(coeffs.values.shape[-1], sigma)[..., None], None


def _level_rule(kernel, coeffs, sigma, config):
    """Pipeline rule of a per-level threshold: ``kernel(band, sigma, sigma^2)`` per row and
    detail level, from sigma floored at the smallest normal float, checked and squared once
    for every level."""
    _, sigma, s2 = _rows(coeffs.detail_values(), np.maximum(sigma, np.finfo(float).tiny))
    return np.stack([kernel(b, sigma, s2) for b in coeffs.detail_bands], axis=-1), None


# The one table from method name to threshold rule: (coeffs, sigma, config) -> (thresholds,
# band factories).
_RULES = {"nide": _nide_rule, "visu": _visu_rule,
          "sure": partial(_level_rule, _sure_rows), "bayes": partial(_level_rule, _bayes_rows)}
BASELINE_METHODS = tuple(_RULES)[1:]  # every method but nide


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
