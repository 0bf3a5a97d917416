"""Classical shrinkage baselines: universal, SURE-based and Bayes thresholds.

These are the standard comparison rules for the benchmark tables.  The
universal (VisuShrink) threshold is applied globally; the SURE and Bayes
rules are applied per detail level, which is how those methods are normally
defined.
"""

from __future__ import annotations

import numpy as np

from .denoise import DenoiseConfig, DenoiseResult, _finite_samples, soft_threshold
from .noise_model import estimate_sigma_mad
from .wavelet import dwt_forward, dwt_inverse

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


def visu_threshold(n: int, sigma: float) -> float:
    """Universal threshold ``sigma * sqrt(2 ln n)``."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return float(sigma * np.sqrt(2.0 * np.log(n)))


def sure_risk(band, sigma: float, t: float) -> float:
    """Unbiased risk estimate of soft thresholding ``band`` at ``t``.

    ``n sigma^2 - 2 sigma^2 #{|x| <= t} + sum min(x^2, t^2)``.
    """
    band = np.asarray(band, dtype=float)
    n = band.size
    below = np.count_nonzero(np.abs(band) <= t)
    return float(n * sigma**2 - 2.0 * sigma**2 * below + np.sum(np.minimum(band**2, t**2)))


def sure_minimizer(band, sigma: float) -> float:
    """Threshold minimizing :func:`sure_risk` over candidates ``{0} | sorted |band|``."""
    band = np.asarray(band, dtype=float)
    n = band.size
    if n == 0:
        raise ValueError("band must be nonempty")
    sq = np.sort(band**2)
    candidates = np.concatenate([[0.0], np.sqrt(sq)])
    cumsq = np.concatenate([[0.0], np.cumsum(sq)])
    k = np.arange(n + 1)  # number of |x| <= candidate (ties share the value)
    risks = n * sigma**2 - 2.0 * sigma**2 * k + (cumsq + (n - k) * candidates**2)
    return float(candidates[np.argmin(risks)])


def sure_threshold(band, sigma: float) -> float:
    """Hybrid SURE threshold for one detail band.

    When the band passes the standard sparsity test (centered energy below
    ``(log2 n)^(3/2) / sqrt(n)``) the SURE estimate is unreliable and the
    universal threshold is used instead.  The result is always capped at the
    universal threshold.
    """
    band = np.asarray(band, dtype=float)
    n = band.size
    if n == 0:
        raise ValueError("band must be nonempty")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    universal = visu_threshold(n, sigma)
    energy_excess = (np.sum((band / sigma) ** 2) - n) / n
    sparsity_cut = np.log2(n) ** 1.5 / np.sqrt(n)
    if energy_excess <= sparsity_cut:
        return universal
    return min(sure_minimizer(band, sigma), universal)


def bayes_threshold(band, sigma: float) -> float:
    """Bayes threshold ``sigma^2 / sigma_x`` with
    ``sigma_x = sqrt(max(var(band) - sigma^2, 0))``.

    A band whose variance does not exceed the noise variance is treated as
    pure noise: the threshold is ``max |band|``, which zeroes it.
    """
    band = np.asarray(band, dtype=float)
    if band.size == 0:
        raise ValueError("band must be nonempty")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    variance = np.mean(band**2)  # detail bands are zero mean
    sigma_x = np.sqrt(max(variance - sigma**2, 0.0))
    if sigma_x == 0.0:
        return float(np.max(np.abs(band)))
    return float(sigma**2 / sigma_x)


def denoise_with(method: str, observed, config: DenoiseConfig = DenoiseConfig()) -> DenoiseResult:
    """Run the shrinkage pipeline with a baseline threshold rule.

    ``visu`` uses one global threshold over all detail bands; ``sure`` and
    ``bayes`` compute one threshold per detail level.  The reported
    ``threshold`` is the largest threshold applied.  ``nide`` is accepted for
    uniform dispatch and defers to :func:`nide.denoise.denoise`.
    """
    if method == "nide":
        from .denoise import denoise

        return denoise(observed, config)
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {BASELINE_METHODS + ('nide',)}")
    observed = _finite_samples(observed)
    coeffs = dwt_forward(observed, config.levels)
    if config.sigma is not None:
        sigma = float(config.sigma)
    else:
        sigma = estimate_sigma_mad(coeffs.detail_bands[0])
    sigma = max(sigma, np.finfo(float).tiny)

    if method == "visu":
        thresholds = [visu_threshold(observed.size, sigma)] * config.levels
    elif method == "sure":
        thresholds = [sure_threshold(b, sigma) for b in coeffs.detail_bands]
    else:
        thresholds = [bayes_threshold(b, sigma) for b in coeffs.detail_bands]

    shrunk = coeffs.copy()
    shrunk.detail_bands = [
        soft_threshold(b, t) for b, t in zip(shrunk.detail_bands, thresholds)
    ]
    kept = int(sum(np.count_nonzero(b) for b in shrunk.detail_bands))
    return DenoiseResult(
        threshold=float(max(thresholds)),
        denoised=dwt_inverse(shrunk),
        coefficients_kept=kept,
        sigma_used=sigma,
    )
