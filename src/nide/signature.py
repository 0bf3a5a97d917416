"""Sorted-coefficient noise signatures and their confidence bands.

The empirical signature of a sample vector at height ``z`` is the fraction of
entries with absolute value at most ``z``.  Averaged over N independent
Gaussian draws its mean is ``F(z)`` and its variance ``F(z)(1 - F(z)) / N``,
so the sorted-absolute-value curve of pure noise lives in a narrow band
around ``F``.  :func:`_band_edges` is the one band path: it picks the white
variance or the correlated-noise bound and clamps ``F +/- lam * sqrt(var)``
to [0, 1] for :func:`white_band`, :func:`colored_band` and the threshold scan.

:func:`colored_variance_bound` is a time-domain model of correlated noise: an
upper bound on the variance obtained by rotating each coefficient pair
``(V_i, V_j)`` into independent components with variances
``sigma^2 (1 +/- rho_ij)``, summed lag by lag.  The ``appendixD`` Monte Carlo
check and the tests run it; no workload does, as ``denoise`` standardizes each
Haar level by its own noise scale and runs the white band instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian_stats import _SQRT2, _check_count, _check_finite, _check_real, _check_sigma, abs_noise_cdf

__all__ = [
    "ConfidenceBand",
    "CorrelationProfile",
    "empirical_signature",
    "white_band",
    "colored_band",
    "colored_variance_bound",
]

# Correlations with magnitude below this contribute a pair covariance that is
# O(rho^2) and utterly negligible next to F(1-F)/N; skipping them keeps the
# lag sum O(N) and keeps the white case exact.
RHO_TRUNCATION = 1e-6

# Largest band multiplier accepted anywhere: the one the soundness argument of the
# threshold scan's inverted white band (``denoise._select``) is proven for.
LAM_MAX = 8.0


@dataclass(frozen=True)
class CorrelationProfile:
    """Normalized autocorrelation sequence ``rho[k] = R(k) / R(0)``.

    ``rho[0]`` must be 1 and every entry must be finite and lie in [-1, 1].
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if rho.ndim != 1 or rho.size == 0:
            raise ValueError("rho must be a nonempty 1-D sequence")
        bad = np.flatnonzero(~np.isfinite(rho))
        if bad.size:
            raise ValueError(f"rho must be finite, got {rho[bad[0]]} at lag {bad[0]}")
        if abs(rho[0] - 1.0) > 1e-12:
            raise ValueError(f"rho[0] must be 1, got {rho[0]}")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise ValueError("autocorrelation values must lie in [-1, 1]")
        rho = np.clip(rho, -1.0, 1.0)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise band ``[lower, upper]`` around the noise curve ``center = F``.

    ``lower``/``upper`` are clamped to [0, 1]; ``center`` is the unclamped
    ``F(z)``.  ``lam`` is the half-width multiplier, in [0, ``LAM_MAX``], and
    ``n`` the number of points the band is over, a positive integer.  The
    edges must satisfy ``0 <= lower <= center <= upper <= 1``.
    """

    z_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    center: np.ndarray
    lam: float
    n: int

    def __post_init__(self):
        for name in ("z_grid", "lower", "upper", "center"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.z_grid.shape == self.lower.shape == self.upper.shape == self.center.shape):
            raise ValueError("z_grid, lower, center, upper must have equal shapes")
        _check_count(1, n=self.n)
        _check_lam(self.lam)
        if not np.all((0.0 <= self.lower) & (self.lower <= self.center)
                      & (self.center <= self.upper) & (self.upper <= 1.0)):  # a NaN fails too
            raise ValueError("band edges must satisfy 0 <= lower <= center <= upper <= 1")

    def contains(self, values) -> np.ndarray:
        """Elementwise test of ``lower <= values <= upper``."""
        values = np.asarray(values, dtype=float)
        return (values >= self.lower) & (values <= self.upper)


def empirical_signature(z, samples):
    """Fraction of ``samples`` with ``|sample| <= z``.

    ``z`` may be a scalar or an array of evaluation points.  Ties count as
    inside (the comparison is ``<=``).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    _check_finite(samples, "samples")
    if np.isnan(z).any():  # searchsorted would place it above every sample
        raise ValueError("z must not be NaN")
    a = np.sort(np.abs(samples.ravel()))
    out = np.searchsorted(a, z, side="right") / a.size
    return float(out) if np.isscalar(z) else out


def _check_lam(lam) -> float:
    """``lam`` as a Python float, if it is a real number in [0, ``LAM_MAX``]."""
    lam = _check_real(lam, "lam")
    if not 0.0 <= lam <= LAM_MAX:  # a NaN fails too
        raise ValueError(f"lam must lie in [0, {LAM_MAX:g}], got {lam}")
    return lam


def _check_band_args(sigma, n, lam=0.0) -> None:
    _check_sigma(sigma)
    _check_count(1, n=n)
    _check_lam(lam)


def _band_edges(z, sigma, n, lam, profile=None):
    """``(F(z), lower, upper)``: ``F +/- lam * sqrt(var)`` clamped to [0, 1], with the
    white ``var = F (1 - F) / n`` or, given a profile, :func:`colored_variance_bound`
    (see :func:`colored_band`).  ``z`` may have any shape and ``sigma`` broadcasts
    against it.  Arguments are not validated here."""
    center = abs_noise_cdf(z, sigma)
    if profile is None:
        var = center * (1.0 - center) / n
    else:
        var = colored_variance_bound(z, sigma, profile, n)
    half = lam * np.sqrt(np.maximum(var, 0.0))
    return center, np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)


def _band(z_grid, sigma, n, lam, profile=None) -> ConfidenceBand:
    _check_band_args(sigma, n, lam)
    z = np.atleast_1d(np.asarray(z_grid, dtype=float))
    _check_finite(z, "z_grid")
    if np.any(z < 0):
        raise ValueError("z_grid must be nonnegative")
    if np.any(z[..., 1:] < z[..., :-1]):
        raise ValueError("z_grid must be ascending")
    center, lower, upper = _band_edges(z, sigma, n, lam, profile)
    return ConfidenceBand(
        z_grid=z,
        lower=lower,
        upper=upper,
        center=center,
        lam=float(lam),
        n=int(n),
    )


def white_band(z_grid, sigma: float, n: int, lam: float) -> ConfidenceBand:
    """Band around ``F(z)`` for N independent noise coefficients.

    Center ``F(z)``, half-width ``lam * sqrt(F (1 - F) / n)``, clamped to
    [0, 1].
    """
    return _band(z_grid, sigma, n, lam)


def colored_variance_bound(z, sigma: float, profile: CorrelationProfile, n: int):
    """Upper bound on the variance of the sorted-curve value at height ``z``
    for correlated Gaussian noise.

    The bound is ``F(1-F)/n`` plus, for every ordered pair at lag k (lag k
    occurs ``2 (n - k)`` times),

        ``F(sqrt(2) z / sqrt(1 + rho_k)) F(sqrt(2) z / sqrt(1 - rho_k)) - F(z)^2``

    which dominates the pair covariance because the rotated components
    ``(V_i +/- V_j)/sqrt(2)`` are independent with variances
    ``sigma^2 (1 +/- rho_k)``.  Lags with ``|rho_k| < RHO_TRUNCATION`` are
    treated as independent, and ``rho_k = +/-1`` takes the continuity limit
    ``F(sqrt(2) z / 0+) = 1``.
    """
    _check_band_args(sigma, n)
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    center = abs_noise_cdf(z, sigma)
    var = center * (1.0 - center) / n
    root2z, center_sq = _SQRT2 * z, center * center
    for k in np.flatnonzero(np.abs(profile.rho[1:n]) >= RHO_TRUNCATION) + 1:
        r = profile.rho[k]
        plus = abs_noise_cdf(root2z / np.sqrt(1.0 + r), sigma) if 1.0 + r > 0 else 1.0
        minus = abs_noise_cdf(root2z / np.sqrt(1.0 - r), sigma) if 1.0 - r > 0 else 1.0
        var += (plus * minus - center_sq) * (2.0 * (n - k) / n**2)
    return float(var[0]) if scalar else var


def colored_band(
    z_grid, sigma: float, profile: CorrelationProfile, n: int, lam: float
) -> ConfidenceBand:
    """Band around ``F(z)`` using :func:`colored_variance_bound` for the width.

    Reduces exactly to :func:`white_band` for a white profile.  Built by
    :func:`_band_edges`, like every band, whose colored branch calls the public
    bound so that profiles and traces show the bound as its own call.
    """
    return _band(z_grid, sigma, n, lam, profile)
