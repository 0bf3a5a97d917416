"""Sorted-coefficient noise signatures and their confidence bands.

The empirical signature of a sample vector at height ``z`` is the fraction of
entries with absolute value at most ``z``.  Averaged over N independent
Gaussian draws its mean is ``F(z)`` and its variance ``F(z)(1 - F(z)) / N``,
so the sorted-absolute-value curve of pure noise lives in a narrow band
around ``F``.  :func:`_band_edges` is the one band path: it picks the white
variance or the correlated-noise bound and clamps ``F +/- lam * sqrt(var)``
to [0, 1] for :func:`white_band`, :func:`colored_band` and the threshold scan.

Variance under correlated noise is handled with an upper bound obtained by
rotating each coefficient pair ``(V_i, V_j)`` into independent components
with variances ``sigma^2 (1 +/- rho_ij)``; see
:func:`colored_variance_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian_stats import _abs_cdf, _check_finite, _check_sigma, abs_noise_cdf, erf_std

__all__ = [
    "ConfidenceBand",
    "CorrelationProfile",
    "empirical_signature",
    "white_band",
    "colored_band",
    "colored_variance_bound",
    "lambda_to_confidence",
]

_SQRT2 = np.sqrt(2.0)

# Correlations with magnitude below this contribute a pair covariance that is
# O(rho^2) and utterly negligible next to F(1-F)/N; skipping them keeps the
# lag sum O(N) and keeps the white case exact.
RHO_TRUNCATION = 1e-6

# Largest (lags x points) block the lag sum of the variance bound evaluates
# at once.  Long profiles on long inputs are summed in slices of lags, whose
# 512 KB buffers stay in cache: on a 63488-point grid, blocks of 2^18 and
# 2^20 elements measured 25-60% slower.
_LAG_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class CorrelationProfile:
    """Normalized autocorrelation sequence ``rho[k] = R(k) / R(0)``.

    ``rho[0]`` must be 1 and every entry must be finite and lie in [-1, 1].
    ``active_lags`` holds, ascending, the lags ``k >= 1`` with
    ``|rho[k]| >= RHO_TRUNCATION``: the only lags the variance bound sums.
    """

    rho: np.ndarray
    active_lags: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(
            self, "active_lags", np.flatnonzero(np.abs(rho[1:]) >= RHO_TRUNCATION) + 1
        )


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise band ``[lower, upper]`` around the noise curve ``center = F``.

    ``lower``/``upper`` are clamped to [0, 1]; ``center`` is the unclamped
    ``F(z)``.  ``lam`` is the half-width multiplier and ``confidence`` the
    per-point normal coverage it corresponds to.
    """

    z_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    center: np.ndarray
    lam: float
    n: int
    confidence: float = field(default=float("nan"))

    def __post_init__(self):
        for name in ("z_grid", "lower", "upper", "center"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.z_grid.shape == self.lower.shape == self.upper.shape == self.center.shape):
            raise ValueError("z_grid, lower, center, upper must have equal shapes")

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
    a = np.sort(np.abs(samples.ravel()))
    out = np.searchsorted(a, z, side="right") / a.size
    return float(out) if np.isscalar(z) else out


def lambda_to_confidence(lam: float) -> float:
    """Per-point coverage of a ``lam``-standard-deviation normal interval."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return float(erf_std(lam / _SQRT2))


def _check_band_args(sigma, n, lam=0.0) -> None:
    _check_sigma(sigma)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n}")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")


def _pair_cdf(root2z, spread, sigma, out):
    """Rows ``F(sqrt(2) z / sqrt(spread_k))`` for ``spread = 1 +/- rho``, a
    leading lag axis against ``root2z = sqrt(2) z``, written into ``out``; a
    row is 1, the continuity limit, where ``spread_k`` is 0."""
    live = spread > 0
    np.divide(root2z, np.sqrt(np.where(live, spread, 1.0)), out=out)
    _abs_cdf(out, sigma, out)
    out[~live.ravel()] = 1.0
    return out


def _band_moments(z, sigma, n, profile=None):
    """Band kernel: center ``F(z)`` and the curve variance (bound) at ``z``.

    ``F`` is evaluated once.  A profile adds the pair terms of
    :func:`colored_variance_bound` for its active lags below ``n``, evaluated
    as one (lags x points) array per slice of lags in buffers reused across
    slices, and added to the variance one lag at a time in ascending order,
    so the sum is the same in every bit as a loop over the lags.  ``z`` may
    have any shape and ``sigma`` broadcasts against it.  Arguments are not
    validated here.
    """
    center = abs_noise_cdf(z, sigma)
    var = center * (1.0 - center) / n
    if profile is None:
        return center, var
    lags = profile.active_lags[: np.searchsorted(profile.active_lags, n)]
    rows = max(1, _LAG_BLOCK_ELEMENTS // max(z.size, 1))
    center_sq, root2z = center * center, _SQRT2 * z
    # Row 0 holds the running variance, rows 1.. the pair terms of a slice.
    acc = np.empty((min(rows, lags.size) + 1,) + center.shape)
    other = np.empty_like(acc[1:])
    acc[0] = var
    for start in range(0, lags.size, rows):
        k = lags[start : start + rows]
        r = profile.rho[k].reshape((-1,) + (1,) * z.ndim)
        terms = _pair_cdf(root2z, 1.0 + r, sigma, acc[1 : k.size + 1])
        terms *= _pair_cdf(root2z, 1.0 - r, sigma, other[: k.size])
        terms -= center_sq
        terms *= (2.0 * (n - k) / n**2).reshape(r.shape)
        np.add.accumulate(acc[: k.size + 1], axis=0, out=acc[: k.size + 1])
        acc[0] = acc[k.size]
    return center, acc[0]


def _band_edges(z, sigma, n, lam, profile=None):
    """``(F(z), lower, upper)``: ``F +/- lam * sqrt(var)`` clamped to [0, 1], with the
    white ``var = F (1 - F) / n`` or, given a profile, :func:`colored_variance_bound`
    (see :func:`colored_band`).  ``z`` may have any shape and ``sigma`` broadcasts
    against it.  Arguments are not validated here."""
    if profile is None:
        center, var = _band_moments(z, sigma, n)
    else:
        center, var = abs_noise_cdf(z, sigma), colored_variance_bound(z, sigma, profile, n)
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
        confidence=lambda_to_confidence(lam),
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
    _, var = _band_moments(z, sigma, n, profile)
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
