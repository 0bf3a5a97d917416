"""Gaussian noise generation (white and colored), SNR calibration, and the
robust median-based noise-scale estimator.

Colored noise comes in two flavours: a first-order autoregressive process
(``ar1``) and a finite moving average (``ma``).  Every kind filters one draw of
Gaussian innovations; white noise is the one-tap filter ``[1]``.  Generators
always rescale so the stationary marginal variance equals ``sigma**2``, which
keeps the signature band center comparable across noise kinds.  ``gen_noise`` takes
one seed or a sequence of them; a sequence gives one row per seed, each the
row its seed gives alone, so a Monte Carlo loop can draw all its trials in
one call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gaussian_stats import _check_count, _check_finite, _check_sigma
from .signature import CorrelationProfile

__all__ = [
    "NoiseSpec",
    "gen_noise",
    "theoretical_profile",
    "calibrate_noise_to_snr",
    "estimate_sigma_mad",
]

# Gaussian consistency constant: median(|N(0,1)|) = 0.6745 (to 4 digits).
MAD_SCALE = 0.6745
# Lowest SNR accepted: its MSE (about 1e100) is squared for the spread, which overflows below -1540 dB.
SNR_DB_MIN = -1000.0


@dataclass(frozen=True)
class NoiseSpec:
    """Noise description: kind plus marginal standard deviation.

    ``kind`` is one of ``white``, ``ar1`` (with coefficient ``ar_coeff`` in
    (-1, 1)) or ``ma`` (with a 1-D tap sequence ``ma_taps``, kept as a tuple of
    floats so that specs compare and hash by value).
    """

    kind: str
    sigma: float = 1.0
    ar_coeff: float | None = None
    ma_taps: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("white", "ar1", "ma"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        _check_sigma(self.sigma)
        if self.kind == "ar1" and (self.ar_coeff is None or not abs(self.ar_coeff) < 1):
            raise ValueError("ar1 coefficient must satisfy |a| < 1")
        if self.kind == "ma":
            taps = np.atleast_1d(np.asarray(self.ma_taps, dtype=float))
            if taps.ndim != 1:
                raise ValueError(f"ma taps must be a 1-D sequence, got shape {taps.shape}")
            with np.errstate(over="ignore", under="ignore"):
                energy = np.sum(taps**2)  # gen_noise and theoretical_profile divide by it
            if not 0.0 < energy < np.inf:  # so no tap is NaN or infinite, and one is nonzero
                raise ValueError(f"ma taps' sum of squares must be finite and positive, got "
                                 f"{energy:g} for taps {taps}")
            object.__setattr__(self, "ma_taps", tuple(taps.tolist()))

    @classmethod
    def white(cls, sigma: float = 1.0) -> "NoiseSpec":
        return cls(kind="white", sigma=sigma)

    @classmethod
    def ar1(cls, a: float, sigma: float = 1.0) -> "NoiseSpec":
        return cls(kind="ar1", sigma=sigma, ar_coeff=a)

    @classmethod
    def ma(cls, taps, sigma: float = 1.0) -> "NoiseSpec":
        return cls(kind="ma", sigma=sigma, ma_taps=taps)

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse a CLI noise string, ``white``, ``ar1:<a>`` or ``ma:<t1,t2,...>``, at unit sigma."""
        text = text.strip()
        if text == "white":
            return cls.white()
        if text.startswith("ar1:"):
            return cls.ar1(float(text[4:]))
        if text.startswith("ma:"):
            return cls.ma([float(t) for t in text[3:].split(",") if t])
        raise ValueError(f"cannot parse noise spec {text!r}")

    def describe(self) -> str:
        """Inverse of :meth:`parse` (sigma not included)."""
        if self.kind == "ar1":
            return f"ar1:{self.ar_coeff:g}"
        return "ma:" + ",".join(f"{t:g}" for t in self.ma_taps) if self.kind == "ma" else "white"


def gen_noise(spec: NoiseSpec, n: int, seed: int | Sequence[int]) -> np.ndarray:
    """Zero-mean Gaussian sequence of length ``n`` with marginal std ``spec.sigma``.

    Deterministic for a fixed ``(spec, n, seed)``.  AR output is started from
    its stationary distribution, so the marginal variance is exact at every
    index.  ``seed`` is a nonnegative integer, or a sequence of them: the result then
    has one row per seed, and row ``i`` equals ``gen_noise(spec, n, seed[i])``.
    """
    _check_count(1, n=n)
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    for s in seeds:
        _check_count(0, seed=s)
    rngs = [np.random.default_rng(s) for s in seeds]
    out = np.empty((len(rngs), n))
    taps = np.array(spec.ma_taps if spec.kind == "ma" else (1.0,))  # white and ar1 filter by [1]
    a = spec.ar_coeff if spec.kind == "ar1" else 0.0
    innovation_std = spec.sigma * np.sqrt(1.0 - a * a) / np.sqrt(np.sum(taps**2))
    prev = np.empty(len(rngs))
    for i, rng in enumerate(rngs):  # the innovations, then an ar1 start value y[-1]
        e = rng.normal(0.0, innovation_std, n + taps.size - 1)
        # ma: y[t] = sum_k taps[k] e[t-k].  Convolving by [1] is exact but slower, so white
        # and ar1 rows skip it; a one-tap ma filter such as [2] is still applied.
        out[i] = np.convolve(e, taps, mode="valid") if spec.kind == "ma" else e
        if spec.kind == "ar1":
            prev[i] = rng.normal(0.0, spec.sigma)
    if spec.kind == "ar1":
        # y[k] = e[k] + a*y[k-1], rounding the product and then the sum, one step at a
        # time across every row, in place.
        t = np.empty_like(prev)
        for cur in out.T:
            np.multiply(prev, a, out=t)
            np.add(t, cur, out=cur)
            prev = cur
    return out[0] if single else out


def theoretical_profile(spec: NoiseSpec, max_lag: int) -> CorrelationProfile:
    """Exact normalized autocorrelation of ``spec`` up to ``max_lag``."""
    _check_count(0, max_lag=max_lag)
    if spec.kind == "ar1":
        return CorrelationProfile(rho=spec.ar_coeff ** np.arange(max_lag + 1.0))
    taps = np.array(spec.ma_taps if spec.kind == "ma" else (1.0,))  # white is the filter [1]
    rho = np.zeros(max_lag + 1)
    r0 = np.sum(taps**2)
    for k in range(min(max_lag, taps.size - 1) + 1):
        rho[k] = np.sum(taps[: taps.size - k] * taps[k:]) / r0
    return CorrelationProfile(rho=rho)


def _level_ratios(profile: CorrelationProfile, levels: int) -> np.ndarray:
    """``sigma_j / sigma`` of the Haar details at the levels j = 1 .. ``levels``, finest first,
    for noise of marginal sigma and correlation ``profile``: ``sigma_j^2 = h^T R h`` for the
    level-j filter h, 2^(j-1) taps of 2^(-j/2) and then 2^(j-1) of -2^(-j/2).  Summed over the
    filter's autocorrelation, ``(2 V(m) - 2 C(m)) / 2^j`` with m = 2^(j-1),
    ``V(m) = sum_{|k|<m} (m - |k|) rho_k`` and ``C(m) = sum_{d=1}^{2m-1} (m - |d - m|) rho_d``,
    in O(2^j); lags past the profile count as 0.  A profile that gives some level a variance
    that is not positive (rho_1 = 1, or a sequence that is no autocorrelation) is rejected."""
    var = []
    for m in 2 ** np.arange(levels):
        k = np.arange(min(2 * m, profile.rho.size))
        weights = (2 * np.maximum(m - k, 0) - m + np.abs(k - m)) * np.where(k > 0, 2.0, 1.0)
        var.append(np.sum(weights * profile.rho[: k.size]) / (2 * m))
    if not min(var) > 0.0:
        raise ValueError(f"Haar level {np.argmin(var) + 1} gets noise variance {min(var):.3g}, not > 0")
    return np.sqrt(var)


def calibrate_noise_to_snr(signal, noise, snr_db: float) -> np.ndarray:
    """Scale ``noise`` so ``10 log10(|signal|^2 / |scaled|^2) = snr_db`` for one
    ``signal``; each row (last axis) of a ``(rows, n)`` noise stack is scaled on its own."""
    signal = np.asarray(signal, dtype=float)
    noise = np.asarray(noise, dtype=float)
    for values, what in ((signal, "signal"), (noise, "noise")):
        _check_finite(values, what)
    _check_snr(snr_db)
    signal_norm, noise_norm = _norm(signal.ravel()), _norm(noise)
    if signal_norm == 0:
        raise ValueError("signal has zero energy, SNR undefined")
    if np.any(noise_norm == 0):
        raise ValueError("noise has a row with zero energy")
    scale = signal_norm * 10.0 ** (-snr_db / 20.0) / noise_norm
    return noise * scale[..., None]


def _check_snr(snr_db) -> None:
    """Reject any SNR in ``snr_db`` (dB; one or several) not finite or below ``SNR_DB_MIN``."""
    snr = np.asarray(snr_db, dtype=float)
    if not np.all((snr >= SNR_DB_MIN) & (snr < np.inf)):  # a NaN fails too
        raise ValueError(f"snr_db must be finite and at least {SNR_DB_MIN:g}, got {snr_db}")


def _norm(x):
    """Euclidean norm of each row, by numpy's pairwise sum, not a BLAS dot (which rounds
    differently multi-threaded): the same on any thread count, for a row alone or in a stack."""
    return np.sqrt(np.sum(x * x, axis=-1))


def estimate_sigma_mad(finest_detail):
    """Robust noise-scale estimate: ``median(|coeffs|) / 0.6745``.

    ``finest_detail`` should be the finest-scale detail band, which is noise
    dominated for signals with sparse fine-scale structure.  One estimate
    per row (last axis) of a ``(rows, n)`` stack; a float for a 1-D band.
    """
    band = np.abs(np.atleast_1d(np.asarray(finest_detail, dtype=float)))
    m = band.shape[-1]
    if m == 0:
        raise ValueError("finest detail band must be nonempty")
    _check_finite(band, "finest detail band")
    # np.median's value from a partition at one position; np.median partitions
    # at two for even m, which costs several times as much.
    band.partition(m // 2, axis=-1)
    median = band[..., m // 2]
    if m % 2 == 0:
        median = (band[..., : m // 2].max(axis=-1) + median) / 2
    sigma = median / MAD_SCALE
    return float(sigma) if sigma.ndim == 0 else sigma

