"""Gaussian noise generation (white and colored), SNR calibration, and the
robust median-based noise-scale estimator.

Colored noise comes in two flavours: a first-order autoregressive process
(``ar1``) and a finite moving average (``ma``).  Generators always rescale so
the stationary marginal variance equals ``sigma**2``, which keeps the
signature band center comparable across noise kinds.  ``gen_noise`` takes
one seed or a sequence of them; a sequence gives one row per seed, each the
row its seed gives alone, so a Monte Carlo loop can draw all its trials in
one call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .gaussian_stats import _check_finite
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


@dataclass(frozen=True)
class NoiseSpec:
    """Noise description: kind plus marginal standard deviation.

    ``kind`` is one of ``white``, ``ar1`` (with coefficient ``ar_coeff`` in
    (-1, 1)) or ``ma`` (with tap vector ``ma_taps``).
    """

    kind: str
    sigma: float = 1.0
    ar_coeff: float | None = None
    ma_taps: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in ("white", "ar1", "ma"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.kind == "ar1":
            if self.ar_coeff is None or not abs(self.ar_coeff) < 1:
                raise ValueError("ar1 coefficient must satisfy |a| < 1")
        if self.kind == "ma":
            taps = np.atleast_1d(np.asarray(self.ma_taps, dtype=float))
            if taps.size == 0 or not np.any(taps) or not np.all(np.isfinite(taps)):
                raise ValueError(f"ma taps must be a nonempty, nonzero, finite vector, got {taps}")
            object.__setattr__(self, "ma_taps", taps)

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
    def parse(cls, text: str, sigma: float = 1.0) -> "NoiseSpec":
        """Parse a CLI noise string: ``white``, ``ar1:<a>`` or ``ma:<t1,t2,...>``."""
        text = text.strip()
        if text == "white":
            return cls.white(sigma)
        if text.startswith("ar1:"):
            return cls.ar1(float(text[4:]), sigma)
        if text.startswith("ma:"):
            taps = [float(t) for t in text[3:].split(",") if t]
            return cls.ma(taps, sigma)
        raise ValueError(f"cannot parse noise spec {text!r}")

    def describe(self) -> str:
        """Inverse of :meth:`parse` (sigma not included)."""
        if self.kind == "white":
            return "white"
        if self.kind == "ar1":
            return f"ar1:{self.ar_coeff:g}"
        taps = ",".join(f"{t:g}" for t in self.ma_taps)
        return f"ma:{taps}"


def gen_noise(spec: NoiseSpec, n: int, seed: int | Sequence[int]) -> np.ndarray:
    """Zero-mean Gaussian sequence of length ``n`` with marginal std ``spec.sigma``.

    Deterministic for a fixed ``(spec, n, seed)``.  AR output is started from
    its stationary distribution, so the marginal variance is exact at every
    index.  ``seed`` may also be a sequence of seeds: the result then has one
    row per seed, and row ``i`` equals ``gen_noise(spec, n, seed[i])``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    single = np.ndim(seed) == 0
    rngs = [np.random.default_rng(s) for s in ([seed] if single else seed)]
    out = np.empty((len(rngs), n))
    if spec.kind == "white":
        for row, rng in zip(out, rngs):
            row[:] = rng.normal(0.0, spec.sigma, n)
    elif spec.kind == "ar1":
        a = spec.ar_coeff
        innovation_std = spec.sigma * np.sqrt(1.0 - a * a)
        prev = np.empty(len(rngs))
        for i, rng in enumerate(rngs):  # the innovations, then the start value y[-1]
            out[i] = rng.normal(0.0, innovation_std, n)
            prev[i] = rng.normal(0.0, spec.sigma)
        # y[k] = e[k] + a*y[k-1], rounding the product and then the sum, one step at a
        # time across every row of a time-major copy.
        y, t = out.T.copy(), np.empty_like(prev)
        for cur in y:
            np.multiply(prev, a, out=t)
            np.add(t, cur, out=cur)
            prev = cur
        out[:] = y.T
    else:
        # ma: y[t] = sum_k taps[k] e[t-k], innovations scaled for marginal sigma
        taps = spec.ma_taps
        innovation_std = spec.sigma / np.sqrt(np.sum(taps**2))
        for row, rng in zip(out, rngs):
            row[:] = np.convolve(rng.normal(0.0, innovation_std, n + taps.size - 1), taps,
                                 mode="valid")
    return out[0] if single else out


def theoretical_profile(spec: NoiseSpec, max_lag: int) -> CorrelationProfile:
    """Exact normalized autocorrelation of ``spec`` up to ``max_lag``."""
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    lags = np.arange(max_lag + 1)
    if spec.kind == "white":
        rho = np.zeros(max_lag + 1)
        rho[0] = 1.0
    elif spec.kind == "ar1":
        rho = spec.ar_coeff ** lags.astype(float)
    else:
        taps = spec.ma_taps
        rho = np.zeros(max_lag + 1)
        r0 = np.sum(taps**2)
        for k in range(min(max_lag, taps.size - 1) + 1):
            rho[k] = np.sum(taps[: taps.size - k] * taps[k:]) / r0
    return CorrelationProfile(rho=rho)


def calibrate_noise_to_snr(signal, noise, snr_db: float) -> np.ndarray:
    """Scale ``noise`` so ``10 log10(|signal|^2 / |scaled|^2) = snr_db``."""
    signal = np.asarray(signal, dtype=float)
    noise = np.asarray(noise, dtype=float)
    for values, what in ((signal, "signal"), (noise, "noise"), (snr_db, "snr_db")):
        _check_finite(values, what)
    signal_norm, noise_norm = _norm(signal.ravel()), _norm(noise.ravel())
    if signal_norm == 0:
        raise ValueError("signal has zero energy, SNR undefined")
    if noise_norm == 0:
        raise ValueError("noise vector has zero energy")
    scale = signal_norm * 10.0 ** (-snr_db / 20.0) / noise_norm
    return noise * scale


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

