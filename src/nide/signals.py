"""Standard 1-D benchmark signals.

The six generators (Blocks, Bumps, HeavySine, Doppler, QuadChirp, MishMash)
follow the classical wavelet-shrinkage test-suite definitions on the grid
``t = (1..n)/n`` and are rescaled to a sample standard deviation of 7, the
customary calibration for shrinkage benchmarks.  The chirp-family signals
(QuadChirp, MishMash) scale their frequency with ``n`` by construction; the
other four are pure functions of ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian_stats import _check_count

__all__ = ["TestSignal", "SIGNAL_NAMES", "canonical_name", "gen_signal"]

SIGNAL_NAMES = ("blocks", "bumps", "heavysine", "doppler", "quadchirp", "mishmash")

# HeaviSine is the historical spelling of the same signal.
_ALIASES = {"heavisine": "heavysine"}

NOMINAL_STD = 7.0

_BLOCKS_POS = [0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81]
_BLOCKS_HEIGHTS = [4, -5, 3, -4, 5, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2]
_BUMPS_HEIGHTS = [4, 5, 3, 4, 5, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2]
_BUMPS_WIDTHS = [0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005]


@dataclass(frozen=True)
class TestSignal:
    name: str
    samples: np.ndarray


def _raw_signal(name: str, n: int) -> np.ndarray:
    t = np.arange(1, n + 1) / n
    if name == "blocks":
        f = np.zeros(n)
        for t0, h in zip(_BLOCKS_POS, _BLOCKS_HEIGHTS):
            f += h * (1 + np.sign(t - t0)) / 2
        return f
    if name == "bumps":
        f = np.zeros(n)
        for t0, h, w in zip(_BLOCKS_POS, _BUMPS_HEIGHTS, _BUMPS_WIDTHS):
            f += h / (1 + np.abs((t - t0) / w)) ** 4
        return f
    if name == "heavysine":
        return 4 * np.sin(4 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)
    if name == "doppler":
        return np.sqrt(t * (1 - t)) * np.sin(2 * np.pi * 1.05 / (t + 0.05))
    if name == "quadchirp":
        return np.sin((np.pi / 3) * t * (n * t**2))
    if name == "mishmash":  # quadchirp + high-frequency sine + linear chirp
        f = np.sin((np.pi / 3) * t * (n * t**2))
        f += np.sin(np.pi * (n * 0.6902) * t)
        f += np.sin(np.pi * t * (n * 0.125 * t))
        return f


def canonical_name(name: str) -> str:
    """Normalize a signal name (case and historical spellings)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in SIGNAL_NAMES:
        raise ValueError(f"unknown signal name {name!r}; choose from {SIGNAL_NAMES}")
    return key


def gen_signal(name: str, n: int) -> TestSignal:
    """Deterministic benchmark signal of dyadic length ``n >= 64``.

    The raw waveform is rescaled so its sample standard deviation equals
    ``NOMINAL_STD``.
    """
    key = canonical_name(name)
    _check_count(64, n=n)
    if n & (n - 1):
        raise ValueError(f"n must be a power of two >= 64, got {n}")
    raw = _raw_signal(key, n)
    samples = raw * (NOMINAL_STD / np.std(raw))
    return TestSignal(name=key, samples=samples)
