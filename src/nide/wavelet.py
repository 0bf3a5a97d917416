"""Orthonormal multilevel Haar transform for dyadic-length signals.

The analysis pair is ``a = (x[2i] + x[2i+1]) * c``,
``d = (x[2i] - x[2i+1]) * c``, applied recursively to the approximation,
and the synthesis pair forms ``(a + d) * c`` and ``(a - d) * c``, with
``c`` = 0.7071067811865475, the double nearest ``1 / fl(sqrt(2))``.  The two
transforms take about a third of a ``denoise`` call at N = 65536, and a multiply
costs about a third of a division per element.  No multiply rounds as a
division by a constant does for every input; this ``c`` gives the quotient's
double for about 87% of inputs and is never more than 1 ulp from it, where
``np.sqrt(0.5)``, one ulp above, agrees for about 15% and can be 2 ulp off.
``c`` lies below ``1 / sqrt(2)``, so no sum exceeds the bound that the
magnitude check of ``denoise._transform`` relies on.  The transform is
orthonormal, so coefficient energy equals signal energy and white Gaussian
noise stays white with the same variance.
Both directions act on the last axis, so a ``(rows, N)`` stack of signals
is transformed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian_stats import _SQRT2, _check_count

__all__ = ["CoefficientSet", "dwt_forward", "dwt_inverse"]

_INV_SQRT2 = 1.0 / _SQRT2


@dataclass
class CoefficientSet:
    """Leveled Haar coefficients of dyadic-length signals, in one flat array.

    ``values`` has shape ``(..., N)`` in the canonical order: detail bands
    finest to coarsest, then the approximation at the coarsest level.
    ``detail_bands``, ``approx_band`` and ``detail_values()`` are views of
    it, so writing into them writes into ``values``.
    """

    values: np.ndarray
    levels: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[-1] if self.values.ndim else 0
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"signal length must be a power of two >= 2, got {n}")
        _check_count(1, levels=self.levels)
        if self.levels > n.bit_length() - 1:
            raise ValueError(f"levels must be at most log2(N) = {n.bit_length() - 1}, got {self.levels}")

    @property
    def detail_bands(self) -> list[np.ndarray]:
        """Detail bands, finest first."""
        n = self.values.shape[-1]
        return [self.values[..., n - (n >> j) : n - (n >> (j + 1))] for j in range(self.levels)]

    @property
    def approx_band(self) -> np.ndarray:
        n = self.values.shape[-1]
        return self.values[..., n - (n >> self.levels) :]

    def detail_values(self) -> np.ndarray:
        """All detail coefficients pooled, finest band first."""
        n = self.values.shape[-1]
        return self.values[..., : n - (n >> self.levels)]


def dwt_forward(signal, levels: int) -> CoefficientSet:
    """Multilevel Haar analysis along the last axis of ``signal``.

    Parameters
    ----------
    signal : array_like
        Real samples, shape ``(..., N)``; ``N`` must be a power of two.
    levels : int
        Number of decomposition levels, at most ``log2(N)``.
    """
    x = np.asarray(signal, dtype=float)
    coeffs = CoefficientSet(np.empty(x.shape), levels)
    approx = x
    for band in coeffs.detail_bands:
        even, odd = approx[..., 0::2], approx[..., 1::2]
        np.subtract(even, odd, out=band)
        band *= _INV_SQRT2
        approx = np.add(even, odd)
        approx *= _INV_SQRT2
    coeffs.approx_band[...] = approx
    return coeffs


def dwt_inverse(coeffs: CoefficientSet) -> np.ndarray:
    """Exact inverse of :func:`dwt_forward`."""
    approx = coeffs.approx_band
    for detail in reversed(coeffs.detail_bands):
        out = np.empty(approx.shape[:-1] + (2 * approx.shape[-1],))
        np.add(approx, detail, out=out[..., 0::2])
        np.subtract(approx, detail, out=out[..., 1::2])
        out *= _INV_SQRT2
        approx = out
    return approx
