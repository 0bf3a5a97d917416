"""Scalar Gaussian primitives: the normal CDF and the two absolute-value CDFs, and the
input checks every public function shares.

Two cumulative curves drive everything else in this package:

* ``abs_noise_cdf`` (``F``): the CDF of ``|V|`` for zero-mean Gaussian noise
  ``V`` with standard deviation ``sigma``.
* ``shifted_abs_cdf`` (``H``): the CDF of ``|theta_bar + V|``, i.e. the same
  curve for a noisy coefficient whose noise-free value is ``theta_bar``.

All functions accept scalars or ndarrays and evaluate elementwise.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "std_normal_cdf",
    "abs_noise_cdf",
    "shifted_abs_cdf",
]

_SQRT2 = np.sqrt(2.0)


def std_normal_cdf(x):
    """Standard normal CDF ``phi(x) = 0.5 * (1 + erf(x / sqrt(2)))``."""
    return 0.5 * (1.0 + special.erf(np.asarray(x, dtype=float) / _SQRT2))


def _check_finite(values, what) -> None:
    if not np.isfinite(values).all():
        bad = np.count_nonzero(~np.isfinite(values))
        raise ValueError(f"{what} must be finite; found {bad} NaN or infinite value(s)")


def _check_count(least, **settings) -> None:
    """Reject any count given that is not a Python or numpy integer (a bool is not one,
    though ``bool`` subclasses ``int``), or is below ``least``, by its name."""
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_sigma(sigma) -> None:
    """Reject any noise scale in ``sigma`` that is not finite and positive (a NaN fails both)."""
    sigma = np.asarray(sigma, dtype=float)
    if not (sigma.min(initial=np.inf) > 0.0 and sigma.max(initial=0.0) < np.inf):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")


def abs_noise_cdf(z, sigma):
    """CDF of ``|V|`` for ``V ~ N(0, sigma^2)``: ``F(z) = 2 phi(z/sigma) - 1``.

    Parameters
    ----------
    z : float or ndarray
        Nonnegative evaluation points.
    sigma : float or ndarray
        Noise standard deviation, must be finite and positive; an array
        broadcasts against ``z``.

    Returns
    -------
    float or ndarray
        ``F(z)`` in [0, 1], nondecreasing in ``z``.
    """
    z = np.asarray(z, dtype=float)
    _check_sigma(sigma)
    if not np.all(z >= 0):  # also false for NaN
        raise ValueError("z must be nonnegative and not NaN")
    # (1 + erf(z / sigma / sqrt(2))) - 1 is 2 phi(z/sigma) - 1 in every bit, since scaling
    # by 2 and 0.5 is exact.  An explicit buffer: a 0-d divide result breaks erf(out=...).
    out = np.divide(z, sigma, out=np.empty(np.broadcast_shapes(z.shape, np.shape(sigma))))
    out /= _SQRT2
    special.erf(out, out=out)
    out += 1.0
    out -= 1.0
    return float(out) if out.ndim == 0 else out


def shifted_abs_cdf(z, theta_bar, sigma):
    """CDF of ``|theta_bar + V|`` for ``V ~ N(0, sigma^2)``.

    ``H(z, theta_bar) = phi((z - theta_bar)/sigma) + phi((z + theta_bar)/sigma) - 1``.
    Symmetric in the sign of ``theta_bar``; reduces to :func:`abs_noise_cdf`
    when ``theta_bar = 0``.
    """
    _check_sigma(sigma)
    z = np.asarray(z, dtype=float)
    theta_bar = np.asarray(theta_bar, dtype=float)
    out = (
        std_normal_cdf((z - theta_bar) / sigma)
        + std_normal_cdf((z + theta_bar) / sigma)
        - 1.0
    )
    return float(out) if out.ndim == 0 else out
