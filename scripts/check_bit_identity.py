#!/usr/bin/env python3
"""Print one SHA-256 over the results of a fixed sweep of ``denoise`` calls.

The digest covers, for every call, the threshold, the kept count and the
denoised output, and for every seventh call the on-request band (grid,
lower, upper and center).  Two checkouts that print the same digest give
the same results in every bit on this sweep, so a change meant to be
numerically neutral (a speed-up, a refactor) is checked by running this
script before and after it:

    PYTHONPATH=src python3 scripts/check_bit_identity.py

The sweep covers sizes 256 to 65536, the six test signals, 0 to 30 dB,
lambda 2, 4.5 and 7, both threshold scopes, MAD and known sigma, and white,
ar1(0.8), ar1(-0.6) and MA(1, 0.5, 0.25) noise with the matching band
profile.  The colored profiles stop at N = 16384 to keep the sweep short.
It takes about ten seconds on one core.
"""

import argparse
import hashlib
import itertools

import numpy as np

from nide.denoise import DenoiseConfig, denoise
from nide.noise_model import NoiseSpec, gen_noise, theoretical_profile
from nide.signals import SIGNAL_NAMES, gen_signal

NOISES = (
    (NoiseSpec.white(), (256, 2048, 16384, 65536)),
    (NoiseSpec.ar1(0.8), (256, 2048, 16384)),
    (NoiseSpec.ar1(-0.6), (256, 2048, 16384)),
    (NoiseSpec.ma([1.0, 0.5, 0.25]), (256, 2048, 16384)),
)
SNRS = (0.0, 4.0, 14.0, 30.0)
LAMBDAS = (2.0, 4.5, 7.0)
SCOPES = ("details", "all")
SIGMAS = ("mad", "known")
BAND_EVERY = 7


def _feed(digest, *arrays) -> None:
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())


def sweep(digest) -> tuple[int, int]:
    """Feed every result of the sweep to ``digest``; returns (calls, bands)."""
    calls = bands = 0
    for spec, sizes in NOISES:
        for n in sizes:
            profile = None if spec.kind == "white" else theoretical_profile(spec, max_lag=n - 1)
            truths = {name: gen_signal(name, n).samples for name in SIGNAL_NAMES}
            for name, snr in itertools.product(SIGNAL_NAMES, SNRS):
                truth = truths[name]
                noise = gen_noise(spec, n, seed=calls)
                scale = np.linalg.norm(truth) * 10.0 ** (-snr / 20.0) / np.linalg.norm(noise)
                x = truth + noise * scale
                for lam, scope, policy in itertools.product(LAMBDAS, SCOPES, SIGMAS):
                    sigma = spec.sigma * scale if policy == "known" else None
                    config = DenoiseConfig(lam=lam, sigma=sigma, profile=profile, threshold_scope=scope)
                    result = denoise(x, config)
                    _feed(digest, [result.threshold, result.coefficients_kept, result.sigma_used],
                          result.denoised)
                    if calls % BAND_EVERY == 0 and result.band is not None:
                        band = result.band
                        _feed(digest, band.z_grid, band.lower, band.upper, band.center)
                        bands += 1
                    calls += 1
    return calls, bands


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    digest = hashlib.sha256()
    calls, bands = sweep(digest)
    print(f"sha256 {digest.hexdigest()}  calls={calls} bands={bands}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
