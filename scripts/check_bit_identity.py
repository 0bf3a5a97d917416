#!/usr/bin/env python3
"""Print one SHA-256 over the results of a fixed sweep of ``denoise`` calls,
one over the baseline rules on the same inputs, and one over the output
files of a fixed set of ``nide`` command lines.

The first digest covers, for every call, the threshold, the kept count,
sigma and the denoised output, and for every seventh call the on-request
band (grid, lower, upper and center).  The second (``baselines sha256``)
covers the same fields of ``denoise_with`` for visu, sure and bayes, once
per input, sigma policy and method, as the baselines do not read lambda.
The third (``harness sha256``) covers the files that ``bench``,
``lambda-sweep``, ``trace`` and ``mc`` write.  Two checkouts that
print the same digests give the same results in every bit on these runs, so
a change meant to be numerically neutral (a speed-up, a refactor) is checked
by running this script before and after it:

    PYTHONPATH=src python3 scripts/check_bit_identity.py

The sweep covers sizes 256 to 65536, the six test signals, 0 to 30 dB,
lambda 2, 4.5 and 7, MAD and known sigma, and white, ar1(0.8), ar1(-0.6)
and MA(1, 0.5, 0.25) noise with the matching band profile.  The colored
profiles stop at N = 16384 to keep the sweep short.  The command lines
cover ``bench`` as CSV and JSON (white noise with MAD sigma, and ar1(0.8)
with known sigma), ``lambda-sweep`` as CSV and JSON, a white and an ar1
``trace``, and the JSON report of every ``mc`` check on its default grid.
All three take about seven seconds on one core.

The script runs BLAS on one thread, set before numpy is imported: at
N >= 16384 ``np.linalg.norm`` rounds differently when multi-threaded, which
would make the digests depend on the machine's core count.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

from nide.baselines import BASELINE_METHODS, denoise_with
from nide.bench import MC_CHECKS, main as nide_main
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
SIGMAS = ("mad", "known")
BAND_EVERY = 7

_BENCH = ["bench", "--signal", "blocks,heavysine,doppler", "--snr", "4,14", "--trials", "40"]
_SWEEP = ["lambda-sweep", "--signal", "bumps", "--trials", "40"]
# (output file name, command line without --out)
HARNESS = (
    ("bench-white.csv", _BENCH),
    ("bench-white.json", [*_BENCH, "--format", "json"]),
    ("bench-ar1.csv", [*_BENCH, "--noise", "ar1:0.8", "--sigma-policy", "known"]),
    ("sweep.csv", _SWEEP),
    ("sweep.json", [*_SWEEP, "--format", "json"]),
    ("trace-white.csv", ["trace", "--seed", "1"]),
    ("trace-ar1.csv", ["trace", "--seed", "1", "--noise", "ar1:0.8", "--sigma-policy", "known"]),
    *((f"mc-{check}.json", ["mc", "--check", check, "--runs", "500"]) for check in MC_CHECKS),
)


def _feed(digest, *arrays) -> None:
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _feed_result(digest, result) -> None:
    _feed(digest, [result.threshold, result.coefficients_kept, result.sigma_used], result.denoised)


def inputs():
    """Yield ``(profile, x, known sigma)`` for every input of the sweep.  An
    input's noise seed is the number of sweep calls made before it."""
    seed = 0
    for spec, sizes in NOISES:
        for n in sizes:
            profile = None if spec.kind == "white" else theoretical_profile(spec, max_lag=n - 1)
            truths = {name: gen_signal(name, n).samples for name in SIGNAL_NAMES}
            for name, snr in itertools.product(SIGNAL_NAMES, SNRS):
                truth = truths[name]
                noise = gen_noise(spec, n, seed=seed)
                scale = np.linalg.norm(truth) * 10.0 ** (-snr / 20.0) / np.linalg.norm(noise)
                yield profile, truth + noise * scale, spec.sigma * scale
                seed += len(LAMBDAS) * len(SIGMAS)


def sweep(digest) -> tuple[int, int]:
    """Feed every result of the sweep to ``digest``; returns (calls, bands)."""
    calls = bands = 0
    for profile, x, known in inputs():
        for lam, policy in itertools.product(LAMBDAS, SIGMAS):
            sigma = known if policy == "known" else None
            result = denoise(x, DenoiseConfig(lam=lam, sigma=sigma, profile=profile))
            _feed_result(digest, result)
            if calls % BAND_EVERY == 0 and result.band is not None:
                band = result.band
                _feed(digest, band.z_grid, band.lower, band.upper, band.center)
                bands += 1
            calls += 1
    return calls, bands


def baselines(digest) -> int:
    """Feed every ``denoise_with`` result of the baseline methods on the sweep's
    inputs to ``digest``; returns the number of calls."""
    calls = 0
    for _, x, known in inputs():
        for policy, method in itertools.product(SIGMAS, BASELINE_METHODS):
            config = DenoiseConfig(sigma=known if policy == "known" else None)
            _feed_result(digest, denoise_with(method, x, config))
            calls += 1
    return calls


def harness(digest) -> int:
    """Run every ``HARNESS`` command line and feed each file name and file to
    ``digest``; returns the number of files."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in HARNESS:
            out = os.path.join(tmp, name)
            with contextlib.redirect_stdout(io.StringIO()):
                nide_main([*argv, "--out", out])  # an mc FAIL exits 2 but still writes its report
            digest.update(name.encode())
            with open(out, "rb") as fh:
                digest.update(fh.read())
    return len(HARNESS)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    digest = hashlib.sha256()
    calls, bands = sweep(digest)
    print(f"sha256 {digest.hexdigest()}  calls={calls} bands={bands}")
    digest = hashlib.sha256()
    calls = baselines(digest)
    print(f"baselines sha256 {digest.hexdigest()}  calls={calls}")
    digest = hashlib.sha256()
    files = harness(digest)
    print(f"harness sha256 {digest.hexdigest()}  files={files}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
