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
``lambda-sweep``, ``trace``, ``mc`` and ``denoise-file`` write; after it, one
line per file gives the first 12 hex digits of that file's own SHA-256, so a
harness digest that moves names the files that moved.  Two checkouts that
print the same digests give the same results in every bit on these runs.

The script checks its own output against the digests recorded in
``EXPECTED`` and ``EXPECTED_FILES``: it exits 0 when all match, and 1 after
naming on stderr every digest and every file that moved.  A change meant to
be numerically neutral (a speed-up, a refactor) must leave them all in
place; a change that moves a result by design records the new values in the
same diff.  Run it as

    PYTHONPATH=src python3 scripts/check_bit_identity.py

The sweep covers sizes 256 to 65536, the six test signals, 0 to 30 dB,
lambda 2, 4.5 and 7, MAD and known sigma, and white, ar1(0.8), ar1(-0.6)
and MA(1, 0.5, 0.25) noise with the matching band profile.  The colored
profiles stop at N = 16384 to keep the sweep short.  The command lines
cover ``bench`` as CSV and JSON (white noise with MAD sigma, and ar1(0.8)
with known sigma), ``lambda-sweep`` as CSV and JSON, a white ``trace`` as
CSV and JSON and an ar1 one as CSV, the JSON report of every ``mc`` check on
its default grid and the coverage rows as CSV, and ``denoise-file`` (output
and report) on a 1500-sample input, which it mirror-pads to 2048: blocks
plus unit white noise that the script writes.  All three take 17-19 s on
one core of a shared 2-vCPU x86-64 host.

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
import sys
import tempfile
from pathlib import Path

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
NOISY = "noisy-blocks.csv"  # the non-dyadic denoise-file input; see noisy_blocks()
# (output file name, command line without --out)
HARNESS = (
    ("bench-white.csv", _BENCH),
    ("bench-white.json", _BENCH),
    ("bench-ar1.csv", [*_BENCH, "--noise", "ar1:0.8", "--sigma-policy", "known"]),
    ("sweep.csv", _SWEEP),
    ("sweep.json", _SWEEP),
    ("trace-white.csv", ["trace", "--seed", "1"]),
    ("trace-white.json", ["trace", "--seed", "1"]),
    ("trace-ar1.csv", ["trace", "--seed", "1", "--noise", "ar1:0.8", "--sigma-policy", "known"]),
    *((f"mc-{check}.json", ["mc", "--check", check, "--runs", "500"]) for check in MC_CHECKS),
    ("mc-coverage.csv", ["mc", "--check", "coverage", "--runs", "500"]),
    ("denoise.csv", ["denoise-file", "--in", NOISY]),
)

# The recorded digests: sweep, baselines and harness, then each harness file's own.
EXPECTED = {
    "sha256": "6cb32d6e28da18990bcd74a6dcc02f9b797a9e87cfce5a44a8e6dcadd1d4a8c8",
    "baselines sha256": "ee4f7d7bf88e4a2d6d5a8b13d13eae4481072865500d4fe25e4da62dc2c9b48a",
    "harness sha256": "abd1378e5da2b606dd7831c30b09e72ea8acfd5ad87b10523a3454f8082280bc",
}
EXPECTED_FILES = {
    "bench-white.csv": "13ce0c1cf1c8",
    "bench-white.json": "24c2de4a9130",
    "bench-ar1.csv": "e05ce1804dc8",
    "sweep.csv": "1192d53e5c8a",
    "sweep.json": "d9f9d48c0b06",
    "trace-white.csv": "2021aac6e233",
    "trace-white.json": "4b3af4ea9739",
    "trace-ar1.csv": "653f35b4bcf3",
    "mc-appendixA.json": "832a2b2e7754",
    "mc-appendixB.json": "1bf1de966cb3",
    "mc-appendixC.json": "a4c716ef2771",
    "mc-appendixD.json": "c71492037979",
    "mc-coverage.json": "9d5f1aa43268",
    "mc-coverage.csv": "fec227157e07",
    "denoise.csv": "acedcedf7a2f",
    "denoise.json": "42de1f0e89a6",
}


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


def noisy_blocks() -> np.ndarray:
    """The first 1500 samples of blocks (N = 2048) plus unit white noise, seed 3."""
    truth = gen_signal("blocks", 2048).samples[:1500]
    return truth + np.random.default_rng(3).normal(size=truth.size)


def harness(digest) -> dict[str, str]:
    """Run every ``HARNESS`` command line in a scratch directory and feed the
    name and bytes of each file it writes to ``digest``; returns each file's
    own short digest by name."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        np.savetxt(os.path.join(tmp, NOISY), noisy_blocks())
        for name, argv in HARNESS:
            before = set(os.listdir(tmp))
            argv = [os.path.join(tmp, a) if a == NOISY else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                # an mc FAIL exits 2 but still writes its report
                nide_main([*argv, "--out", os.path.join(tmp, name)])
            for written in sorted(set(os.listdir(tmp)) - before):
                data = Path(tmp, written).read_bytes()
                digest.update(written.encode())
                digest.update(data)
                files[written] = hashlib.sha256(data).hexdigest()[:12]
    return files


def moved(digests: dict[str, str], files: dict[str, str]) -> list[str]:
    """One line per digest or file that differs from, or is missing from, its
    recorded value; empty when every one is in place."""
    lines = [f"moved: {label} {digests.get(label)} (recorded {want})"
             for label, want in EXPECTED.items() if digests.get(label) != want]
    for name in sorted(EXPECTED_FILES.keys() | files.keys()):
        if files.get(name) != EXPECTED_FILES.get(name):
            lines.append(f"moved: file {name} {files.get(name)} (recorded {EXPECTED_FILES.get(name)})")
    return lines


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    digests = {}
    digest = hashlib.sha256()
    calls, bands = sweep(digest)
    digests["sha256"] = digest.hexdigest()
    print(f"sha256 {digest.hexdigest()}  calls={calls} bands={bands}")
    digest = hashlib.sha256()
    calls = baselines(digest)
    digests["baselines sha256"] = digest.hexdigest()
    print(f"baselines sha256 {digest.hexdigest()}  calls={calls}")
    digest = hashlib.sha256()
    files = harness(digest)
    digests["harness sha256"] = digest.hexdigest()
    print(f"harness sha256 {digest.hexdigest()}  files={len(files)}")
    for name, short in files.items():
        print(f"  {short}  {name}")
    lines = moved(digests, files)
    for line in lines:
        print(line, file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
