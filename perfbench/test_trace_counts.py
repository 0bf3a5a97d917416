"""The benchmark's own test: work counts repeat exactly across traced runs.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

Each workload is traced twice at one seed through the real entry point; the
exact counters must be identical, and the colored bound must run only on
the colored workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

EXACT_COUNTS = (
    "gaussian_stats.cdf_points",
    "signature.bound_lag_passes",
    "signature.band_points",
    "noise_model.theoretical_profile.calls",
    "denoise.soft_threshold.calls",
)


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["white-matrix", "ar1-matrix", "long-signal"])
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 5), traced_run(workload, 5)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["denoise.soft_threshold.calls"] > 0
    colored = workload == "ar1-matrix"
    assert (first["signature.colored_variance_bound.calls"] > 0) == colored
    assert (first["signature.bound_lag_passes"] > 0) == colored
