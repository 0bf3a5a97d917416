#!/usr/bin/env python3
"""Benchmark of the nide library: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload white-matrix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload runs in one
fresh worker process, and set-up time is the median over that worker and
``SETUP_RUNS - 1`` set-up-only workers.  ``--trace 1`` runs one worker with
the outside-in span recorder of ``tracer.py`` and reports the per-layer
metrics.  Human-readable lines (machine, MSE-table digest, self-time
shares) come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
same result, with the machine and the spans of a traced run, is written to
``.bench_out/`` in the checkout.

The exit code is 0 only when every worker finished and a result was printed.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("white-matrix", "ar1-matrix", "long-signal")
SETUP_RUNS = 5
# Every worker together must end by then, inside the 180 s a run may take.
DEADLINE_S = 170.0
# Native thread pools pinned to one thread, so numbers measure the program
# rather than the scheduler on a small shared machine.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
def run_worker(argv: list[str], deadline: float) -> tuple[float, dict] | None:
    """Start one worker and wait for it to end.

    Returns (seconds from start to its ``READY`` line, the rescaling factor
    on that line, its JSON result), or None if it failed or missed the
    deadline.  The worker is killed at the deadline and always waited for.
    """
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    fields = ready.split()
    if code != 0 or len(fields) != 2 or fields[0] != "READY":
        return None
    scale = float(fields[1])
    if "--setup-only" in argv:
        return setup_s, scale, {}
    lines = rest.strip().splitlines()
    if not lines:
        return None
    return setup_s, scale, json.loads(lines[-1])


def l3_bytes() -> int | None:
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nide benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "nide" / "__init__.py").is_file():
        print(f"error: no nide package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated run still kills and waits for its worker (``run_worker``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = run_worker([*common, "--trace", str(args.trace)], deadline)
    if done is None:
        print("error: worker failed", file=sys.stderr)
        return 1
    payload = done[2]
    if not args.trace:
        setups = [done[:2]]
        for _ in range(SETUP_RUNS - 1):
            probe = run_worker([*common, "--setup-only"], deadline)
            if probe is None:
                print("error: set-up worker failed", file=sys.stderr)
                return 1
            setups.append(probe[:2])
        payload["metrics"]["setup_s"] = statistics.median(t * scale for t, scale in setups)
        payload["info"]["as_measured"]["setup_s"] = statistics.median(t for t, _ in setups)

    # BENCHMARK.json names the metrics reported and their units.
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in payload["metrics"]]
    if missing:
        print(f"error: the worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": payload["metrics"][m["name"]], "unit": m["unit"]} for m in declared}

    machine = {"nproc": len(os.sched_getaffinity(0)), "l3_bytes": l3_bytes(), **payload["machine"]}
    result = {
        "correct": payload["failed"] == 0 and payload.get("consistent", True),
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": machine, "info": payload["info"], "result": result,
                   "all_metrics": payload["metrics"], "samples": payload.get("samples")}, fh, indent=1)
    if "spans" in payload:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump(payload["spans"], fh)

    print(f"machine {json.dumps(machine)}")
    print(f"fail_ratio {result['failed'] / max(result['attempted'], 1)}")
    for key, value in payload["info"].items():
        print(f"{key} {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
