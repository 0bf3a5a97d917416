#!/usr/bin/env python3
"""Summarize paired benchmark runs of two checkouts into one ``BENCH_<label>.json``.

Each directory holds the end-to-end results that ``perfbench/run.py
--trace 0`` writes to ``.bench_out/`` (``<workload>-seed<seed>-trace0.json``),
one per run: the parent checkout's runs in one directory and the changed
checkout's in the other, made as alternating pairs with the same seeds.

    python3 scripts/bench_trajectory.py --parent PARENT/.bench_out \\
        --change .bench_out --label mylabel --out BENCH_mylabel.json

For every workload and every end-to-end metric that ``BENCHMARK.json``
declares, the output holds the parent's and the change's median and
quartiles, the ratio of the medians, and the number of pairs the change
wins.  The timing metrics as measured, before perfbench rescales them to
nominal machine speed, get the same four figures under ``as_measured``, so
a change whose raw and rescaled timings disagree shows both ratios.  It also
records the seeds, the host, the numpy and scipy versions and each run's
MSE-table digest.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _runs(directory: Path) -> dict:
    """{(workload, seed): result file contents} for the untraced runs in ``directory``."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        data = json.loads(path.read_text())
        runs[(data["args"]["workload"], data["args"]["seed"])] = data
    return runs


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _compare(spec: dict, pairs: list, value) -> dict:
    """``value(run)`` over the pairs: both sides' median and quartiles, the ratio of
    the medians and the number of pairs the change wins, by ``spec["better"]``."""
    before, after = [value(p) for p, _ in pairs], [value(c) for _, c in pairs]
    higher = spec["better"] == "higher"
    parent_stats, change_stats = _summary(before), _summary(after)
    return {
        "unit": spec["unit"], "better": spec["better"],
        "parent": parent_stats, "change": change_stats,
        "change_over_parent": change_stats["median"] / parent_stats["median"]
        if parent_stats["median"] else None,
        "change_wins": sum((a > b) if higher else (a < b) for b, a in zip(before, after)),
    }


def trajectory(parent: dict, change: dict, declared: list[dict]) -> dict:
    specs = {spec["name"]: spec for spec in declared}
    workloads = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if len(seeds) < 2:
            continue
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        workloads[workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "failed": [[p["result"]["failed"], c["result"]["failed"]] for p, c in pairs],
            "mse_table_sha256": [[p["info"].get("mse_table_sha256"), c["info"].get("mse_table_sha256")]
                                 for p, c in pairs],
            "metrics": {name: _compare(spec, pairs, lambda run: run["result"]["metrics"][name]["value"])
                        for name, spec in specs.items()},
            # The timing metrics before the machine-speed rescaling (perfbench/worker.py).
            "as_measured": {name: _compare(specs[name], pairs, lambda run: run["info"]["as_measured"][name])
                            for name in pairs[0][0]["info"].get("as_measured", {})},
        }
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = _runs(args.parent), _runs(args.change)
    if not parent or not change:
        parser.error("both directories must hold untraced perfbench results")
    machine = next(iter(change.values()))["machine"]
    payload = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0",
        "host": {"cpu": _cpu_model(), **machine},
        "statistics": "median and quartiles (inclusive method) over the pairs; "
                      "change_wins counts pairs where the change's run is better",
        "workloads": trajectory(parent, change, declared),
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
