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
wins.  It also records the seeds, the host, the numpy and scipy versions,
each run's MSE-table digest and both sides' timing metrics as measured,
before perfbench rescales them to nominal machine speed.
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


def trajectory(parent: dict, change: dict, declared: list[dict]) -> dict:
    workloads = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if len(seeds) < 2:
            continue
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        metrics = {}
        for spec in declared:
            name, higher = spec["name"], spec["better"] == "higher"
            before = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            after = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            wins = sum((a > b) if higher else (a < b) for b, a in zip(before, after))
            parent_stats, change_stats = _summary(before), _summary(after)
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"],
                "parent": parent_stats, "change": change_stats,
                "change_over_parent": change_stats["median"] / parent_stats["median"]
                if parent_stats["median"] else None,
                "change_wins": wins,
            }
        workloads[workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "failed": [[p["result"]["failed"], c["result"]["failed"]] for p, c in pairs],
            "mse_table_sha256": [[p["info"].get("mse_table_sha256"), c["info"].get("mse_table_sha256")]
                                 for p, c in pairs],
            "metrics": metrics,
            # The timing metrics before the machine-speed rescaling (perfbench/worker.py).
            "as_measured": {
                name: {side: _summary([run[i]["info"]["as_measured"][name] for run in pairs])
                       for i, side in enumerate(("parent", "change"))}
                for name in pairs[0][0]["info"].get("as_measured", {})
            },
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
