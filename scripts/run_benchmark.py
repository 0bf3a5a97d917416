#!/usr/bin/env python3
"""Reproduce the full white-noise and colored-noise MSE comparison tables.

Writes two CSV files (and prints them) comparing the invalidation threshold
against the universal, SURE and Bayes rules on the six benchmark signals.
The white runs estimate the noise scale from the finest detail band; the
colored runs hand every method the true marginal scale, since the
finest-band median estimator is biased once the noise is correlated.

Takes under 1 s at the default 100 trials (0.77-0.84 s over ten runs on a
shared 2-vCPU machine with Python 3.11 and numpy 2.4.6, of which the white
matrix takes 0.16-0.18 s and the ar1 matrix 0.19-0.23 s); use --trials to
shorten.  Each table is printed with its matrix's wall time.  Tables go to
--out-dir, by default results/ in the working directory.
"""

import argparse
import time
from pathlib import Path

from nide.bench import ExperimentConfig, run_experiment
from nide.noise_model import NoiseSpec
from nide.signals import SIGNAL_NAMES


def timed_run(config):
    """Run one matrix; returns the result and its wall time in seconds."""
    start = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - start


def print_table(result, seconds):
    header = f"{'signal':<10} {'snr':>4}  " + "  ".join(f"{m:>8}" for m in result.config.methods)
    print(header)
    print("-" * len(header))
    for signal in result.config.signals:
        for snr in result.config.snr_db:
            cells = "  ".join(
                f"{result.mean_mse(signal, m, snr):8.4f}" for m in result.config.methods
            )
            print(f"{signal:<10} {snr:4g}  {cells}")
    print(f"matrix wall time {seconds:.2f} s ({result.config.trials} trials per cell)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--length", type=int, default=2048)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    common = dict(
        signals=SIGNAL_NAMES,
        snr_db=(1.0, 4.0, 8.0, 10.0, 14.0),
        methods=("nide", "visu", "sure", "bayes"),
        trials=args.trials,
        seed=args.seed,
        n=args.length,
    )

    print("== white noise (noise scale estimated from the finest band) ==")
    white, seconds = timed_run(
        ExperimentConfig(noise=NoiseSpec.white(1.0), sigma_policy="mad", **common)
    )
    print_table(white, seconds)
    white.write(args.out_dir / "mse_white.csv")

    print("\n== ar1(0.8) noise (known marginal scale for every method) ==")
    colored, seconds = timed_run(
        ExperimentConfig(noise=NoiseSpec.ar1(0.8, 1.0), sigma_policy="known", **common)
    )
    print_table(colored, seconds)
    colored.write(args.out_dir / "mse_ar1.csv")

    print(f"\nwrote {args.out_dir / 'mse_white.csv'} and {args.out_dir / 'mse_ar1.csv'}")


if __name__ == "__main__":
    main()
