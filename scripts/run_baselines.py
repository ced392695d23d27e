#!/usr/bin/env python3
"""Constrained-random baselines: seed-averaged coverage per device.

Runs N seeds x `--count` stimuli against each device and prints one summary
row per device (average covered bins, average coverage rate, worst per-seed
wall time). These are the reference numbers the dialogue-driven agent is
measured against.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from covstim.duts import DUT_KINDS
from covstim.runtime import RunConfig, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1_000_000, help="stimuli per seed")
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds")
    parser.add_argument(
        "--dut", choices=DUT_KINDS, default=None, help="one device (default: all)"
    )
    args = parser.parse_args()
    if args.count < 1 or args.seeds < 1:
        parser.error("--count and --seeds must be at least 1")
    kinds = [args.dut] if args.dut else list(DUT_KINDS)
    print(f"{'dut':<8} {'plan':>5} {'avg bins':>9} {'avg rate%':>9} {'worst s':>8}")
    for kind in kinds:
        rates: list[float] = []
        covered: list[int] = []
        worst = 0.0
        for seed in range(args.seeds):
            config = RunConfig(dut=kind, agent="crt", seed=seed, crt_count=args.count)
            t0 = time.perf_counter()
            report = run_experiment(config)
            worst = max(worst, time.perf_counter() - t0)
            rates.append(100 * report.max_rate)
            covered.append(report.max_coverage)
        print(
            f"{kind:<8} {report.plan_size:>5} {sum(covered) / len(covered):>9.1f} "
            f"{sum(rates) / len(rates):>9.2f} {worst:>8.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
