"""Run-to-run spread of the benchmark, calibrated against raw.

Runs ``run.py`` once per seed and prints, for every end-to-end metric and
its raw (uncalibrated) counterpart, the median over runs and the spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
raw-vs-calibrated columns show what the yardstick normalisation buys.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload federico --runs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Calibrated metric -> its raw counterpart in the diagnostics line.
RAW_OF = {
    "cal_pps": "raw_pps",
    "batch_p50_ms": "raw_batch_p50_ms",
    "setup_s": "raw_setup_s",
}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics, diagnostics = {}, {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        diag = json.loads(lines[-2])["diagnostics"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        for name, value in diag.items():
            if isinstance(value, (int, float)):
                diagnostics.setdefault(name, []).append(value)
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'raw spread':>11}")
    for name, values in metrics.items():
        median, share = spread(values)
        raw = RAW_OF.get(name)
        raw_share = f"{spread(diagnostics[raw])[1]:11.4f}" if raw else " " * 11
        print(f"{name:32} {median:14.6g} {share:8.4f} {raw_share}")
    for name in diagnostics:
        if len(diagnostics[name]) == args.runs:
            median, share = spread(diagnostics[name])
            print(f"{'(diagnostic) ' + name:32} {median:14.6g} {share:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
