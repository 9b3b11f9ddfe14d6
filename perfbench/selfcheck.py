"""Self-checks of the benchmark itself.

Run from the repository root::

    python3 perfbench/selfcheck.py

Checks, each printed as it passes:

1. exact counts (virtual calls and bytes, counter operations, evictions,
   detections) repeat bit-for-bit across two traced replays of one trace;
2. a changed seed changes the generated trace, distinct seeds expand
   to disjoint trace sets, and a seed's inputs are kept under the digest
   of the program that made them;
3. the oracle accepts the service's detections and rejects a perturbed
   detection map (shifted timestamp, missing flow, extra flow);
4. the tail percentile keeps at least ten samples beyond it;
5. in a directory holding only ``BENCHMARK.json`` and this package,
   ``run.py`` exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_exact_counts_repeat() -> None:
    run.compile_program()
    for name in ("saturated", "federico"):
        spec = {
            **run.replay_specs(workloads.WORKLOADS[name], SEED)[0],
            "traced": True, "setup_only": False,
        }
        first = run.run_replay(spec)
        second = run.run_replay(spec)
        check(first is not None and second is not None, f"{name}: replay failed")
        for result in (first, second):
            result["trace_index"] = 0
        check(
            run.exact_counts(first) == run.exact_counts(second),
            f"{name}: exact counts differ: {run.exact_counts(first)} vs "
            f"{run.exact_counts(second)}",
        )
        check(first["mismatches"] == 0, f"{name}: detections differ from the oracle")
        print(f"ok  exact counts repeat on {name}: {run.exact_counts(first)[1:]}")


def check_seed_changes_trace() -> None:
    for name in ("federico", "saturated", "caida-pipeline"):
        workload = workloads.WORKLOADS[name]
        a = workloads.prepare(workload, SEED)
        b = workloads.prepare(workload, SEED + 1)
        check(
            a.trace_path.read_bytes() != b.trace_path.read_bytes(),
            f"{name}: seeds {SEED} and {SEED + 1} generate the same trace",
        )
        check(
            not set(workloads.sub_seeds(workload, SEED))
            & set(workloads.sub_seeds(workload, SEED + 1)),
            f"{name}: seeds {SEED} and {SEED + 1} share traces",
        )
        check(
            a.trace_path.parent.name.endswith(workloads.program_digest()),
            f"{name}: inputs not keyed by the program digest",
        )
        print(f"ok  a changed seed changes the {workload.trace} trace")


def check_oracle_rejects_perturbation() -> None:
    spec = run.replay_specs(workloads.WORKLOADS["saturated"], SEED)[0]
    oracle = {fid: ts for fid, ts in json.loads(Path(spec["oracle"]).read_text())}
    check(bool(oracle), "oracle holds no detection")
    check(workloads.compare(dict(oracle), oracle) == 0, "oracle rejects itself")
    fid = next(iter(oracle))
    shifted = {**oracle, fid: oracle[fid] + 1}
    missing = {k: v for k, v in oracle.items() if k != fid}
    extra = {**oracle, -1: 0}
    for label, perturbed in (("shifted", shifted), ("missing", missing), ("extra", extra)):
        check(
            workloads.compare(perturbed, oracle) == 1,
            f"oracle accepts a {label} detection map",
        )
    print("ok  the oracle rejects shifted, missing and extra detections")


def check_tail_percentile() -> None:
    for count, expected in ((25, 0.5), (60, 0.8), (200, 0.9), (1000, 0.98), (20000, 0.999)):
        values = list(range(count))
        fraction, value = run.tail_percentile(values)
        check(sum(1 for v in values if v > value) >= 10,
              f"tail p{fraction} of {count} samples has fewer than ten beyond it")
        check(fraction == expected,
              f"tail of {count} samples at p{fraction}, expected p{expected}")
    print("ok  the tail percentile keeps ten samples beyond it")


def check_bare_directory_fails() -> None:
    bare = workloads.CACHE_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "federico",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(completed.returncode != 0, "run.py succeeded without the program")
    check('"metrics"' not in completed.stdout, "run.py printed a result without the program")
    print("ok  without the program, run.py exits non-zero and prints no result")


def main() -> int:
    check_tail_percentile()
    check_oracle_rejects_perturbation()
    check_seed_changes_trace()
    check_exact_counts_repeat()
    check_bare_directory_fails()
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
