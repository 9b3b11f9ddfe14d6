"""EARDet service benchmark: one ledger, calibrated units, traced layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload federico --seed 1 --seconds 30 --trace 0

Prepares the seed's inputs (trace, oracle, resume checkpoint) outside
every timed region, then replays the trace through ``DetectionService``
in fresh processes (``replay.py``) until ``--seconds`` have passed.
Every replay's detections are checked against the reference oracle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced replays (on ``federico`` also through its
multiprocess twin) and prints the per-layer metrics.  The last
line of standard output is the JSON result; the line before it is a
diagnostics object (raw, uncalibrated figures).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Replays a run makes at the least, whatever ``--seconds`` says.
MIN_REPLAYS = 3

#: Per-replay wall-clock limit.
REPLAY_TIMEOUT_S = 150

#: ``trace.coverage`` must fall inside this band (the compensated
#: per-layer self times explain the untraced batch time within 10 %).
COVERAGE_BAND = (0.9, 1.1)

#: Tail percentiles tried from the highest down; the first with at least
#: ten batches beyond it is reported.
TAIL_LADDER = (0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.5)


def tail_percentile(values):
    """``(percentile, value)``: the highest ladder percentile with at
    least ten samples above it (nearest-rank)."""
    ordered = sorted(values)
    count = len(ordered)
    for fraction in TAIL_LADDER:
        rank = min(count - 1, int(fraction * count))
        if count - rank - 1 >= 10:
            return fraction, ordered[rank]
    return 0.5, ordered[count // 2]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def replay_env():
    """Environment of the replay processes: bytecode cached inside the
    benchmark's cache directory whatever the caller's settings, so
    set-up times imports from compiled bytecode, as an installed service
    starts, and never the compiler (see :func:`compile_program`)."""
    import workloads

    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str((workloads.CACHE_DIR / "pycache").resolve())
    return env


def compile_program():
    """Fill the replays' bytecode cache before anything is timed."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        env=replay_env(), check=True, capture_output=True,
    )


def run_replay(spec):
    """One replay in a fresh process; its JSON result, or None on failure."""
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "replay.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S,
            env=replay_env(),
        )
    except subprocess.TimeoutExpired:
        print(f"replay timed out after {REPLAY_TIMEOUT_S}s", file=sys.stderr)
        return None
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-4000:])
        return None
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def replay_ok(result):
    if result is None or result["mismatches"] or not result["exact"]:
        return False
    return result["observed"] == result["offered"]


def cal_pps(result):
    return result["served"] / (sum(result["times_cal_ns"]) / 1e9)


def raw_pps(result):
    return result["served"] / (sum(result["times_raw_ns"]) / 1e9)


def end_to_end(results, setups, offered):
    """End-to-end metrics over all untraced replays of a run; ``setups``
    holds the set-up results of those replays and of the set-up probes,
    ``offered`` the packets offered to every untraced replay attempted,
    including any that crashed.

    ``cal_pps`` is total packets over total calibrated time, taking each
    trace's median replay time, so a slow replay moves it only through
    the median; batch percentiles pool every batch of every replay."""
    by_trace = {}
    for r in results:
        by_trace.setdefault(r["trace_index"], []).append(r)
    packets = sum(rs[0]["served"] for rs in by_trace.values())
    cal_time = sum(
        statistics.median(sum(r["times_cal_ns"]) for r in rs) for rs in by_trace.values()
    )
    raw_time = sum(
        statistics.median(sum(r["times_raw_ns"]) for r in rs) for rs in by_trace.values()
    )
    batches = [t for r in results for t in r["times_cal_ns"]]
    fraction, tail = tail_percentile(batches)
    delivered = sum(r["observed"] for r in results if r["ok"])
    metrics = {
        "cal_pps": _metric(packets / (cal_time / 1e9), "1/s"),
        "batch_p50_ms": _metric(statistics.median(batches) / 1e6, "ms"),
        "setup_s": _metric(
            statistics.median(r["setup_cal_ns"] for r in setups) / 1e9, "s"
        ),
        "peak_rss_mb": _metric(statistics.median(r["rss_mb"] for r in results), "MB"),
        "delivered_ratio": _metric(delivered / offered if offered else 0.0, "ratio"),
    }
    raw_batches = [t for r in results for t in r["times_raw_ns"]]
    diagnostics = {
        "replays": len(results),
        "batches": len(batches),
        "tail_percentile": fraction,
        "batch_tail_ms": tail / 1e6,
        "raw_pps": packets / (raw_time / 1e9),
        "raw_batch_p50_ms": statistics.median(raw_batches) / 1e6,
        "raw_batch_tail_ms": tail_percentile(raw_batches)[1] / 1e6,
        "setups": len(setups),
        "raw_setup_s": statistics.median(r["setup_raw_ns"] for r in setups) / 1e9,
        "calib_us": statistics.median(c for r in results for c in r["calib_ns"]) / 1e3,
    }
    return metrics, diagnostics


def compensate(traced, untraced):
    """Subtract the measured cost of tracing from each layer's self time,
    and set each traced replay's ``coverage``.

    A traced replay's batches take longer than the same trace's untraced
    median by the cost of its spans.  That excess, divided by the spans
    opened after set-up, is one span's cost; it is split into the part
    inside the span's own window and the part charged to its parent in
    the proportion a no-op probe measured.  Each layer then loses
    ``spans * inner + nested * outer``, so the compensated self times
    add up to the untraced time.  ``coverage`` is the compensated self
    time of the batches, summed over layers, over the untraced batch
    time: the share of the untraced program the layers explain."""
    untraced_time = {}
    for r in untraced:
        untraced_time.setdefault(r["trace_index"], []).append(sum(r["times_cal_ns"]))
    for r in traced:
        layers = r["layers"]
        baseline = statistics.median(untraced_time[r["trace_index"]])
        excess = sum(r["times_cal_ns"]) - baseline
        per_span = max(0.0, excess) / max(1, sum(layers["serve_spans"].values()))
        inner = per_span * layers["span_inner_share"]
        outer = per_span - inner

        def compensated(times, spans, nested):
            return {
                name: max(0.0, value - spans.get(name, 0) * inner
                          - nested.get(name, 0) * outer)
                for name, value in times.items()
            }

        layers["self_cal_ns"] = compensated(
            layers["self_cal_ns"], layers["spans"], layers["nested"]
        )
        serving = compensated(
            layers["serve_self_cal_ns"], layers["serve_spans"], layers["serve_nested"]
        )
        layers["coverage"] = sum(serving.values()) / baseline


def _ns_per(layers, name, denominator):
    value = layers["self_cal_ns"].get(name, 0.0)
    return value / denominator if denominator else 0.0


def layer_metrics(traced, untraced, workers_traced, workers_untraced):
    """Per-layer metrics: calibrated times are medians over traced
    replays; exact counts are summed over the seed's traces (they repeat
    bit-for-bit, which :func:`main` checks).  The ``workers.*`` metrics
    come from the replays through the workload's multiprocess twin, and
    read 0 on a workload without one."""
    def med(fn, replays=traced):
        return statistics.median(fn(r) for r in replays) if replays else 0.0

    def observed(r):
        return r["layers"]["calls"].get("observe", 0)

    def layer(r):
        return r["layers"]

    firsts = list({r["trace_index"]: r for r in reversed(traced)}.values())

    def total(fn):
        return sum(fn(r) for r in firsts)

    calib = [c for r in untraced for c in r["calib_ns"]]
    calib_share = sum(r["calib_total_ns"] for r in untraced) / sum(
        r["calib_total_ns"] + r["serve_raw_ns"] for r in untraced
    )
    untraced_pps = statistics.median(cal_pps(r) for r in untraced)
    traced_pps = statistics.median(cal_pps(r) for r in traced)
    counter_ops = total(lambda r: layer(r)["calls"].get("counters", 0))
    observes = total(observed)
    tail_fraction, tail = tail_percentile(
        [t for r in untraced for t in r["times_cal_ns"]]
    )
    values = {
        "batch_tail_ms": (tail / 1e6, "ms"),
        "host.calib_us": (statistics.median(calib) / 1e3, "us"),
        "host.raw_pps": (statistics.median(raw_pps(r) for r in untraced), "1/s"),
        "host.calib_share": (calib_share, "ratio"),
        "traffic.decode_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "decode", r["trace_packets"])), "ns/pkt"),
        "guard.validate_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "validate", layer(r)["calls"].get("validate", 0))),
            "ns/pkt"),
        "source.batch_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "source", r["served"])), "ns/pkt"),
        "engine.route_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "route", r["served"])), "ns/pkt"),
        "engine.ingest_self_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "engine", r["served"])), "ns/pkt"),
        "engine.queue_high_water": (max(r["queue_high_water"] for r in firsts), "count"),
        "eardet.observe_ns_per_pkt": (
            med(lambda r: sum(
                _ns_per(layer(r), name, observed(r))
                for name in ("observe", "virtual", "counters")
            )), "ns/pkt"),
        "eardet.detect_self_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "observe", observed(r))), "ns/pkt"),
        "eardet.detections": (total(lambda r: r["detections"]), "count"),
        "eardet.blacklisted_pkts": (total(lambda r: layer(r)["blacklisted"]), "count"),
        "virtual.fill_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "virtual", observed(r))), "ns/pkt"),
        "virtual.calls": (total(lambda r: layer(r)["calls"].get("virtual", 0)), "count"),
        "virtual.bytes_per_real_byte": (
            total(lambda r: layer(r)["virtual_bytes"]) / total(lambda r: r["real_bytes"]),
            "ratio"),
        "counters.ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "counters", observed(r))), "ns/pkt"),
        "counters.ops_per_pkt": (counter_ops / observes if observes else 0.0, "ratio"),
        "counters.evictions": (total(lambda r: layer(r)["evictions"]), "count"),
        "watcher.observe_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "watcher", r["served"])), "ns/pkt"),
        "telemetry.sync_ns_per_batch": (
            med(lambda r: _ns_per(layer(r), "telemetry", len(r["times_cal_ns"]) - 1)),
            "ns/batch"),
        "checkpoint.write_ms": (
            med(lambda r: _ns_per(layer(r), "checkpoint",
                                  layer(r)["calls"].get("checkpoint", 0)) / 1e6), "ms"),
        "checkpoint.bytes": (max(r["checkpoint_bytes"] for r in firsts), "bytes"),
        "checkpoint.restore_ms": (med(lambda r: layer(r)["restore_cal_ns"] / 1e6), "ms"),
        "workers.ship_ns_per_pkt": (
            med(lambda r: _ns_per(layer(r), "ship", r["served"]), workers_traced),
            "ns/pkt"),
        # The worker's CPU time, scaled by its replay's calibration factor.
        "workers.cpu_ns_per_pkt": (
            med(lambda r: r["child_cpu_ns"] * sum(r["times_cal_ns"])
                / sum(r["times_raw_ns"]) / r["served"], workers_untraced),
            "ns/pkt"),
        "trace.coverage": (med(lambda r: layer(r)["coverage"]), "ratio"),
        "trace.overhead_pct": (100.0 * (1.0 - traced_pps / untraced_pps), "%"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def exact_counts(result):
    """The counts that must repeat bit-for-bit for a trace."""
    layers = result["layers"]
    return (
        result["trace_index"],
        layers["calls"].get("virtual", 0),
        layers["virtual_bytes"],
        layers["calls"].get("counters", 0),
        layers["evictions"],
        result["detections"],
    )


def replay_specs(workload, seed):
    """One replay spec per trace the seed expands to (inputs prepared)."""
    import workloads

    specs = []
    for index, trace_seed in enumerate(workloads.sub_seeds(workload, seed)):
        inputs = workloads.prepare(workload, trace_seed)
        specs.append({
            "workload": workload.name,
            "seed": trace_seed,
            "trace_index": index,
            "trace": str(inputs.trace_path),
            "oracle": str(inputs.oracle_path),
            "packets": inputs.packets,
            "config": inputs.config,
            "resume_from": (
                str(inputs.checkpoint_path) if inputs.checkpoint_path else None
            ),
            "checkpoint": str(workloads.CACHE_DIR / f"work-{os.getpid()}.ckpt"),
        })
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from a repository root holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    specs = replay_specs(workload, args.seed)
    compile_program()

    # A round replays every trace once untraced, then once traced with
    # --trace 1 or else once more up to the first batch only (a set-up
    # probe: more set-up samples at little cost); rounds repeat while the
    # next one fits in --seconds.  A traced round also replays each trace
    # untraced and traced through the workload's multiprocess twin, if it
    # has one: those replays give the workers.* metrics and nothing else.
    twin = workloads.WORKLOADS.get(workload.workers_twin) if args.trace else None
    twin_specs = replay_specs(twin, args.seed) if twin else [None] * len(specs)
    min_rounds = -(-MIN_REPLAYS // len(specs))
    results = {False: [], True: []}
    workers = {False: [], True: []}
    setups = []
    attempted = failed = offered = 0
    rounds = 0

    def keep(result, spec, into):
        nonlocal failed
        ok = replay_ok(result)
        failed += not ok
        if result is not None:
            result.update(
                ok=ok, trace_index=spec["trace_index"], trace_packets=spec["packets"],
            )
            into.append(result)

    started = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - started
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
                break
            for spec, twin_spec in zip(specs, twin_specs):
                offered += spec["packets"] - workload.resume_at
                first = run_replay({**spec, "traced": False, "setup_only": False})
                second = run_replay({
                    **spec, "traced": bool(args.trace), "setup_only": not args.trace,
                })
                attempted += 2
                keep(first, spec, results[False])
                if args.trace:
                    keep(second, spec, results[True])
                else:
                    failed += second is None
                setups += [
                    r for r in (first, None if args.trace else second) if r is not None
                ]
                if twin_spec is not None:
                    for traced in (False, True):
                        replay = run_replay(
                            {**twin_spec, "traced": traced, "setup_only": False}
                        )
                        attempted += 1
                        keep(replay, twin_spec, workers[traced])
            rounds += 1
            if not any(results.values()):
                break  # nothing completes; do not spin
    finally:
        Path(specs[0]["checkpoint"]).unlink(missing_ok=True)

    untraced = results[False]
    if not untraced or (args.trace and not results[True]):
        print("perfbench: no replay completed", file=sys.stderr)
        return 1
    metrics, diagnostics = end_to_end(untraced, setups, offered)
    if args.trace:
        counts = {exact_counts(r) for r in results[True]}
        if len(counts) > len(specs):
            print(f"perfbench: exact counts differ between replays: {sorted(counts)}",
                  file=sys.stderr)
            failed += 1
        compensate(results[True], untraced)
        if workers[True] and workers[False]:
            compensate(workers[True], workers[False])
        # The gate covers the in-process replays: on the multiprocess twin
        # the main process mostly waits for the worker, whose core the
        # main process's yardstick does not see.
        low, high = COVERAGE_BAND
        for r in results[True]:
            if not low <= r["layers"]["coverage"] <= high:
                print(f"perfbench: trace.coverage {r['layers']['coverage']} "
                      f"outside {COVERAGE_BAND}", file=sys.stderr)
                failed += 1
        metrics = layer_metrics(results[True], untraced, workers[True], workers[False])
        diagnostics["coverage"] = [r["layers"]["coverage"] for r in results[True]]
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
