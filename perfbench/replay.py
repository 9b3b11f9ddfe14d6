"""One replay of a workload's trace through DetectionService, in a fresh process.

Invoked by ``run.py`` as ``python3 perfbench/replay.py '<json spec>'``
from the repository root; prints one JSON object on its last line.  A
``setup_only`` spec stops at the hand-over of the first batch and reports
only the set-up time (more set-up samples per run, at little cost).

Timing model.  Every measured interval is bracketed by yardstick samples
and reported both raw and *calibrated*: divided by the mean of its two
bracketing samples and scaled to :data:`yardstick.REFERENCE_NS`.  Time
spent in the yardstick itself is excluded everywhere.

- Set-up runs from process start (after the first samples, before
  ``repro`` is imported) to the hand-over of the first batch, in three
  phases — imports, service build (or checkpoint resume), serve start
  plus the first pull (trace decode) — each with its own brackets.
- The service pulls batches from :class:`CalibratedSource`.  Before each
  later pull it runs one yardstick sample; a batch's time is its pull
  plus everything the service did with it, up to its next pull.
- The tail is the drain after the last batch (final flush, checkpoint
  and report).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

import yardstick

clock = time.perf_counter_ns


class SetUp:
    """Set-up time in phases, each closed by a median of three samples."""

    def __init__(self) -> None:
        self.calib = statistics.median(yardstick.sample() for _ in range(5))
        self.raw_ns = 0
        self.cal_ns = 0.0
        self.started = clock()

    def close_phase(self) -> float:
        """End the current phase; returns its closing sample."""
        ended = clock()
        sample = statistics.median(yardstick.sample() for _ in range(3))
        raw = ended - self.started
        self.raw_ns += raw
        self.cal_ns += raw * yardstick.REFERENCE_NS / ((self.calib + sample) / 2)
        self.calib = sample
        self.started = clock()
        return sample


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("resume_from"):
        shutil.copyfile(spec["resume_from"], spec["checkpoint"])
    setup = SetUp()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.service import DetectionService
    from repro.service.sources import PacketSource
    from repro.telemetry import Telemetry

    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    tracer = None
    if spec["traced"]:
        import layers

        tracer = layers.Tracer()
        span_cost = layers.Tracer.span_cost()
        # The multiprocess engine forks its worker: run it untraced, so
        # tracing slows only what the spans measure.
        os.register_at_fork(after_in_child=layers.install(tracer))
    setup.close_phase()

    marks = []  # (clock, tracer snapshot) at every interval boundary
    setup_counts = []  # (calls, nested) when the first batch was handed over

    def mark() -> None:
        marks.append((clock(), tracer.snapshot() if tracer else None))

    class CalibratedSource(PacketSource):
        """Times each batch's service and runs the yardstick beside it."""

        def __init__(self, inner):
            self._inner = inner
            self.name = inner.name
            self.samples = []
            self.batch_raw = []
            self.calib_spent = 0

        def iter_packets(self):
            return self._inner.iter_packets()

        def batches(self, batch_size=workloads.BATCH_SIZE, skip=0):
            inner = self._inner.batches(batch_size, skip)
            if tracer is not None:
                inner = tracer.wrap_iter("source", inner)
            while True:
                sampled = clock()
                if self.samples:
                    self.samples.append(yardstick.sample())
                pulled = clock()
                self.calib_spent += pulled - sampled
                batch = next(inner, None)
                if batch is None:
                    return
                if not self.samples:
                    # The first pull (trace decode) ends set-up.
                    closing = clock()
                    self.samples.append(setup.close_phase())
                    mark()
                    if tracer is not None:
                        setup_counts.append(
                            (dict(tracer.calls), dict(tracer.nested))
                        )
                    handed = clock()
                    self.calib_spent += handed - closing
                    if spec["setup_only"]:
                        return
                    pull = 0
                else:
                    handed = clock()
                    pull = handed - pulled
                yield batch
                self.batch_raw.append(pull + clock() - handed)
                mark()

    telemetry = Telemetry()
    if workload.resume_at:
        service = DetectionService.resume(
            spec["checkpoint"], telemetry=telemetry,
            batch_size=workloads.BATCH_SIZE,
        )
    else:
        service = workloads.build_service(
            workload, spec["seed"], workloads.EARDetConfig(**spec["config"]),
            telemetry=telemetry,
        )
    setup.close_phase()
    source = CalibratedSource(workloads.source(workload, spec["trace"]))
    before_serve = _tallies(tracer, service) if tracer else None
    serve_started = clock()
    report = service.serve(source)
    ended = clock()
    mark()
    service.shutdown()
    if spec["setup_only"]:
        print(json.dumps({
            "setup_raw_ns": setup.raw_ns, "setup_cal_ns": setup.cal_ns,
        }))
        return 0

    samples = source.samples
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Batch i is bracketed by samples i and i+1; the tail follows the last.
    batches = len(source.batch_raw)
    factors = (
        [setup.cal_ns / setup.raw_ns]
        + [
            yardstick.REFERENCE_NS / statistics.fmean(samples[i:i + 2])
            for i in range(batches)
        ]
        + [yardstick.REFERENCE_NS / samples[-1]]
    )
    times_raw = source.batch_raw + [ended - marks[batches][0] - samples[-1]]
    times_cal = [t * f for t, f in zip(times_raw, factors[1:])]
    serve_raw = ended - serve_started - source.calib_spent

    oracle = {fid: ts for fid, ts in json.loads(open(spec["oracle"]).read())}
    result = {
        "served": report.packets,
        "offered": spec["packets"] - report.resumed_from,
        "observed": sum(h.packets for h in report.shard_health)
        - report.resumed_from,
        "mismatches": workloads.compare(report.detections, oracle),
        "exact": all(envelope.exact for envelope in report.envelope),
        "setup_raw_ns": setup.raw_ns,
        "setup_cal_ns": setup.cal_ns,
        "times_raw_ns": times_raw,
        "times_cal_ns": times_cal,
        "serve_raw_ns": serve_raw,
        "calib_ns": samples,
        "calib_total_ns": source.calib_spent,
        "rss_mb": (_peak_rss_kb() + child_usage.ru_maxrss) / 1024.0,
        "child_cpu_ns": int((child_usage.ru_utime + child_usage.ru_stime) * 1e9),
        "queue_high_water": max(h.queue_high_water for h in report.shard_health),
        "detections": len(report.detections),
        "checkpoint_bytes": (
            os.path.getsize(spec["checkpoint"]) if workload.checkpoint_every else 0
        ),
    }
    if tracer is not None:
        result["layers"] = _layer_totals(
            tracer, marks, factors, before_serve, _tallies(tracer, service),
            setup_counts[0],
        )
        result["layers"]["span_inner_share"] = span_cost[0] / sum(span_cost)
        from repro.traffic.trace_io import iter_binary

        result["real_bytes"] = sum(
            packet.size
            for index, packet in enumerate(iter_binary(spec["trace"]))
            if index >= report.resumed_from
        )
    print(json.dumps(result))
    return 0


def _peak_rss_kb() -> int:
    """This process's peak RSS since it was exec'd, in KiB.

    ``ru_maxrss`` would not do: Linux carries it across ``execve``, so it
    reports the launching process's size whenever that was larger."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _tallies(tracer, service):
    """Cumulative tracer and detector counters, taken before and after
    serving; their difference is what the replay itself did."""
    virtual_bytes = blacklisted = evictions = 0
    groups = getattr(service.engine, "detector_groups", None)
    if groups is not None:  # in-process engines only
        for group in groups():
            for detector in group:
                virtual_bytes += detector.stats.virtual_bytes
                blacklisted += detector.stats.blacklisted_packets
                evictions += detector.store_evictions
    return {
        "calls": dict(tracer.calls),
        "virtual_bytes": virtual_bytes,
        "blacklisted": blacklisted,
        "evictions": evictions,
    }


def _layer_totals(tracer, marks, factors, before, after, setup_counts):
    """Calibrated per-layer self times with span counts and exact counts.

    Self times and span counts are given for the whole replay and for
    the batches alone (after the first batch was handed over): the
    latter are what ``run.compensate`` and the coverage gate compare
    with the untraced replays' batch time."""
    calibrated, serving = {}, {}
    previous = {}
    for index, ((_, snap), factor) in enumerate(zip(marks, factors)):
        for name, value in snap.items():
            delta = (value - previous.get(name, 0)) * factor
            calibrated[name] = calibrated.get(name, 0.0) + delta
            if index:
                serving[name] = serving.get(name, 0.0) + delta
        previous = snap
    setup_calls, setup_nested = setup_counts
    return {
        "self_cal_ns": calibrated,
        "serve_self_cal_ns": serving,
        # Whole-replay span counts and the batches' own ...
        "spans": dict(tracer.calls),
        "nested": dict(tracer.nested),
        "serve_spans": {
            name: count - setup_calls.get(name, 0)
            for name, count in tracer.calls.items()
        },
        "serve_nested": {
            name: count - setup_nested.get(name, 0)
            for name, count in tracer.nested.items()
        },
        # ... and the serve call's (for exact counts and rates).
        "calls": {
            name: count - before["calls"].get(name, 0)
            for name, count in after["calls"].items()
        },
        "restore_cal_ns": tracer.total_ns.get("restore", 0) * factors[0],
        **{
            key: after[key] - before[key]
            for key in ("virtual_bytes", "blacklisted", "evictions")
        },
    }


if __name__ == "__main__":
    sys.exit(main())
