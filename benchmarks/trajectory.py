#!/usr/bin/env python
"""Telemetry overhead trajectory: measure, assert, append.

The telemetry subsystem's contract is "≤5% hot-path overhead, measured,
not promised".  This script is the measurement: it streams one workload
through

1. ``eardet-direct``   — a bare :class:`~repro.core.eardet.EARDet` loop
   (the speed-of-light reference),
2. ``service-off``     — :class:`DetectionService` with telemetry off
   (the shipping default), and
3. ``service-on``      — the same service with a live
   :class:`~repro.telemetry.Telemetry` registry + tracer attached,

asserts the telemetry-on run detects the *bit-identical* flow set (same
ids, same timestamps — observability must never perturb detection), and
appends one structured point to ``BENCH_telemetry.json`` at the repo
root, so the file accumulates a trajectory across commits rather than a
single disposable number.

Exit status is non-zero when the measured overhead exceeds
``--max-overhead-pct`` (default 5), which is what CI gates on.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py --smoke
    PYTHONPATH=src python benchmarks/trajectory.py            # full size
    PYTHONPATH=src python benchmarks/trajectory.py --no-append --json

Standalone by design: stdlib only, no pytest, no psutil.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import EARDetConfig  # noqa: E402
from repro.core.eardet import EARDet  # noqa: E402
from repro.model.packet import Packet  # noqa: E402
from repro.service import DetectionService, StreamSource  # noqa: E402
from repro.service.sources import DEFAULT_BATCH_SIZE  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

RESULTS_PATH = REPO_ROOT / "BENCH_telemetry.json"
OVERLOAD_RESULTS_PATH = REPO_ROOT / "BENCH_overload.json"
PIPELINE_RESULTS_PATH = REPO_ROOT / "BENCH_pipeline.json"
RESHARD_RESULTS_PATH = REPO_ROOT / "BENCH_reshard.json"
NET_RESULTS_PATH = REPO_ROOT / "BENCH_net.json"
FORENSICS_RESULTS_PATH = REPO_ROOT / "BENCH_forensics.json"
CONTROL_RESULTS_PATH = REPO_ROOT / "BENCH_control.json"

#: Same configuration family the tier-1 service tests use: small enough
#: to evict, large enough to detect.
CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518,
    beta_l=1000, gamma_l=50_000,
)


def make_packets(count: int, seed: int = 7, flows: int = 50,
                 heavy_share: float = 0.1) -> list:
    """A mixed stream: mostly small flows, a few heavy hitters."""
    rng = random.Random(seed)
    packets = []
    t = 0
    for i in range(count):
        t += rng.randint(500, 2000)
        if rng.random() < heavy_share:
            fid = f"h{i % 3}"
        else:
            fid = f"f{rng.randrange(flows)}"
        packets.append(Packet(time=t, size=rng.choice((64, 576, 1518)), fid=fid))
    return packets


def _time_direct(packets: list) -> float:
    detector = EARDet(CONFIG)
    observe = detector.observe
    started = time.perf_counter()
    for packet in packets:
        observe(packet)
    return time.perf_counter() - started


def _time_service(
    packets: list, telemetry, overload=None, watcher=None, slots=None,
    shards=2, controller=None,
) -> "tuple[float, tuple]":
    service = DetectionService(
        CONFIG, shards=shards, telemetry=telemetry, overload=overload,
        watcher=watcher, slots=slots, controller=controller,
    )
    try:
        started = time.perf_counter()
        report = service.serve(StreamSource(packets))
        elapsed = time.perf_counter() - started
    finally:
        service.shutdown()
    # report.detections maps flow id -> detection timestamp (ns); both
    # must match bit-for-bit between telemetry-on and -off runs.
    detections = tuple(sorted(report.detections.items()))
    return elapsed, detections


def measure(packets: list, repeats: int) -> dict:
    """Best-of-``repeats`` wall time per mode, interleaved so drift in
    machine load hits every mode equally."""
    best = {"eardet-direct": None, "service-off": None, "service-on": None}
    detections_off = detections_on = None
    for _ in range(repeats):
        elapsed = _time_direct(packets)
        if best["eardet-direct"] is None or elapsed < best["eardet-direct"]:
            best["eardet-direct"] = elapsed

        elapsed, detections_off = _time_service(packets, telemetry=None)
        if best["service-off"] is None or elapsed < best["service-off"]:
            best["service-off"] = elapsed

        elapsed, detections_on = _time_service(packets, telemetry=Telemetry())
        if best["service-on"] is None or elapsed < best["service-on"]:
            best["service-on"] = elapsed

    if detections_on != detections_off:
        raise AssertionError(
            "telemetry perturbed detection: "
            f"{len(detections_off or ())} flows without vs "
            f"{len(detections_on or ())} with telemetry"
        )
    count = len(packets)
    pps = {mode: count / elapsed for mode, elapsed in best.items()}
    overhead_pct = 100.0 * (1.0 - pps["service-on"] / pps["service-off"])
    return {
        "packets": count,
        "repeats": repeats,
        "pps": {mode: round(value, 1) for mode, value in pps.items()},
        "overhead_pct": round(overhead_pct, 3),
        "detected_flows": len(detections_off or ()),
    }


def append_point(
    point: dict,
    path: Path = RESULTS_PATH,
    description: str = (
        "telemetry overhead trajectory; one point per run of "
        "benchmarks/trajectory.py"
    ),
) -> None:
    """Append to a trajectory file (a JSON object with a ``points``
    list), creating it when absent.

    Refuses a point with a ``None`` value: a null in a trajectory file
    poisons every consumer that plots or gates on the series, so a
    measurement that could not be taken must either raise or record an
    explicit sentinel the reader understands — never null.
    """
    nulls = [key for key, value in point.items() if value is None]
    if nulls:
        raise ValueError(
            f"refusing to append a point with null values for {nulls}; "
            "trajectory series must be numeric end to end"
        )
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        payload = {"description": description, "points": []}
    payload["points"].append(point)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def interleave(run_a, run_b, pairs: int) -> "tuple[list, list]":
    """Call ``run_a`` and ``run_b`` ``pairs`` times each, the two calls
    of a pair adjacent in time and their order alternating, so machine
    drift and warm-up hit both arms alike; returns both result lists in
    pair order."""
    first, second = [], []
    for index in range(pairs):
        if index % 2:
            second.append(run_b())
            first.append(run_a())
        else:
            first.append(run_a())
            second.append(run_b())
    return first, second


def paired_overhead_pct(base_s: list, armed_s: list) -> float:
    """Overhead of the armed arm: the median over interleaved pairs of
    ``1 - base/armed`` wall time, in %.  Each pair is compared with its
    own neighbour, and the median ignores the single-run swings (±20%
    on a shared 2-core host) that decide a best-of comparison."""
    return statistics.median(
        100.0 * (1.0 - base / armed) for base, armed in zip(base_s, armed_s)
    )


#: Interleaved pairs behind each paired-median gate.  The 1% idle-
#: control gate needs ~200 pairs: single pairs of the 20k-packet smoke
#: stream spread over an interquartile range of ~6%, which puts the
#: median's standard error near 0.4% at 200 pairs.
FORENSICS_PAIRS = 40
CONTROL_PAIRS = 200


def measure_overload(packets: list, repeats: int) -> dict:
    """Overhead of an *armed but idle* overload ladder.

    The ladder's contract is that below the low watermark it costs an
    admission check per packet and nothing else — detections are
    bit-identical to the unarmed service.  Measured exactly like the
    telemetry point: best-of-``repeats``, interleaved, asserted
    identical before any number is reported.
    """
    from repro.service import OverloadPolicy

    # A drain budget far above the batch size keeps occupancy at zero,
    # so the ladder never leaves EXACT: the pure cost of being armed.
    policy = OverloadPolicy(drain_budget=1_000_000)
    best = {"service-off": None, "service-ladder": None}
    detections_off = detections_ladder = None
    for _ in range(repeats):
        elapsed, detections_off = _time_service(packets, telemetry=None)
        if best["service-off"] is None or elapsed < best["service-off"]:
            best["service-off"] = elapsed

        elapsed, detections_ladder = _time_service(
            packets, telemetry=None, overload=policy
        )
        if best["service-ladder"] is None or elapsed < best["service-ladder"]:
            best["service-ladder"] = elapsed

    if detections_ladder != detections_off:
        raise AssertionError(
            "an idle overload ladder perturbed detection: "
            f"{len(detections_off or ())} flows unarmed vs "
            f"{len(detections_ladder or ())} armed"
        )
    count = len(packets)
    pps = {mode: count / elapsed for mode, elapsed in best.items()}
    overhead_pct = 100.0 * (1.0 - pps["service-ladder"] / pps["service-off"])
    return {
        "packets": count,
        "repeats": repeats,
        "pps": {mode: round(value, 1) for mode, value in pps.items()},
        "overhead_pct": round(overhead_pct, 3),
        "detected_flows": len(detections_off or ()),
    }


def measure_pipeline(packets: list, repeats: int) -> dict:
    """Overhead of the second-stage ambiguity-region watcher.

    The pipeline's contract (docs/DETECTORS.md) is that the watcher taps
    the routed stream without feeding the exact stage, so arming it may
    cost throughput but must leave exact detections bit-identical —
    asserted here for both kinds before any number is reported.
    """
    from repro.service import WatcherPolicy

    best = {"service-off": None, "service-clef": None, "service-loft": None}
    detections = {}
    policies = {
        "service-clef": WatcherPolicy(kind="clef"),
        "service-loft": WatcherPolicy(kind="loft"),
    }
    for _ in range(repeats):
        elapsed, detections["service-off"] = _time_service(
            packets, telemetry=None
        )
        if best["service-off"] is None or elapsed < best["service-off"]:
            best["service-off"] = elapsed
        for mode, policy in policies.items():
            elapsed, detections[mode] = _time_service(
                packets, telemetry=None, watcher=policy
            )
            if best[mode] is None or elapsed < best[mode]:
                best[mode] = elapsed

    for mode in policies:
        if detections[mode] != detections["service-off"]:
            raise AssertionError(
                f"{mode} perturbed exact detection: "
                f"{len(detections['service-off'])} flows unarmed vs "
                f"{len(detections[mode])} armed"
            )
    count = len(packets)
    pps = {mode: count / elapsed for mode, elapsed in best.items()}
    overhead = {
        kind: 100.0 * (1.0 - pps[f"service-{kind}"] / pps["service-off"])
        for kind in ("clef", "loft")
    }
    return {
        "packets": count,
        "repeats": repeats,
        "pps": {mode: round(value, 1) for mode, value in pps.items()},
        "overhead_pct": {
            kind: round(value, 3) for kind, value in overhead.items()
        },
        "detected_flows": len(detections["service-off"]),
    }


def measure_reshard(packets: list, repeats: int) -> dict:
    """Cost of the slot-granular layout, and the live-migration pause.

    Two numbers back the resharding contract (docs/SERVICE.md):

    - **steady-state overhead** — a service with ``slots`` above its
      shard count (here 8 slots over 2 shards) pays only an extra
      assignment lookup per packet versus the plain identity layout *at
      the same slot count* (8 shards, 8 slots); measured
      best-of-``repeats``, interleaved, after an untimed warm-up of both
      modes.  The slot count must match on both sides: detection work is
      per-slot (fewer flows per detector means fewer evictions), so a
      2-slot baseline measures a different workload entirely — that
      mismatch, plus a cold first run, once produced a nonsensical
      −124% here.  Equal slot spaces also mean equal detections, which
      are asserted bit-identical.
    - **migration pause** — serve half the stream, split the hottest
      shard live, serve the rest.  The freeze-to-cutover pause must fit
      inside one batch interval (the time the ingest loop spends on one
      batch anyway), and detections must be bit-identical to a static
      run at the same slot count.
    """
    from repro.service import MigrationPlan

    slots = 8
    # Warm both modes untimed before any clock starts: the first service
    # run of the process pays one-time costs (imports, allocator growth,
    # branch caches) that later runs do not.  A quarter-stream pass per
    # mode is enough to absorb them.
    warm = packets[: max(1, len(packets) // 4)]
    _time_service(warm, telemetry=None, shards=slots)
    _time_service(warm, telemetry=None, slots=slots)
    best = {"service-plain": None, "service-slots": None}
    detections_plain = detections_static = None
    for _ in range(repeats):
        # The identity layout at the same slot count (slots == shards):
        # the only difference from the slot-granular run is the
        # slot→shard assignment lookup being measured.
        elapsed, detections_plain = _time_service(
            packets, telemetry=None, shards=slots
        )
        if best["service-plain"] is None or elapsed < best["service-plain"]:
            best["service-plain"] = elapsed

        elapsed, detections_static = _time_service(
            packets, telemetry=None, slots=slots
        )
        if best["service-slots"] is None or elapsed < best["service-slots"]:
            best["service-slots"] = elapsed

    if detections_static != detections_plain:
        raise AssertionError(
            "the slot-granular layout perturbed detection: "
            f"{len(detections_plain or ())} flows identity vs "
            f"{len(detections_static or ())} slot-granular"
        )

    pauses_ns = []
    detections_migrated = None
    for _ in range(repeats):
        service = DetectionService(CONFIG, shards=2, slots=slots)
        try:
            service.serve(
                packets, max_packets=len(packets) // 2,
                final_checkpoint=False,
            )
            migration = service.apply_migration(
                MigrationPlan.split(
                    service.engine.layout, shard=0, reason="bench"
                )
            )
            pauses_ns.append(migration.pause_ns)
            report = service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
        detections_migrated = tuple(sorted(report.detections.items()))

    if detections_migrated != detections_static:
        raise AssertionError(
            "live migration perturbed detection: "
            f"{len(detections_static or ())} flows static vs "
            f"{len(detections_migrated or ())} resharded"
        )
    count = len(packets)
    pps = {mode: count / elapsed for mode, elapsed in best.items()}
    overhead_pct = 100.0 * (1.0 - pps["service-slots"] / pps["service-plain"])
    # One batch interval at the slot-granular service's own pace: the
    # ingest loop already stalls this long between migration windows.
    batch_interval_ns = 1e9 * DEFAULT_BATCH_SIZE / pps["service-slots"]
    return {
        "packets": count,
        "repeats": repeats,
        "slots": slots,
        "pps": {mode: round(value, 1) for mode, value in pps.items()},
        "overhead_pct": round(overhead_pct, 3),
        "pause_ns": min(pauses_ns),
        "pause_ns_all": pauses_ns,
        "batch_interval_ns": round(batch_interval_ns),
        "detected_flows": len(detections_static or ()),
    }


def _percentile(sorted_values: list, fraction: float) -> int:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, round(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def measure_net(packets: list, repeats: int) -> dict:
    """The remote engine's tax over loopback TCP, and the reconnect
    pause distribution.

    Two numbers back the multi-host contract (docs/SERVICE.md §6):

    - **remote overhead** — the same stream through an in-process
      engine and through a :class:`RemoteEngine` driving loopback
      :class:`ShardServer` threads (frame encoding + TCP + exactly-once
      acks); best-of-``repeats``, interleaved, warmed, detections
      asserted bit-identical before any number is reported.
    - **reconnect pauses** — a separate pass with an injected masked
      partition; every connection setup (initial and post-partition)
      contributes one pause sample, reported as p50/p95/max.
    """
    from repro.service import (
        BackoffPolicy,
        FaultPlan,
        InProcessEngine,
        RemoteEngine,
        ShardServer,
    )

    slots = 4
    chunk = 2048

    def time_local(stream):
        engine = InProcessEngine(CONFIG, shards=2, slots=slots)
        try:
            started = time.perf_counter()
            for start in range(0, len(stream), chunk):
                engine.ingest(stream[start:start + chunk])
            engine.flush()
            elapsed = time.perf_counter() - started
            detections = tuple(sorted(engine.detections().items()))
        finally:
            engine.close()
        return elapsed, detections

    def time_remote(stream, fault_plan=None, mask_deadline_s=5.0):
        servers = [ShardServer().start() for _ in range(2)]
        try:
            engine = RemoteEngine(
                CONFIG,
                [(server.host, server.port) for server in servers],
                slots=slots,
                chunk_size=chunk,
                fault_plan=fault_plan,
                backoff=BackoffPolicy(initial_s=0.0),
                mask_deadline_s=mask_deadline_s,
            )
            started = time.perf_counter()
            for start in range(0, len(stream), chunk):
                engine.ingest(stream[start:start + chunk])
            engine.flush()
            # A scrape barrier: the clock stops only once every frame is
            # applied server-side, so in-flight frames are not free.
            engine.scrape_workers()
            elapsed = time.perf_counter() - started
            detections = tuple(sorted(engine.detections().items()))
            pauses = [
                pause
                for report in engine.transport_report()
                for pause in report["reconnect_pauses_ns"]
            ]
            engine.close()
        finally:
            for server in servers:
                server.stop()
        return elapsed, detections, pauses

    # Untimed warm-up of both modes (see measure_reshard).
    warm = packets[: max(1, len(packets) // 4)]
    time_local(warm)
    time_remote(warm)

    best = {"service-local": None, "service-remote": None}
    detections_local = detections_remote = None
    for _ in range(repeats):
        elapsed, detections_local = time_local(packets)
        if best["service-local"] is None or elapsed < best["service-local"]:
            best["service-local"] = elapsed
        elapsed, detections_remote, _ = time_remote(packets)
        if best["service-remote"] is None or elapsed < best["service-remote"]:
            best["service-remote"] = elapsed

    if detections_remote != detections_local:
        raise AssertionError(
            "the remote engine perturbed detection: "
            f"{len(detections_local or ())} flows local vs "
            f"{len(detections_remote or ())} remote"
        )

    # Reconnect pauses, sampled under a masked partition (exactness
    # asserted: a masked outage must be invisible to detection).
    plan = FaultPlan.parse("net:kind=partition,shard=0,at=6,secs=0.05")
    _, detections_chaos, pauses_ns = time_remote(
        packets, fault_plan=plan, mask_deadline_s=30.0
    )
    if detections_chaos != detections_local:
        raise AssertionError(
            "a masked partition perturbed detection: "
            f"{len(detections_local or ())} flows local vs "
            f"{len(detections_chaos or ())} under partition"
        )
    pauses_ns.sort()

    count = len(packets)
    pps = {mode: count / elapsed for mode, elapsed in best.items()}
    overhead_pct = 100.0 * (1.0 - pps["service-remote"] / pps["service-local"])
    return {
        "packets": count,
        "repeats": repeats,
        "slots": slots,
        "pps": {mode: round(value, 1) for mode, value in pps.items()},
        "overhead_pct": round(overhead_pct, 3),
        "reconnect_pause_ns": {
            "p50": _percentile(pauses_ns, 0.50),
            "p95": _percentile(pauses_ns, 0.95),
            "max": pauses_ns[-1],
            "samples": len(pauses_ns),
        },
        "detected_flows": len(detections_local or ()),
    }


def make_sparse_packets(count: int, seed: int = 7) -> list:
    """An incident-*sparse* stream for the forensics benchmark: many
    light flows, three heavy hitters, time steps long enough that the
    light flows stay under the large-flow thresholds.  Capture cost
    scales with incident count, so the overhead budget is measured on a
    stream with a deployment-shaped incident rate (a handful of large
    flows), not on :func:`make_packets` where *every* flow trips the
    detector and the number degenerates into bundle-write throughput."""
    rng = random.Random(seed)
    packets = []
    t = 0
    for i in range(count):
        t += rng.randint(5000, 20000)
        if rng.random() < 0.06:
            fid = f"h{i % 3}"
        else:
            fid = f"f{rng.randrange(1000)}"
        packets.append(
            Packet(time=t, size=rng.choice((64, 576, 1518)), fid=fid)
        )
    return packets


def measure_forensics(packets: list, repeats: int) -> dict:
    """Capture-layer overhead of an armed forensics lab.

    The forensics contract (docs/FORENSICS.md) is that explainability is
    cheap: the hot path pays one ring append per batch and a cursor diff
    per scan, with bundle serialization only when an incident fires.
    Both runs checkpoint identically at a bounded interval (checkpoints
    are what re-baseline the capture window, so the interval caps the
    trace slice a bundle serializes); detections are asserted
    bit-identical before any number is reported.  The stream is the
    incident-sparse one (:func:`make_sparse_packets`) — ``packets`` only
    sets the length.  The end-to-end overhead is the median of paired
    differences over interleaved runs (:func:`paired_overhead_pct`).
    """
    import tempfile

    from repro.forensics import ForensicsLab

    packets = make_sparse_packets(len(packets))
    pairs = max(repeats, FORENSICS_PAIRS)

    def run(forensic: bool):
        with tempfile.TemporaryDirectory() as tmp:
            lab = (
                ForensicsLab(Path(tmp) / "forensics") if forensic else None
            )
            service = DetectionService(
                CONFIG, shards=2,
                checkpoint_path=str(Path(tmp) / "svc.ckpt"),
                checkpoint_every=2_000,
                forensics=lab,
            )
            try:
                started = time.perf_counter()
                report = service.serve(StreamSource(packets))
                elapsed = time.perf_counter() - started
            finally:
                service.shutdown()
                if lab is not None:
                    lab.close()
            detections = tuple(sorted(report.detections.items()))
            stats = (
                (
                    lab.store.total,
                    lab.capture.bundles_written,
                    lab.capture.capture_ns,
                )
                if lab is not None
                else (0, 0, 0)
            )
            return elapsed, detections, stats

    off, armed = interleave(
        lambda: run(forensic=False), lambda: run(forensic=True), pairs
    )
    detections_off = {run_[1] for run_ in off}
    detections_on = {run_[1] for run_ in armed}
    if detections_on != detections_off or len(detections_off) != 1:
        raise AssertionError(
            "the forensics lab perturbed detection: "
            f"{len(detections_off)} distinct detection sets without vs "
            f"{len(detections_on)} with forensics"
        )
    best = {
        "service-off": min(run_[0] for run_ in off),
        "service-forensics": min(run_[0] for run_ in armed),
    }
    fastest = min(armed, key=lambda run_: run_[0])
    incidents, bundles, capture_ns = fastest[2]
    count = len(packets)
    pps = {mode: count / elapsed for mode, elapsed in best.items()}
    # End to end: the median of paired differences (the noise backstop).
    overhead_pct = paired_overhead_pct(
        [run_[0] for run_ in off], [run_[0] for run_ in armed]
    )
    # Direct measure: wall time inside write_bundle over the fastest
    # armed run — what the 3% budget is actually about, immune to the
    # end-to-end pps jitter (which can even go negative on a noisy host).
    capture_overhead_pct = 100.0 * ((capture_ns / 1e9) / fastest[0])
    return {
        "packets": count,
        "repeats": pairs,
        "pps": {mode: round(value, 1) for mode, value in pps.items()},
        "overhead_pct": round(overhead_pct, 3),
        "capture_overhead_pct": round(capture_overhead_pct, 3),
        "detected_flows": len(next(iter(detections_off))),
        "incidents": incidents,
        "bundles": bundles,
    }


def measure_control(packets: list, repeats: int) -> dict:
    """Cost of the adaptive control plane, in its two states.

    Two numbers back the control contract (docs/CONTROL.md):

    - **idle overhead** — a telemetry-on service with an armed
      :class:`~repro.control.ControlPolicy` whose persistence is set so
      high it never proposes, versus the same service without the
      controller.  The armed loop pays one tick per batch (an increment
      and a modulo off-cadence, a registry scrape on cadence) plus the
      per-batch queue pump the controller requires for fresh gauges;
      that total must stay ≤1%, read as the median of paired
      differences over interleaved runs (:func:`paired_overhead_pct`).
      Detections are asserted bit-identical before any number is
      reported.
    - **retune pause** — serve half the stream, commit a guarded
      coarsen retune mid-serve, serve the rest.  The freeze-to-commit
      pause must fit inside one batch interval at the armed service's
      own pace, and the service must end the run exact in epoch 1.
    """
    from repro.control import ControlPolicy, RetunePlan, derive_config

    pairs = max(repeats, CONTROL_PAIRS)
    # The pause arm below is a handful of runs, not a noise fight.
    repeats = max(repeats, 5)

    gamma_h = 200_000
    budget_s = 1.0
    # Persistence beyond any window count: the loop scrapes and
    # evaluates on cadence but can never accumulate a proposal streak —
    # the pure cost of being armed.
    idle_policy = ControlPolicy(
        gamma_h=gamma_h,
        t_upincb_seconds=budget_s,
        persistence=10**9,
    )
    unarmed, armed = interleave(
        lambda: _time_service(packets, telemetry=Telemetry()),
        lambda: _time_service(
            packets, telemetry=Telemetry(), controller=idle_policy
        ),
        pairs,
    )
    detections_on = {run_[1] for run_ in unarmed}
    detections_control = {run_[1] for run_ in armed}
    if detections_control != detections_on or len(detections_on) != 1:
        raise AssertionError(
            "an idle controller perturbed detection: "
            f"{len(detections_on)} distinct detection sets unarmed vs "
            f"{len(detections_control)} armed"
        )
    best = {
        "service-on": min(run_[0] for run_ in unarmed),
        "service-control": min(run_[0] for run_ in armed),
    }
    overhead_pct = paired_overhead_pct(
        [run_[0] for run_ in unarmed], [run_[0] for run_ in armed]
    )

    # The guarded hot-reconfiguration pause, mid-serve (the batch
    # boundary is where retunes land; see repro.control.retune).
    new_config = derive_config(
        rho=CONFIG.rho,
        gamma_l=100_000,
        beta_l=CONFIG.beta_l,
        gamma_h=gamma_h,
        t_upincb_seconds=budget_s,
        alpha=CONFIG.alpha,
        min_counters=CONFIG.n,
    )
    pauses_ns = []
    epochs = []
    for _ in range(repeats):
        plan = RetunePlan(
            old_config=CONFIG,
            new_config=new_config,
            reason="bench: coarsen gamma_l 50000->100000",
            inputs={
                "gamma_l": 100_000,
                "beta_l": CONFIG.beta_l,
                "gamma_h": gamma_h,
                "t_upincb_seconds": budget_s,
                "alpha": CONFIG.alpha,
            },
        )
        # Armed controller (even an inert one) = per-batch queue pump,
        # so the freeze at the retune boundary finds at most one batch
        # of backlog — the deployment shape the pause budget is about.
        service = DetectionService(
            CONFIG, shards=2, telemetry=Telemetry(), controller=idle_policy
        )
        try:
            half = len(packets) // 2

            def retune_at_half(svc):
                if svc._ingested >= half and not svc._retunes:
                    result = svc.apply_retune(plan)
                    pauses_ns.append(result.pause_ns)

            report = service.serve(packets, on_progress=retune_at_half)
        finally:
            service.shutdown()
        epochs.append(report.control["epoch"])
        if not report.exact:
            raise AssertionError("a committed retune cost exactness")
    if epochs != [1] * repeats:
        raise AssertionError(f"retune did not commit every run: {epochs}")

    count = len(packets)
    pps = {mode: count / elapsed for mode, elapsed in best.items()}
    # One batch interval at the armed service's own pace: the ingest
    # loop already spends this long per batch, so a pause inside it
    # never shows up as added latency at the batch cadence.
    batch_interval_ns = 1e9 * DEFAULT_BATCH_SIZE / pps["service-control"]
    return {
        "packets": count,
        "repeats": pairs,
        "pps": {mode: round(value, 1) for mode, value in pps.items()},
        "overhead_pct": round(overhead_pct, 3),
        "pause_ns": min(pauses_ns),
        "pause_ns_all": pauses_ns,
        "batch_interval_ns": round(batch_interval_ns),
        "detected_flows": len(next(iter(detections_on))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload (CI-sized): 20k packets, 2 repeats",
    )
    parser.add_argument(
        "--packets", type=int, default=None,
        help="override the stream length",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="override best-of repeat count",
    )
    parser.add_argument(
        "--max-overhead-pct", type=float, default=5.0,
        help="fail (exit 1) when telemetry overhead exceeds this (default 5)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="measure and report but do not touch the trajectory file",
    )
    parser.add_argument(
        "--overload", action="store_true",
        help="measure the idle overload ladder instead of telemetry and "
        "append to BENCH_overload.json (armed-below-watermark cost; "
        "detections asserted bit-identical to the unarmed service)",
    )
    parser.add_argument(
        "--pipeline", action="store_true",
        help="measure the second-stage watcher (clef and loft) instead of "
        "telemetry and append to BENCH_pipeline.json (exact detections "
        "asserted bit-identical to the watcher-less service)",
    )
    parser.add_argument(
        "--reshard", action="store_true",
        help="measure the slot-granular layout and the live-migration "
        "pause instead of telemetry and append to BENCH_reshard.json "
        "(pause must fit one batch interval; detections asserted "
        "bit-identical to a static run at the same slot count)",
    )
    parser.add_argument(
        "--net", action="store_true",
        help="measure the remote engine over loopback TCP instead of "
        "telemetry and append to BENCH_net.json (remote-vs-local "
        "throughput and reconnect-pause percentiles; detections asserted "
        "bit-identical, including under a masked partition)",
    )
    parser.add_argument(
        "--forensics", action="store_true",
        help="measure the armed forensics lab instead of telemetry and "
        "append to BENCH_forensics.json (incident capture + ring cost; "
        "detections asserted bit-identical to the unarmed service)",
    )
    parser.add_argument(
        "--control", action="store_true",
        help="measure the adaptive control plane instead of telemetry and "
        "append to BENCH_control.json (idle-controller overhead vs the "
        "telemetry-on service, plus the guarded retune pause; detections "
        "asserted bit-identical with the controller armed)",
    )
    parser.add_argument(
        "--max-control-overhead-pct", type=float, default=1.0,
        help="fail (exit 1) when the idle controller costs more than this "
        "versus the telemetry-on service (default 1 — the control loop "
        "off the retune path must be almost free)",
    )
    parser.add_argument(
        "--max-forensics-overhead-pct", type=float, default=3.0,
        help="fail (exit 1) when forensics capture overhead exceeds this "
        "(default 3 — explainability must stay cheap)",
    )
    parser.add_argument(
        "--max-net-overhead-pct", type=float, default=90.0,
        help="fail (exit 1) when the remote engine costs more than this "
        "versus the in-process engine (default 90 — frame encoding plus "
        "loopback TCP is real per-packet work; the gate catches "
        "regressions, not the existence of the cost)",
    )
    parser.add_argument(
        "--max-reshard-overhead-pct", type=float, default=8.0,
        help="fail (exit 1) when the slot-granular layout costs more than "
        "this versus the identity layout (default 8 — within run noise)",
    )
    parser.add_argument(
        "--max-pipeline-overhead-pct", type=float, default=70.0,
        help="fail (exit 1) when either watcher's overhead exceeds this "
        "(default 70 — the watcher does real per-packet work; the gate "
        "catches regressions, not the existence of the cost)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the measured point as JSON instead of prose",
    )
    args = parser.parse_args(argv)

    count = args.packets or (20_000 if args.smoke else 120_000)
    repeats = args.repeats or (2 if args.smoke else 5)

    packets = make_packets(count)
    if args.overload:
        point = measure_overload(packets, repeats)
    elif args.pipeline:
        point = measure_pipeline(packets, repeats)
    elif args.reshard:
        point = measure_reshard(packets, repeats)
    elif args.net:
        point = measure_net(packets, repeats)
    elif args.forensics:
        point = measure_forensics(packets, repeats)
    elif args.control:
        point = measure_control(packets, repeats)
    else:
        point = measure(packets, repeats)
    point["preset"] = "smoke" if args.smoke else "full"
    point["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    if not args.no_append:
        if args.overload:
            append_point(
                point,
                path=OVERLOAD_RESULTS_PATH,
                description=(
                    "overload-ladder trajectory; points from "
                    "benchmarks/trajectory.py --overload (idle-ladder "
                    "overhead) and benchmarks/bench_overload.py (soak)"
                ),
            )
        elif args.pipeline:
            append_point(
                point,
                path=PIPELINE_RESULTS_PATH,
                description=(
                    "two-stage pipeline trajectory; points from "
                    "benchmarks/trajectory.py --pipeline (watcher overhead) "
                    "and benchmarks/bench_pipeline.py (ambiguity corpus)"
                ),
            )
        elif args.reshard:
            append_point(
                point,
                path=RESHARD_RESULTS_PATH,
                description=(
                    "resharding trajectory; points from "
                    "benchmarks/trajectory.py --reshard (slot-layout "
                    "overhead + migration pause) and "
                    "benchmarks/bench_reshard.py (migration storm + chaos)"
                ),
            )
        elif args.net:
            append_point(
                point,
                path=NET_RESULTS_PATH,
                description=(
                    "multi-host trajectory; one point per run of "
                    "benchmarks/trajectory.py --net (remote-vs-local "
                    "throughput over loopback TCP + reconnect-pause "
                    "percentiles)"
                ),
            )
        elif args.forensics:
            append_point(
                point,
                path=FORENSICS_RESULTS_PATH,
                description=(
                    "forensics trajectory; one point per run of "
                    "benchmarks/trajectory.py --forensics (incident "
                    "capture + trace-ring overhead of an armed "
                    "ForensicsLab)"
                ),
            )
        elif args.control:
            append_point(
                point,
                path=CONTROL_RESULTS_PATH,
                description=(
                    "adaptive-control trajectory; one point per run of "
                    "benchmarks/trajectory.py --control (idle-controller "
                    "overhead vs the telemetry-on service + guarded "
                    "retune pause)"
                ),
            )
        else:
            append_point(point)

    if args.json:
        print(json.dumps(point, indent=2))
    elif args.pipeline:
        pps = point["pps"]
        over = point["overhead_pct"]
        print(
            f"trajectory: {count} packets x{repeats} | "
            f"service off {pps['service-off']:,.0f} pps | "
            f"clef {pps['service-clef']:,.0f} pps ({over['clef']:+.2f}%) | "
            f"loft {pps['service-loft']:,.0f} pps ({over['loft']:+.2f}%) | "
            f"{point['detected_flows']} flows (bit-identical)"
        )
    elif args.overload:
        pps = point["pps"]
        print(
            f"trajectory: {count} packets x{repeats} | "
            f"service off {pps['service-off']:,.0f} pps | "
            f"ladder armed {pps['service-ladder']:,.0f} pps | "
            f"overhead {point['overhead_pct']:+.2f}% | "
            f"{point['detected_flows']} flows (bit-identical)"
        )
    elif args.net:
        pps = point["pps"]
        pauses = point["reconnect_pause_ns"]
        print(
            f"trajectory: {count} packets x{repeats} | "
            f"local {pps['service-local']:,.0f} pps | "
            f"remote {pps['service-remote']:,.0f} pps "
            f"({point['overhead_pct']:+.2f}%) | reconnect pause "
            f"p50 {pauses['p50'] / 1e6:.2f} ms / p95 "
            f"{pauses['p95'] / 1e6:.2f} ms ({pauses['samples']} samples) | "
            f"{point['detected_flows']} flows (bit-identical)"
        )
    elif args.forensics:
        pps = point["pps"]
        print(
            f"trajectory: {count} packets x{repeats} | "
            f"service off {pps['service-off']:,.0f} pps | "
            f"forensics {pps['service-forensics']:,.0f} pps | "
            f"overhead {point['overhead_pct']:+.2f}% "
            f"(capture {point['capture_overhead_pct']:.2f}%) | "
            f"{point['incidents']} incidents, {point['bundles']} bundles | "
            f"{point['detected_flows']} flows (bit-identical)"
        )
    elif args.control:
        pps = point["pps"]
        print(
            f"trajectory: {count} packets x{repeats} | "
            f"telemetry on {pps['service-on']:,.0f} pps | "
            f"controller armed {pps['service-control']:,.0f} pps "
            f"({point['overhead_pct']:+.2f}%) | retune pause "
            f"{point['pause_ns'] / 1e6:.2f} ms (batch interval "
            f"{point['batch_interval_ns'] / 1e6:.2f} ms) | "
            f"{point['detected_flows']} flows (bit-identical)"
        )
    elif args.reshard:
        pps = point["pps"]
        print(
            f"trajectory: {count} packets x{repeats} | "
            f"plain {pps['service-plain']:,.0f} pps | "
            f"{point['slots']} slots {pps['service-slots']:,.0f} pps "
            f"({point['overhead_pct']:+.2f}%) | migration pause "
            f"{point['pause_ns'] / 1e6:.2f} ms (batch interval "
            f"{point['batch_interval_ns'] / 1e6:.2f} ms) | "
            f"{point['detected_flows']} flows (bit-identical)"
        )
    else:
        pps = point["pps"]
        print(
            f"trajectory: {count} packets x{repeats} | "
            f"direct {pps['eardet-direct']:,.0f} pps | "
            f"service off {pps['service-off']:,.0f} pps | "
            f"service on {pps['service-on']:,.0f} pps | "
            f"overhead {point['overhead_pct']:+.2f}% | "
            f"{point['detected_flows']} flows (bit-identical)"
        )

    if args.net:
        if point["overhead_pct"] > args.max_net_overhead_pct:
            print(
                f"FAIL: remote-engine overhead {point['overhead_pct']:.2f}% "
                f"exceeds budget {args.max_net_overhead_pct:.1f}%",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.reshard:
        status = 0
        if point["overhead_pct"] > args.max_reshard_overhead_pct:
            print(
                f"FAIL: slot-layout overhead {point['overhead_pct']:.2f}% "
                f"exceeds budget {args.max_reshard_overhead_pct:.1f}%",
                file=sys.stderr,
            )
            status = 1
        if point["pause_ns"] > point["batch_interval_ns"]:
            print(
                f"FAIL: migration pause {point['pause_ns'] / 1e6:.2f} ms "
                "exceeds one batch interval "
                f"({point['batch_interval_ns'] / 1e6:.2f} ms)",
                file=sys.stderr,
            )
            status = 1
        return status
    if args.control:
        status = 0
        if point["overhead_pct"] > args.max_control_overhead_pct:
            print(
                f"FAIL: idle-controller overhead "
                f"{point['overhead_pct']:.2f}% exceeds budget "
                f"{args.max_control_overhead_pct:.1f}%",
                file=sys.stderr,
            )
            status = 1
        if point["pause_ns"] > point["batch_interval_ns"]:
            print(
                f"FAIL: retune pause {point['pause_ns'] / 1e6:.2f} ms "
                "exceeds one batch interval "
                f"({point['batch_interval_ns'] / 1e6:.2f} ms)",
                file=sys.stderr,
            )
            status = 1
        return status
    if args.pipeline:
        failed = {
            kind: value
            for kind, value in point["overhead_pct"].items()
            if value > args.max_pipeline_overhead_pct
        }
        if failed:
            for kind, value in failed.items():
                print(
                    f"FAIL: {kind} watcher overhead {value:.2f}% exceeds "
                    f"budget {args.max_pipeline_overhead_pct:.1f}%",
                    file=sys.stderr,
                )
            return 1
        return 0
    if args.forensics:
        # The budget gates the *direct* capture measurement (wall time
        # inside write_bundle); the end-to-end paired median is too
        # coarse to gate at 3%, so it only backstops gross hot-path
        # regressions (ring appends, scans) at 5x the budget.
        if point["capture_overhead_pct"] > args.max_forensics_overhead_pct:
            print(
                f"FAIL: forensics capture overhead "
                f"{point['capture_overhead_pct']:.2f}% exceeds budget "
                f"{args.max_forensics_overhead_pct:.1f}%",
                file=sys.stderr,
            )
            return 1
        if point["overhead_pct"] > 5 * args.max_forensics_overhead_pct:
            print(
                f"FAIL: end-to-end forensics overhead "
                f"{point['overhead_pct']:.2f}% exceeds the noise backstop "
                f"{5 * args.max_forensics_overhead_pct:.1f}%",
                file=sys.stderr,
            )
            return 1
        return 0
    if point["overhead_pct"] > args.max_overhead_pct:
        print(
            f"FAIL: telemetry overhead {point['overhead_pct']:.2f}% exceeds "
            f"budget {args.max_overhead_pct:.1f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
