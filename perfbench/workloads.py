"""Workload definitions: seeded traces, configurations, oracle, services.

Each workload is a trace shape plus a :class:`~repro.service.runtime.DetectionService`
configuration.  The benchmark generates the trace from the seed and
writes it as an ``.ert`` file; the program under test only ever sees that
file, through :class:`~repro.service.sources.TraceFileSource`.

The per-seed inputs — the trace, the oracle's detection map and (for
``caida-pipeline``) the checkpoint a run resumes from — are prepared once
per seed, outside every timed region, and cached under
``.perfbench_cache/`` in the working directory.  The program under test
makes some of them (its dataset generators, its reference EARDet, its
checkpoint writer), so the cache is keyed by a digest of the program's
sources as well as by the seed: one version never replays inputs
another version made.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.config import EARDetConfig, engineer
from repro.core.counters import ReferenceCounterStore
from repro.core.eardet import EARDet
from repro.detectors.hashing import StageHash
from repro.model.packet import Packet
from repro.traffic.datasets import caida_like, federico_like
from repro.traffic.trace_io import intern_fids, write_binary

CACHE_DIR = Path(".perfbench_cache")

#: Packets per batch the service pulls (the service default).
BATCH_SIZE = 1024

#: The n=8 smoke configuration of ``benchmarks/trajectory.py``: small
#: enough that the store is always full, large enough to detect.
SMOKE_CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518,
    beta_l=1000, gamma_l=50_000,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``trace`` names the input family (two workloads may share one);
    ``traces`` is how many independent traces one seed expands to (see
    :func:`sub_seeds`); ``resume_at`` > 0 makes every run resume from a
    checkpoint taken after that many packets; ``checkpoint_every`` arms
    periodic checkpoints; ``workers_twin`` names the multiprocess workload
    whose replays a traced run adds, to measure the workers layer.
    """

    name: str
    trace: str
    traces: int = 1
    engine: str = "inprocess"
    shards: int = 1
    slots: int = 1
    watcher: Optional[str] = None
    guard: bool = False
    checkpoint_every: Optional[int] = None
    resume_at: int = 0
    workers_twin: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "federico", trace="federico", traces=3, workers_twin="federico-mp"
        ),
        Workload("saturated", trace="saturated"),
        Workload(
            "caida-pipeline", trace="caida", traces=2, shards=4, slots=16,
            watcher="clef", guard=True, checkpoint_every=8 * BATCH_SIZE,
            resume_at=8 * BATCH_SIZE,
        ),
        Workload(
            "federico-mp", trace="federico", traces=3, engine="multiprocess"
        ),
    )
}


# -- traces -----------------------------------------------------------------


#: Trace family -> its size parameter (``scale`` of the dataset, or the
#: packet count).  Part of the input cache key, so a change regenerates.
TRACE_SIZES = {"federico": 0.3, "caida": 0.002, "saturated": 90_000}


def _saturated_packets(seed: int, count: int) -> List[Packet]:
    """The trajectory smoke stream shape: 50 small flows plus three heavy
    hitters, far above the 1 MB/s link rate, so there is never idle time
    and no virtual traffic."""
    rng = random.Random(seed)
    packets = []
    t = 0
    for i in range(count):
        t += rng.randint(500, 2000)
        fid = f"h{i % 3}" if rng.random() < 0.1 else f"f{rng.randrange(50)}"
        packets.append(Packet(time=t, size=rng.choice((64, 576, 1518)), fid=fid))
    return packets


def _dataset_config(dataset) -> EARDetConfig:
    return engineer(
        dataset.rho, dataset.gamma_l, dataset.beta_l, dataset.gamma_h,
        dataset.t_upincb_seconds, dataset.alpha,
    )


def _generate(trace: str, seed: int):
    """``(packets, config)`` for a trace family and seed."""
    size = TRACE_SIZES[trace]
    if trace == "federico":
        dataset = federico_like(seed=seed, scale=size)
        return list(dataset.stream), _dataset_config(dataset)
    if trace == "caida":
        dataset = caida_like(seed=seed, scale=size)
        return list(dataset.stream), _dataset_config(dataset)
    if trace == "saturated":
        return _saturated_packets(seed, size), SMOKE_CONFIG
    raise ValueError(f"unknown trace family {trace!r}")


# -- oracle -----------------------------------------------------------------


def reference_detections(
    packets: List[Packet], config: EARDetConfig, slots: int, seed: int
) -> Dict[int, int]:
    """Per-slot reference EARDet (O(n) dict store, unit-by-unit virtual
    traffic), slots from the same seeded :class:`StageHash` the engine
    routes with.  Returns flow -> detection timestamp."""
    route = StageHash(seed=seed, buckets=slots)
    detectors = [
        EARDet(config, store_factory=ReferenceCounterStore, reference_virtual=True)
        for _ in range(slots)
    ]
    for packet in packets:
        detectors[route(packet.fid) if slots > 1 else 0].observe(packet)
    merged: Dict[int, int] = {}
    for detector in detectors:
        merged.update(detector.detected)
    return merged


def compare(detections: Dict[int, int], oracle: Dict[int, int]) -> int:
    """Number of flows whose detection differs from the oracle (missing,
    extra, or detected at another timestamp)."""
    keys = set(detections) | set(oracle)
    return sum(1 for key in keys if detections.get(key) != oracle.get(key))


# -- per-seed inputs ----------------------------------------------------------


def sub_seeds(workload: Workload, seed: int) -> List[int]:
    """The trace seeds one benchmark seed expands to.

    On the Zipf-shaped ``federico_like`` and ``caida_like`` streams a
    single trace's speed depends on which flows the draw makes heavy
    (their blacklisted packets are cheap), so one seed stands for several
    independent traces and a run reports over all of them.  Distinct
    seeds give disjoint sets."""
    count = workload.traces
    return [seed * count + index for index in range(count)]


@dataclass(frozen=True)
class Inputs:
    """Paths and facts of one prepared (workload, seed) input set."""

    trace_path: Path
    oracle_path: Path
    checkpoint_path: Optional[Path]
    packets: int
    config: Dict[str, int]


@functools.lru_cache(maxsize=None)
def program_digest() -> str:
    """Digest of the sources under ``src/repro`` and of this file: the
    code that makes a seed's inputs."""
    digest = hashlib.sha256()
    here = Path(__file__)
    for name, path in [(p.as_posix(), p) for p in sorted(Path("src/repro").rglob("*.py"))] + [
        (here.name, here)
    ]:
        digest.update(name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _input_dir(workload: Workload, seed: int) -> Path:
    size = TRACE_SIZES[workload.trace]
    return CACHE_DIR / (
        f"{workload.trace}-{size}-s{workload.slots}-{seed}-{program_digest()}"
    )


def prepare(workload: Workload, seed: int) -> Inputs:
    """Generate (or reuse) the trace, oracle and resume checkpoint."""
    directory = _input_dir(workload, seed)
    meta_path = directory / "meta.json"
    trace_path = directory / "trace.ert"
    oracle_path = directory / "oracle.json"
    checkpoint_path = (
        directory / f"resume-{workload.name}-{workload.resume_at}-"
        f"{workload.checkpoint_every}.ckpt"
        if workload.resume_at
        else None
    )
    if not meta_path.exists():
        directory.mkdir(parents=True, exist_ok=True)
        packets, config = _generate(workload.trace, seed)
        packets, _ = intern_fids(packets)
        write_binary(trace_path, packets)
        oracle = reference_detections(packets, config, workload.slots, seed)
        oracle_path.write_text(json.dumps(sorted(oracle.items())))
        meta_path.write_text(
            json.dumps({"packets": len(packets), "config": asdict(config)})
        )
    meta = json.loads(meta_path.read_text())
    if checkpoint_path is not None and not checkpoint_path.exists():
        _prepare_checkpoint(
            workload, seed, EARDetConfig(**meta["config"]), trace_path,
            checkpoint_path,
        )
    return Inputs(
        trace_path=trace_path,
        oracle_path=oracle_path,
        checkpoint_path=checkpoint_path,
        packets=meta["packets"],
        config=meta["config"],
    )


def _prepare_checkpoint(
    workload: Workload, seed: int, config: EARDetConfig, trace_path: Path,
    checkpoint_path: Path,
) -> None:
    """Serve the first ``resume_at`` packets and keep the checkpoint the
    service writes there; every timed run resumes from a copy of it."""
    partial = checkpoint_path.with_suffix(".tmp")
    service = build_service(workload, seed, config, checkpoint_path=partial)
    try:
        service.serve(source(workload, trace_path), max_packets=workload.resume_at)
    finally:
        service.shutdown()
    shutil.move(str(partial), str(checkpoint_path))


# -- the program under test -------------------------------------------------


def source(workload: Workload, trace_path: Path):
    from repro.service.sources import GuardedSource, TraceFileSource

    inner = TraceFileSource(trace_path)
    return GuardedSource(inner) if workload.guard else inner


def build_service(
    workload: Workload,
    seed: int,
    config: EARDetConfig,
    checkpoint_path: Optional[Path] = None,
    telemetry=None,
):
    """A fresh service for ``workload`` (no resume)."""
    from repro.service import DetectionService
    from repro.service.pipeline import WatcherPolicy

    return DetectionService(
        config,
        shards=workload.shards,
        slots=workload.slots,
        engine=workload.engine,
        seed=seed,
        batch_size=BATCH_SIZE,
        checkpoint_path=str(checkpoint_path) if checkpoint_path else None,
        checkpoint_every=workload.checkpoint_every if checkpoint_path else None,
        watcher=WatcherPolicy(kind=workload.watcher) if workload.watcher else None,
        telemetry=telemetry,
    )
