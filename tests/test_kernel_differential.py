"""Whole-detector differential for the EARDet kernel.

The default detector — :class:`~repro.core.counters.HeapCounterStore`
with its fused ``update`` and fungible virtual counters, fed by the
``apply_virtual_traffic`` fast path — must be indistinguishable from the
executable specification: :class:`~repro.core.counters.ReferenceCounterStore`
with the unit-by-unit ``apply_virtual_traffic_reference``.  "Indistinguishable"
is checked on the whole :meth:`EARDet.snapshot` (counters, virtual levels,
blacklist, carryover, clock, stats, detections with their timestamps),
which is deterministic, so equal snapshots mean equal logical state.

Each traffic shape also takes a snapshot at a random packet, restores it
(through the checkpoint codec) into fresh detectors of both kinds, and
requires the resumed runs to end where the uninterrupted ones do.

The streams are drawn from ``EARDET_KERNEL_SEED`` (default 7); the CI
kernel-differential job sweeps three seeds, and a red run reproduces
locally with the same variable.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.config import EARDetConfig, engineer
from repro.core.counters import ReferenceCounterStore
from repro.core.eardet import EARDet
from repro.guard import InvariantChecker
from repro.model.packet import Packet
from repro.service.checkpoint import dumps, loads
from repro.traffic.datasets import caida_like, federico_like

KERNEL_SEED = int(os.environ.get("EARDET_KERNEL_SEED", "7"))


def _dataset(generator, scale):
    dataset = generator(seed=KERNEL_SEED, scale=scale)
    config = engineer(
        dataset.rho, dataset.gamma_l, dataset.beta_l, dataset.gamma_h,
        dataset.t_upincb_seconds, dataset.alpha,
    )
    return list(dataset.stream), config


def _saturated():
    """Store always full, no idle time: 50 small flows and three heavy
    hitters far above a 1 MB/s link (n=8)."""
    rng = random.Random(KERNEL_SEED)
    config = EARDetConfig(
        rho=1_000_000, n=8, beta_th=3000, alpha=1518,
        beta_l=1000, gamma_l=50_000,
    )
    packets = []
    time = 0
    for index in range(20_000):
        time += rng.randint(500, 2000)
        fid = f"h{index % 3}" if rng.random() < 0.1 else f"f{rng.randrange(50)}"
        packets.append(
            Packet(time=time, size=rng.choice((64, 576, 1518)), fid=fid)
        )
    return packets, config


def _never_full():
    """50 flows for 1024 counters on an oversubscribed link: the store
    never fills and every packet increments a live counter."""
    rng = random.Random(KERNEL_SEED + 1)
    config = EARDetConfig(rho=1000, n=1024, beta_th=400_000, alpha=1518)
    packets = []
    time = 0
    for _ in range(20_000):
        time += 1_000
        fid = rng.randrange(5) if rng.random() < 0.3 else rng.randrange(50)
        packets.append(Packet(time=time, size=rng.randint(40, 1500), fid=fid))
    return packets, config


def _long_idle():
    """Bursts separated by idle gaps of up to two seconds, so one gap
    carries thousands of virtual units (periodic regime, bulk
    decrements, cycle detection)."""
    rng = random.Random(KERNEL_SEED + 2)
    config = EARDetConfig(
        rho=1_000_000, n=4, beta_th=500, alpha=100, beta_l=200, gamma_l=10_000
    )
    packets = []
    time = 0
    for _ in range(600):
        time += rng.choice(
            (0, 50, 2_000, 90_000, rng.randint(1, 2_000_000_000))
        )
        fid = "heavy" if rng.random() < 0.3 else f"f{rng.randrange(6)}"
        packets.append(Packet(time=time, size=rng.randint(1, 100), fid=fid))
    return packets, config


SHAPES = {
    "federico_like": lambda: _dataset(federico_like, 0.1),
    "caida_like": lambda: _dataset(caida_like, 0.0008),
    "saturated": _saturated,
    "never_full": _never_full,
    "long_idle": _long_idle,
}


def _fast(config):
    return EARDet(config)


def _reference(config):
    return EARDet(
        config, store_factory=ReferenceCounterStore, reference_virtual=True
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fast_kernel_equals_reference(shape):
    packets, config = SHAPES[shape]()
    fast = _fast(config).attach_checker(InvariantChecker(every=97))
    reference = _reference(config)
    for packet in packets:
        assert fast.observe(packet) == reference.observe(packet)
    assert fast.detected == reference.detected
    assert fast.snapshot() == reference.snapshot()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_restore_at_random_packet_resumes_exactly(shape):
    packets, config = SHAPES[shape]()
    split = random.Random(KERNEL_SEED * 31 + len(shape)).randrange(
        len(packets) + 1
    )
    uninterrupted = _fast(config).observe_stream(packets)

    fast, reference = _fast(config), _reference(config)
    fast.observe_stream(packets[:split])
    reference.observe_stream(packets[:split])
    state = fast.snapshot()
    assert state == reference.snapshot()

    # Resume in both kinds of detector from the serialized state.
    for factory in (_fast, _reference):
        resumed = factory(config)
        resumed.restore(loads(dumps(state)))
        resumed.observe_stream(packets[split:])
        assert resumed.detected == uninterrupted.detected
        assert resumed.snapshot() == uninterrupted.snapshot()


def _batches(packets, rng):
    """Cut ``packets`` at random boundaries: empty, one-packet, short and
    long batches (up to the engine's 4096-packet queue)."""
    start = 0
    while start < len(packets):
        size = rng.choice((0, 1, 1, rng.randint(2, 64), rng.randint(65, 4096)))
        yield packets[start:start + size]
        start += size
    yield []


@pytest.mark.parametrize("consumes_link", [False, True])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_batch_kernel_equals_reference_at_every_boundary(shape, consumes_link):
    """``observe_batch`` on the default store, cut at random boundaries,
    against the reference store and unit-by-unit virtual traffic fed one
    packet at a time: whole snapshots agree at every boundary."""
    packets, config = SHAPES[shape]()
    fast = EARDet(config, blacklisted_consumes_link=consumes_link)
    reference = EARDet(
        config,
        store_factory=ReferenceCounterStore,
        reference_virtual=True,
        blacklisted_consumes_link=consumes_link,
    )
    rng = random.Random(KERNEL_SEED * 17 + len(shape) + consumes_link)
    for batch in _batches(packets, rng):
        fast.observe_batch(batch)
        for packet in batch:
            reference.observe(packet)
        assert fast.snapshot() == reference.snapshot()
    assert fast.stats.packets == len(packets)


class _RecordingChecker(InvariantChecker):
    """Records the packet count and full state at every sampled check."""

    def __init__(self, every):
        super().__init__(every)
        self.seen = []

    def check_now(self, detector):
        self.seen.append((detector.stats.packets, detector.snapshot()))
        super().check_now(detector)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_batched_checks_fire_where_per_packet_checks_do(shape):
    """With a checker attached, the batch kernel steps packet by packet:
    every sampled check sees the same position and state as under
    per-packet ``observe``."""
    packets, config = SHAPES[shape]()
    batched = _fast(config).attach_checker(_RecordingChecker(every=97))
    stepped = _fast(config).attach_checker(_RecordingChecker(every=97))
    rng = random.Random(KERNEL_SEED * 23 + len(shape))
    for batch in _batches(packets, rng):
        batched.observe_batch(batch)
    for packet in packets:
        stepped.observe(packet)
    assert batched.checker.seen == stepped.checker.seen
    assert len(batched.checker.seen) == len(packets) // 97


class _FailingFill:
    """The detector's virtual fill, raising on its ``at``-th call."""

    def __init__(self, fill, at):
        self.fill, self.at, self.calls = fill, at, 0

    def __call__(self, store, volume, unit):
        self.calls += 1
        if self.calls == self.at:
            raise RuntimeError("injected fill failure")
        self.fill(store, volume, unit)


@pytest.mark.parametrize("shape", ["caida_like", "federico_like", "long_idle"])
def test_exception_inside_a_batch_leaves_the_per_packet_state(shape):
    """An exception from inside the kernel (here the virtual fill, after
    the carryover has advanced) stops a batch exactly where a
    packet-at-a-time run stops: the clock, carryover and stats of every
    packet before it are written back."""
    packets, config = SHAPES[shape]()
    probe = _fast(config)
    probe._apply_virtual = counter = _FailingFill(probe._apply_virtual, 0)
    probe.observe_batch(packets)
    assert counter.calls > 1
    at = counter.calls // 2

    batched = _fast(config)
    batched._apply_virtual = _FailingFill(batched._apply_virtual, at)
    with pytest.raises(RuntimeError, match="injected fill failure"):
        batched.observe_batch(packets)
    stepped = _fast(config)
    stepped._apply_virtual = _FailingFill(stepped._apply_virtual, at)
    with pytest.raises(RuntimeError, match="injected fill failure"):
        for packet in packets:
            stepped.observe(packet)
    assert 0 < batched.stats.packets < len(packets)
    assert batched.snapshot() == stepped.snapshot()


@pytest.mark.parametrize("shape", ["federico_like", "saturated"])
def test_engine_drains_hand_each_slot_its_packets_in_order(shape):
    """Budgeted pumps and full drains of a multi-slot shard end every slot
    detector where a detector fed that slot's packets one by one ends."""
    from repro.service.engine import InProcessEngine

    packets, config = SHAPES[shape]()
    engine = InProcessEngine(config, shards=2, slots=8, seed=KERNEL_SEED)
    rng = random.Random(KERNEL_SEED * 41 + len(shape))
    start = 0
    while start < len(packets):
        size = rng.randint(1, 200)
        engine.ingest(packets[start:start + size])
        engine.pump(rng.randint(0, 120))
        start += size
    engine.flush()
    reference = [_fast(config) for _ in range(8)]
    for packet in packets:
        reference[engine.slot_of(packet.fid)].observe(packet)
    for slot in range(8):
        assert engine._slot_detectors[slot].snapshot() == (
            reference[slot].snapshot()
        )
