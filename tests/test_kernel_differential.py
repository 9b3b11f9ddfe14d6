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
