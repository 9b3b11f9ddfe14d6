"""Exact checkpoint/restore: snapshot round-trips on every stateful
component, and the end-to-end property the service depends on —
``restore(snapshot(d))`` followed by a replayed suffix is byte-identical
(detections, detection timestamps, stats, logical counters) to the
uninterrupted run."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blacklist import Blacklist, ReportSink
from repro.core.config import EARDetConfig
from repro.core.counters import (
    CounterStoreError,
    HeapCounterStore,
    ReferenceCounterStore,
    is_virtual_fid,
)
from repro.core.eardet import EARDet
from repro.core.parallel import ParallelEARDet
from repro.core.virtual import Carryover
from repro.model.packet import Packet
from repro.service.checkpoint import Encoded, dumps, loads, write_checkpoint

from conftest import packet_lists

#: Tiny instance shared by the replay properties (a module constant, not
#: the ``small_config`` fixture: hypothesis forbids function-scoped
#: fixtures inside @given).
SMALL_CONFIG = EARDetConfig(
    rho=1_000_000, n=4, beta_th=500, alpha=100, beta_l=200, gamma_l=10_000
)


def assert_equivalent(left: EARDet, right: EARDet) -> None:
    assert left.detected == right.detected
    assert left.stats.snapshot() == right.stats.snapshot()
    # Virtual counters carry no identity and are named by rank, so the
    # counter tables match exactly, virtual ones included.
    assert left.counters == right.counters
    assert set(left.blacklist) == set(right.blacklist)
    assert left.carryover_bytes == right.carryover_bytes
    assert left._last_time == right._last_time
    assert left._last_size == right._last_size


# ---------------------------------------------------------------- components


class TestComponentRoundTrips:
    def test_carryover(self):
        carry = Carryover()
        carry.integerize(1_234_567_891)
        state = carry.snapshot()
        restored = Carryover()
        restored.restore(state)
        assert restored.remainder_scaled == carry.remainder_scaled
        # the restored remainder keeps integerizing identically
        assert restored.integerize(999_999_999) == carry.integerize(999_999_999)

    def test_carryover_rejects_non_int(self):
        with pytest.raises(TypeError):
            Carryover().restore("nope")

    def test_blacklist(self):
        blacklist = Blacklist()
        for fid in ("a", 7, ("tuple", 1)):
            blacklist.add(fid)
        restored = Blacklist()
        restored.restore(blacklist.snapshot())
        assert set(restored) == set(blacklist)

    def test_report_sink_round_trip_keeps_first_times(self):
        sink = ReportSink()
        sink.report("x", 50)
        sink.report("y", 10)
        sink.report("x", 5)  # re-report must not move the timestamp
        restored = ReportSink()
        restored.restore(sink.snapshot())
        assert restored.as_dict() == {"x": 50, "y": 10}

    def test_sink_merge_keeps_earliest(self):
        a, b = ReportSink(), ReportSink()
        a.report("x", 50)
        b.report("x", 20)
        b.report("y", 99)
        a.merge(b)
        assert a.as_dict() == {"x": 20, "y": 99}

    @pytest.mark.parametrize("store_cls", [ReferenceCounterStore, HeapCounterStore])
    def test_counter_store_round_trip(self, store_cls):
        store = store_cls(4)
        store.insert("a", 10)
        store.insert("b", 25)
        store.insert("c", 7)
        store.decrement_all(5)
        restored = store_cls(4)
        restored.restore(store.snapshot())
        assert restored.as_dict() == store.as_dict()
        assert restored.min_value() == store.min_value()
        # mutations continue identically
        for s in (store, restored):
            s.increment("a", 3)
            s.decrement_all(2)
        assert restored.as_dict() == store.as_dict()

    def test_counter_store_snapshots_interchangeable_across_impls(self):
        heap = HeapCounterStore(3)
        heap.insert("a", 10)
        heap.insert("b", 4)
        heap.decrement_all(2)
        reference = ReferenceCounterStore(3)
        reference.restore(heap.snapshot())
        assert reference.as_dict() == heap.as_dict()

    def test_counter_store_capacity_mismatch_rejected(self):
        store = HeapCounterStore(4)
        store.insert("a", 1)
        with pytest.raises(CounterStoreError):
            HeapCounterStore(5).restore(store.snapshot())


# ---------------------------------------------------------------- the codec


class TestBinaryCodec:
    values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=20)
        | st.binary(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=25,
    )

    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        assert loads(dumps(value)) == value

    def test_round_trip_preserves_types(self):
        value = {"t": (1, "x"), "l": [1, "x"], "i": 2**200, "n": -(2**200)}
        restored = loads(dumps(value))
        assert restored == value
        assert isinstance(restored["t"], tuple)
        assert isinstance(restored["l"], list)

    def test_deterministic_bytes(self):
        value = {"a": [1, 2, ("x", None)], "b": True}
        assert dumps(value) == dumps(value)

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_encoded_value_embeds_its_own_bytes(self, value):
        """A pre-encoded sub-value serializes exactly as the value
        itself would, and decodes to it."""
        assert dumps({"k": [Encoded(value), 3]}) == dumps({"k": [value, 3]})
        assert loads(dumps(Encoded(value))) == value

    def test_wire_format_is_stable(self):
        """Exact bytes of a representative value: the encoder's type
        dispatch must not change what older readers parse."""
        value = {"n": [0, 63, 64, -65, 2**70], "s": ("é", b"\x00"), "f": 1.5,
                 "x": [None, True, False]}
        assert dumps(value).hex() == (
            "4552434b01003d000000090405016e08050300037e0380010383010380"
            "8080808080808080800205017307020502c3a90601000501660400000000"
            "0000f83f0501780803000201231e4282"
        )


# ------------------------------------------------- the end-to-end property


def _run_split(config, packets, split, factory):
    """Reference run vs snapshot-at-split + restore-into-fresh + replay."""
    reference = factory(config)
    for packet in packets:
        reference.observe(packet)

    original = factory(config)
    for packet in packets[:split]:
        original.observe(packet)
    state = original.snapshot()
    resumed = factory(config)
    resumed.restore(state)
    for packet in packets[split:]:
        resumed.observe(packet)
    return reference, resumed


class TestSnapshotReplayProperty:
    """The acceptance property: snapshot → restore → replay suffix is
    indistinguishable from never stopping."""

    @given(
        packets=packet_lists(max_packets=80, max_flows=5, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_eardet_heap_store(self, packets, split_fraction):
        split = int(len(packets) * split_fraction)
        reference, resumed = _run_split(
            SMALL_CONFIG, packets, split, lambda c: EARDet(c)
        )
        assert_equivalent(reference, resumed)

    @given(
        packets=packet_lists(max_packets=60, max_flows=5, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_eardet_reference_store(self, packets, split_fraction):
        split = int(len(packets) * split_fraction)
        reference, resumed = _run_split(
            SMALL_CONFIG,
            packets,
            split,
            lambda c: EARDet(c, store_factory=ReferenceCounterStore),
        )
        assert_equivalent(reference, resumed)

    @given(
        packets=packet_lists(max_packets=80, max_flows=8, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_parallel_eardet(self, packets, split_fraction):
        split = int(len(packets) * split_fraction)
        reference, resumed = _run_split(
            SMALL_CONFIG,
            packets,
            split,
            lambda c: ParallelEARDet(c, shards=3, seed=42),
        )
        assert reference.detected == resumed.detected
        for left, right in zip(reference.shards, resumed.shards):
            assert_equivalent(left, right)

    @given(
        packets=packet_lists(max_packets=60, max_flows=5, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_survives_serialization(self, packets, split_fraction):
        """The same property with the binary codec in the loop — what a
        checkpoint file actually does to the state."""
        split = int(len(packets) * split_fraction)
        reference = EARDet(SMALL_CONFIG)
        for packet in packets:
            reference.observe(packet)
        original = EARDet(SMALL_CONFIG)
        for packet in packets[:split]:
            original.observe(packet)
        resumed = EARDet(SMALL_CONFIG)
        resumed.restore(loads(dumps(original.snapshot())))
        for packet in packets[split:]:
            resumed.observe(packet)
        assert_equivalent(reference, resumed)


class TestRestoreSafety:
    def test_format_version_checked(self, small_config):
        detector = EARDet(small_config)
        state = detector.snapshot()
        state["format"] = 999
        with pytest.raises(ValueError, match="snapshot format"):
            EARDet(small_config).restore(state)

    def test_parallel_seed_mismatch_rejected(self, small_config):
        state = ParallelEARDet(small_config, shards=2, seed=1).snapshot()
        with pytest.raises(ValueError, match="seed"):
            ParallelEARDet(small_config, shards=2, seed=2).restore(state)

    def test_parallel_shard_count_mismatch_rejected(self, small_config):
        state = ParallelEARDet(small_config, shards=2).snapshot()
        with pytest.raises(ValueError, match="shards"):
            ParallelEARDet(small_config, shards=3).restore(state)

    def test_legacy_virtual_indices_restore(self, small_config):
        """Older builds named each virtual flow from a process-wide
        sequence, so their snapshots hold ``("__virtual__", i)`` entries
        with arbitrary high indices.  Restoring one maps those entries to
        virtual counters and the resumed run detects exactly like an
        uninterrupted one."""
        packets = _idle_heavy_packets()
        split = len(packets) // 2
        reference = EARDet(small_config)
        reference.observe_stream(packets)

        original = EARDet(small_config)
        original.observe_stream(packets[:split])
        state = original.snapshot()
        entries = state["store"]["entries"]
        virtual = [value for fid, value in entries if is_virtual_fid(fid)]
        assert virtual, "test needs virtual counters in the snapshot"
        # Rewrite the virtual entries as an older build did: high,
        # non-contiguous sequence numbers, in no particular value order.
        legacy = [entry for entry in entries if not is_virtual_fid(entry[0])]
        legacy += [
            (("__virtual__", 9_000_000 + 37 * index), value)
            for index, value in enumerate(reversed(virtual))
        ]
        state["store"] = {**state["store"], "entries": legacy}

        resumed = EARDet(small_config)
        resumed.restore(loads(dumps(state)))
        assert resumed.snapshot() == original.snapshot()
        resumed.observe_stream(packets[split:])
        assert resumed.detected == reference.detected
        assert_equivalent(reference, resumed)


def _idle_heavy_packets():
    """A stream with idle gaps (virtual counters) and a heavy flow."""
    import random

    rng = random.Random(5)
    packets = []
    time = 0
    for _ in range(400):
        time += rng.choice((200, 2_000, 90_000, 1_500_000))
        fid = "heavy" if rng.random() < 0.4 else f"f{rng.randrange(6)}"
        packets.append(Packet(time=time, size=rng.randint(40, 400), fid=fid))
    return packets


class TestSnapshotDeterminism:
    """Identical runs serialize to identical snapshots and checkpoint
    bytes, in one process: virtual counters carry no process-wide
    sequence number."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda c: EARDet(c),
            lambda c: EARDet(
                c, store_factory=ReferenceCounterStore, reference_virtual=True
            ),
        ],
        ids=["heap", "reference"],
    )
    def test_back_to_back_runs_snapshot_identically(
        self, small_config, factory, tmp_path
    ):
        packets = _idle_heavy_packets()
        states = []
        for run in range(2):
            detector = factory(small_config)
            detector.observe_stream(packets)
            states.append(detector.snapshot())
            write_checkpoint(tmp_path / f"run{run}.ckpt", {"eardet": states[-1]})
        assert any(
            is_virtual_fid(fid) for fid, _ in states[0]["store"]["entries"]
        ), "test needs virtual counters in the snapshot"
        assert states[0] == states[1]
        assert (tmp_path / "run0.ckpt").read_bytes() == (
            tmp_path / "run1.ckpt"
        ).read_bytes()

    def test_heap_and_reference_snapshots_agree(self, small_config):
        packets = _idle_heavy_packets()
        heap = EARDet(small_config)
        reference = EARDet(
            small_config,
            store_factory=ReferenceCounterStore,
            reference_virtual=True,
        )
        heap.observe_stream(packets)
        reference.observe_stream(packets)
        assert heap.snapshot() == reference.snapshot()
