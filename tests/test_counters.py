"""Counter stores: reference semantics, the optimized store, and their
differential equivalence under random operation sequences."""

import pytest
from hypothesis import given, strategies as st

from repro.core.counters import (
    CounterStore,
    CounterStoreError,
    HeapCounterStore,
    ReferenceCounterStore,
)

STORES = [ReferenceCounterStore, HeapCounterStore]


@pytest.mark.parametrize("store_cls", STORES)
class TestCounterStoreContract:
    def test_empty_initially(self, store_cls):
        store = store_cls(3)
        assert len(store) == 0
        assert store.is_empty
        assert not store.is_full
        assert store.free_slots == 3

    def test_insert_and_get(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        assert "a" in store
        assert store.get("a") == 10
        assert store.free_slots == 2

    def test_increment(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        assert store.increment("a", 5) == 15
        assert store.get("a") == 15

    def test_min_value(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        store.insert("b", 3)
        store.insert("c", 7)
        assert store.min_value() == 3

    def test_decrement_all_evicts_zeroed(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        store.insert("b", 3)
        store.decrement_all(3)
        assert "b" not in store
        assert store.get("a") == 7
        assert store.free_slots == 2

    def test_decrement_zero_is_noop(self, store_cls):
        store = store_cls(2)
        store.insert("a", 5)
        store.decrement_all(0)
        assert store.get("a") == 5

    def test_decrement_beyond_min_rejected(self, store_cls):
        store = store_cls(2)
        store.insert("a", 5)
        with pytest.raises(CounterStoreError):
            store.decrement_all(6)

    def test_insert_into_full_rejected(self, store_cls):
        store = store_cls(1)
        store.insert("a", 1)
        with pytest.raises(CounterStoreError):
            store.insert("b", 1)

    def test_insert_duplicate_rejected(self, store_cls):
        store = store_cls(2)
        store.insert("a", 1)
        with pytest.raises(CounterStoreError):
            store.insert("a", 2)

    def test_insert_nonpositive_rejected(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.insert("a", 0)

    def test_increment_unstored_rejected(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.increment("ghost", 1)

    def test_min_of_empty_rejected(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.min_value()

    def test_reset(self, store_cls):
        store = store_cls(2)
        store.insert("a", 5)
        store.reset()
        assert store.is_empty
        store.insert("a", 3)  # usable after reset
        assert store.get("a") == 3

    def test_as_dict(self, store_cls):
        store = store_cls(3)
        store.insert("a", 1)
        store.insert("b", 2)
        assert store.as_dict() == {"a": 1, "b": 2}

    def test_capacity_validation(self, store_cls):
        with pytest.raises(ValueError):
            store_cls(0)


def test_heap_store_rebase_preserves_values():
    store = HeapCounterStore(3)
    store.insert("a", 100)
    store.insert("b", 50)
    store.decrement_all(30)
    store.rebase()
    assert store.as_dict() == {"a": 70, "b": 20}
    assert store.min_value() == 20
    store.decrement_all(20)
    assert store.as_dict() == {"a": 50}


def test_heap_store_auto_rebase_threshold():
    store = HeapCounterStore(2)
    # Start the floating ground just under the rebase threshold so the
    # next decrement crosses it and triggers the automatic rebase.
    store._ground = HeapCounterStore.REBASE_THRESHOLD - 1
    store.insert("a", 10)
    store.insert("b", 5)
    store.decrement_all(5)
    assert store._ground == 0  # rebase happened
    assert store.as_dict() == {"a": 5}


# ---------------------------------------------------------------- differential

_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "touch", "update", "virtual", "fill",
                "decrement_min", "decrement_partial",
            ]
        ),
        # flow id (virtual: count; fill: unit size in 40-byte steps)
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=1000),  # amount
    ),
    max_size=120,
)


@given(capacity=st.integers(min_value=1, max_value=8), operations=_OPERATIONS)
def test_stores_are_equivalent(capacity, operations):
    """Random MG-style operation sequences leave both stores identical,
    whether the update is composed from the primitive operations
    ("touch"), made in one :meth:`update` call, stores virtual counters,
    or fills idle bandwidth (paper-literal :meth:`CounterStore.fill` on
    the reference, the fused one on the heap store)."""
    reference = ReferenceCounterStore(capacity)
    optimized = HeapCounterStore(capacity)
    for op, fid, amount in operations:
        if op == "touch":
            # The Misra-Gries update: increment if stored, insert if free,
            # otherwise decrement by min(amount, min).
            if fid in reference:
                reference.increment(fid, amount)
                optimized.increment(fid, amount)
            elif not reference.is_full:
                reference.insert(fid, amount)
                optimized.insert(fid, amount)
            else:
                decrement = min(amount, reference.min_value())
                reference.decrement_all(decrement)
                optimized.decrement_all(decrement)
                leftover = amount - decrement
                if leftover > 0 and fid not in reference:
                    reference.insert(fid, leftover)
                    optimized.insert(fid, leftover)
        elif op == "update":
            assert reference.update(fid, amount) == optimized.update(fid, amount)
        elif op == "virtual":
            count = min(fid, reference.free_slots)
            reference.insert_virtual(amount, count)
            optimized.insert_virtual(amount, count)
        elif op == "fill":
            unit = 40 * (fid + 1)
            reference.fill(amount, unit)
            optimized.fill(amount, unit)
        elif op == "decrement_min" and not reference.is_empty:
            decrement = reference.min_value()
            reference.decrement_all(decrement)
            optimized.decrement_all(decrement)
        elif op == "decrement_partial" and not reference.is_empty:
            decrement = min(amount, reference.min_value())
            reference.decrement_all(decrement)
            optimized.decrement_all(decrement)
        assert reference.as_dict() == optimized.as_dict()
        assert reference.snapshot() == optimized.snapshot()
        assert len(reference) == len(optimized)
        assert optimized.heap_entries <= 2 * capacity + optimized.HEAP_SLACK
        if not reference.is_empty:
            assert reference.min_value() == optimized.min_value()


@given(capacity=st.integers(min_value=1, max_value=8), operations=_OPERATIONS)
def test_update_matches_paper_literal_composition(capacity, operations):
    """The fused :meth:`HeapCounterStore.update` returns what the base
    class's paper-literal update returns, on the same store class."""
    fused = HeapCounterStore(capacity)
    literal = HeapCounterStore(capacity)
    for _, fid, amount in operations:
        assert fused.update(fid, amount) == CounterStore.update(
            literal, fid, amount
        )
        assert fused.as_dict() == literal.as_dict()
        assert fused.evictions == literal.evictions


@given(
    capacity=st.integers(min_value=1, max_value=8),
    operations=_OPERATIONS,
    volume=st.integers(min_value=0, max_value=3000),
    unit=st.integers(min_value=1, max_value=400),
)
def test_fill_matches_paper_literal_composition(
    capacity, operations, volume, unit
):
    """The fused :meth:`HeapCounterStore.fill` leaves the state the base
    class's unit-by-unit fill leaves, on the same store class; a gap of
    at most one unit also evicts the same counters."""
    fused = HeapCounterStore(capacity)
    literal = HeapCounterStore(capacity)
    for _, fid, amount in operations:
        fused.update(fid, amount)
        literal.update(fid, amount)
    fused.fill(volume, unit)
    CounterStore.fill(literal, volume, unit)
    assert fused.snapshot() == literal.snapshot()
    if volume <= unit:
        assert fused.evictions == literal.evictions


@pytest.mark.parametrize("store_cls", STORES)
class TestUpdateAndVirtual:
    def test_update_returns_new_value_or_zero(self, store_cls):
        store = store_cls(2)
        assert store.update("a", 10) == 10
        assert store.update("a", 5) == 15
        assert store.update("b", 3) == 3
        # Full: "c" (4 B) decrements everything by min 3, evicting "b",
        # and keeps a 1-byte leftover.
        assert store.update("c", 4) == 1
        assert store.as_dict() == {"a": 12, "c": 1}
        # Full, packet equal to the minimum: "c" is evicted and nothing
        # is left over to store.
        assert store.update("d", 1) == 0
        assert store.as_dict() == {"a": 11}
        # Full again, packet below the minimum: a pure decrement.
        store.update("e", 5)
        assert store.update("f", 2) == 0
        assert store.as_dict() == {"a": 9, "e": 3}

    def test_update_rejects_nonpositive_size(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.update("a", 0)

    def test_virtual_counters_are_fungible(self, store_cls):
        store = store_cls(4)
        store.insert("a", 9)
        store.insert_virtual(5, count=2)
        store.insert_virtual(2)
        assert len(store) == 4 and store.is_full
        assert store.min_value() == 2
        assert store.as_dict() == {
            "a": 9,
            ("__virtual__", 0): 2,
            ("__virtual__", 1): 5,
            ("__virtual__", 2): 5,
        }
        store.decrement_all(2)
        assert store.evictions == 1
        assert store.as_dict() == {
            "a": 7, ("__virtual__", 0): 3, ("__virtual__", 1): 3
        }

    def test_insert_virtual_rejects_overflow_and_nonpositive(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.insert_virtual(0)
        with pytest.raises(CounterStoreError):
            store.insert_virtual(3, count=3)
        store.insert_virtual(3, count=2)
        with pytest.raises(CounterStoreError):
            store.insert_virtual(1)

    def test_restore_maps_virtual_entries(self, store_cls):
        store = store_cls(3)
        store.restore(
            {
                "capacity": 3,
                "entries": [
                    ["a", 4],
                    [["__virtual__", 812], 6],
                    [("__virtual__", 3), 2],
                ],
            }
        )
        assert "a" in store and len(store) == 3
        assert store.as_dict() == {
            "a": 4, ("__virtual__", 0): 2, ("__virtual__", 1): 6
        }


def test_heap_compaction_bounds_stale_entries():
    store = HeapCounterStore(8)
    store.update("a", 1)
    for _ in range(10_000):
        store.update("a", 1)
    assert store.get("a") == 10_001
    assert store.heap_entries <= 2 * len(store) + HeapCounterStore.HEAP_SLACK
