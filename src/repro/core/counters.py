"""Counter stores for EARDet.

EARDet (Algorithm 1 in the paper) keeps at most ``n`` non-zero counters in
an associative array indexed by flow ID and must support, at line rate:

- the Misra-Gries update of one packet (:meth:`CounterStore.update`):
  increment the counter of a stored flow, insert a new flow into an empty
  slot, or *decrement all* non-zero counters by ``d = min(size, min_j
  c_j)``, drop the ones that hit zero and store the leftover;
- filling idle bandwidth with virtual traffic (:meth:`CounterStore.fill`,
  Section 3.2): a run of virtual units, each processed like a brand-new
  flow.  A unit that needs a slot leaves a *virtual* counter
  (:meth:`CounterStore.insert_virtual`).  A virtual flow is never
  referred to again after its unit is processed, so virtual counters are
  fungible: only their values matter, and they carry no flow ID;
- finding the minimum counter value.

Section 3.3 of the paper describes the key optimization this module
implements: counter values are kept **relative to a floating ground**
``c_ground``.  The decrement-all operation then becomes a single addition
to the ground, and a counter is logically zero (and removable) when its
absolute value is <= the ground.

Two interchangeable implementations are provided:

- :class:`ReferenceCounterStore` — direct O(n)-per-operation translation of
  the paper's pseudocode, kept as the behavioural oracle for differential
  tests;
- :class:`HeapCounterStore` — the floating-ground structure with an
  O(log n) lazy min-heap for real flows and a plain min-heap of levels for
  virtual counters, mirroring the paper's "balanced search tree or heap"
  suggestion, with a fused one-call :meth:`~HeapCounterStore.update` and
  a fused :meth:`~HeapCounterStore.fill` that takes runs of virtual units
  in closed form.

Both enforce the same invariants and are exercised against each other by
property-based tests.
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple

from ..model.packet import FlowId

#: First element of the flow ID under which :meth:`CounterStore.items`
#: and snapshots present a virtual counter: ``(_VIRTUAL_PREFIX, rank)``,
#: ranks numbering the virtual counters in ascending-value order.  Real
#: flows must not use this namespace (the stream validator rejects it).
_VIRTUAL_PREFIX = "__virtual__"


def is_virtual_fid(fid: Hashable) -> bool:
    """Whether a flow ID names a virtual counter in the
    ``(_VIRTUAL_PREFIX, index)`` shape stores and snapshots use."""
    return (
        isinstance(fid, tuple) and len(fid) == 2 and fid[0] == _VIRTUAL_PREFIX
    )


def _ranked_virtual(values: List[int]) -> List[Tuple[FlowId, int]]:
    """Virtual counter values as ``((_VIRTUAL_PREFIX, rank), value)``
    pairs in ascending-value order: equal multisets give equal lists."""
    return [
        ((_VIRTUAL_PREFIX, rank), value)
        for rank, value in enumerate(sorted(values))
    ]


class CounterStoreError(RuntimeError):
    """Raised on misuse of the counter-store API (bug in the caller)."""


class CounterStore(ABC):
    """Abstract interface shared by the reference and optimized stores.

    All values are integers (bytes).  A slot holds either a real flow or a
    virtual counter, always with a strictly positive value; stores never
    hold zero-valued entries.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Counters (real and virtual) evicted by a decrement reaching
        #: zero, over the store's lifetime.  Operational telemetry only:
        #: not part of the logical state, so :meth:`snapshot`/
        #: :meth:`restore` ignore it (a restored store starts its own
        #: eviction history).
        self.evictions: int = 0

    # -- queries ----------------------------------------------------------

    @abstractmethod
    def __contains__(self, fid: FlowId) -> bool:
        """Whether the real flow ``fid`` currently occupies a slot."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of occupied slots, real and virtual."""

    @abstractmethod
    def get(self, fid: FlowId) -> int:
        """Current value of a stored real flow (raises if not stored)."""

    @abstractmethod
    def min_value(self) -> int:
        """Minimum value among stored counters (raises if empty)."""

    @abstractmethod
    def items(self) -> Iterator[Tuple[FlowId, int]]:
        """Iterate ``(fid, value)`` pairs: real flows in unspecified order,
        then virtual counters as ``((_VIRTUAL_PREFIX, rank), value)`` in
        ascending-value order."""

    @property
    def free_slots(self) -> int:
        """Number of unoccupied slots."""
        return self.capacity - len(self)

    @property
    def is_empty(self) -> bool:
        """True when no counter is stored."""
        return len(self) == 0

    @property
    def is_full(self) -> bool:
        """True when every slot is occupied."""
        return len(self) == self.capacity

    # -- mutations ---------------------------------------------------------

    def update(self, fid: FlowId, size: int) -> int:
        """The Misra-Gries update of one ``size``-byte packet of ``fid``
        (Algorithm 1, lines 10-17); returns the flow's new counter value,
        or 0 when it ends up unstored.

        This is the paper-literal composition of :meth:`increment`,
        :meth:`insert`, :meth:`min_value` and :meth:`decrement_all`;
        optimized stores override it with a fused equivalent.
        """
        if size <= 0:
            raise CounterStoreError(f"update with non-positive size {size}")
        if fid in self:
            return self.increment(fid, size)
        if not self.is_full:
            self.insert(fid, size)
            return size
        decrement = min(size, self.min_value())
        self.decrement_all(decrement)
        leftover = size - decrement
        if leftover > 0:
            # At least one counter hit zero (decrement == old minimum), so
            # a slot is free for the remainder.
            self.insert(fid, leftover)
        return leftover

    def fill(self, volume: int, unit_size: int) -> None:
        """Process ``volume`` bytes of virtual traffic (Algorithm 1, lines
        18-22): ``unit_size``-byte units plus a final partial unit, each
        a brand-new flow that is never referred to again.

        This is the paper-literal loop, one unit at a time through
        :meth:`insert_virtual`, :meth:`min_value` and
        :meth:`decrement_all`; it is the executable specification
        (``apply_virtual_traffic_reference``).  Optimized stores override
        it with an exactly equivalent fused form.  Callers pass
        ``volume >= 0`` and ``unit_size > 0``.
        """
        full, partial = divmod(volume, unit_size)
        units: Iterator[int] = itertools.repeat(unit_size, full)
        if partial:
            units = itertools.chain(units, (partial,))
        for unit in units:
            if not self.is_full:
                self.insert_virtual(unit)
                continue
            decrement = min(unit, self.min_value())
            self.decrement_all(decrement)
            if unit > decrement:
                # decrement == old minimum, so a counter hit zero and
                # freed a slot for the unit's remainder.
                self.insert_virtual(unit - decrement)

    @abstractmethod
    def increment(self, fid: FlowId, amount: int) -> int:
        """Add ``amount`` to a stored flow's counter; return the new value."""

    @abstractmethod
    def insert(self, fid: FlowId, value: int) -> None:
        """Store a new flow with a positive value in a free slot."""

    @abstractmethod
    def insert_virtual(self, value: int, count: int = 1) -> None:
        """Store ``count`` virtual counters of a positive ``value`` in free
        slots (``count`` virtual units, each processed as a brand-new
        flow arriving at a store with room for it)."""

    @abstractmethod
    def decrement_all(self, amount: int) -> None:
        """Subtract ``amount`` from every stored counter and evict the ones
        that reach zero.  ``amount`` must not exceed :meth:`min_value` (the
        algorithm always passes ``min(w, min value)``)."""

    @abstractmethod
    def reset(self) -> None:
        """Evict everything."""

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Serializable logical state: capacity plus ``(fid, value)`` pairs.

        The snapshot captures the *logical* counter values — the only state
        the algorithm's behaviour depends on — so it is interchangeable
        between store implementations: a snapshot taken from a
        :class:`HeapCounterStore` restores into a
        :class:`ReferenceCounterStore` and vice versa.  Virtual counters
        appear as ``((_VIRTUAL_PREFIX, rank), value)``, ranked by value,
        and entries are sorted by a deterministic key, so identical
        logical states serialize to identical bytes (checkpoint files are
        reproducible).
        """
        from ..detectors.hashing import canonical_key

        entries = sorted(self.items(), key=lambda item: canonical_key(item[0]))
        return {"capacity": self.capacity, "entries": entries}

    def restore(self, state: Dict[str, object]) -> None:
        """Replace this store's contents with a :meth:`snapshot`'s.

        The restored store is behaviourally identical to the snapshotted
        one: every query and mutation sequence produces the same results.
        Any ``(_VIRTUAL_PREFIX, index)`` entry becomes a virtual counter,
        whatever its index (older builds numbered virtual flows from a
        process-wide sequence).
        """
        capacity = state["capacity"]
        if capacity != self.capacity:
            raise CounterStoreError(
                f"snapshot capacity {capacity} != store capacity {self.capacity}"
            )
        entries = state["entries"]
        if len(entries) > self.capacity:
            raise CounterStoreError(
                f"snapshot holds {len(entries)} entries for {self.capacity} slots"
            )
        self.reset()
        for fid, value in entries:
            fid = tuple(fid) if isinstance(fid, list) else fid
            if is_virtual_fid(fid):
                self.insert_virtual(value)
            else:
                self.insert(fid, value)

    # -- shared helpers ----------------------------------------------------

    def as_dict(self) -> Dict[FlowId, int]:
        """Snapshot of the stored counters (for tests and reporting)."""
        return dict(self.items())

    def _check_increment(self, fid: FlowId, amount: int) -> None:
        if amount < 0:
            raise CounterStoreError(f"negative increment {amount}")
        if fid not in self:
            raise CounterStoreError(f"increment of unstored flow {fid!r}")

    def _check_insert(self, fid: FlowId, value: int) -> None:
        if value <= 0:
            raise CounterStoreError(f"insert with non-positive value {value}")
        if fid in self:
            raise CounterStoreError(f"insert of already-stored flow {fid!r}")
        if self.is_full:
            raise CounterStoreError("insert into a full store")

    def _check_insert_virtual(self, value: int, count: int) -> None:
        if value <= 0:
            raise CounterStoreError(
                f"virtual insert with non-positive value {value}"
            )
        if count < 0:
            raise CounterStoreError(f"negative virtual count {count}")
        if count > self.free_slots:
            raise CounterStoreError(
                f"virtual insert of {count} counters into "
                f"{self.free_slots} free slots"
            )

    def _check_decrement(self, amount: int) -> None:
        if amount < 0:
            raise CounterStoreError(f"negative decrement {amount}")
        if amount > 0 and (self.is_empty or amount > self.min_value()):
            raise CounterStoreError(
                f"decrement {amount} exceeds the minimum stored value; "
                "Algorithm 1 only ever decrements by min(w, min counter)"
            )


class ReferenceCounterStore(CounterStore):
    """Straightforward dict-based store; O(n) decrement and min.

    This is the executable specification: every operation manipulates
    absolute counter values exactly as the paper's pseudocode describes.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._values: Dict[FlowId, int] = {}
        self._virtual: List[int] = []

    def __contains__(self, fid: FlowId) -> bool:
        return fid in self._values

    def __len__(self) -> int:
        return len(self._values) + len(self._virtual)

    def get(self, fid: FlowId) -> int:
        return self._values[fid]

    def min_value(self) -> int:
        if self.is_empty:
            raise CounterStoreError("min of an empty store")
        return min(itertools.chain(self._values.values(), self._virtual))

    def items(self) -> Iterator[Tuple[FlowId, int]]:
        return iter(list(self._values.items()) + _ranked_virtual(self._virtual))

    def increment(self, fid: FlowId, amount: int) -> int:
        self._check_increment(fid, amount)
        self._values[fid] += amount
        return self._values[fid]

    def insert(self, fid: FlowId, value: int) -> None:
        self._check_insert(fid, value)
        self._values[fid] = value

    def insert_virtual(self, value: int, count: int = 1) -> None:
        self._check_insert_virtual(value, count)
        self._virtual.extend([value] * count)

    def decrement_all(self, amount: int) -> None:
        self._check_decrement(amount)
        if amount == 0:
            return
        survivors = {}
        for fid, value in self._values.items():
            remaining = value - amount
            if remaining > 0:
                survivors[fid] = remaining
        virtual = [value - amount for value in self._virtual if value > amount]
        self.evictions += len(self) - len(survivors) - len(virtual)
        self._values = survivors
        self._virtual = virtual

    def reset(self) -> None:
        self._values.clear()
        self._virtual.clear()


class HeapCounterStore(CounterStore):
    """Floating-ground store with heaps of absolute levels.

    Each counter has an *absolute* value ``a = c + ground`` where ``c`` is
    its logical value.  Lowering every counter by ``d`` raises the ground
    by ``d``; counters whose absolute value is <= the ground are logically
    zero and evicted.  Real flows live in a dict ``fid -> a`` plus a
    min-heap of ``(a, tick, fid)`` entries: an increment pushes a fresh
    entry and leaves the old one stale (lazy deletion — an entry is live
    while the dict still holds its value), giving O(log n) amortized
    updates, the paper's Section 3.3 structure.  Stale entries are
    compacted away once they outnumber the live ones (plus a constant),
    so the heap never exceeds ``2 * capacity + HEAP_SLACK`` entries.
    Virtual counters are just a min-heap of absolute levels: no flow ID,
    no dict entry, never stale.

    To mirror the paper's "periodically reset the floating ground to
    prevent counter overflow", the store rebases automatically once the
    ground passes :data:`REBASE_THRESHOLD` (irrelevant for Python's big
    ints, but kept so the structure matches a fixed-width implementation
    and the rebase path stays tested).
    """

    #: Ground level that triggers an automatic rebase (2**40 ~ 1 TB of
    #: decrements, comfortably within a 64-bit counter budget).
    REBASE_THRESHOLD = 1 << 40

    #: Stale real-heap entries tolerated beyond the live count before the
    #: heap is compacted.
    HEAP_SLACK = 64

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._ground = 0
        #: real fid -> absolute value
        self._entries: Dict[FlowId, int] = {}
        #: heap of (absolute value, tick, fid); the unique tick keeps fids
        #: (possibly of mutually unorderable types) out of comparisons.
        #: Entries whose value the dict no longer holds are stale.
        self._heap: List[Tuple[int, int, FlowId]] = []
        #: heap of the virtual counters' absolute values
        self._virtual: List[int] = []
        self._tick = itertools.count().__next__

    def __contains__(self, fid: FlowId) -> bool:
        return fid in self._entries

    def __len__(self) -> int:
        return len(self._entries) + len(self._virtual)

    @property
    def heap_entries(self) -> int:
        """Entries held by both heaps, stale ones included (bounded by
        ``2 * capacity + HEAP_SLACK``)."""
        return len(self._heap) + len(self._virtual)

    def get(self, fid: FlowId) -> int:
        return self._entries[fid] - self._ground

    def min_value(self) -> int:
        bottom = self._bottom()
        if bottom is None:
            raise CounterStoreError("min of an empty store")
        return bottom - self._ground

    def items(self) -> Iterator[Tuple[FlowId, int]]:
        ground = self._ground
        real = [(fid, a - ground) for fid, a in self._entries.items()]
        return iter(real + _ranked_virtual([a - ground for a in self._virtual]))

    def update(self, fid: FlowId, size: int) -> int:
        """Fused :meth:`CounterStore.update`: one dict probe, at most one
        minimum lookup, and the eviction scan only when the decrement
        reaches the minimum."""
        if size <= 0:
            raise CounterStoreError(f"update with non-positive size {size}")
        entries = self._entries
        absolute = entries.get(fid)
        if absolute is not None:
            absolute += size
            entries[fid] = absolute
            heap = self._heap
            heapq.heappush(heap, (absolute, self._tick(), fid))
            if len(heap) > 2 * len(entries) + self.HEAP_SLACK:
                self._compact()
            return absolute - self._ground
        ground = self._ground
        if len(entries) + len(self._virtual) < self.capacity:
            absolute = ground + size
            entries[fid] = absolute
            heapq.heappush(self._heap, (absolute, self._tick(), fid))
            return size
        bottom = self._bottom()
        assert bottom is not None  # a full store is never empty
        minimum = bottom - ground
        if size < minimum:
            # Decrement by the whole packet: no counter reaches zero.
            self._ground = ground = ground + size
            if ground >= self.REBASE_THRESHOLD:
                self.rebase()
            return 0
        ground += minimum
        self._ground = ground
        self._evict(ground)
        leftover = size - minimum
        if leftover:
            absolute = ground + leftover
            entries[fid] = absolute
            heapq.heappush(self._heap, (absolute, self._tick(), fid))
        if ground >= self.REBASE_THRESHOLD:
            self.rebase()
        return leftover

    def fill(self, volume: int, unit_size: int) -> None:
        """Fused :meth:`CounterStore.fill`: the state it leaves is exactly
        the unit-by-unit loop's.

        A gap of at most one unit — the common case — is one virtual push
        into a store with room, or, into a full store, one minimum lookup,
        one ground raise, at most one eviction scan and one push.  Longer
        gaps take runs of identical unit steps in closed form:

        1. *Periodic regime*: from an empty store, every ``(n + 1)`` full
           units return the store to empty (n fills then one decrement
           that clears them all), so the remaining volume reduces modulo
           ``(n + 1) * unit_size`` before the final partial cycle.
        2. *Bulk decrement*: while the store is full and its minimum
           exceeds the unit size, each full unit decrements everything by
           exactly ``unit_size`` and stores nothing; a whole run of such
           units is one :meth:`decrement_all`.
        3. *Cycle detection*: from a non-empty store the evict/insert
           alternation may never drain the store (e.g. a lone real
           counter that keeps being replaced), but the dynamics over the
           finite state space are eventually periodic; when the exact
           state (virtual level multiset + real ``(fid, value)`` pairs)
           recurs, the volume consumed in between is one period and the
           remaining volume reduces modulo it.  This bounds the work for
           arbitrarily long idle gaps.
        4. A run of units filling empty slots is one
           :meth:`insert_virtual` call (outside cycle detection, which
           keys every unit's state); any other unit is the one-unit step.

        The closed forms go through :meth:`insert_virtual`,
        :meth:`decrement_all` and the one-unit step into a full store
        (:meth:`_unit_into_full`), so a subclass that counts those calls
        (and the one-unit push into a store with room) counts every
        logical mutation the fill performs.
        """
        if volume <= unit_size:
            if volume > 0:
                virtual = self._virtual
                if len(self._entries) + len(virtual) < self.capacity:
                    heapq.heappush(virtual, self._ground + volume)
                else:
                    bottom = self._bottom()
                    assert bottom is not None  # a full store is never empty
                    self._unit_into_full(volume, bottom)
            return
        n = self.capacity
        cycle = (n + 1) * unit_size
        # Cycle detection pays off only for long idle periods.
        track_cycles = volume > 2 * cycle
        seen: Dict[FrozenSet[Tuple[FlowId, int]], int] = {}
        while volume > 0:
            stored = len(self._entries) + len(self._virtual)
            if track_cycles and stored:
                # items() names virtual counters by value rank, so the
                # key is the virtual level multiset (relative to the
                # ground) plus the real (fid, value) pairs: two stores
                # with equal keys evolve identically.
                key = frozenset(self.items())
                previous_volume = seen.get(key)
                if previous_volume is not None:
                    period = previous_volume - volume
                    if period > 0 and volume >= period:
                        volume %= period
                        seen = {}
                        track_cycles = False
                        continue
                elif len(seen) < 65536:
                    seen[key] = volume
                else:
                    # Pathologically long transient: stop paying for
                    # snapshots and fall back to plain stepping.
                    seen = {}
                    track_cycles = False
            if not stored:
                volume %= cycle
                # Final partial cycle: fill up to n slots with full
                # units...
                full_units = min(volume // unit_size, n)
                if full_units:
                    self.insert_virtual(unit_size, full_units)
                volume -= full_units * unit_size
                # ... then place or absorb the remainder (< unit_size, or
                # a full unit arriving with every slot taken).
                if volume > 0:
                    self.fill(min(volume, unit_size), unit_size)
                return
            if stored < n:
                full_units = min(volume // unit_size, n - stored)
                if not full_units:
                    # A partial last unit with a slot free for it.
                    self.insert_virtual(volume)
                    return
                if track_cycles:
                    full_units = 1
                self.insert_virtual(unit_size, full_units)
                volume -= full_units * unit_size
                continue
            bottom = self._bottom()
            assert bottom is not None  # a full store is never empty
            minimum = bottom - self._ground
            if minimum > unit_size and volume > unit_size:
                # Bulk-decrement run: k full units, each reducing every
                # counter by unit_size without evicting.  Stop one step
                # before the minimum would reach the unit size or the
                # volume runs out.  k * unit_size <= minimum - 1, so no
                # counter reaches zero and the store stays full.
                k = min((minimum - 1) // unit_size, volume // unit_size)
                self.decrement_all(k * unit_size)
                volume -= k * unit_size
                continue
            unit = min(unit_size, volume)
            self._unit_into_full(unit, bottom)
            volume -= unit

    def _unit_into_full(self, unit: int, bottom: int) -> None:
        """One virtual unit (at most the unit size) into a full store
        whose lowest absolute level is ``bottom``: decrement by
        ``min(unit, minimum)``, evict what reaches zero, store the
        leftover."""
        ground = self._ground
        if unit < bottom - ground:
            # Decrement by the whole unit: no counter reaches zero.
            ground += unit
            self._ground = ground
        else:
            # Decrement by the minimum: evict, store the leftover.
            leftover = unit - (bottom - ground)
            self._ground = ground = bottom
            self._evict(ground)
            if leftover:
                heapq.heappush(self._virtual, ground + leftover)
        if ground >= self.REBASE_THRESHOLD:
            self.rebase()

    def increment(self, fid: FlowId, amount: int) -> int:
        self._check_increment(fid, amount)
        absolute = self._entries[fid] + amount
        self._entries[fid] = absolute
        heapq.heappush(self._heap, (absolute, self._tick(), fid))
        if len(self._heap) > 2 * len(self._entries) + self.HEAP_SLACK:
            self._compact()
        return absolute - self._ground

    def insert(self, fid: FlowId, value: int) -> None:
        self._check_insert(fid, value)
        absolute = self._ground + value
        self._entries[fid] = absolute
        heapq.heappush(self._heap, (absolute, self._tick(), fid))

    def insert_virtual(self, value: int, count: int = 1) -> None:
        virtual = self._virtual
        if value <= 0 or count != 1 or (
            len(self._entries) + len(virtual) >= self.capacity
        ):
            self._check_insert_virtual(value, count)
        absolute = self._ground + value
        for _ in range(count):
            heapq.heappush(virtual, absolute)

    def decrement_all(self, amount: int) -> None:
        if amount <= 0:
            if amount < 0:
                raise CounterStoreError(f"negative decrement {amount}")
            return
        ground = self._ground + amount
        bottom = self._bottom()
        if bottom is None or bottom < ground:
            raise CounterStoreError(
                f"decrement {amount} exceeds the minimum stored value; "
                "Algorithm 1 only ever decrements by min(w, min counter)"
            )
        self._ground = ground
        if bottom == ground:
            self._evict(ground)
        if ground >= self.REBASE_THRESHOLD:
            self.rebase()

    def reset(self) -> None:
        self._ground = 0
        self._entries.clear()
        self._heap.clear()
        self._virtual.clear()

    def rebase(self) -> None:
        """Rewrite absolute values relative to a zero ground.

        Equivalent to the paper's periodic "reset the floating ground to
        zero and deduct all counters accordingly"; O(n log n), amortized
        away by the size of :data:`REBASE_THRESHOLD`.
        """
        ground = self._ground
        self._ground = 0
        self._entries = {fid: a - ground for fid, a in self._entries.items()}
        # A uniform shift keeps the virtual heap ordered.
        self._virtual = [a - ground for a in self._virtual]
        self._compact()

    def _compact(self) -> None:
        """Rebuild the real heap from the live entries, dropping stale
        ones."""
        tick = self._tick
        heap = [(a, tick(), fid) for fid, a in self._entries.items()]
        heapq.heapify(heap)
        self._heap = heap

    def _evict(self, ground: int) -> None:
        """Drop every counter at or below ``ground`` (logically zero)."""
        heap = self._heap
        entries = self._entries
        evicted = 0
        while heap and heap[0][0] <= ground:
            absolute, _, fid = heapq.heappop(heap)
            if entries.get(fid) == absolute:
                del entries[fid]
                evicted += 1
        virtual = self._virtual
        while virtual and virtual[0] <= ground:
            heapq.heappop(virtual)
            evicted += 1
        self.evictions += evicted

    def _bottom(self) -> Optional[int]:
        """Lowest absolute value of any stored counter (pruning stale real
        entries off the heap top), or None if the store is empty."""
        heap = self._heap
        entries = self._entries
        while heap:
            absolute, _, fid = heap[0]
            if entries.get(fid) == absolute:
                virtual = self._virtual
                if virtual and virtual[0] < absolute:
                    return virtual[0]
                return absolute
            heapq.heappop(heap)
        virtual = self._virtual
        return virtual[0] if virtual else None
