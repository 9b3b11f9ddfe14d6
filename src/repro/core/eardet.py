"""EARDet: the paper's core contribution (Algorithm 1).

EARDet is a deterministic one-pass streaming detector built on the
Misra-Gries frequent-items algorithm, modified in three ways (Section 3.2):

1. a **blacklist** of recently detected large flows, so a counter stops
   growing once past the threshold and detection work is not repeated;
2. a **counter threshold** ``beta_TH``: a flow is declared large the moment
   its counter exceeds it, which (with the blacklist) confines every
   counter to ``beta_TH + alpha``;
3. **virtual traffic** filling unused link bandwidth, so the detector
   measures flows against the link capacity over *arbitrary* time windows
   rather than against the packet mix.

With ``n`` counters on a link of capacity ``rho`` the resulting guarantees
(Theorems 4 and 6) hold for any input whatsoever:

- *no-FNl*: every flow violating ``TH_h(t) = gamma_h t + beta_h`` with
  ``gamma_h >= rho/(n+1)``, ``beta_h >= alpha + 2 beta_TH`` is caught,
- *no-FPs*: no flow complying with ``TH_l(t) = gamma_l t + beta_l`` with
  ``beta_l < beta_TH``, ``gamma_l < R_NFP`` is ever caught.

The implementation keeps all arithmetic exact (integer bytes / nanoseconds
/ byte-nanoseconds), so those guarantees are testable as hard assertions;
see ``tests/test_properties_eardet.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable

from ..detectors.base import Detector
from ..model.packet import FlowId, Packet
from ..model.units import NS_PER_S
from .blacklist import Blacklist
from .config import EARDetConfig
from .counters import CounterStore, HeapCounterStore
from .virtual import Carryover, apply_virtual_traffic, apply_virtual_traffic_reference

#: Half a byte in byte-nanoseconds: the carryover rounds half-up.
_HALF_NS = NS_PER_S // 2


class ReconfigurationError(ValueError):
    """A snapshot cannot be adapted to a new configuration.

    The config-dependent fields inside an EARDet snapshot are the counter
    store's embedded capacity and the counter-value envelope
    ``[1, beta_TH + alpha]``; adapting fails exactly when the snapshot
    holds more live counters than the new configuration's ``n`` can carry
    (shrinking below occupancy would have to *drop* counter state, which
    is never exact)."""


def reconfigure_state(
    state: Dict[str, object], config: EARDetConfig
) -> Dict[str, object]:
    """Adapt a :meth:`EARDet.snapshot` taken under one configuration for
    restore into a detector built with ``config``.

    Almost everything in a snapshot is config-independent — counters are
    ``(fid, bytes)`` pairs, the carryover is an exact byte-nanosecond
    numerator, the blacklist is a fid set.  Two fields depend on the
    configuration and get rewritten here (the hot-reconfiguration path:
    retune at a batch boundary, adapt the frozen snapshot, restore into a
    detector built with the new config):

    - the store's embedded ``capacity``, which
      :meth:`~repro.core.counters.CounterStore.restore` checks strictly,
      becomes ``config.n``;
    - counter *values* live in ``[1, beta_TH + alpha]`` under the config
      that produced them.  When the retune shrinks ``beta_TH``, a
      carried value may exceed the new envelope; such values are clamped
      down to the new ceiling ``config.beta_th + config.alpha``.  The
      clamp is minimal on purpose: values already inside the new
      envelope are carried bit-for-bit (so a rollback's same-config
      round trip perturbs nothing — counter values feed the
      Misra-Gries ``min_value`` decrement, where any gratuitous rewrite
      would shift later detection times), and a clamped value stays
      above the new ``beta_th``, so the flow is still detected on its
      next counted packet.  The clamp is deterministic, so replay of
      the epoch transition stays bit-identical.

    Returns a new state dict; the input is not mutated.  Raises
    :class:`ReconfigurationError` when the snapshot's live occupancy
    exceeds ``config.n``.
    """
    store_state = state.get("store")
    if not isinstance(store_state, dict):
        raise ReconfigurationError(
            f"snapshot has no store section to adapt: {type(store_state).__name__}"
        )
    entries = store_state.get("entries", [])
    occupancy = len(entries)  # type: ignore[arg-type]
    if occupancy > config.n:
        raise ReconfigurationError(
            f"snapshot holds {occupancy} live counters but the new "
            f"configuration provides only n={config.n}; shrinking below "
            "occupancy would drop exact state (retry after decay or with "
            "a larger n)"
        )
    adapted = dict(state)
    ceiling = config.beta_th + config.alpha
    adapted["store"] = {
        **store_state,
        "capacity": config.n,
        "entries": [
            (fid, min(value, ceiling)) for fid, value in entries
        ],
    }
    return adapted


@dataclass
class EARDetStats:
    """Operational counters for diagnostics and ablation benchmarks."""

    packets: int = 0
    blacklisted_packets: int = 0
    virtual_bytes: int = 0
    oversubscribed_gaps: int = 0
    detections: int = 0
    blacklist_prunes: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Serializable field dict."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def restore(self, state: Dict[str, int]) -> None:
        """Restore fields from a :meth:`snapshot` (unknown keys rejected)."""
        for name, value in state.items():
            if name not in self.__dataclass_fields__:
                raise ValueError(f"unknown stats field {name!r}")
            setattr(self, name, value)


class EARDet(Detector):
    """The EARDet detector.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.EARDetConfig`, typically produced by
        :func:`repro.core.config.engineer`.
    store_factory:
        Counter-store implementation; the default is the optimized
        floating-ground heap store.  Pass
        :class:`~repro.core.counters.ReferenceCounterStore` for the O(n)
        behavioural oracle.
    reference_virtual:
        When True, process virtual traffic with the unit-by-unit reference
        loop instead of the exactly-equivalent fast path (for differential
        testing; dramatically slower on idle links).
    blacklisted_consumes_link:
        The paper's analysis assumes detected flows are *cut off
        immediately* (Section 4), i.e. their packets stop consuming link
        bandwidth.  With the default ``False``, bytes of blacklisted flows
        are accordingly treated as idle bandwidth (they become virtual
        traffic).  Set True to model a monitor-only deployment where
        detected flows keep occupying the wire.
    """

    name = "eardet"

    def __init__(
        self,
        config: EARDetConfig,
        store_factory: Callable[[int], CounterStore] = HeapCounterStore,
        reference_virtual: bool = False,
        blacklisted_consumes_link: bool = False,
    ):
        super().__init__()
        self.config = config
        self._store: CounterStore = store_factory(config.n)
        self._blacklist = Blacklist()
        self._carryover = Carryover()
        self._apply_virtual = (
            apply_virtual_traffic_reference
            if reference_virtual
            else apply_virtual_traffic
        )
        self._blacklisted_consumes_link = blacklisted_consumes_link
        # Time and size of the last packet that consumed link bandwidth,
        # used to compute each gap's idle volume (Algorithm 1 line 19).
        self._last_time = 0
        self._last_size = 0
        self._started = False
        self.stats = EARDetStats()

    # -- Algorithm 1 -------------------------------------------------------

    def observe(self, packet: Packet) -> bool:
        """Process one packet (the kernel on a one-packet batch); return
        whether its flow is flagged."""
        self._run((packet,))
        if self.checker is not None:
            self.checker.after_packet(self)
        return packet.fid in self.sink

    def observe_batch(self, packets: Iterable[Packet]) -> None:
        """Process packets in order, with the same state, detections
        (each reported at its own packet's time) and stats as
        :meth:`observe` on each packet in turn, at the cost of one loop.

        With an :class:`~repro.guard.invariants.InvariantChecker`
        attached, the kernel steps one packet at a time, so every
        sampled check sees the same state as under :meth:`observe`.
        """
        checker = self.checker
        if checker is None:
            self._run(packets)
            return
        run = self._run
        for packet in packets:
            run((packet,))
            checker.after_packet(self)

    def observe_stream(self, packets: Iterable[Packet]) -> "EARDet":
        """Process a whole stream; returns self for chaining."""
        self.observe_batch(packets)
        return self

    def _update(self, packet: Packet) -> bool:
        # The base class's per-packet hook; observe() runs the kernel
        # directly.  True when this packet's flow crossed beta_TH here.
        detections = self.stats.detections
        self._run((packet,))
        return self.stats.detections != detections

    def _run(self, packets: Iterable[Packet]) -> None:
        """The kernel: Algorithm 1 over ``packets``.

        Everything the loop reads is bound once; the clock, carryover
        and stats live in locals and are written back in ``finally``, in
        the per-packet order of operations, so an exception leaves the
        state exactly where a packet-at-a-time run would have.
        """
        config = self.config
        rho = config.rho
        beta_th = config.beta_th
        unit = config.virtual_unit
        store = self._store
        update = store.update
        fill = self._apply_virtual
        blacklist = self._blacklist
        listed = blacklist._flows
        report = self.sink.report
        consumes_link = self._blacklisted_consumes_link
        carry = self._carryover.remainder_scaled
        last_time = self._last_time
        last_size = self._last_size
        started = self._started
        seen = blacklisted = virtual_bytes = oversubscribed = 0
        detections = prunes = 0
        try:
            for packet in packets:
                seen += 1
                fid = packet.fid
                counted = True
                if fid in listed:
                    if fid in store:
                        blacklisted += 1
                        if not consumes_link:
                            continue
                        counted = False
                    else:
                        # The counter decayed away: the flow leaves the
                        # local blacklist (its detection remains recorded
                        # at the sink).
                        listed.discard(fid)
                        prunes += 1
                now = packet.time
                if started:
                    # Convert the idle bandwidth since the last counted
                    # packet into virtual traffic (lines 18-22), through
                    # the carryover's exact half-up integerization.
                    idle = rho * (now - last_time) - last_size * NS_PER_S
                    if idle < 0:
                        # The stream oversubscribes the link (only
                        # possible with synthetic input); there is no
                        # idle bandwidth to fill.
                        oversubscribed += 1
                    elif idle:
                        idle += carry
                        volume = (idle + _HALF_NS) // NS_PER_S
                        carry = idle - volume * NS_PER_S
                        if volume > 0:
                            virtual_bytes += volume
                            fill(store, volume, unit)
                else:
                    started = True
                # This packet's bytes occupy the wire: the next gap's
                # idle volume subtracts them.
                last_time = now
                last_size = packet.size
                if not counted:
                    continue
                # Misra-Gries update with byte weights (lines 10-17), then
                # the counter-threshold check plus blacklist upkeep
                # (lines 21-22).
                if update(fid, last_size) > beta_th:
                    listed.add(fid)
                    detections += 1
                    # Keep the bounded-blacklist invariant |L| <= n by
                    # pruning entries whose counters have decayed away
                    # (Section 3.3).
                    prunes += blacklist.prune(store)
                    report(fid, now)
        finally:
            self._carryover.remainder_scaled = carry
            self._last_time = last_time
            self._last_size = last_size
            self._started = started
            stats = self.stats
            stats.packets += seen
            stats.blacklisted_packets += blacklisted
            stats.virtual_bytes += virtual_bytes
            stats.oversubscribed_gaps += oversubscribed
            stats.detections += detections
            stats.blacklist_prunes += prunes

    # -- introspection -----------------------------------------------------

    @property
    def counters(self) -> Dict[FlowId, int]:
        """Snapshot of the current non-zero counters.  Leftover virtual
        traffic appears as ``("__virtual__", rank)`` keys, ranked in
        ascending-value order (virtual counters carry no flow ID)."""
        return self._store.as_dict()

    @property
    def counters_in_use(self) -> int:
        """Occupied counter-store slots (cheap; no dict materialization,
        unlike :attr:`counters` — telemetry polls this per batch)."""
        return len(self._store)

    @property
    def store_evictions(self) -> int:
        """Flows this detector's store has evicted via decrement-all
        (operational telemetry; see ``CounterStore.evictions``)."""
        return self._store.evictions

    @property
    def blacklist(self) -> Blacklist:
        """The bounded local blacklist."""
        return self._blacklist

    @property
    def carryover_numerator(self) -> int:
        """Current virtual-traffic carryover as the exact integer
        numerator over 10^9 (byte-nanosecond units), satisfying
        ``-NS_PER_S // 2 <= numerator < NS_PER_S // 2``.

        This is the primary API: it is the value the algorithm actually
        carries, snapshots losslessly, and compares exactly.  Use
        :attr:`carryover_bytes` only for display.
        """
        return self._carryover.remainder_scaled

    @property
    def carryover_bytes(self) -> float:
        """Current virtual-traffic carryover in fractional bytes.

        Display convenience only — the division by 10^9 goes through
        float and can lose precision.  Exact code must use
        :attr:`carryover_numerator`.
        """
        return self._carryover.remainder_bytes

    def counter_count(self) -> int:
        return self.config.n

    # -- checkpointing -----------------------------------------------------

    #: Version of the EARDet snapshot schema; bump on incompatible change.
    SNAPSHOT_FORMAT = 1

    def snapshot(self) -> Dict[str, object]:
        """Capture the complete detector state as plain Python data.

        The snapshot is *exact*: restoring it (into this or any other
        EARDet with the same configuration — even in a different process)
        and replaying the remaining packets produces detections, detection
        timestamps, stats and counter values identical to an uninterrupted
        run.  All captured values are integers, bools, strings or nested
        lists/tuples of those, so any lossless serializer preserves
        exactness.
        """
        return {
            "format": self.SNAPSHOT_FORMAT,
            "store": self._store.snapshot(),
            "blacklist": self._blacklist.snapshot(),
            "carryover": self._carryover.snapshot(),
            "last_time": self._last_time,
            "last_size": self._last_size,
            "started": self._started,
            "stats": self.stats.snapshot(),
            "sink": self.sink.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`snapshot`, replacing all current state."""
        fmt = state.get("format")
        if fmt != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported EARDet snapshot format {fmt!r} "
                f"(this build reads format {self.SNAPSHOT_FORMAT})"
            )
        self._store.restore(state["store"])
        self._blacklist.restore(state["blacklist"])
        self._carryover.restore(state["carryover"])
        self._last_time = state["last_time"]
        self._last_size = state["last_size"]
        self._started = state["started"]
        self.stats.restore(state["stats"])
        self.sink.restore(state["sink"])
        if self.checker is not None:
            # Restored state is a discontinuous jump (possibly backward in
            # time); the monitor's trackers must restart from it.
            self.checker.reset()

    def _reset_state(self) -> None:
        self._store.reset()
        self._blacklist.reset()
        self._carryover.reset()
        self._last_time = 0
        self._last_size = 0
        self._started = False
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"EARDet(n={self.config.n}, beta_th={self.config.beta_th}, "
            f"detected={len(self.sink)})"
        )
