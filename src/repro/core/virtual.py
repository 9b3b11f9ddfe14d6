"""Virtual-traffic accounting for EARDet (paper Section 3.2/3.3).

The large-flow problem — unlike the frequent-items problem — must account
for *idle link time*: a flow's share of the link matters relative to the
link capacity, not just relative to other traffic.  EARDet handles this by
virtually filling unused bandwidth with **virtual traffic**, divided into
**virtual flows** (units) small enough to comply with the low-bandwidth
threshold so they never trigger alarms themselves.

Three pieces live here:

- :class:`Carryover` — the paper's exact integerization of fractional
  virtual-traffic sizes.  Idle bandwidth ``rho * t_idle`` is generally not
  a whole number of bytes; the carryover field keeps the uncounted
  remainder in exact byte-nanosecond units so the adjusted sizes differ
  from the true idle volume by less than one byte over *any* interval.
- :func:`apply_virtual_traffic_reference` — the executable specification:
  feed the virtual volume to the counter store one unit at a time, each
  unit a brand-new flow, exactly as Algorithm 1 lines 18-22 describe
  (the paper-literal :meth:`CounterStore.fill`).
- :func:`apply_virtual_traffic` — an exactly-equivalent fast path: the
  store's own :meth:`~CounterStore.fill`.
  :class:`~repro.core.counters.HeapCounterStore` fuses it: a gap of at
  most one unit is a handful of heap operations, and longer gaps take
  runs of unit steps in closed form (fill empty slots / bulk decrements
  while the minimum exceeds the unit size / the periodic regime once the
  store drains / cycle detection), so long idle periods cost O(n) work
  rather than O(idle volume / unit size).  Property tests verify
  equivalence with the reference on randomized states.

A virtual flow is never referred to again once its unit is processed
(paper Section 3.3), so neither path names one: a unit that needs a slot
becomes a fungible virtual counter, :meth:`CounterStore.insert_virtual`,
which holds only a value.  Filling ``k`` empty slots is one call.
"""

from __future__ import annotations

from typing import Iterator

from ..model.units import NS_PER_S
from .counters import CounterStore


class Carryover:
    """Exact integerization of fractional virtual-traffic volumes.

    The true idle volume between packets is ``rho * t_idle - w_prev`` bytes
    with ``rho * t_idle`` generally fractional.  We track volumes as exact
    integers in byte-nanoseconds (numerator over 10^9) and emit integer
    byte amounts, keeping the running remainder ``co`` in scaled units with
    ``-0.5 <= co/NS < 0.5`` — the paper's invariant, achieved by rounding
    half-up on the scaled value.

    Over any sequence of emissions the total emitted differs from the total
    true volume by less than one byte (Section 3.3, "Counter
    implementation").
    """

    __slots__ = ("remainder_scaled",)

    def __init__(self) -> None:
        #: uncounted volume in byte-ns units; invariant -NS/2 <= r < NS/2.
        self.remainder_scaled = 0

    @property
    def remainder_bytes(self) -> float:
        """Current carryover in fractional bytes (for inspection)."""
        return self.remainder_scaled / NS_PER_S

    def integerize(self, volume_scaled: int) -> int:
        """Fold a scaled (byte-ns) volume in; return whole bytes to emit.

        ``volume_scaled`` must be >= 0.  The returned byte count is
        ``round(volume + carryover)`` (half-up), and the new carryover is
        the rounding error.
        """
        if volume_scaled < 0:
            raise ValueError(f"negative virtual volume {volume_scaled}")
        total = self.remainder_scaled + volume_scaled
        # Round half-up: floor((total + NS/2) / NS).
        emitted = (total + NS_PER_S // 2) // NS_PER_S
        self.remainder_scaled = total - emitted * NS_PER_S
        return emitted

    def reset(self) -> None:
        self.remainder_scaled = 0

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> int:
        """The exact scaled remainder; an int, so serialization is lossless."""
        return self.remainder_scaled

    def restore(self, state: int) -> None:
        """Restore a remainder produced by :meth:`snapshot`."""
        if not isinstance(state, int):
            raise TypeError(f"carryover snapshot must be an int, got {state!r}")
        self.remainder_scaled = state


def iter_units(volume: int, unit_size: int) -> Iterator[int]:
    """Split a byte volume into units of ``unit_size`` plus a final partial
    unit, the paper's division of virtual traffic into virtual flows."""
    if unit_size <= 0:
        raise ValueError(f"unit size must be positive, got {unit_size}")
    full, partial = divmod(volume, unit_size)
    for _ in range(full):
        yield unit_size
    if partial:
        yield partial


def apply_virtual_unit(store: CounterStore, unit: int) -> None:
    """Process one virtual unit as a brand-new flow (Algorithm 1, lines
    10-17 applied to a flow that is never stored)."""
    if unit > 0:
        CounterStore.fill(store, unit, unit)


def apply_virtual_traffic_reference(
    store: CounterStore, volume: int, unit_size: int
) -> None:
    """Executable specification: process every unit individually (the
    paper-literal :meth:`CounterStore.fill`, whatever the store)."""
    _check_fill(volume, unit_size)
    CounterStore.fill(store, volume, unit_size)


def apply_virtual_traffic(
    store: CounterStore, volume: int, unit_size: int
) -> None:
    """Fast path, exactly equivalent to the reference implementation:
    the store's own :meth:`~CounterStore.fill` (closed forms for runs of
    units in :class:`~repro.core.counters.HeapCounterStore`)."""
    if unit_size <= 0 or volume < 0:
        _check_fill(volume, unit_size)
    store.fill(volume, unit_size)


def _check_fill(volume: int, unit_size: int) -> None:
    if unit_size <= 0:
        raise ValueError(f"unit size must be positive, got {unit_size}")
    if volume < 0:
        raise ValueError(f"negative virtual volume {volume}")
