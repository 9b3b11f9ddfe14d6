"""Runtime assertion of the paper's algorithm-state invariants.

The guarantees of Section 3 are consequences of invariants that the
detector state must satisfy after *every* packet.  Software does not stay
correct by proof alone — memory corruption, a buggy refactor, a bad
checkpoint restore, or an unforeseen input path can all break them —
so :class:`InvariantChecker` re-derives the invariants from live state
at a configurable sampling cadence and raises a typed
:class:`InvariantViolation` (with full state forensics) the moment one
fails.

Invariants checked for :class:`~repro.core.eardet.EARDet`:

``counter-bound``
    Every stored counter value lies in ``[1, beta_th + alpha]``
    (Section 3.3: the blacklist caps growth at ``beta_th`` plus one
    maximum-size packet; zeroed counters must have been evicted).
``store-size``
    At most ``n`` counters are stored.
``heap-size``
    A heap-backed store's heaps, stale lazy-deletion entries included,
    hold at most ``2n + 64`` entries (no growth with the packet count).
``carryover-range``
    The virtual-traffic carryover numerator satisfies
    ``-NS/2 <= r < NS/2`` in byte-nanosecond units (the paper's
    "differs from the true volume by less than one byte" bound).
``blacklist-bound``
    ``|L| <= n`` — the bounded local blacklist never outgrows the
    counter store.
``blacklist-reported``
    Every blacklisted flow appears in the report sink: a flow is only
    blacklisted at the moment it is reported, and the sink never
    forgets (no silent re-admission of a detected flow).
``blacklist-monotone``
    While a flow stays blacklisted and stored, its counter is only ever
    touched by ``decrement_all`` — values must be monotone
    non-increasing between samples.  (The tracker is invalidated when a
    detection or prune occurred in between, since legitimate
    re-detection resets a counter.)
``time-monotone``
    The detector's internal clock (``_last_time``) never runs backward.

For :class:`~repro.detectors.exact.ExactLeakyBucketDetector`:

``bucket-level``
    Every bucket satisfies ``0 <= level_scaled <= peak_scaled``.
``bucket-drain``
    Per-flow bucket clocks and peaks are monotone non-decreasing
    between samples.

For every :class:`~repro.detectors.base.Detector` (including the
``fmf``/``amf`` baselines):

``sink-monotone``
    The report sink never shrinks — detections are permanent.

Checks are read-only and touch every counter, so a full check is O(n);
``every=k`` samples one check per ``k`` packets to amortize the cost
(see ``benchmarks/bench_guard.py`` for measured overhead).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Optional

from ..model.units import NS_PER_S

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.eardet import EARDet
    from ..detectors.base import Detector
    from ..detectors.exact import ExactLeakyBucketDetector


class InvariantViolation(RuntimeError):
    """An algorithm-state invariant does not hold.

    This is *not* a recoverable condition: the detector's logic or
    memory is corrupted, so restarting from the same state (or a
    checkpoint of it) cannot help.  The service supervisor treats it as
    permanent and aborts with the attached forensics.

    Attributes
    ----------
    check:
        Machine-readable invariant name (e.g. ``"counter-bound"``).
    detector:
        The detector's scheme name (``"eardet"``, ``"exact"``, ...).
    observed / bound:
        The violating value and the bound it broke, stringified.
    forensics:
        JSON-safe snapshot of the relevant detector state at the moment
        of the violation.
    """

    def __init__(
        self,
        message: str,
        *,
        check: str,
        detector: str,
        observed: Optional[object] = None,
        bound: Optional[object] = None,
        forensics: Optional[Dict[str, object]] = None,
    ):
        super().__init__(message)
        self.check = check
        self.detector = detector
        self.observed = None if observed is None else str(observed)
        self.bound = None if bound is None else str(bound)
        self.forensics: Dict[str, object] = forensics or {}

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe payload (crosses process boundaries in the
        multiprocess engine's worker replies)."""
        return {
            "message": str(self),
            "check": self.check,
            "detector": self.detector,
            "observed": self.observed,
            "bound": self.bound,
            "forensics": self.forensics,
        }


class InvariantChecker:
    """Sampled runtime verification of detector-state invariants.

    Attach with :meth:`repro.detectors.base.Detector.attach_checker`;
    the detector then calls :meth:`after_packet` after each processed
    packet and the checker runs a full :meth:`check_now` every
    ``every`` packets.  ``every=1`` checks after every packet (maximum
    detection latency: one packet); larger values trade latency for
    overhead.

    The checker is a monitor, not part of detector state: it holds only
    derived tracking data (last seen clocks, last seen counter values)
    and must be :meth:`reset` whenever the detector's state jumps
    discontinuously (reset, checkpoint restore) — the detector hooks do
    this automatically.
    """

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError(f"sampling cadence must be >= 1, got {every}")
        self.every = every
        #: Packets observed since the last reset.
        self.packets_seen = 0
        #: Full invariant sweeps executed.
        self.checks_run = 0
        #: Monotonic nanoseconds spent inside sweeps — the measured
        #: sampling cost telemetry surfaces per shard.  Accumulates across
        #: :meth:`reset` (it describes the monitor, not detector state).
        self.check_time_ns = 0
        #: Violations raised (at most 1 unless the caller swallows them).
        self.violations = 0
        self._sink_size = 0
        self._last_time: Optional[int] = None
        self._blacklist_values: Dict[object, int] = {}
        self._event_marker: Optional[object] = None
        self._bucket_clocks: Dict[object, int] = {}
        self._bucket_peaks: Dict[object, int] = {}

    def after_packet(self, detector: "Detector") -> None:
        """Per-packet hook: run a full check every ``every`` packets."""
        self.packets_seen += 1
        if self.packets_seen % self.every == 0:
            self.check_now(detector)

    def reset(self) -> None:
        """Forget all tracking state (call on detector reset/restore)."""
        self.packets_seen = 0
        self._sink_size = 0
        self._last_time = None
        self._blacklist_values = {}
        self._event_marker = None
        self._bucket_clocks = {}
        self._bucket_peaks = {}

    # -- the sweep ---------------------------------------------------------

    def check_now(self, detector: "Detector") -> None:
        """Run every applicable invariant check against live state.

        Raises :class:`InvariantViolation` on the first failure.
        """
        self.checks_run += 1
        started = time.monotonic_ns()
        try:
            self._check_sink(detector)
            # Local imports keep repro.guard importable without dragging
            # in every detector implementation.
            from ..core.eardet import EARDet
            from ..detectors.exact import ExactLeakyBucketDetector

            if isinstance(detector, EARDet):
                self._check_eardet(detector)
            elif isinstance(detector, ExactLeakyBucketDetector):
                self._check_exact(detector)
        finally:
            # Count the sweep's cost even when it raises: a violating
            # sweep still spent the time.
            self.check_time_ns += time.monotonic_ns() - started

    # -- generic -----------------------------------------------------------

    def _check_sink(self, detector: "Detector") -> None:
        size = len(detector.sink)
        if size < self._sink_size:
            self._fail(
                detector,
                check="sink-monotone",
                message=(
                    f"report sink shrank from {self._sink_size} to {size} "
                    "flows; detections must be permanent"
                ),
                observed=size,
                bound=self._sink_size,
            )
        self._sink_size = size

    # -- EARDet ------------------------------------------------------------

    def _check_eardet(self, detector: "EARDet") -> None:
        config = detector.config
        store = detector._store
        blacklist = detector._blacklist

        stored = len(store)
        if stored > config.n:
            self._fail(
                detector,
                check="store-size",
                message=(
                    f"counter store holds {stored} flows but is budgeted "
                    f"for n={config.n}"
                ),
                observed=stored,
                bound=config.n,
            )

        heap_entries = getattr(store, "heap_entries", None)
        heap_bound = 2 * config.n + getattr(store, "HEAP_SLACK", 0)
        if heap_entries is not None and heap_entries > heap_bound:
            self._fail(
                detector,
                check="heap-size",
                message=(
                    f"counter store's heaps hold {heap_entries} entries, "
                    f"more than 2n + {heap_bound - 2 * config.n} = "
                    f"{heap_bound}; stale entries must be compacted away"
                ),
                observed=heap_entries,
                bound=heap_bound,
            )

        counter_bound = config.beta_th + config.alpha
        for fid, value in store.items():
            if not 1 <= value <= counter_bound:
                self._fail(
                    detector,
                    check="counter-bound",
                    message=(
                        f"counter for flow {fid!r} is {value}B, outside "
                        f"[1, beta_th + alpha] = [1, {counter_bound}]"
                    ),
                    observed=value,
                    bound=counter_bound,
                )

        remainder = detector._carryover.remainder_scaled
        half = NS_PER_S // 2
        if not -half <= remainder < half:
            self._fail(
                detector,
                check="carryover-range",
                message=(
                    f"carryover numerator {remainder} outside "
                    f"[-{half}, {half}) byte-ns"
                ),
                observed=remainder,
                bound=f"[-{half}, {half})",
            )

        if len(blacklist) > config.n:
            self._fail(
                detector,
                check="blacklist-bound",
                message=(
                    f"blacklist holds {len(blacklist)} flows, more than "
                    f"the n={config.n} bound"
                ),
                observed=len(blacklist),
                bound=config.n,
            )

        for fid in blacklist:
            if fid not in detector.sink:
                self._fail(
                    detector,
                    check="blacklist-reported",
                    message=(
                        f"flow {fid!r} is blacklisted but absent from the "
                        "report sink; detections must precede blacklisting "
                        "and are permanent"
                    ),
                    observed=repr(fid),
                )

        # A detection or prune between samples can legitimately reset a
        # blacklisted counter (decay -> re-admission -> re-detection), so
        # the monotone tracker is only trusted while no such event fired.
        marker = (
            detector.stats.detections,
            detector.stats.blacklist_prunes,
        )
        if marker != self._event_marker:
            self._blacklist_values = {}
            self._event_marker = marker
        current: Dict[object, int] = {}
        for fid in blacklist:
            if fid in store:
                value = store.get(fid)
                previous = self._blacklist_values.get(fid)
                if previous is not None and value > previous:
                    self._fail(
                        detector,
                        check="blacklist-monotone",
                        message=(
                            f"blacklisted flow {fid!r}'s counter grew from "
                            f"{previous}B to {value}B; only decrement_all "
                            "may touch a blacklisted counter"
                        ),
                        observed=value,
                        bound=previous,
                    )
                current[fid] = value
        self._blacklist_values = current

        last_time = detector._last_time
        if self._last_time is not None and last_time < self._last_time:
            self._fail(
                detector,
                check="time-monotone",
                message=(
                    f"detector clock ran backward: {last_time}ns after "
                    f"{self._last_time}ns"
                ),
                observed=last_time,
                bound=self._last_time,
            )
        self._last_time = last_time

    # -- exact leaky-bucket detector ---------------------------------------

    def _check_exact(self, detector: "ExactLeakyBucketDetector") -> None:
        current_clocks: Dict[object, int] = {}
        current_peaks: Dict[object, int] = {}
        for fid, bucket in detector._buckets.items():
            if not 0 <= bucket.level_scaled <= bucket.peak_scaled:
                self._fail(
                    detector,
                    check="bucket-level",
                    message=(
                        f"bucket for flow {fid!r} has level "
                        f"{bucket.level_scaled} outside "
                        f"[0, peak={bucket.peak_scaled}]"
                    ),
                    observed=bucket.level_scaled,
                    bound=bucket.peak_scaled,
                )
            previous_clock = self._bucket_clocks.get(fid)
            if previous_clock is not None and bucket.last_time < previous_clock:
                self._fail(
                    detector,
                    check="bucket-drain",
                    message=(
                        f"bucket clock for flow {fid!r} ran backward: "
                        f"{bucket.last_time}ns after {previous_clock}ns"
                    ),
                    observed=bucket.last_time,
                    bound=previous_clock,
                )
            previous_peak = self._bucket_peaks.get(fid)
            if previous_peak is not None and bucket.peak_scaled < previous_peak:
                self._fail(
                    detector,
                    check="bucket-drain",
                    message=(
                        f"bucket peak for flow {fid!r} decreased from "
                        f"{previous_peak} to {bucket.peak_scaled}"
                    ),
                    observed=bucket.peak_scaled,
                    bound=previous_peak,
                )
            current_clocks[fid] = bucket.last_time
            current_peaks[fid] = bucket.peak_scaled
        self._bucket_clocks = current_clocks
        self._bucket_peaks = current_peaks

    # -- failure -----------------------------------------------------------

    def _fail(
        self,
        detector: "Detector",
        *,
        check: str,
        message: str,
        observed: Optional[object] = None,
        bound: Optional[object] = None,
    ) -> None:
        self.violations += 1
        raise InvariantViolation(
            f"{detector.name} invariant {check!r} violated after "
            f"{self.packets_seen} packets: {message}",
            check=check,
            detector=detector.name,
            observed=observed,
            bound=bound,
            forensics=self._forensics(detector),
        )

    def _forensics(self, detector: "Detector") -> Dict[str, object]:
        """JSON-safe snapshot of the state that broke the invariant."""
        payload: Dict[str, object] = {
            "detector": detector.name,
            "packets_seen": self.packets_seen,
            "checks_run": self.checks_run,
            "sink_size": len(detector.sink),
        }
        from ..core.eardet import EARDet
        from ..detectors.exact import ExactLeakyBucketDetector

        if isinstance(detector, EARDet):
            config = detector.config
            payload.update(
                {
                    "config": {
                        "rho": config.rho,
                        "n": config.n,
                        "beta_th": config.beta_th,
                        "alpha": config.alpha,
                        "virtual_unit": config.virtual_unit,
                    },
                    "store": sorted(
                        (repr(fid), value)
                        for fid, value in detector._store.items()
                    ),
                    "blacklist": sorted(
                        repr(fid) for fid in detector._blacklist
                    ),
                    "carryover_numerator": (
                        detector._carryover.remainder_scaled
                    ),
                    "last_time": detector._last_time,
                    "last_size": detector._last_size,
                    "stats": detector.stats.snapshot(),
                }
            )
        elif isinstance(detector, ExactLeakyBucketDetector):
            payload.update(
                {
                    "threshold": {
                        "gamma": detector.threshold.gamma,
                        "beta": detector.threshold.beta,
                    },
                    "buckets": sorted(
                        (
                            repr(fid),
                            bucket.level_scaled,
                            bucket.peak_scaled,
                            bucket.last_time,
                        )
                        for fid, bucket in detector._buckets.items()
                    ),
                }
            )
        return payload

    def __repr__(self) -> str:
        return (
            f"InvariantChecker(every={self.every}, "
            f"packets_seen={self.packets_seen}, "
            f"checks_run={self.checks_run})"
        )
