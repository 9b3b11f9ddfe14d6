"""Per-layer tracing from outside the program.

:func:`install` replaces the public entry points of each layer with
timing wrappers in the benchmark's replay process; nothing under
``src/`` changes.  Spans nest: a layer's *self* time is its
span's duration minus the time of spans opened inside it, so the self
times of all layers partition the traced time without double counting.

Layer names (the prefix of each per-layer metric):

==================  ==========================================================
``decode``          ``trace_io.read_binary`` (the whole ``.ert`` decode)
``validate``        ``StreamValidator.iter_validated``, per pulled packet
``source``          the source's batching around decode/validate
``route``           ``FlowRouter.__call__``
``engine``          ``InProcessEngine`` ingest/flush/pump/snapshot, self time
``ship``            ``MultiprocessEngine`` ingest/flush/snapshot, self time
``observe``         ``EARDet.observe``; self time is detect + blacklist upkeep
``virtual``         ``apply_virtual_traffic`` as ``EARDet.__init__`` binds it
``counters``        ``HeapCounterStore`` increment/insert/decrement_all/min_value
``watcher``         ``WatcherStage.observe``
``telemetry``       ``ServiceInstruments`` on_*/sync_*/set_* methods
``checkpoint``      ``write_checkpoint`` as the service runtime calls it
``restore``         ``DetectionService.resume``
==================  ==========================================================
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, Tuple

import yardstick


class Tracer:
    """Self-time, call and nesting counters for nested spans.

    A span costs time of its own: part falls inside the span's clock
    window (``inner``), part outside it but inside its parent's
    (``outer``).  :meth:`span_cost` estimates both on a no-op function;
    the benchmark subtracts ``calls * inner`` from a layer's self time
    and ``nested * outer`` (``nested`` counts the spans opened directly
    inside the layer's spans) to approximate the untraced program.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.nested: Dict[str, int] = defaultdict(int)
        # Per open span: time and number of the spans closed inside it.
        self._children = [0]
        self._kids = [0]

    @classmethod
    def span_cost(cls, rounds: int = 20_000, trials: int = 7) -> Tuple[float, float]:
        """``(inner, outer)`` cost of one span in calibrated nanoseconds,
        measured on a no-op function: medians over ``trials``, each
        calibrated by the yardstick samples around it."""
        clock = time.perf_counter_ns

        def noop(*args, **kwargs):
            return None

        def loop(fn):
            for _ in range(rounds):
                fn(None)

        inner, outer = [], []
        for _ in range(trials):
            probe = cls()
            child = probe.wrap("child", noop)
            before = yardstick.sample()
            started = clock()
            loop(noop)
            base = clock() - started
            started = clock()
            loop(child)
            wrapped = clock() - started
            factor = yardstick.REFERENCE_NS * 2 / (before + yardstick.sample())
            span_inner = (probe.self_ns["child"] - base) / rounds
            inner.append(span_inner * factor)
            outer.append(((wrapped - base) / rounds - span_inner) * factor)
        return (
            max(0.0, statistics.median(inner)),
            max(0.0, statistics.median(outer)),
        )

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        children, kids = self._children, self._kids
        self_ns, nested, calls = self.self_ns, self.nested, self.calls
        total_ns = self.total_ns

        def traced(*args, **kwargs):
            children.append(0)
            kids.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - children.pop()
                nested[name] += kids.pop()
                total_ns[name] += elapsed
                calls[name] += 1
                children[-1] += elapsed
                kids[-1] += 1

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_iter(self, name: str, iterator: Iterator) -> Iterator:
        """Time every ``next()`` of ``iterator`` as one span of ``name``."""
        clock = time.perf_counter_ns
        children, kids = self._children, self._kids
        self_ns, nested, calls = self.self_ns, self.nested, self.calls
        total_ns = self.total_ns
        while True:
            children.append(0)
            kids.append(0)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - children.pop()
                nested[name] += kids.pop()
                total_ns[name] += elapsed
                calls[name] += 1
                children[-1] += elapsed
                kids[-1] += 1
            yield item

    def wrap_gen_method(self, name: str, method: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.wrap_iter(name, method(*args, **kwargs))

        return traced

    def snapshot(self) -> Dict[str, int]:
        return dict(self.self_ns)


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every layer's entry points; returns a function undoing it."""
    from repro.core import eardet as eardet_module
    from repro.core.counters import HeapCounterStore
    from repro.core.eardet import EARDet
    from repro.guard.validator import StreamValidator
    from repro.service import runtime
    from repro.service.engine import FlowRouter, InProcessEngine
    from repro.service.pipeline import WatcherStage
    from repro.service.workers import MultiprocessEngine
    from repro.telemetry.instruments import ServiceInstruments
    from repro.traffic import trace_io

    undo = []

    def patch(owner, attr: str, name: str, generator: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__))
        elif generator:
            wrapped = tracer.wrap_gen_method(name, original)
        else:
            wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    patch(trace_io, "read_binary", "decode")
    patch(StreamValidator, "iter_validated", "validate", generator=True)
    patch(FlowRouter, "__call__", "route")
    for attr in ("ingest", "flush", "pump", "snapshot"):
        patch(InProcessEngine, attr, "engine")
    for attr in ("ingest", "flush", "snapshot"):
        patch(MultiprocessEngine, attr, "ship")
    # EARDet inherits observe from Detector; patch it on EARDet only, so
    # watchers (other Detector subclasses) are not counted here.
    EARDet.observe = tracer.wrap("observe", EARDet.observe)
    undo.append((EARDet, "observe", None))
    patch(eardet_module, "apply_virtual_traffic", "virtual")
    for attr in ("increment", "insert", "decrement_all", "min_value"):
        patch(HeapCounterStore, attr, "counters")
    patch(WatcherStage, "observe", "watcher")
    for attr, value in list(vars(ServiceInstruments).items()):
        if callable(value) and attr.startswith(("on_", "sync_", "set_")):
            patch(ServiceInstruments, attr, "telemetry")
    patch(runtime, "write_checkpoint", "checkpoint")
    patch(runtime.DetectionService, "resume", "restore")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return uninstall
