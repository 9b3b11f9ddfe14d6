"""Machine-speed yardstick: a fixed stdlib-only loop timed beside every batch.

The loop mixes the operations the detector's hot path is made of — dict
get/set, tuple allocation, ``heapq`` push/pop and integer arithmetic — so
its run time moves with the host's speed for that kind of code.  It
imports nothing from ``repro``: no change to the program under test can
move the yardstick.

A measured time ``t`` taken beside a yardstick sample ``c`` is reported
in *calibrated* units as ``t * REFERENCE_NS / c``: what ``t`` would have
been on a host where one sample takes ``REFERENCE_NS``.
"""

from __future__ import annotations

import heapq
import time

#: Loop iterations per sample (~0.3 ms on the reference host).
ROUNDS = 300

#: Median sample time on the reference host — a shared 2-core x86-64 VM
#: running Python 3.11 — taken beside the benchmark's batches, in
#: nanoseconds.  Calibrated metrics are scaled to this value; changing it
#: rescales every calibrated figure, so it is fixed once here.
REFERENCE_NS = 330_000


def _loop(rounds: int) -> int:
    table: dict = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(rounds):
        key = (i * 7) & 127
        value = table.get(key, 0) + ((i * 2654435761) & 0xFFFF)
        table[key] = value
        push(heap, (value, i))
        if len(heap) > 64:
            acc += pop(heap)[0] % 1000
    return acc


def sample() -> int:
    """Time one yardstick loop; returns nanoseconds."""
    started = time.perf_counter_ns()
    _loop(ROUNDS)
    return time.perf_counter_ns() - started


if __name__ == "__main__":
    import statistics

    values = sorted(sample() for _ in range(2000))
    print(
        f"yardstick: median {statistics.median(values) / 1e3:.1f} us, "
        f"p10 {values[200] / 1e3:.1f} us, p90 {values[1800] / 1e3:.1f} us "
        f"(reference {REFERENCE_NS / 1e3:.1f} us)"
    )
