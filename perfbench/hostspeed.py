"""Host-speed calibration: a fixed pure-Python kernel timed inside each worker.

The hosts this benchmark runs on share their cores, and their speed
drifts by 10-25% over minutes, moving every host time (import time
included) together.  The kernel below does what the simulator's hot path
does — generator resumes, heap pushes and pops of ``(time, seq, event)``
tuples, small ``__slots__`` objects, dict updates — on a fixed input, so
its time tracks the speed of the core the worker runs on and never the
repository's code.  Each worker times it just before and just after its
cold study; ``run.py`` scales host times by
``REFERENCE_KERNEL_S / median kernel time`` of the run, i.e. reports
seconds on a host that runs the kernel in ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import heapq
import time

REFERENCE_KERNEL_S = 0.04
"""Kernel time on the idle host the benchmark was tuned on; a fixed
scale, never re-measured."""

KERNEL_EVENTS = 24_000


class _Event:
    __slots__ = ("fire_s", "process", "tag")

    def __init__(self, fire_s: float, process, tag: int):
        self.fire_s = fire_s
        self.process = process
        self.tag = tag


def _kernel(n_events: int) -> int:
    queue: list = []
    totals: dict[int, float] = {}
    finished: list = []

    def process(index: int):
        acc = 0.0
        for step in range(6):
            now = yield ((index * 31 + step * 7) % 17 + 1) * 1e-6
            acc += now
            totals[index % 97] = totals.get(index % 97, 0.0) + now
        finished.append((index, acc))

    sequence = 0
    for index in range(n_events // 6):
        gen = process(index)
        delay = next(gen)
        sequence += 1
        heapq.heappush(queue, (delay, sequence, _Event(delay, gen, index)))
    while queue:
        now, _, event = heapq.heappop(queue)
        try:
            delay = event.process.send(now)
        except StopIteration:
            continue
        sequence += 1
        heapq.heappush(queue, (now + delay, sequence,
                               _Event(now + delay, event.process, event.tag)))
    return len(finished)


def kernel_samples(repeats: int = 2) -> list[float]:
    """Seconds taken by each of ``repeats`` runs of the kernel."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel(KERNEL_EVENTS)
        samples.append(time.perf_counter() - start)
    return samples
