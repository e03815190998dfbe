"""Host-speed calibration for the timed passes.

The benchmark shares a 2-vCPU host whose speed drifts by up to 2x
within seconds and between minutes as the sibling hyperthreads' load
changes.  A fixed piece of pure-Python work owned by the benchmark
(dict, list, attribute and integer operations, the mix the simulator's
kernels run) is timed over and over while the workload runs; its time
over its nominal time is the host's slowdown factor at that moment.

:class:`HostSampler` runs that work from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall clock, so samples fall *inside* long replays,
not only between them.  A span's *calibrated* seconds are its host
seconds, less the time the handler took inside it, over the mean factor
of the samples taken inside it: its time on a host that runs the
calibration at the nominal speed.

Nothing in the simulator changes the calibration's time, so a slower
simulator still shows as lower calibrated rates; only the host's state
is divided out.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List, Tuple

#: seconds per iteration of :func:`_work` on a quiet host (Intel Xeon,
#: python 3.11)
NOMINAL_ITERATION_S = 0.30e-6
#: iterations of one sample (about 1 ms on a quiet host)
SAMPLE_ITERATIONS = 3_000
#: one sample per this much wall clock while a sampler is active
INTERVAL_S = 0.025


class _Slot:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0


def _work(iterations: int) -> int:
    table = {}
    kept = []
    slot = _Slot()
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        slot.total += key & 7
        if key & 1:
            kept.append(key)
        slot.count += len(kept) & 3
    return slot.total + slot.count


def factor(iterations: int = 20 * SAMPLE_ITERATIONS) -> float:
    """The host's current slowdown: one calibration's seconds over its
    nominal seconds."""
    start = time.perf_counter()
    _work(iterations)
    return (time.perf_counter() - start) / (iterations * NOMINAL_ITERATION_S)


class Mark:
    """Where a :class:`HostSampler` stood when a span began."""

    __slots__ = ("start", "samples", "spent")

    def __init__(self, start: float, samples: int, spent: float) -> None:
        self.start = start
        self.samples = samples
        self.spent = spent


class HostSampler:
    """Samples the host's speed from a ``SIGALRM`` handler while active.

    ``with HostSampler() as sampler:`` starts the timer; ``mark()`` opens
    a span and ``close(mark)`` returns its ``(host seconds, host
    factor)``, the seconds without the handler's own time.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.factors: List[float] = []
        self.spent = 0.0
        self._sampling = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # the next alarm came while this sample ran
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()  # a collection here is the workload's, not the host's
        start = time.perf_counter()
        _work(SAMPLE_ITERATIONS)
        seconds = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.factors.append(seconds / (SAMPLE_ITERATIONS * NOMINAL_ITERATION_S))
        self.spent += seconds
        self._sampling = False

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), len(self.factors), self.spent)

    def close(self, mark: Mark) -> Tuple[float, float]:
        """``(seconds, factor)`` of the span opened by ``mark``.

        A span too short to hold a sample takes the latest sample.
        """
        end = time.perf_counter()
        seconds = end - mark.start - (self.spent - mark.spent)
        inside = self.factors[mark.samples:]
        if inside:
            return seconds, sum(inside) / len(inside)
        return seconds, self.factors[-1] if self.factors else factor()
