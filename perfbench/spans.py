"""Span tracer that wraps the simulator's public functions from outside.

Nothing inside ``src/`` is instrumented: :meth:`Tracer.patch` replaces
a named function or method with a :meth:`Tracer.wrap` timing wrapper,
and :meth:`Tracer.restore` puts every original back.

Every wrapped call is a span with a name, start, end and parent.  Spans
nest on one stack (the simulator is single-threaded), so a span's self
time is its duration minus the time its direct children cover, and the
self times of all spans under a root add up to the root's duration.
Counts and times are aggregated per span name as calls complete.  Only
spans named in ``keep`` are also stored one by one: the per-transaction
controller entry points run hundreds of thousands of times per replay,
and storing each of those would cost more memory than the replay.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns


class Aggregate:
    """Calls, total and self nanoseconds of every span with one name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Records nested spans around wrapped callables.

    ``keep(name)`` decides which spans are stored individually (the
    rest are only aggregated).  ``dispatch_reasons`` and ``managers``
    collect what the wrapped ``select_kernel`` and ``build_manager``
    returned, so a traced pass can report dispatch and read
    controller-side counters that the ``SimulationResult`` omits.
    """

    def __init__(self, keep: Callable[[str], bool] = lambda name: True) -> None:
        self.keep = keep
        self.aggregates: Dict[str, Aggregate] = {}
        #: stored spans: (span id, name, start ns, end ns, parent id)
        self.spans: List[Tuple[int, str, int, int, int]] = []
        #: open frames: [span id, name, start ns, child ns]
        self._stack: List[list] = []
        self._next_id = 1
        self.dispatch_reasons: List[str] = []
        self.managers: List[object] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, _clock(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        agg.calls += 1
        agg.total_ns += duration
        agg.self_ns += duration - child_ns
        if self.keep(name):
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent is not None else 0)
            )

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a root or a phase)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: "str | Callable[..., str]", func: Callable) -> Callable:
        """``func`` inside a span; ``name`` may be computed from the args."""
        enter, exit_ = self._enter, self._exit
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            frame = enter(name if fixed else name(*args, **kwargs))
            try:
                return func(*args, **kwargs)
            finally:
                exit_(frame)

        traced.__wrapped__ = func
        return traced

    # -- patching --------------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`restore` puts the original back.

        For classes the original is read from the class's own
        ``__dict__``, so an inherited method is restored by deleting the
        override rather than by copying the base function down.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _MISSING)
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg.calls if agg is not None else 0

    def total_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.total_ns / 1e9 if agg is not None else 0.0

    def self_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.self_ns / 1e9 if agg is not None else 0.0

    def total_self_s(self, exclude: Optional[str] = None) -> float:
        """Self time summed over every span name except ``exclude``."""
        return sum(
            agg.self_ns for name, agg in self.aggregates.items() if name != exclude
        ) / 1e9

    def dump(self, path) -> None:
        """Write the stored spans and the per-name aggregates as JSON."""
        payload = {
            "spans": [
                {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "aggregates": {
                name: {
                    "calls": agg.calls,
                    "total_s": agg.total_ns / 1e9,
                    "self_s": agg.self_ns / 1e9,
                }
                for name, agg in sorted(self.aggregates.items())
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)


_MISSING = object()
