"""The Majority Element Algorithm tracker (paper Section 3, Algorithm 1).

MEA (Misra-Gries / Karp et al. frequent-items) keeps a map of at most
``K`` page IDs to counters:

* access to a tracked page increments its counter,
* access to an untracked page claims a free counter with value 1,
* if no counter is free, **every** counter is decremented and zeroed
  entries are evicted (the arriving page is *not* inserted).

Two hardware-motivated details from the paper:

* **Saturating counters.** A real counter has a fixed width; the paper
  sweeps 1-16 bits and finds 2 bits *best* at 50 us intervals
  (Figure 7a).  Saturation is what makes small counters favour recency:
  a long-hot page cannot bank an arbitrarily large count, so a freshly
  hot page can displace it within a few decrement rounds.
* **Capacity.** Algorithm 1 as printed inserts while ``|T| < K-1``,
  leaving one of the K counters permanently idle — an off-by-one
  inherited from Misra-Gries' "k-1 counters find k-majorities"
  formulation.  Hardware with K counters uses all K, so this
  implementation inserts while ``|T| < K``; a ``strict_paper_capacity``
  flag reproduces the printed variant for side-by-side study.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..common.config import require_positive_int
from .base import ActivityTracker

try:  # only to accept ndarray batches; the tracker itself is pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


class MeaTracker(ActivityTracker):
    """Majority-Element-Algorithm hot-page tracker.

    Parameters
    ----------
    capacity:
        Number of counters, ``K`` (paper default: 64 per Pod).
    counter_bits:
        Saturating counter width (paper default: 2).
    tag_bits:
        Page-ID tag width, used only for the storage-cost report
        (21 bits addresses the paper's 1.1 M pages per Pod).
    strict_paper_capacity:
        Insert only while ``|T| < K-1`` (Algorithm 1 exactly as
        printed) instead of the hardware-natural ``|T| < K``.
    min_count:
        :meth:`hot_pages` only nominates entries whose counter is at
        least this value.  The default of 1 returns the whole table
        (Algorithm 1 as printed); the MemPod manager uses 2 so a page
        touched exactly once at the end of an interval does not earn a
        whole 128-transaction swap (an ablation bench quantifies this
        choice).
    """

    def __init__(
        self,
        capacity: int = 64,
        counter_bits: int = 2,
        tag_bits: int = 21,
        strict_paper_capacity: bool = False,
        min_count: int = 1,
    ) -> None:
        require_positive_int("capacity", capacity)
        require_positive_int("counter_bits", counter_bits)
        require_positive_int("tag_bits", tag_bits)
        require_positive_int("min_count", min_count)
        self.capacity = capacity
        self.counter_bits = counter_bits
        self.tag_bits = tag_bits
        self.min_count = min_count
        self._insert_limit = capacity - 1 if strict_paper_capacity else capacity
        self._max_count = (1 << counter_bits) - 1
        self._table: Dict[int, int] = {}
        # Aggregate event counters, useful for tests and ablations.
        self.increments = 0
        self.insertions = 0
        self.decrement_rounds = 0
        self.evictions = 0

    def record(self, page: int) -> None:
        table = self._table
        count = table.get(page)
        if count is not None:
            if count < self._max_count:
                table[page] = count + 1
            self.increments += 1
        elif len(table) < self._insert_limit:
            table[page] = 1
            self.insertions += 1
        else:
            # Decrement-all round: hardware does this in one cycle with
            # parallel subtractors; the arriving page is dropped.
            self.decrement_rounds += 1
            dead = []
            for tracked, value in table.items():
                if value == 1:
                    dead.append(tracked)
                else:
                    table[tracked] = value - 1
            for tracked in dead:
                del table[tracked]
            self.evictions += len(dead)

    def record_batch(self, pages: Sequence[int]) -> None:
        """Replay :meth:`record` over every page of ``pages``, in order.

        The per-record semantics with the table and counters hoisted
        into locals.  An ndarray batch is converted first so table keys
        stay plain ints.
        """
        if _np is not None and isinstance(pages, _np.ndarray):
            pages = pages.tolist()
        table = self._table
        limit = self._insert_limit
        max_count = self._max_count
        increments = 0
        insertions = 0
        decrement_rounds = 0
        evictions = 0
        for page in pages:
            count = table.get(page)
            if count is not None:
                if count < max_count:
                    table[page] = count + 1
                increments += 1
            elif len(table) < limit:
                table[page] = 1
                insertions += 1
            else:
                decrement_rounds += 1
                dead = []
                for tracked, value in table.items():
                    if value == 1:
                        dead.append(tracked)
                    else:
                        table[tracked] = value - 1
                for tracked in dead:
                    del table[tracked]
                evictions += len(dead)
        self.increments += increments
        self.insertions += insertions
        self.decrement_rounds += decrement_rounds
        self.evictions += evictions

    def hot_pages(self) -> List[int]:
        """Tracked pages, highest counter first (ties: lower page first).

        Deterministic ordering matters: the migration loop consumes the
        hottest first and may run out of interval budget.  Entries below
        ``min_count`` are withheld (see the constructor).
        """
        threshold = self.min_count
        return [
            page
            for page, count in sorted(
                self._table.items(), key=lambda kv: (-kv[1], kv[0])
            )
            if count >= threshold
        ]

    def counters(self) -> Dict[int, int]:
        """A snapshot of the page -> counter map (copy; test support)."""
        return dict(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, page: int) -> bool:
        return page in self._table

    def reset(self) -> None:
        """Drop all entries (interval boundary)."""
        self._table.clear()

    def storage_bits(self) -> int:
        """K x (tag + counter) bits — 736 B for the paper's 4x64x(21+2)."""
        return self.capacity * (self.tag_bits + self.counter_bits)
