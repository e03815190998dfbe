"""HMA: the HW/SW epoch-based manager (Meswani et al., HPCA 2015).

Per the paper's modelling (Sections 2, 4, 6):

* **Full Counters** — one counter per memory page, counted in hardware.
* **OS-driven migration at large intervals** — 100 ms epochs, because
  every epoch the OS must sort millions of counters and rewrite page
  tables.  The paper measured 1.2 s for a faithful sort and *granted*
  HMA a generous fixed 7 ms penalty per epoch (4.2 ms in the future-
  technology experiment).  The penalty is CPU compute; see
  ``penalty_mode`` for the two ways it can be applied.
* **No remap table** — the OS fixes page tables, so address translation
  is free at access time (the ``location`` map below is the simulated
  page table, not modelled hardware).
* **Full flexibility** — any page can go anywhere in fast memory; the
  hottest non-resident pages displace the coldest residents.

``interval_ps``/``sort_penalty_ps`` default to the paper's values;
scaled experiments pass both down proportionally (see DESIGN.md).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, Optional, Tuple

from ..common.config import (
    require_in,
    require_non_negative_int,
    require_positive_int,
)
from ..common.units import ms
from ..core.remap import PageTableRemap
from ..dram.request import BOOKKEEPING
from ..geometry import MemoryGeometry
from ..system.cache import MetadataCache
from ..system.hybrid import HybridMemory
from ..tracking.full_counters import FullCountersTracker
from .base import ComposedManager, TrackerStorage

DEFAULT_INTERVAL_PS = ms(100)
DEFAULT_SORT_PENALTY_PS = ms(7)
DEFAULT_HOT_THRESHOLD = 8
DEFAULT_MAX_MIGRATIONS = 256


class HmaManager(ComposedManager):
    """Epoch-based OS migration with full per-page counters."""

    name = "HMA"
    trigger = "epoch"
    flexibility = "global"

    def __init__(
        self,
        memory: HybridMemory,
        geometry: MemoryGeometry,
        interval_ps: int = DEFAULT_INTERVAL_PS,
        sort_penalty_ps: int = DEFAULT_SORT_PENALTY_PS,
        hot_threshold: int = DEFAULT_HOT_THRESHOLD,
        max_migrations_per_interval: int = DEFAULT_MAX_MIGRATIONS,
        counter_bits: int = 16,
        penalty_mode: str = "compute",
        cache_bytes: int = 0,
    ) -> None:
        require_positive_int("interval_ps", interval_ps)
        require_non_negative_int("sort_penalty_ps", sort_penalty_ps)
        require_positive_int("hot_threshold", hot_threshold)
        require_positive_int("max_migrations_per_interval", max_migrations_per_interval)
        require_in("penalty_mode", penalty_mode, ("compute", "stall"))
        super().__init__(memory, geometry, interval_ps=interval_ps)
        self.sort_penalty_ps = sort_penalty_ps
        self.penalty_mode = penalty_mode
        self.hot_threshold = hot_threshold
        self.max_migrations_per_interval = max_migrations_per_interval
        self.tracker = FullCountersTracker(geometry.total_pages, counter_bits=counter_bits)
        # Optional cache over the in-memory counter array (Section
        # 6.3.3): a miss injects a fill read.  Counter updates are off
        # the demand critical path, so misses add traffic but do not
        # block the triggering request.  Counters are 2 B each -> 32 per
        # cache line.
        self._cache: Optional[MetadataCache] = (
            MetadataCache(cache_bytes, entry_bytes=counter_bits // 8 or 1)
            if cache_bytes
            else None
        )
        self.counters_missed = 0
        # The simulated OS page table.  The aliases expose the policy's
        # raw dicts under the names the fast kernel and tests bind to —
        # same objects, so mutation through either view is seen by both.
        self.remap = PageTableRemap()
        self._location: Dict[int, int] = self.remap._forward
        self._resident: Dict[int, int] = self.remap._resident
        self.total_migrations = 0
        self.intervals = 0

    # -- request path ---------------------------------------------------------

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        self._tick(arrival_ps)

        page = address >> self._page_shift
        self.tracker.record(page)
        if self._cache is not None and not self._cache.lookup(page):
            self.counters_missed += 1
            self._counter_fill(page, arrival_ps)
        penalty_ps = self._block_penalty_ps(page, arrival_ps)
        frame = self._location.get(page, page)
        new_address = (frame << self._page_shift) | (address & self._page_mask)
        self.memory.access(
            new_address, is_write, arrival_ps, account_ps=arrival_ps - penalty_ps
        )

    # Only a crossed epoch boundary runs this: the final partial epoch
    # performs no migrations (``finish`` just drains the devices).  With
    # the trace over there is no future traffic for them to serve, and
    # at scaled trace lengths a finish-time burst would be accounting
    # noise (full-length runs make it negligible instead).
    def _run_boundary(self, at_ps: int) -> None:
        """Sort penalty, then migrate hot pages in, coldest pages out.

        The penalty is CPU time spent sorting counters and rewriting
        page tables.  In ``compute`` mode (default) it delays the
        epoch's migrations — the memory devices keep serving demand
        while the cores sort, matching an AMMAT metric where lost CPU
        time is not memory stall.  In ``stall`` mode the whole memory
        system blocks for the penalty (a pessimistic bound where the
        sorting cores hold off all traffic); the fig8 ablation bench
        contrasts the two.
        """
        self._issue_due_swaps(at_ps)  # previous epoch's copies settle first
        self.intervals += 1
        migrate_at = at_ps + self.sort_penalty_ps
        if self.sort_penalty_ps and self.penalty_mode == "stall":
            self.memory.block_until(migrate_at)

        counts = self.tracker.counts()
        fast_pages = self.geometry.fast_pages
        # Hot candidates: above-threshold pages whose data is in slow memory.
        candidates = [
            (count, page)
            for page, count in counts.items()
            if count >= self.hot_threshold
            and self._location.get(page, page) >= fast_pages
        ]
        candidates.sort(key=lambda pair: (-pair[0], pair[1]))
        candidates = candidates[: self.max_migrations_per_interval]
        if candidates:
            victims = self._victim_order(counts)
            # The OS performs the copies back to back after the sort; the
            # copies are paced at twice the pipelined swap cost so demand
            # keeps a share of the channels while the burst drains, and
            # each page keeps serving from its old location until its
            # copy starts (the page table flips per page, not per epoch).
            plans = []
            for count, page in candidates:
                victim = next(victims, None)
                if victim is None:
                    break  # every fast frame is already a victim
                victim_count, victim_frame = victim
                if victim_count >= count:
                    break  # every remaining resident is at least as hot
                frame = self._location.get(page, page)
                plans.append((victim_frame, frame, -1))
                self.total_migrations += 1
            self._schedule_swaps(plans, migrate_at, 2 * self.engine.page_swap_cost_ps)
        self.tracker.reset()

    def _counter_fill(self, page: int, at_ps: int) -> None:
        """Inject the backing-store read for a missed counter line."""
        assert self._cache is not None
        line = page // self._cache.entries_per_line
        store_page = line % self.geometry.fast_pages
        address = store_page * self.geometry.page_bytes + (line * 64) % self.geometry.page_bytes
        self.memory.access(address, False, at_ps, kind=BOOKKEEPING)

    def _victim_order(self, counts: Dict[int, int]) -> Iterator[Tuple[int, int]]:
        """Fast frames as ``(resident count, frame)``, coldest first.

        The order a min-heap over every fast frame would pop, without
        building one: first the frames whose resident has no count (or a
        zero one), in ascending frame order, then the counted residents'
        frames sorted by ``(count, frame)``.  Counted frames come from ``counts``
        through the page table, so an epoch costs one pass over the
        counted pages, and the uncounted frames are yielded lazily.
        """
        fast_pages = self.geometry.fast_pages
        location = self._location
        counted: Dict[int, int] = {}
        for page, count in counts.items():
            if count:
                frame = location.get(page, page)
                if frame < fast_pages:
                    counted[frame] = count
        cold = ((0, frame) for frame in range(fast_pages) if frame not in counted)
        return chain(cold, sorted((count, frame) for frame, count in counted.items()))

    def storage_components(self):
        """No remap hardware (OS page table); full counters over every page."""
        return (self.remap, TrackerStorage(self.tracker))
