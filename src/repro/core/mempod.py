"""The MemPod manager: clustered, interval-based page migration.

Implements the paper's Section 5 design on top of the substrates:

* requests are routed to the Pod owning their (original) page — the
  pod partition follows channel ownership (Figure 4);
* each Pod tracks activity with its own K-counter MEA unit and, every
  ``interval_ps`` (50 us by default), migrates up to K hot pages into
  its fast channels, evicting non-hot residents found by a sequential
  scan;
* migrations are pod-local: the swap traffic touches only the Pod's
  member controllers, all Pods migrate in parallel, and demands to
  in-flight pages block until the swap completes;
* optionally, remap-table lookups go through a per-pod metadata cache
  (Section 6.3.3): a miss injects a ``BOOKKEEPING`` read into the Pod's
  fast channels and blocks the affected page until the fill returns.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import require_positive_int
from ..dram.request import BOOKKEEPING
from ..common.units import us
from ..geometry import MemoryGeometry
from ..managers.base import ComposedManager
from ..system.cache import MetadataCache
from ..system.hybrid import HybridMemory
from .pod import Pod

DEFAULT_INTERVAL_PS = us(50)
DEFAULT_MEA_COUNTERS = 64
DEFAULT_COUNTER_BITS = 2
REMAP_ENTRY_BYTES = 4


class MemPodManager(ComposedManager):
    """Clustered migration manager (the paper's contribution)."""

    name = "MemPod"
    trigger = "interval"
    flexibility = "pod"

    def __init__(
        self,
        memory: HybridMemory,
        geometry: MemoryGeometry,
        interval_ps: int = DEFAULT_INTERVAL_PS,
        mea_counters: int = DEFAULT_MEA_COUNTERS,
        mea_counter_bits: int = DEFAULT_COUNTER_BITS,
        mea_min_count: int = 2,
        cache_bytes: int = 0,
    ) -> None:
        require_positive_int("interval_ps", interval_ps)
        super().__init__(memory, geometry, interval_ps=interval_ps)
        self.pods: List[Pod] = [
            Pod(
                pod_id,
                geometry,
                self.engine,
                mea_counters=mea_counters,
                mea_counter_bits=mea_counter_bits,
                mea_min_count=mea_min_count,
            )
            for pod_id in range(geometry.pods)
        ]
        # Per-pod remap caches; the paper splits the budget evenly.
        self._caches: Optional[List[MetadataCache]] = None
        if cache_bytes:
            per_pod = max(64, cache_bytes // geometry.pods)
            self._caches = [
                MetadataCache(per_pod, entry_bytes=REMAP_ENTRY_BYTES)
                for _ in range(geometry.pods)
            ]
        # Hot-path constants: the pod-of-page computation is inlined in
        # handle() (geometry.page_pod validates bounds per call, which
        # is wasted work for trace-validated addresses).
        self._fast_pages = geometry.fast_pages
        self._ppr = geometry.pages_per_row
        self._fast_chan = geometry.fast_channels
        self._fast_cpp = geometry.fast_channels_per_pod
        self._slow_chan = geometry.slow_channels
        self._slow_cpp = geometry.slow_channels_per_pod

    # -- request path -------------------------------------------------------

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        self._tick(arrival_ps)

        page = address >> self._page_shift
        if page < self._fast_pages:
            pod_id = (page // self._ppr) % self._fast_chan // self._fast_cpp
        else:
            pod_id = (
                ((page - self._fast_pages) // self._ppr) % self._slow_chan
            ) // self._slow_cpp
        pod = self.pods[pod_id]
        pod.observe(page)

        penalty_ps = self._block_penalty_ps(page, arrival_ps)
        if self._caches is not None:
            penalty_ps += self._remap_lookup(pod, page, arrival_ps)
        frame = pod.translate(page)
        new_address = (frame << self._page_shift) | (address & self._page_mask)
        self.memory.access(
            new_address, is_write, arrival_ps, account_ps=arrival_ps - penalty_ps
        )

    def _run_boundary(self, at_ps: int) -> None:
        """Plan each pod's migrations; pace the copies over the interval.

        All pods migrate in parallel (each drives only its own member
        channels), so each pod's plan is spread over the *full* interval
        independently.  Any copies still queued from the previous
        interval are applied first so planning sees current remap state.
        """
        self._issue_due_swaps(at_ps)
        for pod in self.pods:
            plans = pod.plan_interval(at_ps)
            if not plans:
                continue
            spacing = max(
                self.engine.page_swap_cost_ps, self.interval_ps // (len(plans) + 1)
            )
            self._schedule_swaps(
                [(victim, frame, pod.pod_id) for victim, frame in plans],
                at_ps,
                spacing,
            )

    def _swap_remap(self, frame_a: int, frame_b: int, pod: int) -> "tuple[int, int]":
        """MemPod shards its remap table per pod; flip the owning shard."""
        return self.pods[pod].remap.swap_frames(frame_a, frame_b)

    def _remap_lookup(self, pod: Pod, page: int, at_ps: int) -> int:
        """Consult the pod's remap cache; return the miss penalty in ps.

        The backing store lives in the pod's own fast channels (the
        paper partitions a slice of stacked memory for it).  The fill's
        address is derived from the entry index so consecutive entries
        show the spatial locality a real table layout would.  A miss
        injects the fill read and blocks the page for one fast-memory
        access time.
        """
        cache = self._caches[pod.pod_id]  # type: ignore[index]
        if cache.lookup(page):
            return 0
        geometry = self.geometry
        line = page // cache.entries_per_line
        slot = line % geometry.fast_pages_per_pod
        store_page = geometry.pod_fast_slot_to_page(pod.pod_id, slot)
        store_address = store_page * geometry.page_bytes + (line * 64) % geometry.page_bytes
        self.memory.access(store_address, False, at_ps, kind=BOOKKEEPING)
        timing = self.memory.fast.timing
        fill_cost = timing.trcd_ps + timing.tcas_ps + timing.burst_ps(64)
        self._block_page(page, at_ps + fill_cost)
        return fill_cost

    # -- reporting -------------------------------------------------------------

    @property
    def total_migrations(self) -> int:
        """Page swaps across all pods."""
        return sum(pod.migrations for pod in self.pods)

    def migrations_per_pod_interval(self) -> float:
        """Average swaps per pod per interval (Figure 7's secondary axis)."""
        intervals = sum(pod.intervals for pod in self.pods)
        if not intervals:
            return 0.0
        return self.total_migrations / intervals

    def cache_miss_rate(self) -> float:
        """Aggregate remap-cache miss rate (0.0 when caches are off)."""
        if not self._caches:
            return 0.0
        hits = sum(c.hits for c in self._caches)
        misses = sum(c.misses for c in self._caches)
        total = hits + misses
        return misses / total if total else 0.0

    def storage_components(self):
        """One component per pod: each prices its remap shard + MEA unit."""
        return self.pods
