"""Memory-manager protocol and shared mechanics.

A :class:`MemoryManager` owns the path between the LLC and the memory
devices: it observes every demand request, translates addresses through
whatever remapping it maintains, injects migration and bookkeeping
traffic, and enforces blocking for pages with in-flight swaps.

The shared base implements the two mechanics every manager needs:

* **page blocking** — a demand to a page whose swap (or metadata fill)
  is in flight is delayed to the swap's completion but *accounted* from
  its original arrival, so the block shows up as memory stall time in
  AMMAT (paper Section 4.3);
* **storage reporting** — each manager reports its remap-table and
  activity-tracking hardware cost for the Table 1 comparison.

Everything that moves data — the migration datapath and the paced
swap queue — lives on :class:`ComposedManager`, the skeleton every
migrating mechanism runs on; the non-migrating baselines never build
either.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Dict, Iterable, List, Optional, Tuple

from ..common.errors import MigrationError
from ..core.datapath import MigrationEngine, MigrationStats
from ..geometry import MemoryGeometry

if TYPE_CHECKING:  # annotation-only; avoids a package cycle
    from ..system.hybrid import HybridMemory


class MemoryManager(ABC):
    """Base class for every migration mechanism (and the baselines)."""

    #: short mechanism label used in reports ("MemPod", "THM", ...)
    name: str = "base"

    #: Section-4 shape of the mechanism: when migrations happen
    #: ("interval", "epoch", "threshold", "event", or "none") and where
    #: a page may migrate to ("pod", "global", "segment", "group",
    #: "single", or "none").  The fast replay kernel dispatches on this
    #: (trigger, flexibility) pair, not on the concrete class.
    trigger: ClassVar[str] = "none"
    flexibility: ClassVar[str] = "none"

    def __init__(self, memory: "HybridMemory", geometry: MemoryGeometry) -> None:
        self.memory = memory
        self.geometry = geometry
        self._blocked: Dict[int, int] = {}
        # Expiry min-heap of (until_ps, page) mirroring _blocked, so
        # expired entries for pages never demanded again are still
        # reclaimed (lazy deletion: stale heap entries whose page was
        # re-blocked later no longer match the dict and are skipped).
        self._blocked_expiry: List[Tuple[int, int]] = []
        self.blocked_hits = 0

    # -- request path -----------------------------------------------------

    @abstractmethod
    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        """Process one demand request from the trace."""

    def finish(self) -> int:
        """Drain the devices at the end of the trace; returns the latest
        completion."""
        return self.memory.flush()

    # -- blocking ----------------------------------------------------------

    def blocked_columns(self) -> Tuple[List[int], List[int]]:
        """Sorted ``(pages, untils)`` snapshot of the block table.

        No replay kernel calls this: every kernel reads the live block
        table per record.  It stays only because the benchmark's layer
        list (``perfbench/layers.py``) wraps it by name.
        """
        items = sorted(self._blocked.items())
        return [page for page, _ in items], [until for _, until in items]

    def _block_page(self, page: int, until_ps: int) -> None:
        """Mark ``page`` unavailable until ``until_ps`` (swap in flight)."""
        current = self._blocked.get(page, 0)
        if until_ps > current:
            self._blocked[page] = until_ps
            heapq.heappush(self._blocked_expiry, (until_ps, page))

    def _block_penalty_ps(self, page: int, arrival_ps: int) -> int:
        """Stall a demand to ``page`` suffers from an in-flight swap.

        Returns ``max(0, block_end - arrival)``.  Callers charge the
        penalty by issuing the request at its true arrival with
        ``account_ps = arrival - penalty`` — the wait shows up in the
        AMMAT numerator without pushing a future timestamp into the
        controllers (which would convoy the channel for unrelated
        traffic).  Every block that expired by ``arrival_ps`` is pruned
        first, whichever page it covers: a page blocked once and never
        demanded again would otherwise stay in the table forever, so
        the table size stays bounded by the number of genuinely
        in-flight blocks.  Amortised O(1) per call: each heap entry is
        popped exactly once.
        """
        heap = self._blocked_expiry
        blocked = self._blocked
        while heap and heap[0][0] <= arrival_ps:
            until_ps, expired = heapq.heappop(heap)
            if blocked.get(expired) == until_ps:
                del blocked[expired]
        until = blocked.get(page)
        if until is None:
            return 0
        if until <= arrival_ps:
            del blocked[page]
            return 0
        self.blocked_hits += 1
        return until - arrival_ps

    # -- reporting ----------------------------------------------------------

    @property
    def migration_stats(self) -> MigrationStats:
        """Traffic moved by this manager's datapath: none, unless a
        :class:`ComposedManager` migrates."""
        return MigrationStats()

    def storage_report(self) -> Dict[str, int]:
        """Hardware state in bits: ``{"remap_bits": ..., "tracking_bits": ...}``.

        Baselines carry no state; mechanisms override.
        """
        return {"remap_bits": 0, "tracking_bits": 0}


class TrackerStorage:
    """Adapter pricing an :class:`~repro.tracking.base.ActivityTracker`
    as a storage component (trackers report a plain bit count)."""

    def __init__(self, tracker) -> None:
        self.tracker = tracker

    def storage_bits(self) -> Dict[str, int]:
        return {"remap_bits": 0, "tracking_bits": self.tracker.storage_bits()}


class ComposedManager(MemoryManager):
    """Execution skeleton shared by every migrating mechanism.

    The paper's Section 4 decomposes a migration mechanism into five
    building blocks; this class owns the glue between them so concrete
    managers only supply the blocks themselves:

    * **trigger** — boundary-triggered managers (interval/epoch) call
      :meth:`_tick` at the top of ``handle``: it runs every elapsed
      boundary through the :meth:`_run_boundary` hook, then applies the
      paced copies that have come due.  Inline-triggered managers
      (threshold/event) skip the tick and migrate from their own
      ``handle``.
    * **remap table** — a :class:`~repro.core.remap.RemapTable` policy
      in ``self.remap``; :meth:`_swap_remap` is the override point for
      mechanisms whose table is sharded (MemPod keeps one per pod).
    * **datapath** — ``self.engine``, a
      :class:`~repro.core.datapath.MigrationEngine`, plus the paced swap
      queue (:meth:`_schedule_swaps`, :meth:`_issue_due_swaps`, drained
      by :meth:`finish`); the shared :meth:`_apply_swap` applies one
      scheduled copy in the canonical order: check the tier pair, flip
      the remap entries, move the data, block both in-flight pages for
      the copy window.
    * **storage reporting** — :meth:`storage_report` sums the
      dict-valued ``storage_bits()`` of every component yielded by
      :meth:`storage_components`, so Table 1 costs follow the actual
      composition instead of a hand-maintained formula.
    """

    #: Tier index pairs whose pages this mechanism may swap, as ordered
    #: (low, high) pairs.  Same-tier exchanges are always legal — a
    #: composed remap routinely exchanges two frames of one tier when
    #: evicting.  ``build_manager`` overwrites this with the spec's
    #: declared legality; the default is the classic fast<->slow pair.
    swap_tiers: Tuple[Tuple[int, int], ...] = ((0, 1),)

    def __init__(
        self,
        memory: "HybridMemory",
        geometry: MemoryGeometry,
        interval_ps: Optional[int] = None,
    ) -> None:
        super().__init__(memory, geometry)
        self.engine = MigrationEngine(memory, geometry)
        # Scheduled page copies: a min-heap of (issue_ps, seq, frame_a,
        # frame_b, pod), drained as simulated time passes each issue
        # time.  A heap (not FIFO) because pods schedule their interval
        # plans independently, so issue times interleave across pods.
        self._swap_queue: List[Tuple[int, int, int, int, int]] = []
        self._swap_seq = 0
        self.interval_ps = interval_ps
        self._next_boundary_ps = interval_ps
        self._page_shift = (geometry.page_bytes - 1).bit_length()
        self._page_mask = geometry.page_bytes - 1

    # -- trigger -----------------------------------------------------------

    def _tick(self, arrival_ps: int) -> None:
        """Advance simulated time to ``arrival_ps``: run every elapsed
        boundary, then issue the paced copies that have come due."""
        while arrival_ps >= self._next_boundary_ps:
            self._run_boundary(self._next_boundary_ps)
            self._next_boundary_ps += self.interval_ps
        self._issue_due_swaps(arrival_ps)

    def _run_boundary(self, at_ps: int) -> None:
        """Plan one boundary's migrations (interval/epoch triggers)."""
        raise NotImplementedError(
            f"{type(self).__name__} has trigger={self.trigger!r} but no "
            "_run_boundary; boundary-triggered managers must implement it"
        )

    def finish(self) -> int:
        """Complete outstanding work at the end of the trace.

        Issues any still-scheduled copies (their remap effects are
        already visible, so the traffic must exist), then drains the
        devices.
        """
        self._issue_due_swaps(None)
        return super().finish()

    # -- paced swap issuance -------------------------------------------------
    #
    # Interval-triggered managers decide a batch of swaps at a boundary
    # but a real migration driver paces the copies so demand keeps
    # flowing; pages stay served from their *old* location until their
    # copy actually starts.  The queue holds (issue_ps, seq, frame_a,
    # frame_b, pod) in issue order; _apply_swap performs the
    # manager-specific remap update, the data movement, and the
    # copy-window blocking at issue time.

    def _schedule_swaps(self, pairs, start_ps: int, spacing_ps: int) -> None:
        """Queue frame-pair copies at ``start_ps + k * spacing_ps``.

        ``pairs`` is an iterable of ``(frame_a, frame_b, pod)``; pairs
        within one batch must be frame-disjoint so deferred application
        commutes with planning.
        """
        issue_ps = start_ps
        for frame_a, frame_b, pod in pairs:
            heapq.heappush(
                self._swap_queue, (issue_ps, self._swap_seq, frame_a, frame_b, pod)
            )
            self._swap_seq += 1
            issue_ps += spacing_ps

    def _issue_due_swaps(self, now_ps) -> None:
        """Apply every scheduled copy due by ``now_ps`` (all, if None)."""
        queue = self._swap_queue
        while queue and (now_ps is None or queue[0][0] <= now_ps):
            issue_ps, _, frame_a, frame_b, pod = heapq.heappop(queue)
            self._apply_swap(frame_a, frame_b, pod, issue_ps)

    def _check_swap_tiers(self, frame_a: int, frame_b: int) -> "tuple[int, int]":
        """Enforce the spec's migration legality on one frame pair.

        Returns the ``(source, destination)`` tier indices of the two
        frames; a cross-tier pair outside :attr:`swap_tiers` raises
        :class:`~repro.common.errors.MigrationError` (the sanitizer
        additionally proves the remap tables stay closed over the legal
        pairs).
        """
        geometry = self.geometry
        tier_a = geometry.page_tier(frame_a)
        tier_b = geometry.page_tier(frame_b)
        if tier_a != tier_b:
            pair = (tier_a, tier_b) if tier_a < tier_b else (tier_b, tier_a)
            if pair not in self.swap_tiers:
                raise MigrationError(
                    f"{self.name}: frames {frame_a} (tier {tier_a}) and "
                    f"{frame_b} (tier {tier_b}) form an illegal swap pair; "
                    f"legal cross-tier pairs: {self.swap_tiers}"
                )
        return tier_a, tier_b

    # -- datapath ----------------------------------------------------------

    def _swap_remap(self, frame_a: int, frame_b: int, pod: int) -> Tuple[int, int]:
        """Flip the remap entries for one copy; returns the two pages
        whose data is in flight.  Sharded tables override."""
        return self.remap.swap_frames(frame_a, frame_b)

    def remap_columns(self) -> Tuple[List[int], List[int]]:
        """Sorted ``(pages, frames)`` snapshot of the forward remap.

        Only remapped pages appear — absence means identity, exactly as
        the sparse table's ``get(page) is None`` test does.  Like
        :meth:`MemoryManager.blocked_columns`, no replay kernel calls
        this; it stays only because the benchmark's layer list
        (``perfbench/layers.py``) wraps it by name.
        """
        items = sorted(self.remap._forward.items())
        return [page for page, _ in items], [frame for _, frame in items]

    def _apply_swap(self, frame_a: int, frame_b: int, pod: int, issue_ps: int) -> int:
        """Apply one paced copy: remap, move data, block the copy window."""
        self._check_swap_tiers(frame_a, frame_b)
        page_a, page_b = self._swap_remap(frame_a, frame_b, pod)
        completion = self.engine.swap_pages(frame_a, frame_b, issue_ps, pod=pod)
        self._block_page(page_a, completion)
        self._block_page(page_b, completion)
        return completion

    # -- reporting ----------------------------------------------------------

    @property
    def migration_stats(self) -> MigrationStats:
        return self.engine.stats

    def storage_components(self) -> Iterable:
        """Components with dict-valued ``storage_bits()`` to price."""
        return ()

    def storage_report(self) -> Dict[str, int]:
        report = {"remap_bits": 0, "tracking_bits": 0}
        for component in self.storage_components():
            bits = component.storage_bits()
            report["remap_bits"] += bits["remap_bits"]
            report["tracking_bits"] += bits["tracking_bits"]
        return report
