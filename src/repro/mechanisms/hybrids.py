"""Novel mechanisms composed from the canonical building blocks.

Neither of these exists in the paper; both are new points in the
Section-4 design space assembled from pieces the five paper mechanisms
already use, which is exactly what the spec registry is for:

* ``hma-mea`` (:class:`TrackedEpochManager`) — HMA's epoch trigger and
  global flexibility, but activity tracking comes from a single MEA
  unit instead of full per-page counters.  The MEA's hot list is tiny
  and already ordered, so the mechanism drops HMA's counter-sort
  penalty and almost all of its tracking storage; the cost is MEA's
  bounded view of the access stream.
* ``thm-pods`` (:class:`PodThmManager`) — a :class:`ThmManager`
  subclass: THM's competing-counter threshold trigger, but segments are
  drawn *within a pod*, so every swap stays pod-local and is credited
  with MemPod's cheap pod-local interconnect hop instead of a global
  traversal.

Both shapes are novel to the fast-kernel dispatcher: ``hma-mea``
shares HMA's (epoch, global) shape but is not the canonical class, and
(threshold, pod) matches no table row — either way
:func:`repro.kernel.replay.select_kernel` refuses a specialised kernel
and the simulator falls back to the bit-accurate reference loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..common.config import require_positive_int
from ..common.units import us
from ..core.remap import PageTableRemap
from ..geometry import MemoryGeometry
from ..managers.base import ComposedManager, TrackerStorage
from ..managers.thm import ThmManager
from ..system.hybrid import HybridMemory
from ..tracking.mea import MeaTracker
from .registry import register_mechanism
from .spec import MechanismSpec

DEFAULT_EPOCH_PS = us(500)
DEFAULT_MEA_COUNTERS = 256  # one global unit, so larger than MemPod's per-pod 64


class TrackedEpochManager(ComposedManager):
    """Epoch-based global migration driven by one MEA unit (``hma-mea``).

    The epoch boundary asks the MEA for its hot list (already ordered,
    hottest first) and swaps each slow-resident hot page with a fast
    victim found by a sequential scan that skips hot residents — the
    same scan MemPod's pods use, run over the whole fast device.  No
    sort penalty: the MEA holds at most ``mea_counters`` entries, so
    there are no millions of counters for the OS to sort.
    """

    name = "HMA+MEA"
    trigger = "epoch"
    flexibility = "global"

    def __init__(
        self,
        memory: HybridMemory,
        geometry: MemoryGeometry,
        interval_ps: int = DEFAULT_EPOCH_PS,
        mea_counters: int = DEFAULT_MEA_COUNTERS,
        mea_counter_bits: int = 4,
        mea_min_count: int = 2,
        max_migrations_per_interval: int = 256,
    ) -> None:
        require_positive_int("interval_ps", interval_ps)
        require_positive_int("mea_counters", mea_counters)
        require_positive_int("max_migrations_per_interval", max_migrations_per_interval)
        super().__init__(memory, geometry, interval_ps=interval_ps)
        self.max_migrations_per_interval = max_migrations_per_interval
        # Tags cover the whole flat space (one unit, not per pod).
        self.tracker = MeaTracker(
            capacity=mea_counters,
            counter_bits=mea_counter_bits,
            tag_bits=max(1, (geometry.total_pages - 1).bit_length()),
            min_count=min(mea_min_count, (1 << mea_counter_bits) - 1),
        )
        self.remap = PageTableRemap()
        self._location: Dict[int, int] = self.remap._forward
        self._resident: Dict[int, int] = self.remap._resident
        self._scan_slot = 0
        self.total_migrations = 0
        self.intervals = 0

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        self._tick(arrival_ps)

        page = address >> self._page_shift
        self.tracker.record(page)
        penalty_ps = self._block_penalty_ps(page, arrival_ps)
        frame = self._location.get(page, page)
        new_address = (frame << self._page_shift) | (address & self._page_mask)
        self.memory.access(
            new_address, is_write, arrival_ps, account_ps=arrival_ps - penalty_ps
        )

    def _run_boundary(self, at_ps: int) -> None:
        """Swap the MEA's hot list in, scan-selected victims out."""
        self._issue_due_swaps(at_ps)  # previous epoch's copies settle first
        self.intervals += 1
        hot = self.tracker.hot_pages()
        if hot:
            fast_pages = self.geometry.fast_pages
            hot_set = set(hot)
            plans: List[Tuple[int, int, int]] = []
            for page in hot[: self.max_migrations_per_interval]:
                frame = self._location.get(page, page)
                if frame < fast_pages:
                    continue  # already served fast
                victim_frame = self._find_victim(hot_set)
                if victim_frame is None:
                    break  # every fast frame holds a hot page
                plans.append((victim_frame, frame, -1))
            if plans:
                self.total_migrations += len(plans)
                self._schedule_swaps(plans, at_ps, 2 * self.engine.page_swap_cost_ps)
        self.tracker.reset()

    def _find_victim(self, hot_set: Set[int]) -> Optional[int]:
        """Next fast frame whose resident is not hot (sequential scan)."""
        fast_pages = self.geometry.fast_pages
        for _ in range(fast_pages):
            frame = self._scan_slot
            self._scan_slot = (self._scan_slot + 1) % fast_pages
            if self.remap.resident_of(frame) not in hot_set:
                return frame
        return None

    def storage_components(self):
        """No remap hardware (OS page table); one global MEA unit."""
        return (self.remap, TrackerStorage(self.tracker))


class PodThmManager(ThmManager):
    """Competing-counter migration with pod-local segments (``thm-pods``).

    THM itself — one competing counter and one direct-remap entry per
    fast frame, the same threshold trigger and inline swap — with two
    overrides: a slow page's segment is anchored at a fast frame *of its
    own pod* (:meth:`segment_of`), so every swap moves data across the
    pod-local hop only and is accounted as such (``pod=`` on the
    datapath in :meth:`_migrate`, as MemPod's swaps are).
    """

    name = "THM-pods"
    flexibility = "pod"

    def segment_of(self, page: int) -> int:
        """The pod-local fast frame ``page``'s segment is anchored at."""
        geometry = self.geometry
        if page < geometry.fast_pages:
            return page
        pod = geometry.slow_page_pod(page)
        slot = (page - geometry.fast_pages) % geometry.fast_pages_per_pod
        return geometry.pod_fast_slot_to_page(pod, slot)

    def _migrate(self, segment: int, challenger: int, at_ps: int) -> int:
        """Swap the challenger into its segment's fast frame (pod-local)."""
        fast_frame = segment
        challenger_frame = self._location.get(challenger, challenger)
        if challenger_frame == fast_frame:
            return 0  # already resident (stale trigger)
        page_a, page_b = self.remap.swap_frames(fast_frame, challenger_frame)
        pod = self.geometry.fast_page_pod(fast_frame)
        completion = self.engine.swap_pages(fast_frame, challenger_frame, at_ps, pod=pod)
        self._block_page(page_a, completion)
        self._block_page(page_b, completion)
        self.total_migrations += 1
        return completion - at_ps


register_mechanism("hma-mea", MechanismSpec(
    name="hma-mea",
    summary="epoch migration tracked by one MEA unit (no sort penalty)",
    trigger="epoch",
    flexibility="global",
    remap_policy="page-table",
    tracker="repro.tracking.mea:MeaTracker",
    factory=TrackedEpochManager,
    valid_params=(
        "interval_ps", "mea_counters", "mea_counter_bits", "mea_min_count",
        "max_migrations_per_interval",
    ),
))

register_mechanism("thm-pods", MechanismSpec(
    name="thm-pods",
    summary="competing-counter migration with pod-local segments",
    trigger="threshold",
    flexibility="pod",
    remap_policy="direct",
    tracker="repro.tracking.competing:CompetingCounterArray",
    factory=PodThmManager,
    valid_params=("threshold", "counter_bits"),
))
