"""CAMEO: cache-line-granularity flat-space management (Chou et al.,
MICRO 2014).

Modelled per the paper's Sections 2, 4 and Table 1:

* **Congruence groups** — every fast-memory 64 B line anchors a group
  with ``slow:fast`` ratio slow lines (8 at paper scale); a line can
  only ever migrate to its group's single fast slot.
* **Event trigger** — *every* access to a line currently in slow memory
  swaps it with the group's fast resident (no activity tracking at
  all), which is what makes CAMEO thrash at a 1:8 capacity ratio: nine
  lines compete for one fast slot and each slow hit forces a 4-transfer
  swap.
* **Line location** — CAMEO stores its bookkeeping in memory and
  predicts a line's location to skip the lookup.  We model the paper's
  caches-disabled configuration: location is oracle, so no lookup
  traffic is injected.
* **Wasted migrations** — the paper observes lines evicted before ever
  being touched again; we count them.
"""

from __future__ import annotations

from typing import Dict

from ..core.remap import DirectRemap
from ..geometry import MemoryGeometry
from ..system.hybrid import HybridMemory
from .base import ComposedManager

LINE_BYTES = 64


class CameoManager(ComposedManager):
    """Swap-on-every-slow-access at 64 B granularity."""

    name = "CAMEO"
    trigger = "event"
    flexibility = "group"

    def __init__(self, memory: HybridMemory, geometry: MemoryGeometry) -> None:
        super().__init__(memory, geometry)
        self.fast_lines = geometry.fast_bytes // LINE_BYTES
        # Line-granularity remap, sparse identity (original -> current);
        # the aliases expose the policy's raw dicts to the fast kernel.
        self.remap = DirectRemap(
            self.fast_lines,
            max(1, (geometry.slow_bytes // LINE_BYTES) // self.fast_lines),
        )
        self._location: Dict[int, int] = self.remap._forward
        self._resident: Dict[int, int] = self.remap._resident
        self.total_migrations = 0
        self.wasted_migrations = 0
        # Lines migrated into fast memory and not yet re-touched.
        self._untouched_in_fast: Dict[int, bool] = {}

    # -- group topology ---------------------------------------------------

    def group_of(self, line: int) -> int:
        """The congruence group a line belongs to (by original address)."""
        if line < self.fast_lines:
            return line
        return (line - self.fast_lines) % self.fast_lines

    # -- request path --------------------------------------------------------

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        line = address // LINE_BYTES
        penalty_ps = self._block_penalty_ps(line, arrival_ps)

        current = self._location.get(line, line)
        if line in self._untouched_in_fast:
            del self._untouched_in_fast[line]

        self.memory.access(
            current * LINE_BYTES, is_write, arrival_ps,
            account_ps=arrival_ps - penalty_ps,
        )
        if current < self.fast_lines:
            return

        # Slow hit: the demand was served from the slow location; now
        # swap the line into its group's fast slot (existing
        # writeback/fill queues in the paper's datapath; plain MIGRATION
        # traffic here).
        fast_slot = self.group_of(line)
        evicted = self._resident.get(fast_slot, fast_slot)
        if evicted in self._untouched_in_fast:
            del self._untouched_in_fast[evicted]
            self.wasted_migrations += 1
        line_a, line_b = self.remap.swap_frames(fast_slot, current)
        completion = self.engine.swap_lines(
            fast_slot * LINE_BYTES, current * LINE_BYTES, arrival_ps
        )
        self._block_page(line_a, completion)
        self._block_page(line_b, completion)
        self._untouched_in_fast[line] = True
        self.total_migrations += 1

    def storage_components(self):
        """One remap entry per fast line; no activity tracking at all."""
        return (self.remap,)
