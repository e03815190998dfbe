"""Non-migrating baselines.

* :class:`NoMigrationManager` — the paper's "TLM" / "2LM" baseline: the
  flat two-level space with pages pinned wherever the OS first placed
  them.  Every Figure 8/9/10 series is normalised to this.
* :class:`SingleLevelManager` — the HBM-only (and, in Figure 10,
  DDR4-2400-only) bound: the same no-migration manager over a
  one-tier :class:`~repro.system.hybrid.SingleLevelMemory`.
"""

from __future__ import annotations

from ..geometry import MemoryGeometry
from ..system.hybrid import SingleLevelMemory
from .base import MemoryManager


class NoMigrationManager(MemoryManager):
    """Two-level memory without any migration capability (TLM)."""

    name = "TLM"

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        self.memory.access(address, is_write, arrival_ps)


class SingleLevelManager(NoMigrationManager):
    """One-technology memory over the whole flat space (e.g. HBM-only),
    named after its sole device."""

    flexibility = "single"

    def __init__(self, memory: SingleLevelMemory, geometry: MemoryGeometry) -> None:
        super().__init__(memory, geometry)
        self.name = memory.device.name
