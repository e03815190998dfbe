"""Non-migrating baselines.

* :class:`NoMigrationManager` — the paper's "TLM" / "2LM" baseline: the
  flat two-level space with pages pinned wherever the OS first placed
  them.  Every Figure 8/9/10 series is normalised to this.
* :class:`SingleLevelManager` — the HBM-only (and, in Figure 10,
  DDR4-2400-only) bound: one technology serves the whole space.
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


class SingleLevelManager(MemoryManager):
    """One-technology memory over the whole flat space (e.g. HBM-only).

    Wraps a :class:`SingleLevelMemory` rather than a hybrid; the
    ``memory`` attribute still quacks enough alike (access/flush/
    merged_stats) for the simulator and stats layers.
    """

    name = "HBM-only"
    flexibility = "single"

    def __init__(self, memory: SingleLevelMemory, geometry: MemoryGeometry) -> None:
        # Deliberately skip MemoryManager.__init__'s MigrationEngine: a
        # single-level memory never migrates.  Recreate the rest.
        self.memory = memory  # type: ignore[assignment]
        self.geometry = geometry
        self.engine = None
        self._blocked = {}
        self._blocked_expiry = []
        self.blocked_hits = 0
        self.name = memory.device.name

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        self.memory.access(address, is_write, arrival_ps)

    def finish(self) -> int:
        return self.memory.flush()

    @property
    def migration_stats(self):
        """No datapath: report an empty stats object."""
        from ..core.datapath import MigrationStats

        return MigrationStats()
