"""First-order memory energy accounting (paper Section 5.3 extension).

The paper argues MemPod's clustering "imposes a tighter ceiling on data
movement energy" because migrations never cross the whole system.  This
module makes that argument quantitative with the standard first-order
DRAM energy model: energy = accesses x (activation + read/write +
I/O transfer) with per-technology constants, plus an interconnect term
per byte that depends on how far the data travels.

Constants follow the usual published ballparks (HBM ~4 pJ/bit total,
DDR4 ~20 pJ/bit; on-package hop ~0.5 pJ/bit, cross-chip hop ~2 pJ/bit).
Absolute joules are indicative; the *ratio* between a pod-local and a
global migration path — the paper's point — is robust to the constants,
which are all overridable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.config import require_positive
from ..geometry import MemoryGeometry

LINE_BYTES = 64


@dataclass(frozen=True)
class EnergyParams:
    """Per-technology and interconnect energy constants (picojoules)."""

    fast_pj_per_bit: float = 4.0      # die-stacked HBM, total per bit moved
    slow_pj_per_bit: float = 20.0     # off-chip DDR4, total per bit moved
    local_hop_pj_per_bit: float = 0.5   # within a pod (adjacent MCs)
    global_hop_pj_per_bit: float = 2.0  # across the chip-wide switch

    def __post_init__(self) -> None:
        for name in (
            "fast_pj_per_bit",
            "slow_pj_per_bit",
            "local_hop_pj_per_bit",
            "global_hop_pj_per_bit",
        ):
            require_positive(name, getattr(self, name))


@dataclass
class EnergyReport:
    """Energy totals for one simulation, in microjoules."""

    demand_uj: float
    migration_memory_uj: float
    migration_interconnect_uj: float

    @property
    def migration_uj(self) -> float:
        """All migration-attributed energy."""
        return self.migration_memory_uj + self.migration_interconnect_uj

    @property
    def total_uj(self) -> float:
        return self.demand_uj + self.migration_uj


class EnergyModel:
    """Computes an :class:`EnergyReport` from simulation statistics."""

    def __init__(self, geometry: MemoryGeometry, params: EnergyParams = EnergyParams()) -> None:
        self.geometry = geometry
        self.params = params

    def _bits(self, transfers: int) -> int:
        return transfers * LINE_BYTES * 8

    def demand_energy_uj(self, fast_served: int, slow_served: int) -> float:
        """DRAM energy of the demand stream."""
        p = self.params
        pj = (
            self._bits(fast_served) * p.fast_pj_per_bit
            + self._bits(slow_served) * p.slow_pj_per_bit
        )
        return pj / 1e6

    def migration_energy_uj(
        self, page_swaps: int, pod_local: bool, line_swaps: int = 0
    ) -> "tuple[float, float]":
        """(memory, interconnect) energy of the migration traffic.

        A page swap moves one page out of each device (read + write on
        both sides); the interconnect term charges every migrated byte
        one hop whose cost depends on whether the path stays inside a
        pod (MemPod) or crosses the global switch (centralised
        mechanisms) — the Section 5.3 distinction.
        """
        p = self.params
        lines = self.geometry.lines_per_page
        # Per swap: 2*lines transfers on the fast device, 2*lines slow.
        fast_transfers = page_swaps * 2 * lines + line_swaps * 2
        slow_transfers = page_swaps * 2 * lines + line_swaps * 2
        memory_pj = (
            self._bits(fast_transfers) * p.fast_pj_per_bit
            + self._bits(slow_transfers) * p.slow_pj_per_bit
        )
        moved_bits = self._bits(page_swaps * 2 * lines + line_swaps * 2)
        hop = p.local_hop_pj_per_bit if pod_local else p.global_hop_pj_per_bit
        interconnect_pj = moved_bits * hop
        return memory_pj / 1e6, interconnect_pj / 1e6

    def report(
        self,
        fast_served: int,
        slow_served: int,
        page_swaps: int,
        pod_local: bool,
        line_swaps: int = 0,
    ) -> EnergyReport:
        """Assemble the full report."""
        memory_uj, interconnect_uj = self.migration_energy_uj(
            page_swaps, pod_local, line_swaps
        )
        return EnergyReport(
            demand_uj=self.demand_energy_uj(fast_served, slow_served),
            migration_memory_uj=memory_uj,
            migration_interconnect_uj=interconnect_uj,
        )


def report_for(manager, params: EnergyParams = EnergyParams()) -> EnergyReport:
    """Energy report for a finished manager run.

    ``pod_local`` is inferred from the mechanism: MemPod's datapath
    stays inside a pod; every other migrating mechanism crosses the
    global switch (HMA through the CPUs, THM/CAMEO through a central
    unit — the paper's Table 1 "Migration Driver" row).
    """
    from ..dram.request import DEMAND

    model = EnergyModel(manager.geometry, params)
    memory = manager.memory
    tiers = memory.tiers
    if len(tiers) >= 2:
        # Tier 0 carries the fast constant; every deeper tier is
        # off-package commodity/PCM-class and charged the slow constant.
        fast_served = tiers[0].merged_stats().count_by_kind.get(DEMAND, 0)
        slow_served = sum(
            tier.merged_stats().count_by_kind.get(DEMAND, 0)
            for tier in tiers[1:]
        )
    else:
        fast_served = memory.merged_stats().count_by_kind[DEMAND]
        slow_served = 0
    stats = manager.migration_stats
    pod_local = bool(stats.swaps_by_pod)
    return model.report(
        fast_served=fast_served,
        slow_served=slow_served,
        page_swaps=stats.page_swaps,
        pod_local=pod_local,
        line_swaps=stats.line_swaps,
    )
