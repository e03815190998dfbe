"""Result collection: AMMAT and the paper's secondary metrics.

AMMAT (Average Main Memory Access Time) follows the paper's definition
(Section 6.2): the **numerator** is the total time the original LLC
misses spend waiting for main memory and the **denominator** is fixed
at the number of original trace requests.  Overhead traffic (migration
copies, bookkeeping fills) is injected into the same controllers, so
its cost reaches the numerator exactly the way it reaches a real
system's demand requests: as bank/bus *contention*, and as per-page
*blocking* while a swap or metadata fill is in flight (blocking stalls
are folded into the affected demand's latency via its accounting
timestamp).  The overhead streams' own sojourn times are reported
separately in ``latency_by_kind_ns`` but are not summed into AMMAT —
a copy engine waiting behind its own burst is not CPU-visible stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..common.units import to_ns
from ..dram.request import BOOKKEEPING, DEMAND, MIGRATION


@dataclass
class SimulationResult:
    """Everything one trace-replay run reports."""

    workload: str
    manager: str
    demand_requests: int
    ammat_ns: float
    demand_latency_ns: float
    served: int
    migrations: int
    bytes_moved: int
    duration_ps: int
    row_hit_rate_fast: float = 0.0
    row_hit_rate_slow: float = 0.0
    fast_service_fraction: float = 0.0
    latency_by_kind_ns: Dict[str, float] = field(default_factory=dict)
    count_by_kind: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    def normalized_to(self, baseline: "SimulationResult") -> float:
        """AMMAT relative to a baseline run (Figure 8/9/10 y-axes)."""
        if baseline.ammat_ns == 0:
            raise ZeroDivisionError("baseline AMMAT is zero")
        return self.ammat_ns / baseline.ammat_ns


def collect_result(manager, trace, end_ps: int) -> SimulationResult:
    """Assemble a :class:`SimulationResult` after a finished replay."""
    merged = manager.memory.merged_stats()
    demand = len(trace)
    demand_latency_ps = merged.latency_by_kind.get(DEMAND, 0)
    demand_served = merged.count_by_kind.get(DEMAND, 0)
    ammat_ns = to_ns(demand_latency_ps) / demand if demand else 0.0

    migration_stats = manager.migration_stats
    migrations = migration_stats.page_swaps + migration_stats.line_swaps

    result = SimulationResult(
        workload=trace.name,
        manager=manager.name,
        demand_requests=demand,
        ammat_ns=ammat_ns,
        demand_latency_ns=(
            to_ns(demand_latency_ps) / demand_served if demand_served else 0.0
        ),
        served=merged.served,
        migrations=migrations,
        bytes_moved=migration_stats.bytes_moved,
        duration_ps=end_ps,
        latency_by_kind_ns={
            "demand": to_ns(merged.latency_by_kind.get(DEMAND, 0)),
            "migration": to_ns(merged.latency_by_kind.get(MIGRATION, 0)),
            "bookkeeping": to_ns(merged.latency_by_kind.get(BOOKKEEPING, 0)),
        },
        count_by_kind={
            "demand": merged.count_by_kind.get(DEMAND, 0),
            "migration": merged.count_by_kind.get(MIGRATION, 0),
            "bookkeeping": merged.count_by_kind.get(BOOKKEEPING, 0),
        },
    )

    tiers = manager.memory.tiers
    if len(tiers) >= 2:
        # Tier 0 is the fast column and tier 1 the slow column, so the
        # two-tier fields stay bit-identical; systems with more tiers
        # additionally report a per-tier breakdown in ``extras``.
        result.row_hit_rate_fast = tiers[0].row_buffer_hit_rate()
        result.row_hit_rate_slow = tiers[1].row_buffer_hit_rate()
        fast_served = tiers[0].merged_stats().served
        if merged.served:
            result.fast_service_fraction = fast_served / merged.served
        if len(tiers) > 2:
            for index, tier in enumerate(tiers):
                result.extras[f"tier{index}_row_hit_rate"] = (
                    tier.row_buffer_hit_rate()
                )
                if merged.served:
                    result.extras[f"tier{index}_service_fraction"] = (
                        tier.merged_stats().served / merged.served
                    )
    else:
        result.row_hit_rate_fast = tiers[0].row_buffer_hit_rate()

    # Manager-specific extras useful to the experiment harness.
    for attr in ("total_migrations", "wasted_migrations", "blocked_hits"):
        value = getattr(manager, attr, None)
        if isinstance(value, (int, float)):
            result.extras[attr] = float(value)
    if hasattr(manager, "migrations_per_pod_interval"):
        result.extras["migrations_per_pod_interval"] = manager.migrations_per_pod_interval()
    if hasattr(manager, "cache_miss_rate"):
        result.extras["cache_miss_rate"] = manager.cache_miss_rate()
    return result


def arithmetic_mean(values) -> float:
    """Plain mean, tolerant of empty input."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
