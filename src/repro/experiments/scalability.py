"""Figure 10 — scalability to faster future memories (Section 6.3.4).

The machine is rebuilt with the Section 6.3.4 parts — HBM overclocked
to 4 GHz, off-chip DDR4-2400 — widening the fast:slow latency ratio.
AMMAT is normalised to a DDR4-2400-*only* memory (the paper's "9 GB of
off-chip DDR4-2400"), with the overclocked-HBM-only configuration
("HBMoc") as the upper bound.  HMA's sort penalty drops from 7 ms to
4.2 ms (the paper's faster-future-processor assumption); the scaled
run shrinks it by the same 40 %.

Expected shape: TLM < HMA < THM < MemPod < HBMoc in improvement order —
the paper reports 2 % / 13 % / 24 % improvements over TLM and a 40 %
faster HBMoc — with MemPod's advantage *wider* than in the
current-technology Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..runner.pool import SweepRunner, get_default_runner, sim_cell
from ..system.stats import arithmetic_mean
from .common import ExperimentConfig, format_rows

FIG10_MECHANISMS = ("tlm", "hma", "thm", "cameo", "mempod", "hbm-only")

FUTURE_PENALTY_SCALE = 0.6  # the paper's 7 ms -> 4.2 ms reduction


@dataclass
class Fig10Result:
    """Normalised AMMAT (to DDR4-2400-only) per workload and mechanism."""

    mechanisms: Sequence[str] = FIG10_MECHANISMS
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, mechanism: str) -> float:
        """Mean across workloads."""
        return arithmetic_mean(
            row[mechanism] for row in self.normalized.values()
        )

    def format_table(self) -> str:
        headers = ["workload"] + list(self.mechanisms)
        rows = []
        for name, row in self.normalized.items():
            rows.append([name] + [row[m] for m in self.mechanisms])
        rows.append(["AVG"] + [self.average(m) for m in self.mechanisms])
        return format_rows(
            headers,
            rows,
            title=(
                "Figure 10 - future memories (HBM@4GHz + DDR4-2400), "
                "AMMAT normalised to DDR4-2400-only"
            ),
        )


def run_fig10(
    config: ExperimentConfig,
    mechanisms: Sequence[str] = FIG10_MECHANISMS,
    workloads: Sequence[str] = None,
    runner: Optional[SweepRunner] = None,
) -> Fig10Result:
    """Run the future-technology comparison."""
    runner = runner if runner is not None else get_default_runner()
    result = Fig10Result(mechanisms=tuple(mechanisms))
    names = config.workload_list(workloads)

    def mech_params(mechanism: str) -> Dict[str, int]:
        params: Dict[str, int] = {}
        if mechanism == "hma":
            params.update(config.hma_params())
            params["sort_penalty_ps"] = int(
                params["sort_penalty_ps"] * FUTURE_PENALTY_SCALE
            )
        return params

    cells = []
    for name in names:
        cells.append(sim_cell(config, name, "ddr-only", future_tech=True))
        cells.extend(
            sim_cell(config, name, mechanism, future_tech=True, **mech_params(mechanism))
            for mechanism in mechanisms
        )

    sims = iter(runner.map(cells))
    for name in names:
        baseline = next(sims)
        result.normalized[name] = {
            mechanism: next(sims).normalized_to(baseline) for mechanism in mechanisms
        }
    return result
