"""Figure 9 — metadata-cache size sensitivity (Section 6.3.3).

MemPod, THM and HMA re-run with their bookkeeping structures behind a
16 / 32 / 64 kB cache (MemPod's budget split across its four pods, as
in the paper), AMMAT normalised to the no-migration TLM.  The paper's
shape: MemPod stays the best mechanism at every size and improves with
capacity (4 / 7 / 9 % over TLM), while HMA is *less* hurt by smaller
caches (misses starve its counters, which reduces its misguided
migrations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..common.units import kib
from ..runner.pool import SweepRunner, get_default_runner, sim_cell
from ..system.stats import arithmetic_mean
from .common import ExperimentConfig, format_rows

FIG9_SIZES_KIB = (16, 32, 64)
FIG9_MECHANISMS = ("mempod", "thm", "hma")

# Caching runs triple the simulation count; default to a representative
# subset spanning the behaviour classes.
CACHE_WORKLOADS = ("xalanc", "omnetpp", "cactus", "mcf", "mix8")


@dataclass
class Fig9Result:
    """Normalised AMMAT per (mechanism, cache size), plus cache-off refs."""

    sizes_kib: Sequence[int] = FIG9_SIZES_KIB
    mechanisms: Sequence[str] = FIG9_MECHANISMS
    normalized: Dict[str, Dict[int, float]] = field(default_factory=dict)
    uncached: Dict[str, float] = field(default_factory=dict)
    miss_rates: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def format_table(self) -> str:
        headers = ["mechanism", "no cache"] + [f"{s} kB" for s in self.sizes_kib]
        rows = []
        for mechanism in self.mechanisms:
            rows.append(
                [mechanism, self.uncached[mechanism]]
                + [self.normalized[mechanism][s] for s in self.sizes_kib]
            )
        return format_rows(
            headers,
            rows,
            title="Figure 9 - AMMAT vs TLM with metadata caches of 16/32/64 kB",
        )


def run_fig9(
    config: ExperimentConfig,
    sizes_kib: Sequence[int] = FIG9_SIZES_KIB,
    mechanisms: Sequence[str] = FIG9_MECHANISMS,
    workloads: Sequence[str] = CACHE_WORKLOADS,
    runner: Optional[SweepRunner] = None,
) -> Fig9Result:
    """Run the cache-size sensitivity study."""
    runner = runner if runner is not None else get_default_runner()
    result = Fig9Result(sizes_kib=tuple(sizes_kib), mechanisms=tuple(mechanisms))
    names = config.workload_list(workloads)

    def base_params(mechanism: str) -> Dict[str, int]:
        return config.hma_params() if mechanism == "hma" else {}

    cells = [sim_cell(config, name, "tlm") for name in names]
    for mechanism in mechanisms:
        cells.extend(
            sim_cell(config, name, mechanism, **base_params(mechanism))
            for name in names
        )
        for size in sizes_kib:
            cells.extend(
                sim_cell(
                    config, name, mechanism,
                    cache_bytes=kib(size), **base_params(mechanism),
                )
                for name in names
            )

    sims = iter(runner.map(cells))
    baselines = {name: next(sims) for name in names}

    for mechanism in mechanisms:
        result.normalized[mechanism] = {}
        result.miss_rates[mechanism] = {}

        uncached = []
        for name in names:
            uncached.append(next(sims).normalized_to(baselines[name]))
        result.uncached[mechanism] = arithmetic_mean(uncached)

        for size in sizes_kib:
            values = []
            misses = []
            for name in names:
                sim = next(sims)
                values.append(sim.normalized_to(baselines[name]))
                misses.append(sim.extras.get("cache_miss_rate", 0.0))
            result.normalized[mechanism][size] = arithmetic_mean(values)
            result.miss_rates[mechanism][size] = arithmetic_mean(misses)
    return result
