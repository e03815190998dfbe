"""The paper's workload registry: 15 homogeneous + 12 mixed (Table 3).

Homogeneous workloads run 8 copies of one benchmark and are referred to
by the benchmark's name, exactly as in the paper.  The mixed workloads
mix1-mix12 follow Table 3's membership matrix; a double check-mark in
the table means two copies of that benchmark.  Since the extracted table
is not perfectly 8-per-column, :func:`repro.trace.interleave.mixed_spec`
normalises each mix to exactly 8 cores deterministically (truncate /
cycle) — the mixes are behavioural stand-ins either way, since the
underlying traces are synthetic.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.errors import ConfigError
from .interleave import WorkloadSpec, homogeneous_spec, mixed_spec

# The paper evaluates 15 homogeneous workloads.  Table 3 names 17
# benchmarks; we exclude dealii and sphinx from the homogeneous set (the
# paper never shows either as a homogeneous workload) to match the count.
HOMOGENEOUS_NAMES: List[str] = [
    "astar",
    "bwaves",
    "bzip",
    "cactus",
    "gcc",
    "gems",
    "lbm",
    "leslie",
    "libquantum",
    "mcf",
    "milc",
    "omnetpp",
    "soplex",
    "xalanc",
    "zeusmp",
]

# Table 3 membership; a name listed twice means a double check-mark.
MIX_MEMBERS: Dict[str, List[str]] = {
    "mix1": ["astar", "gcc", "gems", "lbm", "leslie", "mcf", "milc", "omnetpp"],
    "mix2": ["gcc", "gems", "leslie", "mcf", "omnetpp", "sphinx", "zeusmp", "gcc"],
    "mix3": ["gcc", "lbm", "leslie", "libquantum", "mcf", "milc", "sphinx", "xalanc"],
    "mix4": ["bzip", "dealii", "dealii", "gcc", "mcf", "mcf", "milc", "soplex"],
    "mix5": ["bwaves", "bzip", "bzip", "cactus", "dealii", "dealii", "mcf", "xalanc"],
    "mix6": ["astar", "bwaves", "bzip", "gcc", "gcc", "lbm", "libquantum", "soplex"],
    "mix7": ["astar", "bwaves", "bwaves", "bzip", "bzip", "dealii", "gems", "xalanc"],
    "mix8": ["astar", "astar", "bwaves", "bzip", "cactus", "dealii", "omnetpp", "xalanc"],
    "mix9": ["bwaves", "dealii", "gems", "leslie", "sphinx", "lbm", "mcf", "xalanc"],
    "mix10": ["astar", "astar", "gcc", "gcc", "lbm", "libquantum", "libquantum", "mcf"],
    "mix11": ["bzip", "bzip", "gems", "leslie", "leslie", "omnetpp", "sphinx", "milc"],
    "mix12": ["bwaves", "cactus", "cactus", "dealii", "dealii", "xalanc", "soplex", "gems"],
}

MIX_NAMES: List[str] = sorted(MIX_MEMBERS, key=lambda n: int(n[3:]))


def get_workload(name: str) -> WorkloadSpec:
    """Resolve one workload by paper name (benchmark name or ``mixN``)."""
    if name in MIX_MEMBERS:
        return mixed_spec(name, MIX_MEMBERS[name])
    if name in HOMOGENEOUS_NAMES:
        return homogeneous_spec(name)
    raise ConfigError(
        f"unknown workload {name!r}; known: {HOMOGENEOUS_NAMES + MIX_NAMES}"
    )


def workload_names() -> List[str]:
    """All workload names in evaluation order."""
    return HOMOGENEOUS_NAMES + MIX_NAMES
