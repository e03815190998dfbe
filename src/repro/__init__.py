"""MemPod (HPCA 2017) reproduction library.

A trace-driven model of flat-address-space two-level memories with
hardware page migration:

* :mod:`repro.dram` — event-driven DRAM timing (HBM + DDR4 per Table 2),
* :mod:`repro.trace` — synthetic SPEC2006-like multi-programmed traces,
* :mod:`repro.tracking` — MEA / Full Counters / competing counters,
* :mod:`repro.core` — the MemPod clustered migration manager,
* :mod:`repro.managers` — HMA, THM, CAMEO, and non-migrating baselines,
* :mod:`repro.mechanisms` — the declarative mechanism-spec registry
  every mechanism (canonical or novel) is built from,
* :mod:`repro.system` — the hybrid memory, simulator, and statistics,
* :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart::

    from repro import scaled_geometry, get_workload, build_trace, run

    geometry = scaled_geometry()
    trace = build_trace(get_workload("xalanc"), geometry, length=100_000).trace
    baseline = run(trace, "tlm", geometry)
    mempod = run(trace, "mempod", geometry)
    print(mempod.ammat_ns / baseline.ammat_ns)  # < 1.0: MemPod wins
"""

from .common import DeterministicRng
from .geometry import MemoryGeometry, paper_geometry, scaled_geometry
from .core import MemPodManager, Pod, RemapTable
from .managers import (
    CameoManager,
    HmaManager,
    MemoryManager,
    NoMigrationManager,
    SingleLevelManager,
    ThmManager,
)
from .system import (
    HybridMemory,
    MetadataCache,
    SimulationResult,
    SingleLevelMemory,
)
from .mechanisms import (
    MechanismSpec,
    get_mechanism,
    mechanism_names,
    register_mechanism,
)
from .system.simulator import MANAGER_KINDS, build_manager, run, simulate
from .tracking import (
    FullCountersTracker,
    MeaTracker,
    OracleResult,
    run_oracle_study,
)
from .trace import (
    Trace,
    WorkloadSpec,
    build_trace,
    get_workload,
    homogeneous_spec,
    mixed_spec,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "CameoManager",
    "DeterministicRng",
    "FullCountersTracker",
    "HmaManager",
    "HybridMemory",
    "MANAGER_KINDS",
    "MeaTracker",
    "MechanismSpec",
    "MemPodManager",
    "MemoryGeometry",
    "MemoryManager",
    "MetadataCache",
    "NoMigrationManager",
    "OracleResult",
    "Pod",
    "RemapTable",
    "SimulationResult",
    "SingleLevelManager",
    "SingleLevelMemory",
    "ThmManager",
    "Trace",
    "WorkloadSpec",
    "build_manager",
    "build_trace",
    "get_mechanism",
    "get_workload",
    "homogeneous_spec",
    "mechanism_names",
    "mixed_spec",
    "paper_geometry",
    "register_mechanism",
    "run",
    "run_oracle_study",
    "scaled_geometry",
    "simulate",
    "workload_names",
]
