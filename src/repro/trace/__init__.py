"""Workload substrate: synthetic SPEC2006-like multi-programmed traces."""

from .analysis import (
    TraceProfile,
    compare_profiles,
    concentration,
    interval_churn,
    profile_trace,
)
from .interleave import (
    PAPER_REQUESTS_PER_US,
    PLACEMENTS,
    PagePlacer,
    TraceBuildResult,
    WorkloadSpec,
    build_trace,
    homogeneous_spec,
    mixed_spec,
)
from .record import LINE_BYTES, LINES_PER_PAGE, PAGE_BYTES, Trace, TraceRecord
from .spec import BENCHMARKS, BenchmarkProfile, benchmark_names, get_benchmark
from .synth import (
    AccessPattern,
    WavefrontPattern,
    CompositePattern,
    HotColdPattern,
    PhasedPattern,
    StreamPattern,
    UniformPattern,
    ZipfPattern,
)
from .workloads import (
    HOMOGENEOUS_NAMES,
    MIX_MEMBERS,
    MIX_NAMES,
    get_workload,
    workload_names,
)

__all__ = [
    "AccessPattern",
    "TraceProfile",
    "compare_profiles",
    "concentration",
    "interval_churn",
    "profile_trace",
    "BENCHMARKS",
    "BenchmarkProfile",
    "CompositePattern",
    "HOMOGENEOUS_NAMES",
    "HotColdPattern",
    "LINE_BYTES",
    "LINES_PER_PAGE",
    "MIX_MEMBERS",
    "MIX_NAMES",
    "PAGE_BYTES",
    "PAPER_REQUESTS_PER_US",
    "PLACEMENTS",
    "PagePlacer",
    "PhasedPattern",
    "StreamPattern",
    "Trace",
    "TraceBuildResult",
    "TraceRecord",
    "UniformPattern",
    "WavefrontPattern",
    "WorkloadSpec",
    "ZipfPattern",
    "benchmark_names",
    "build_trace",
    "get_benchmark",
    "get_workload",
    "homogeneous_spec",
    "mixed_spec",
    "workload_names",
]
