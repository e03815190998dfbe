"""Behavioural stand-ins for the SPEC CPU2006 benchmarks.

The paper traces 17 SPEC2006 benchmarks with Sniper.  SPEC binaries,
reference inputs, and Sniper are all unavailable here, so each benchmark
is replaced by a :class:`BenchmarkProfile`: a synthetic access pattern
whose *memory-system behaviour* matches what the paper (and the SPEC
memory-characterisation literature) reports for that code:

* footprints are expressed as a fraction of fast-memory capacity so the
  defining relationship — does the working set fit in HBM? — survives
  machine scaling (libquantum's 8-copy working set fits; bwaves' does
  not),
* streaming codes (bwaves, libquantum, lbm) sweep monotonically, the
  regime where Full Counters fail to predict the future and MEA's
  recency bias wins (paper Section 3),
* cactus keeps a *stable* skewed hot set — the one workload where FC
  out-predicts MEA,
* xalanc/omnetpp/astar drift their hot sets (phase churn),
* mcf/gems are low-locality pointer chasers.

``intensity`` scales a profile's request rate around the paper's
system-wide average of 5,500 requests per 50 us interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..common.errors import ConfigError
from ..geometry import MemoryGeometry
from .synth import (
    AccessPattern,
    CompositePattern,
    HotColdPattern,
    StreamPattern,
    UniformPattern,
    WavefrontPattern,
    ZipfPattern,
)

PatternBuilder = Callable[[MemoryGeometry], AccessPattern]


@dataclass(frozen=True)
class BenchmarkProfile:
    """One benchmark's behavioural model.

    Attributes
    ----------
    name:
        SPEC shorthand used throughout the paper (e.g. ``"xalanc"``).
    description:
        One-line behavioural summary (what the pattern mimics and why).
    intensity:
        Request-rate multiplier relative to the workload average.
    build:
        Factory producing the pattern spec one core streams from.
    """

    name: str
    description: str
    intensity: float
    build: PatternBuilder

    def __post_init__(self) -> None:
        if self.intensity <= 0:
            raise ConfigError(f"intensity must be positive, got {self.intensity!r}")


def _pages(geometry: MemoryGeometry, fraction: float, minimum: int = 4) -> int:
    """A per-core footprint of ``fraction`` x fast capacity, floor-capped."""
    return max(minimum, round(geometry.fast_pages * fraction))


def _astar(g: MemoryGeometry) -> AccessPattern:
    return HotColdPattern(
        footprint_pages=_pages(g, 0.40),
        hot_pages=_pages(g, 0.005),
        hot_fraction=0.85,
        write_fraction=0.30,
        hot_alpha=1.15,
        rotate_period=300,
        rotate_step=5,
        drift_period=5000,
        drift_step=2,
    )


def _bwaves(g: MemoryGeometry) -> AccessPattern:
    return StreamPattern(
        footprint_pages=_pages(g, 1.50),
        write_fraction=0.25,
        revisit_fraction=0.04,
        revisit_lag_pages=8,
    )


def _bzip(g: MemoryGeometry) -> AccessPattern:
    return HotColdPattern(
        footprint_pages=_pages(g, 0.30),
        hot_pages=_pages(g, 0.006),
        hot_fraction=0.80,
        write_fraction=0.40,
        hot_alpha=1.20,
        rotate_period=350,
        rotate_step=5,
    )


def _cactus(g: MemoryGeometry) -> AccessPattern:
    # Stable Zipf ranking: the Full-Counters-friendly outlier.
    return ZipfPattern(
        footprint_pages=_pages(g, 0.50),
        alpha=1.30,
        write_fraction=0.30,
    )


def _dealii(g: MemoryGeometry) -> AccessPattern:
    return ZipfPattern(
        footprint_pages=_pages(g, 0.25),
        alpha=1.10,
        write_fraction=0.30,
    )


def _gcc(g: MemoryGeometry) -> AccessPattern:
    # Multi-phase: three disjoint hot regions visited in rotation.
    from .synth import PhasedPattern

    phases = [
        HotColdPattern(
            footprint_pages=_pages(g, 0.12),
            hot_pages=_pages(g, 0.004),
            hot_fraction=0.85,
            write_fraction=0.30,
            hot_alpha=1.10,
        )
        for _ in range(3)
    ]
    return PhasedPattern(phases, phase_length=10000)


def _gems(g: MemoryGeometry) -> AccessPattern:
    return UniformPattern(
        footprint_pages=_pages(g, 1.20),
        write_fraction=0.30,
    )


def _lbm(g: MemoryGeometry) -> AccessPattern:
    # Near-constant total work per page over a large set, delivered by a
    # slow wavefront whose per-page intensity peaks just before the
    # front leaves: the paper calls out that FC ranks finished pages
    # while MEA favours the still-ramping, in-progress ones.
    return WavefrontPattern(
        footprint_pages=_pages(g, 1.00),
        write_fraction=0.45,
        zone_pages=30,
        advance_period=60,
    )


def _leslie(g: MemoryGeometry) -> AccessPattern:
    return CompositePattern(
        parts=[
            StreamPattern(footprint_pages=_pages(g, 0.60), write_fraction=0.35),
            HotColdPattern(
                footprint_pages=_pages(g, 0.10),
                hot_pages=_pages(g, 0.004),
                hot_fraction=0.90,
                write_fraction=0.30,
                hot_alpha=1.10,
                rotate_period=400,
                rotate_step=5,
            ),
        ],
        weights=[0.6, 0.4],
    )


def _libquantum(g: MemoryGeometry) -> AccessPattern:
    # Eight copies together fit inside fast memory (0.02 * 8 = 0.16x),
    # and each copy wraps its footprint several times per run — so after
    # the first sweep the whole working set is migrated and resident.
    return StreamPattern(
        footprint_pages=_pages(g, 0.02),
        write_fraction=0.20,
        revisit_fraction=0.05,
        revisit_lag_pages=6,
    )


def _mcf(g: MemoryGeometry) -> AccessPattern:
    return CompositePattern(
        parts=[
            UniformPattern(footprint_pages=_pages(g, 1.00), write_fraction=0.30),
            HotColdPattern(
                footprint_pages=_pages(g, 0.05),
                hot_pages=_pages(g, 0.004),
                hot_fraction=0.95,
                write_fraction=0.30,
                hot_alpha=1.20,
                rotate_period=500,
                rotate_step=4,
            ),
        ],
        weights=[0.7, 0.3],
    )


def _milc(g: MemoryGeometry) -> AccessPattern:
    return CompositePattern(
        parts=[
            StreamPattern(footprint_pages=_pages(g, 0.50), write_fraction=0.35),
            UniformPattern(footprint_pages=_pages(g, 0.40), write_fraction=0.30),
        ],
        weights=[0.5, 0.5],
    )


def _omnetpp(g: MemoryGeometry) -> AccessPattern:
    return HotColdPattern(
        footprint_pages=_pages(g, 0.35),
        hot_pages=_pages(g, 0.004),
        hot_fraction=0.88,
        write_fraction=0.35,
        hot_alpha=1.10,
        rotate_period=400,
        rotate_step=6,
        drift_period=4000,
        drift_step=2,
    )


def _soplex(g: MemoryGeometry) -> AccessPattern:
    return CompositePattern(
        parts=[
            StreamPattern(footprint_pages=_pages(g, 0.40), write_fraction=0.30),
            ZipfPattern(
                footprint_pages=_pages(g, 0.10),
                alpha=1.1,
                write_fraction=0.30,
            ),
        ],
        weights=[0.5, 0.5],
    )


def _sphinx(g: MemoryGeometry) -> AccessPattern:
    return HotColdPattern(
        footprint_pages=_pages(g, 0.30),
        hot_pages=_pages(g, 0.005),
        hot_fraction=0.80,
        write_fraction=0.25,
        hot_alpha=0.95,
        rotate_period=500,
        rotate_step=5,
    )


def _xalanc(g: MemoryGeometry) -> AccessPattern:
    # Strongly skewed hot set that drifts every interval or so: the
    # regime where MEA's recency bias out-predicts exact counting.
    return HotColdPattern(
        footprint_pages=_pages(g, 0.45),
        hot_pages=_pages(g, 0.005),
        hot_fraction=0.90,
        write_fraction=0.30,
        hot_alpha=1.15,
        rotate_period=300,
        rotate_step=5,
        drift_period=3000,
        drift_step=2,
    )


def _zeusmp(g: MemoryGeometry) -> AccessPattern:
    return CompositePattern(
        parts=[
            StreamPattern(footprint_pages=_pages(g, 0.30), write_fraction=0.40),
            HotColdPattern(
                footprint_pages=_pages(g, 0.08),
                hot_pages=_pages(g, 0.004),
                hot_fraction=0.90,
                write_fraction=0.30,
                hot_alpha=1.15,
                rotate_period=500,
                rotate_step=5,
            ),
        ],
        weights=[0.55, 0.45],
    )

BENCHMARKS: Dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in [
        BenchmarkProfile("astar", "path-finding: skewed hot set with slow drift", 0.80, _astar),
        BenchmarkProfile("bwaves", "fluid dynamics: streams a footprint 12x fast memory", 1.20, _bwaves),
        BenchmarkProfile("bzip", "compression: compact hot set, write heavy", 0.90, _bzip),
        BenchmarkProfile("cactus", "relativity stencil: stable Zipf ranking (FC-friendly)", 0.90, _cactus),
        BenchmarkProfile("dealii", "FEM library: small stable skewed set", 0.85, _dealii),
        BenchmarkProfile("gcc", "compiler: three rotating phase regions", 0.95, _gcc),
        BenchmarkProfile("gems", "EM solver: near-uniform over a large set", 1.10, _gems),
        BenchmarkProfile("lbm", "lattice Boltzmann: constant work per page, large sweep", 1.15, _lbm),
        BenchmarkProfile("leslie", "combustion: stream plus resident hot structure", 1.00, _leslie),
        BenchmarkProfile("libquantum", "quantum sim: streaming set that fits in fast memory", 1.30, _libquantum),
        BenchmarkProfile("mcf", "network simplex: pointer chasing with a small hot core", 1.25, _mcf),
        BenchmarkProfile("milc", "lattice QCD: half stream, half random", 1.00, _milc),
        BenchmarkProfile("omnetpp", "discrete-event sim: drifting hot set", 0.90, _omnetpp),
        BenchmarkProfile("soplex", "LP solver: stream plus skewed basis accesses", 0.95, _soplex),
        BenchmarkProfile("sphinx", "speech recognition: flat Zipf", 0.85, _sphinx),
        BenchmarkProfile("xalanc", "XSLT: hot set drifting every interval (MEA-friendly)", 1.00, _xalanc),
        BenchmarkProfile("zeusmp", "astrophysics CFD: stream plus hot core", 1.00, _zeusmp),
    ]
}


def get_benchmark(name: str) -> BenchmarkProfile:
    """Look up a profile by SPEC shorthand, raising ConfigError if unknown."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}"
        ) from None


def benchmark_names() -> List[str]:
    """All known SPEC shorthands, sorted."""
    return sorted(BENCHMARKS)
