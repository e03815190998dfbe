"""Multi-programmed trace construction.

Mirrors the paper's methodology (Section 6.2): eight benchmarks run
simultaneously on eight cores, their LLC-miss streams interleaved into
one memory trace.  Here each core runs a :class:`BenchmarkProfile`
pattern, cores draw exponential inter-arrival gaps sized so the system
averages the paper's 5,500 requests per 50 us interval, and the streams
merge in timestamp order.

Page placement
--------------
Each core owns a private virtual page namespace (Sniper "ensures that
memory pages are not shared between workloads"); virtual pages are bound
to flat physical pages on first touch, under one of three policies:

``spread`` (default)
    Uniform-random over the whole flat space — models a long-running,
    fragmented system where ~1/9 of pages incidentally land in fast
    memory.  This is the baseline the paper's no-migration TLM numbers
    imply (a small footprint does *not* automatically sit in HBM).
``sequential``
    First-touch from address zero upward — fast memory fills first.
``slow_only``
    All data starts in slow memory — isolates migration benefit.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from math import log
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import require_in, require_positive, require_positive_int
from ..common.errors import ConfigError, SimulationError
from ..common.rng import DeterministicRng
from ..geometry import MemoryGeometry
from .record import LINE_BYTES, Trace
from .spec import BenchmarkProfile, get_benchmark
from .store import column_trace

# The paper's measured average: 5,500 requests per 50 us window.
PAPER_REQUESTS_PER_US = 110.0

PLACEMENTS = ("spread", "sequential", "slow_only")


class PagePlacer:
    """First-touch binder from (core, virtual page) to flat physical pages."""

    def __init__(self, geometry: MemoryGeometry, policy: str, rng: DeterministicRng) -> None:
        require_in("policy", policy, PLACEMENTS)
        self.geometry = geometry
        self.policy = policy
        self._total = geometry.total_pages
        # ``rng.randrange(total)``, written out in ``place`` as CPython's
        # ``getrandbits(total.bit_length())`` rejection loop (pinned
        # against ``Random.randrange`` by ``tests/test_trace_golden.py``).
        self._getrandbits = rng.getrandbits
        self._total_bits = self._total.bit_length()
        # One ``vpage -> page`` dict per core, so a lookup hashes an int
        # rather than building and hashing a ``(core, vpage)`` tuple.
        self._bindings: Dict[int, Dict[int, int]] = defaultdict(dict)
        self._used: set = set()
        self._next_sequential = 0
        if policy == "slow_only":
            self._next_sequential = geometry.fast_pages

    def place(self, core: int, vpage: int) -> int:
        """Return the physical page for ``(core, vpage)``, binding it on
        first touch."""
        bindings = self._bindings[core]
        page = bindings.get(vpage)
        if page is not None:
            return page
        used, total = self._used, self._total
        if len(used) >= total:
            raise SimulationError(
                f"physical memory exhausted: workload touches more than "
                f"{total} pages; shrink footprints or grow the geometry"
            )
        if self.policy == "spread":
            getrandbits, bits = self._getrandbits, self._total_bits
            while (page := getrandbits(bits)) >= total:
                pass
            while page in used:
                page = (page + 1) % total
        else:  # sequential / slow_only share the bump allocator
            page = self._next_sequential
            while page in used:
                page += 1
            if page >= total:
                raise SimulationError("sequential allocator ran past physical memory")
            self._next_sequential = page + 1
        used.add(page)
        bindings[vpage] = page
        return page

    @property
    def pages_allocated(self) -> int:
        """Number of physical pages bound so far."""
        return len(self._used)

    def fast_resident_fraction(self) -> float:
        """Fraction of allocated pages that landed in fast memory."""
        if not self._used:
            return 0.0
        fast_pages = self.geometry.fast_pages
        fast = sum(1 for p in self._used if p < fast_pages)
        return fast / len(self._used)


@dataclass(frozen=True)
class WorkloadSpec:
    """An eight-core multi-programmed workload definition."""

    name: str
    benchmark_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.benchmark_names:
            raise ConfigError(f"workload {self.name!r} has no benchmarks")
        for bench in self.benchmark_names:
            get_benchmark(bench)  # raises on unknown names

    @property
    def cores(self) -> int:
        """Number of cores (one benchmark copy per core)."""
        return len(self.benchmark_names)

    def profiles(self) -> List[BenchmarkProfile]:
        """Resolve the per-core benchmark profiles."""
        return [get_benchmark(name) for name in self.benchmark_names]


@dataclass
class TraceBuildResult:
    """A built trace plus placement diagnostics."""

    trace: Trace
    fast_resident_fraction: float
    pages_allocated: int
    per_core_requests: List[int] = field(default_factory=list)


def build_trace(
    spec: WorkloadSpec,
    geometry: MemoryGeometry,
    length: int,
    seed: int = 1,
    placement: str = "spread",
    requests_per_us: float = PAPER_REQUESTS_PER_US,
    rng: Optional[DeterministicRng] = None,
) -> TraceBuildResult:
    """Interleave ``spec``'s cores into one ``length``-request trace.

    Parameters
    ----------
    spec:
        The workload (8 benchmark copies for paper-equivalent runs).
    geometry:
        Machine geometry; footprints and placement derive from it.
    length:
        Total number of trace records to emit.
    seed:
        Root seed; the full build is a pure function of
        ``(spec, geometry, length, seed, placement, requests_per_us)``.
    placement:
        One of ``spread`` / ``sequential`` / ``slow_only``.
    requests_per_us:
        System-wide average request rate (paper: 110/us).
    """
    require_positive_int("length", length)
    require_positive("requests_per_us", requests_per_us)
    root = rng if rng is not None else DeterministicRng(seed, f"trace/{spec.name}")
    placer = PagePlacer(geometry, placement, root.child("placement"))

    profiles = spec.profiles()
    # One access stream per core, each pulled through its bound __next__.
    streams = [
        profile.build(geometry).stream(root.child(f"core{idx}")).__next__
        for idx, profile in enumerate(profiles)
    ]
    arrivals = [root.child(f"arrival{idx}").random for idx in range(spec.cores)]

    total_intensity = sum(profile.intensity for profile in profiles)
    # Per-core mean inter-arrival gap in picoseconds.
    gaps_ps = [
        (spec.cores / requests_per_us) * (total_intensity / (profile.intensity * spec.cores)) * 1e6
        for profile in profiles
    ]

    # Gaps are expovariate(1.0) draws written out: -log(1 - U) is
    # random.Random's own formula, and its division by 1.0 is exact.
    heap: List[Tuple[int, int]] = []
    for core in range(spec.cores):
        first = round(-log(1.0 - arrivals[core]()) * gaps_ps[core])
        heapq.heappush(heap, (first, core))

    # Each core keeps exactly one heap entry, so entries never tie and
    # heapreplace pops and pushes in the order heappop + heappush would.
    heapreplace = heapq.heapreplace
    bound = [placer._bindings[core].get for core in range(spec.cores)]
    place = placer.place
    page_bytes = geometry.page_bytes
    # The records are written straight into four columns.
    columns: Tuple[List[int], ...] = ([], [], [], [])
    add_arrival, add_address, add_write, add_core = (column.append for column in columns)
    per_core = [0] * spec.cores
    for _ in range(length):
        at_ps, core = heap[0]
        vpage, line, is_write = streams[core]()
        ppage = bound[core](vpage)
        if ppage is None:
            ppage = place(core, vpage)
        add_arrival(at_ps)
        add_address(ppage * page_bytes + line * LINE_BYTES)
        add_write(1 if is_write else 0)
        add_core(core)
        per_core[core] += 1
        gap = round(-log(1.0 - arrivals[core]()) * gaps_ps[core])
        heapreplace(heap, (at_ps + (gap if gap > 1 else 1), core))

    return TraceBuildResult(
        # Arrivals never decrease, addresses are placed pages and cores
        # index spec.cores, so the columns skip Trace.validate.
        trace=column_trace(spec.name, page_bytes, columns),
        fast_resident_fraction=placer.fast_resident_fraction(),
        pages_allocated=placer.pages_allocated,
        per_core_requests=per_core,
    )


def homogeneous_spec(benchmark: str, cores: int = 8) -> WorkloadSpec:
    """Eight copies of one benchmark (the paper's homogeneous workloads)."""
    get_benchmark(benchmark)
    return WorkloadSpec(name=benchmark, benchmark_names=(benchmark,) * cores)


def mixed_spec(name: str, benchmarks: Sequence[str], cores: int = 8) -> WorkloadSpec:
    """A named mix, truncated or cycled to exactly ``cores`` entries.

    Table 3's OCR-extracted membership is not perfectly 8-per-mix; like
    the paper we always run 8 cores, so longer lists are truncated and
    shorter ones cycle from their start.  The normalisation is
    deterministic and recorded by the workload registry.
    """
    if not benchmarks:
        raise ConfigError(f"mix {name!r} needs at least one benchmark")
    chosen = [benchmarks[i % len(benchmarks)] for i in range(cores)]
    return WorkloadSpec(name=name, benchmark_names=tuple(chosen))
