"""Benchmark profiles: registry completeness and behavioural contracts."""

from itertools import islice

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.geometry import scaled_geometry
from repro.trace.spec import BENCHMARKS, benchmark_names, get_benchmark


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(32)


class TestRegistry:
    def test_seventeen_benchmarks(self):
        assert len(BENCHMARKS) == 17

    def test_table3_names_all_present(self):
        expected = {
            "astar", "bwaves", "bzip", "cactus", "dealii", "gcc", "gems",
            "lbm", "leslie", "libquantum", "mcf", "milc", "omnetpp",
            "soplex", "sphinx", "xalanc", "zeusmp",
        }
        assert set(benchmark_names()) == expected

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_benchmark("fortnite")

    def test_every_profile_builds_and_generates(self, geometry):
        rng = DeterministicRng(1)
        for name in benchmark_names():
            pattern = get_benchmark(name).build(geometry)
            for page, line, is_write in islice(pattern.stream(rng.child(name)), 200):
                assert 0 <= page < pattern.footprint_pages

    def test_intensities_positive_and_sane(self):
        for profile in BENCHMARKS.values():
            assert 0.5 <= profile.intensity <= 2.0

    def test_descriptions_present(self):
        for profile in BENCHMARKS.values():
            assert profile.description


class TestFootprintContracts:
    """Footprints encode the paper's defining capacity relationships."""

    def test_libquantum_fits_in_fast(self, geometry):
        pattern = get_benchmark("libquantum").build(geometry)
        # Eight copies together must fit comfortably inside fast memory.
        assert pattern.footprint_pages * 8 < geometry.fast_pages

    def test_bwaves_exceeds_fast(self, geometry):
        pattern = get_benchmark("bwaves").build(geometry)
        assert pattern.footprint_pages > geometry.fast_pages

    def test_footprints_scale_with_geometry(self):
        small = get_benchmark("xalanc").build(scaled_geometry(64))
        large = get_benchmark("xalanc").build(scaled_geometry(32))
        assert large.footprint_pages == pytest.approx(
            2 * small.footprint_pages, rel=0.01
        )

    def test_worst_case_workload_builds_without_exhaustion(self, geometry):
        # bwaves' nominal 8-copy footprint exceeds physical memory by
        # design (it streams), but only *touched* pages are allocated —
        # a trace build must never exhaust the flat space.
        from repro.trace import build_trace, get_workload

        result = build_trace(get_workload("bwaves"), geometry, length=30_000, seed=1)
        assert result.pages_allocated < geometry.total_pages
