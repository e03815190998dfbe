"""Trace interleaving: placement, rates, determinism, workload registry."""

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import DeterministicRng
from repro.geometry import scaled_geometry
from repro.trace import (
    HOMOGENEOUS_NAMES,
    MIX_NAMES,
    PagePlacer,
    WorkloadSpec,
    all_workloads,
    build_trace,
    get_workload,
    homogeneous_spec,
    mixed_spec,
    workload_names,
)


@pytest.fixture
def geometry():
    return scaled_geometry(64)


class TestPagePlacer:
    def test_binding_is_stable(self, geometry):
        placer = PagePlacer(geometry, "spread", DeterministicRng(1))
        first = placer.place(0, 7)
        assert placer.place(0, 7) == first

    def test_cores_do_not_share_pages(self, geometry):
        placer = PagePlacer(geometry, "spread", DeterministicRng(1))
        a = {placer.place(0, v) for v in range(100)}
        b = {placer.place(1, v) for v in range(100)}
        assert not a & b

    def test_spread_lands_proportionally_in_fast(self, geometry):
        placer = PagePlacer(geometry, "spread", DeterministicRng(1))
        for v in range(3000):
            placer.place(0, v)
        # Fast is 1/9 of capacity; allow generous sampling slack.
        assert 0.07 <= placer.fast_resident_fraction() <= 0.16

    def test_sequential_fills_fast_first(self, geometry):
        placer = PagePlacer(geometry, "sequential", DeterministicRng(1))
        pages = [placer.place(0, v) for v in range(10)]
        assert pages == list(range(10))
        assert placer.fast_resident_fraction() == 1.0

    def test_slow_only_avoids_fast(self, geometry):
        placer = PagePlacer(geometry, "slow_only", DeterministicRng(1))
        for v in range(100):
            assert placer.place(0, v) >= geometry.fast_pages
        assert placer.fast_resident_fraction() == 0.0

    def test_exhaustion_raises(self):
        tiny = scaled_geometry(512)  # 2 MB + 16 MB: 9216 pages
        placer = PagePlacer(tiny, "spread", DeterministicRng(1))
        with pytest.raises(SimulationError):
            for v in range(tiny.total_pages + 1):
                placer.place(0, v)

    def test_unknown_policy_rejected(self, geometry):
        with pytest.raises(ConfigError):
            PagePlacer(geometry, "bogus", DeterministicRng(1))


class TestBuildTrace:
    def test_records_are_time_ordered(self, geometry):
        trace = build_trace(get_workload("mix8"), geometry, length=5000, seed=2).trace
        arrivals = [r[0] for r in trace.records]
        assert arrivals == sorted(arrivals)

    def test_length_exact(self, geometry):
        trace = build_trace(get_workload("xalanc"), geometry, length=1234, seed=2).trace
        assert len(trace) == 1234

    def test_deterministic_across_builds(self, geometry):
        a = build_trace(get_workload("mix3"), geometry, length=3000, seed=9).trace
        b = build_trace(get_workload("mix3"), geometry, length=3000, seed=9).trace
        assert a.records == b.records

    def test_seed_changes_trace(self, geometry):
        a = build_trace(get_workload("mix3"), geometry, length=3000, seed=9).trace
        b = build_trace(get_workload("mix3"), geometry, length=3000, seed=10).trace
        assert a.records != b.records

    def test_request_rate_near_target(self, geometry):
        result = build_trace(
            get_workload("gems"), geometry, length=20_000, seed=2, requests_per_us=110.0
        )
        rate = len(result.trace) / (result.trace.duration_ps / 1e6)
        assert rate == pytest.approx(110.0, rel=0.1)

    def test_all_cores_contribute(self, geometry):
        result = build_trace(get_workload("mix1"), geometry, length=20_000, seed=2)
        assert all(count > 0 for count in result.per_core_requests)

    def test_addresses_within_flat_space(self, geometry):
        trace = build_trace(get_workload("mcf"), geometry, length=5000, seed=2).trace
        assert all(0 <= r[1] < geometry.total_bytes for r in trace.records)


class TestWorkloadRegistry:
    def test_fifteen_homogeneous(self):
        assert len(HOMOGENEOUS_NAMES) == 15

    def test_twelve_mixes(self):
        assert len(MIX_NAMES) == 12

    def test_all_workloads_is_27(self):
        assert len(all_workloads()) == 27
        assert len(workload_names()) == 27

    def test_homogeneous_spec_is_homogeneous(self):
        spec = homogeneous_spec("lbm")
        assert set(spec.benchmark_names) == {"lbm"}
        assert spec.cores == 8

    def test_mixes_normalised_to_8_cores(self):
        for name in MIX_NAMES:
            assert get_workload(name).cores == 8

    def test_mixed_spec_cycles_short_lists(self):
        spec = mixed_spec("tiny", ["mcf", "lbm"], cores=8)
        assert spec.benchmark_names == ("mcf", "lbm") * 4

    def test_mixed_spec_truncates_long_lists(self):
        names = ["mcf"] * 10
        assert mixed_spec("big", names).cores == 8

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            get_workload("doom")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(name="bad", benchmark_names=("nonexistent",))
