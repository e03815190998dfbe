"""Hybrid memory: routing, flushing, stats merging."""

import pytest

from repro.common.errors import AddressError
from repro.dram.request import DEMAND, MIGRATION
from repro.geometry import scaled_geometry
from repro.system.hybrid import HybridMemory, SingleLevelMemory


@pytest.fixture
def geometry():
    return scaled_geometry(64)


@pytest.fixture
def memory(geometry):
    return HybridMemory(geometry)


class TestRouting:
    def test_low_addresses_hit_fast(self, memory, geometry):
        memory.access(0, False, 0)
        memory.flush()
        assert memory.fast.merged_stats().served == 1
        assert memory.slow.merged_stats().served == 0

    def test_high_addresses_hit_slow(self, memory, geometry):
        memory.access(geometry.fast_bytes, False, 0)
        memory.flush()
        assert memory.slow.merged_stats().served == 1

    def test_boundary_addresses(self, memory, geometry):
        memory.access(geometry.fast_bytes - 64, False, 0)
        memory.access(geometry.fast_bytes, False, 0)
        memory.flush()
        assert memory.fast.merged_stats().served == 1
        assert memory.slow.merged_stats().served == 1

    def test_out_of_range_rejected(self, memory, geometry):
        with pytest.raises(AddressError):
            memory.access(geometry.total_bytes, False, 0)

    def test_is_fast_address(self, memory, geometry):
        assert memory.tier_of(geometry.fast_bytes - 1) == 0
        assert memory.tier_of(geometry.fast_bytes) == 1

    def test_fast_is_faster_than_slow(self, memory, geometry):
        memory.access(0, False, 0)
        memory.access(geometry.fast_bytes, False, 0)
        memory.flush()
        fast_lat = memory.fast.merged_stats().total_latency_ps
        slow_lat = memory.slow.merged_stats().total_latency_ps
        assert fast_lat < slow_lat


class TestFlushing:
    def test_flush_returns_latest_completion(self, memory, geometry):
        memory.access(0, False, 0)
        memory.access(geometry.fast_bytes, False, 500_000)
        completion = memory.flush()
        assert completion >= 500_000

    def test_block_until_stalls_both_devices(self, memory, geometry):
        memory.block_until(1_000_000)
        memory.access(0, False, 0)
        memory.access(geometry.fast_bytes, False, 0)
        assert memory.flush() >= 1_000_000


class TestStats:
    def test_merged_stats_sum_devices(self, memory, geometry):
        memory.access(0, False, 0, kind=DEMAND)
        memory.access(geometry.fast_bytes, True, 0, kind=MIGRATION)
        memory.flush()
        merged = memory.merged_stats()
        assert merged.served == 2
        assert merged.reads == 1
        assert merged.writes == 1
        assert merged.count_by_kind[DEMAND] == 1
        assert merged.count_by_kind[MIGRATION] == 1

    def test_peak_bus_free_tracks_furthest_channel(self, memory, geometry):
        assert memory.peak_bus_free_ps() == 0
        memory.access(0, False, 5_000_000)
        memory.flush()
        assert memory.peak_bus_free_ps() > 5_000_000


class TestSingleLevel:
    def test_capacity_padded_to_power_of_two(self, geometry):
        single = SingleLevelMemory(geometry)
        assert single.device.capacity_bytes >= geometry.total_bytes

    def test_covers_flat_space(self, geometry):
        single = SingleLevelMemory(geometry)
        single.access(geometry.total_bytes - 64, False, 0)
        assert single.flush() > 0

    def test_rejects_out_of_space(self, geometry):
        single = SingleLevelMemory(geometry)
        with pytest.raises(AddressError):
            single.access(geometry.total_bytes, False, 0)
