"""Manager-level behaviour: MemPod, HMA, THM, CAMEO, baselines."""

import pytest

from repro.common.units import us
from repro.core.mempod import MemPodManager
from repro.geometry import scaled_geometry
from repro.managers import (
    CameoManager,
    HmaManager,
    NoMigrationManager,
    SingleLevelManager,
    ThmManager,
)
from repro.system.hybrid import HybridMemory, SingleLevelMemory


@pytest.fixture
def geometry():
    return scaled_geometry(64)


def hybrid(geometry):
    return HybridMemory(geometry)


def hammer(manager, page, times, start_ps=0, gap_ps=9_000, geometry=None):
    """Issue ``times`` demand reads to one page; returns last arrival."""
    page_bytes = manager.geometry.page_bytes
    at = start_ps
    for i in range(times):
        manager.handle(page * page_bytes + (i % 32) * 64, False, at, 0)
        at += gap_ps
    return at


class TestNoMigration:
    def test_requests_pass_through(self, geometry):
        manager = NoMigrationManager(hybrid(geometry), geometry)
        hammer(manager, 5, 10)
        manager.finish()
        assert manager.memory.merged_stats().served == 10
        assert manager.migration_stats.page_swaps == 0


class TestSingleLevel:
    def test_covers_whole_flat_space(self, geometry):
        memory = SingleLevelMemory(geometry)
        manager = SingleLevelManager(memory, geometry)
        last_page = geometry.total_pages - 1
        manager.handle(last_page * geometry.page_bytes, False, 0, 0)
        manager.finish()
        assert manager.memory.merged_stats().served == 1


class TestMemPod:
    def test_hot_page_migrates_to_fast(self, geometry):
        manager = MemPodManager(hybrid(geometry), geometry, interval_ps=us(50))
        hot = geometry.pod_slow_slot_to_page(0, 0)
        # Hammer across two intervals so the boundary fires and the
        # scheduled copy is issued by later traffic.
        hammer(manager, hot, 30, gap_ps=us(5))
        manager.finish()
        pod = manager.pods[0]
        frame = pod.translate(hot)
        assert frame < geometry.fast_pages
        assert manager.total_migrations >= 1

    def test_requests_follow_remap(self, geometry):
        manager = MemPodManager(hybrid(geometry), geometry, interval_ps=us(50))
        hot = geometry.pod_slow_slot_to_page(0, 0)
        hammer(manager, hot, 60, gap_ps=us(3))
        manager.finish()
        # Fast device must have served demand (the migrated page's hits).
        fast_stats = manager.memory.fast.merged_stats()
        assert fast_stats.count_by_kind[0] > 0  # DEMAND kind

    def test_migration_traffic_is_pod_local(self, geometry):
        manager = MemPodManager(hybrid(geometry), geometry, interval_ps=us(50))
        hot = geometry.pod_slow_slot_to_page(2, 0)  # pod 2's page
        hammer(manager, hot, 60, gap_ps=us(3))
        manager.finish()
        stats = manager.migration_stats
        assert stats.page_swaps >= 1
        assert set(stats.swaps_by_pod) == {2}

    def test_interval_boundaries_advance(self, geometry):
        manager = MemPodManager(hybrid(geometry), geometry, interval_ps=us(10))
        hammer(manager, geometry.fast_pages + 1, 5, gap_ps=us(25))
        # 5 requests spanning 125 us of trace -> 12 boundaries crossed.
        assert all(pod.intervals >= 10 for pod in manager.pods)

    def test_remap_cache_counts_misses(self, geometry):
        manager = MemPodManager(
            hybrid(geometry), geometry, interval_ps=us(50), cache_bytes=4096
        )
        hammer(manager, geometry.fast_pages + 8, 20)
        assert manager.cache_miss_rate() > 0.0

    def test_storage_report_scales_with_pods(self, geometry):
        manager = MemPodManager(hybrid(geometry), geometry)
        report = manager.storage_report()
        entry_bits = (geometry.pages_per_pod - 1).bit_length()
        assert report["remap_bits"] == geometry.pods * geometry.pages_per_pod * entry_bits


class TestHma:
    def test_migrates_hot_pages_at_epoch(self, geometry):
        manager = HmaManager(
            hybrid(geometry), geometry,
            interval_ps=us(100), sort_penalty_ps=0, hot_threshold=4,
        )
        hot = geometry.fast_pages + 17
        hammer(manager, hot, 40, gap_ps=us(5))
        manager.finish()
        assert manager.total_migrations >= 1
        assert manager._location.get(hot, hot) < geometry.fast_pages

    def test_applied_swap_blocks_both_pages(self, geometry):
        manager = HmaManager(hybrid(geometry), geometry)
        slow = geometry.fast_pages
        completion = manager._apply_swap(0, slow, 0, 1_000)
        assert completion > 1_000
        assert manager._blocked == {0: completion, slow: completion}

    def test_below_threshold_pages_stay(self, geometry):
        manager = HmaManager(
            hybrid(geometry), geometry,
            interval_ps=us(100), sort_penalty_ps=0, hot_threshold=50,
        )
        hammer(manager, geometry.fast_pages + 17, 40, gap_ps=us(5))
        manager.finish()
        assert manager.total_migrations == 0

    def test_stall_mode_blocks_memory(self, geometry):
        stalled = HmaManager(
            hybrid(geometry), geometry,
            interval_ps=us(50), sort_penalty_ps=us(30), penalty_mode="stall",
        )
        free = HmaManager(
            hybrid(geometry), geometry,
            interval_ps=us(50), sort_penalty_ps=us(30), penalty_mode="compute",
        )
        page = geometry.fast_pages + 3
        for manager in (stalled, free):
            hammer(manager, page, 30, gap_ps=us(4))
            manager.finish()
        lat_stalled = stalled.memory.merged_stats().total_latency_ps
        lat_free = free.memory.merged_stats().total_latency_ps
        assert lat_stalled > lat_free

    def test_migration_cap_respected(self, geometry):
        manager = HmaManager(
            hybrid(geometry), geometry,
            interval_ps=us(100), sort_penalty_ps=0,
            hot_threshold=2, max_migrations_per_interval=3,
        )
        for slot in range(20):
            hammer(manager, geometry.fast_pages + slot * 4, 6, gap_ps=us(1))
        manager.handle(0, False, us(150), 0)  # cross the boundary
        assert manager.total_migrations <= 3


class TestThm:
    def test_threshold_triggers_segment_swap(self, geometry):
        manager = ThmManager(hybrid(geometry), geometry, threshold=4)
        hot = geometry.fast_pages + 9
        hammer(manager, hot, 10)
        manager.finish()
        # The 4th access crosses the threshold and swaps the page in;
        # subsequent accesses hit it as the resident (defending it).
        assert manager.total_migrations == 1
        assert manager._location.get(hot, hot) < geometry.fast_pages

    def test_migration_stalls_the_trigger(self, geometry):
        # The triggering access waits for its own swap: the stall is
        # the time until the swap completes and both pages unblock.
        manager = ThmManager(hybrid(geometry), geometry)
        hot = geometry.fast_pages + 9
        stall = manager._migrate(manager.segment_of(hot), hot, 1_000)
        assert stall > 0
        assert manager._blocked == {9: 1_000 + stall, hot: 1_000 + stall}

    def test_resident_hits_defend(self, geometry):
        manager = ThmManager(hybrid(geometry), geometry, threshold=4)
        segment_fast = 9  # fast page 9 is its own segment's resident
        challenger = geometry.fast_pages + 9
        # Alternate: challenger can never accumulate 4 net increments.
        for i in range(20):
            hammer(manager, challenger, 1, start_ps=i * 20_000)
            hammer(manager, segment_fast, 1, start_ps=i * 20_000 + 10_000)
        assert manager.total_migrations == 0

    def test_migration_restricted_to_segment(self, geometry):
        manager = ThmManager(hybrid(geometry), geometry, threshold=2)
        hot = geometry.fast_pages + 9
        hammer(manager, hot, 4)
        manager.finish()
        # The page must sit in its segment's one fast frame.
        assert manager._location[hot] == manager.segment_of(hot)


class TestCameo:
    def test_every_slow_access_migrates(self, geometry):
        manager = CameoManager(hybrid(geometry), geometry)
        line_addr = (geometry.fast_pages + 5) * geometry.page_bytes
        manager.handle(line_addr, False, 0, 0)
        assert manager.total_migrations == 1
        # Second touch hits the fast slot: no further migration.
        manager.handle(line_addr, False, 100_000, 0)
        assert manager.total_migrations == 1

    def test_group_thrash(self, geometry):
        # Two slow lines of the same congruence group evict each other.
        manager = CameoManager(hybrid(geometry), geometry)
        fast_lines = manager.fast_lines
        line_a = (fast_lines + 7) * 64
        line_b = (2 * fast_lines + 7) * 64
        for i in range(4):
            manager.handle(line_a, False, i * 200_000, 0)
            manager.handle(line_b, False, i * 200_000 + 100_000, 0)
        assert manager.total_migrations == 8

    def test_wasted_migration_detected(self, geometry):
        manager = CameoManager(hybrid(geometry), geometry)
        fast_lines = manager.fast_lines
        manager.handle((fast_lines + 7) * 64, False, 0, 0)  # migrate in
        manager.handle((2 * fast_lines + 7) * 64, False, 100_000, 0)  # evict it untouched
        assert manager.wasted_migrations == 1

    def test_line_swap_moves_128_bytes(self, geometry):
        manager = CameoManager(hybrid(geometry), geometry)
        manager.handle((manager.fast_lines + 1) * 64, False, 0, 0)
        assert manager.migration_stats.bytes_moved == 128
