"""Shared manager mechanics: page blocking, paced swap scheduling."""

import pytest

from repro.core.mempod import MemPodManager
from repro.common.units import us
from repro.geometry import scaled_geometry
from repro.managers.static import NoMigrationManager
from repro.system.hybrid import HybridMemory
from repro.system.simulator import simulate


@pytest.fixture
def geometry():
    return scaled_geometry(64)


@pytest.fixture
def manager(geometry):
    return NoMigrationManager(HybridMemory(geometry), geometry)


class TestBlocking:
    def test_no_block_no_penalty(self, manager):
        assert manager._block_penalty_ps(5, 1000) == 0

    def test_active_block_returns_remaining_wait(self, manager):
        manager._block_page(5, 10_000)
        assert manager._block_penalty_ps(5, 4_000) == 6_000
        assert manager.blocked_hits == 1

    def test_expired_block_pruned(self, manager):
        manager._block_page(5, 10_000)
        assert manager._block_penalty_ps(5, 20_000) == 0
        assert 5 not in manager._blocked

    def test_block_extends_not_shrinks(self, manager):
        manager._block_page(5, 10_000)
        manager._block_page(5, 8_000)  # shorter: ignored
        assert manager._block_penalty_ps(5, 0) == 10_000

    def test_blocks_are_per_page(self, manager):
        manager._block_page(5, 10_000)
        assert manager._block_penalty_ps(6, 0) == 0


class TestBlockingTableBounded:
    """Regression: entries for pages never demanded again must not leak."""

    def test_expired_blocks_pruned_without_retouch(self, manager):
        # Pre-fix, an expired entry was deleted only when the *same*
        # page was demanded again; these 1000 pages never are.
        for page in range(1000):
            manager._block_page(page, 1_000 + page)
        manager._block_penalty_ps(5_000, 1_000_000)  # unrelated page, later
        assert manager._blocked == {}
        assert manager._blocked_expiry == []

    def test_reblocked_page_survives_stale_heap_entry(self, manager):
        manager._block_page(5, 10_000)
        manager._block_page(5, 50_000)  # extended: old heap entry is stale
        manager._block_penalty_ps(6, 20_000)  # prunes through an unrelated page
        assert manager._blocked_expiry == [(50_000, 5)]
        assert manager._block_penalty_ps(5, 30_000) == 20_000

    def test_bounded_after_multi_interval_run(self, geometry):
        from repro.experiments import ExperimentConfig, trace_for

        config = ExperimentConfig(scale=64, length=20_000, seed=1)
        trace = trace_for(config, "xalanc")
        manager = MemPodManager(HybridMemory(geometry), geometry)
        simulate(trace, manager)
        # Only the final interval's in-flight blocks may remain (the
        # trace-end flush schedules them past the last demand).  The
        # unpruned table held more entries than total migrations.
        assert manager.total_migrations > 0
        assert len(manager._blocked) < manager.total_migrations
        assert len(manager._blocked_expiry) < manager.total_migrations


class TestSwapScheduling:
    def test_swaps_issue_in_time_order_across_batches(self, geometry):
        manager = NoMigrationManager(HybridMemory(geometry), geometry)
        issued = []
        manager._apply_swap = lambda fa, fb, pod, ps: issued.append((ps, fa, fb))

        fast = 0
        slow = geometry.fast_pages
        # Two interleaved batches, as two pods would schedule them.
        manager._schedule_swaps([(fast, slow, 0), (fast + 4, slow + 4, 0)], 1000, 5000)
        manager._schedule_swaps([(fast + 8, slow + 8, 1)], 2000, 5000)
        manager._issue_due_swaps(None)
        times = [t for t, _, _ in issued]
        assert times == sorted(times)
        assert times == [1000, 2000, 6000]

    def test_only_due_swaps_issue(self, geometry):
        manager = NoMigrationManager(HybridMemory(geometry), geometry)
        issued = []
        manager._apply_swap = lambda fa, fb, pod, ps: issued.append(ps)
        manager._schedule_swaps([(0, geometry.fast_pages, 0)], 50_000, 1)
        manager._issue_due_swaps(10_000)
        assert issued == []
        manager._issue_due_swaps(50_000)
        assert issued == [50_000]

    def test_finish_drains_remaining_swaps(self, geometry):
        manager = NoMigrationManager(HybridMemory(geometry), geometry)
        issued = []
        manager._apply_swap = lambda fa, fb, pod, ps: issued.append(ps)
        manager._schedule_swaps([(0, geometry.fast_pages, 0)], 10**12, 1)
        manager.finish(0)
        assert len(issued) == 1


class TestMemPodBlockingIntegration:
    def test_demand_to_migrating_page_pays_penalty(self, geometry):
        manager = MemPodManager(
            HybridMemory(geometry), geometry, interval_ps=us(50)
        )
        hot = geometry.pod_slow_slot_to_page(0, 0)
        page_bytes = geometry.page_bytes
        # Heat the page in interval 0.
        for i in range(8):
            manager.handle(hot * page_bytes, False, i * us(5), 0)
        # Cross the boundary and touch the page *inside* the copy
        # window (the swap issues at the boundary and holds the page
        # for one pipelined swap time, a few hundred ns).
        manager.handle(hot * page_bytes, False, us(50) + 50_000, 0)
        manager.handle(hot * page_bytes, False, us(50) + 100_000, 0)
        manager.finish(us(100))
        assert manager.total_migrations >= 1
        assert manager.blocked_hits >= 1
