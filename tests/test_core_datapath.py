"""Migration datapath: transaction pattern, costs, statistics."""

import pytest

from repro.core.datapath import MigrationEngine
from repro.dram.request import MIGRATION
from repro.geometry import scaled_geometry
from repro.system.hybrid import HybridMemory


@pytest.fixture
def geometry():
    return scaled_geometry(64)


@pytest.fixture
def setup(geometry):
    memory = HybridMemory(geometry)
    return memory, MigrationEngine(memory, geometry)


class TestPageSwap:
    def test_issues_128_transactions(self, setup, geometry):
        memory, engine = setup
        fast_frame = 0
        slow_frame = geometry.fast_pages
        engine.swap_pages(fast_frame, slow_frame, at_ps=0)
        memory.flush()
        merged = memory.merged_stats()
        assert merged.count_by_kind[MIGRATION] == 4 * geometry.lines_per_page
        assert merged.reads == 2 * geometry.lines_per_page
        assert merged.writes == 2 * geometry.lines_per_page

    def test_traffic_split_between_devices(self, setup, geometry):
        memory, engine = setup
        engine.swap_pages(0, geometry.fast_pages, at_ps=0)
        memory.flush()
        per_page = 2 * geometry.lines_per_page  # read + write on each side
        assert memory.fast.merged_stats().count_by_kind[MIGRATION] == per_page
        assert memory.slow.merged_stats().count_by_kind[MIGRATION] == per_page

    def test_completion_is_start_plus_pipelined_cost(self, setup, geometry):
        memory, engine = setup
        completion = engine.swap_pages(0, geometry.fast_pages, at_ps=1_000_000)
        assert completion == 1_000_000 + engine.page_swap_cost_ps

    def test_cost_dominated_by_slow_side(self, setup, geometry):
        memory, engine = setup
        slow_phase = (
            memory.slow.timing.trcd_ps
            + memory.slow.timing.tcas_ps
            + geometry.lines_per_page * memory.slow.timing.burst_ps(64)
        )
        assert engine.page_swap_cost_ps == 2 * slow_phase

    def test_stats_accumulate(self, setup, geometry):
        _, engine = setup
        engine.swap_pages(0, geometry.fast_pages, at_ps=0, pod=2)
        engine.swap_pages(4, geometry.fast_pages + 4, at_ps=0, pod=2)
        stats = engine.stats
        assert stats.page_swaps == 2
        assert stats.bytes_moved == 2 * 2 * geometry.page_bytes
        assert stats.swaps_by_pod == {2: 2}
        assert stats.bytes_by_pod[2] == stats.bytes_moved


class TestLineSwap:
    def test_issues_4_transactions(self, setup, geometry):
        memory, engine = setup
        engine.swap_lines(0, geometry.fast_bytes, at_ps=0)
        memory.flush()
        assert memory.merged_stats().count_by_kind[MIGRATION] == 4

    def test_line_cost_far_below_page_cost(self, setup):
        # A single line is latency-dominated (activate + CAS), so the
        # gap is smaller than the 32x data ratio, but still large.
        _, engine = setup
        assert engine.line_swap_cost_ps * 4 < engine.page_swap_cost_ps

    def test_line_stats(self, setup):
        _, engine = setup
        engine.swap_lines(0, 1 << 25, at_ps=0)
        assert engine.stats.line_swaps == 1
        assert engine.stats.bytes_moved == 128


class TestBatchedSwapEquivalence:
    """The replay kernels' swap sink (``_swap_merged_buffers``) turns
    the 64-read/64-write pattern into page-copy runs, or one interleaved
    entry list on a shared controller, handed to ``enqueue_batch`` by
    ``flush_all``; every controller must end in exactly the state the
    per-transaction loop leaves it in."""

    def _controller_snapshots(self, memory):
        from dataclasses import asdict

        state = []
        for device in (memory.fast, memory.slow):
            for ctrl in device.controllers:
                state.append((
                    asdict(ctrl.stats), ctrl.bus_free_ps,
                    ctrl.last_completion_ps, list(ctrl._pending),
                    [(b.open_row, b.busy_until_ps, b.hits, b.misses,
                      b.conflicts) for b in ctrl.banks],
                ))
        return state

    def _run(self, geometry, pairs, sunk):
        from repro.kernel.replay import _swap_merged_buffers

        memory = HybridMemory(geometry)
        engine = MigrationEngine(memory, geometry)
        if sunk:
            ctrls = list(memory._controllers)
            _, flush_all, engine.swap_sink = _swap_merged_buffers(
                ctrls, [ctrl.enqueue_batch for ctrl in ctrls]
            )
        at = 0
        completions = []
        for frame_a, frame_b in pairs:
            completions.append(engine.swap_pages(frame_a, frame_b, at))
            at = completions[-1]
        if sunk:
            flush_all()
        issued = self._controller_snapshots(memory)
        memory.flush()
        return completions, engine.stats, issued, self._controller_snapshots(memory)

    def test_cross_device_swaps(self, geometry):
        pairs = [(i, geometry.fast_pages + 3 * i) for i in range(8)]
        assert self._run(geometry, pairs, sunk=True) == self._run(
            geometry, pairs, sunk=False
        )

    def test_shared_controller_swap(self, geometry):
        # Two frames decoding to the same channel controller exercise
        # the sink's interleaved entry-list branch, which no shipped
        # kernel reaches: their page swaps always pair a fast frame
        # with a slow one.  The partner shares the bank but not the
        # row, so every read conflicts and the a/b interleave shows.
        probe = MigrationEngine(HybridMemory(geometry), geometry)
        page_bytes = geometry.page_bytes
        base_ctrl, base_bank, base_row = probe._locate(0)
        partner = next(
            frame for frame in range(1, geometry.fast_pages)
            if probe._locate(frame * page_bytes)[:2] == (base_ctrl, base_bank)
            and probe._locate(frame * page_bytes)[2] != base_row
        )
        assert self._run(geometry, [(0, partner)], sunk=True) == self._run(
            geometry, [(0, partner)], sunk=False
        )
