"""Memory devices: presets, stats merging, channel routing."""

import pytest

from repro.common.units import gib
from repro.dram import (
    DDR4_1600_TIMING,
    MemoryDevice,
    ddr4_device,
    hbm_device,
)
from repro.dram.request import DEMAND, MIGRATION
from repro.geometry import paper_geometry
from repro.system.hybrid import SingleLevelMemory


class TestPresets:
    def test_hbm_shape(self):
        device = hbm_device()
        assert device.capacity_bytes == gib(1)
        assert device.channels == 8
        assert device.mapper.banks_per_channel == 16

    def test_ddr4_shape(self):
        device = ddr4_device()
        assert device.capacity_bytes == gib(8)
        assert device.channels == 4

    def test_hbm_only_covers_9gb(self):
        device = SingleLevelMemory(paper_geometry()).device
        assert device.capacity_bytes >= gib(9)


class TestAccessRouting:
    def test_access_returns_target_channel(self):
        device = hbm_device()
        channel = device.access(0, False, 0)
        assert channel == device.mapper.fast_decode(0)[0]

    def test_row_stripe_spreads_channels(self):
        device = hbm_device()
        per_channel = 8192 * 16
        touched = {device.access(i * per_channel, False, 0) for i in range(8)}
        assert touched == set(range(8))

    def test_flush_channel_targets_one(self):
        device = hbm_device()
        device.access(0, False, 1000)
        completion = device.flush()
        assert completion > 1000
        # Other channels never saw traffic.
        assert device.controllers[1].stats.served == 0


class TestStats:
    def test_merged_stats_across_channels(self):
        device = hbm_device()
        per_channel = 8192 * 16
        for i in range(8):
            device.access(i * per_channel, i % 2 == 0, 0, kind=MIGRATION if i < 4 else DEMAND)
        device.flush()
        merged = device.merged_stats()
        assert merged.served == 8
        assert merged.count_by_kind[MIGRATION] == 4
        assert merged.count_by_kind[DEMAND] == 4

    def test_row_buffer_hit_rate_aggregates(self):
        device = hbm_device()
        for _ in range(4):
            device.access(0, False, 0)
        device.flush()
        assert device.row_buffer_hit_rate() == pytest.approx(0.75)

    def test_block_until_all_channels(self):
        device = hbm_device()
        device.block_until(10_000_000)
        for ctrl in device.controllers:
            assert ctrl.bus_free_ps >= 10_000_000


class TestCustomShape:
    def test_arbitrary_topology(self):
        device = MemoryDevice(
            name="tiny",
            timing=DDR4_1600_TIMING,
            capacity_bytes=1 << 24,  # 16 MiB
            channels=2,
            ranks=2,
            banks=8,
            row_bytes=4096,
        )
        assert device.mapper.banks_per_channel == 16
        device.access((1 << 24) - 64, True, 0)
        assert device.flush() > 0
