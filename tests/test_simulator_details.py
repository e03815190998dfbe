"""Simulator internals: throttle mechanics, boundary handling, gaps."""

import pytest

from repro import build_manager, scaled_geometry, simulate
from repro.common.units import us
from repro.system.simulator import reference_simulate
from repro.trace.record import Trace


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(64)


def burst_trace(count, gap_ps, page=0, start_ps=0, name="burst"):
    """A single-page hammer trace with uniform gaps."""
    records = [
        (start_ps + i * gap_ps, page * 2048 + (i % 32) * 64, 0, 0)
        for i in range(count)
    ]
    return Trace(name=name, records=records)


class TestThrottleMechanics:
    def test_offset_shifts_saturated_stream(self, geometry):
        # A 1 ns-gap hammer on one bank saturates it; the throttle must
        # dilate time so backlog stays near the cap instead of growing
        # linearly.
        trace = burst_trace(20_000, gap_ps=1_000)
        arrivals = []
        result = reference_simulate(
            trace, build_manager("tlm", geometry), observe=arrivals.append
        )
        assert arrivals[-1] > trace.records[-1][0] + us(1)
        # Bounded backlog implies bounded per-request latency.
        assert result.ammat_ns < 3_000

    def test_quiet_stream_untouched(self, geometry):
        trace = burst_trace(2_000, gap_ps=1_000_000)  # 1 us apart: idle
        arrivals = []
        reference_simulate(trace, build_manager("tlm", geometry), observe=arrivals.append)
        assert arrivals == [record[0] for record in trace.records]


class TestBoundaryHandling:
    def test_long_gap_crosses_many_boundaries_once_each(self, geometry):
        manager = build_manager("mempod", geometry, interval_ps=us(10))
        records = [
            (0, 64, 0, 0),
            (us(500), 128, 0, 0),  # 50 intervals later
        ]
        simulate(Trace(name="gap", records=records), manager)
        # Exactly the elapsed boundaries fired, no more.
        assert all(pod.intervals == 50 for pod in manager.pods)

    def test_empty_trace(self, geometry):
        manager = build_manager("mempod", geometry)
        result = simulate(Trace(name="empty", records=[]), manager)
        assert result.demand_requests == 0
        assert result.ammat_ns == 0.0

    def test_single_request(self, geometry):
        manager = build_manager("mempod", geometry)
        result = simulate(burst_trace(1, gap_ps=1), manager)
        assert result.demand_requests == 1
        assert result.ammat_ns > 0
