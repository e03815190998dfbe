"""Result collection: AMMAT arithmetic and aggregation helpers."""

import pytest

from repro import build_manager, build_trace, get_workload, scaled_geometry, simulate
from repro.system.stats import (
    SimulationResult,
    arithmetic_mean,
)


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(64)


@pytest.fixture(scope="module")
def result(geometry):
    trace = build_trace(get_workload("cactus"), geometry, length=12_000, seed=8).trace
    return simulate(trace, build_manager("mempod", geometry))


class TestAmmatDefinition:
    def test_denominator_is_trace_length(self, result):
        # AMMAT = demand latency / trace length, in nanoseconds.
        expected = result.latency_by_kind_ns["demand"] / result.demand_requests
        assert result.ammat_ns == pytest.approx(expected)

    def test_overhead_traffic_reported_separately(self, result):
        assert result.count_by_kind["migration"] > 0
        assert result.latency_by_kind_ns["migration"] > 0

    def test_demand_count_matches_trace(self, result):
        assert result.count_by_kind["demand"] == result.demand_requests

    def test_served_includes_overhead(self, result):
        assert result.served == sum(result.count_by_kind.values())

    def test_normalized_to(self, result):
        assert result.normalized_to(result) == pytest.approx(1.0)

    def test_normalized_to_zero_baseline_raises(self, result):
        zero = SimulationResult(
            workload="z", manager="m", demand_requests=1, ammat_ns=0.0,
            demand_latency_ns=0.0, served=0, migrations=0, bytes_moved=0,
            duration_ps=0,
        )
        with pytest.raises(ZeroDivisionError):
            result.normalized_to(zero)

    def test_extras_populated_for_mempod(self, result):
        assert "migrations_per_pod_interval" in result.extras
        assert "total_migrations" in result.extras

    def test_row_hit_rates_in_range(self, result):
        assert 0.0 <= result.row_hit_rate_fast <= 1.0
        assert 0.0 <= result.row_hit_rate_slow <= 1.0

    def test_fast_service_fraction_in_range(self, result):
        assert 0.0 < result.fast_service_fraction < 1.0


class TestMeans:
    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_arithmetic_mean_empty(self):
        assert arithmetic_mean([]) == 0.0
