"""End-to-end integration: trace -> manager -> devices -> results."""

import pytest

from repro import (
    build_manager,
    build_trace,
    get_workload,
    run,
    scaled_geometry,
    simulate,
)
from repro.common.errors import ConfigError
from repro.common.units import us
from repro.system.simulator import MANAGER_KINDS


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(64)


@pytest.fixture(scope="module")
def trace(geometry):
    return build_trace(get_workload("xalanc"), geometry, length=30_000, seed=5).trace


class TestEveryManagerRuns:
    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_manager_completes(self, kind, geometry, trace):
        params = {}
        if kind == "hma":
            params = {"interval_ps": us(200), "sort_penalty_ps": us(14)}
        result = run(trace, kind, geometry, **params)
        assert result.demand_requests == len(trace)
        assert result.count_by_kind["demand"] == len(trace)
        assert result.ammat_ns > 0

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_future_tech_variant(self, kind, geometry, trace):
        result = run(trace, kind, geometry, future_tech=True)
        assert result.ammat_ns > 0


class TestResultSanity:
    def test_all_demand_requests_served(self, geometry, trace):
        result = run(trace, "mempod", geometry)
        assert result.count_by_kind["demand"] == len(trace)

    def test_migrating_manager_reports_traffic(self, geometry, trace):
        result = run(trace, "mempod", geometry)
        assert result.migrations > 0
        assert result.bytes_moved == result.migrations * 2 * geometry.page_bytes

    def test_fast_service_fraction_grows_with_migration(self, geometry, trace):
        baseline = run(trace, "tlm", geometry)
        mempod = run(trace, "mempod", geometry)
        assert mempod.fast_service_fraction > baseline.fast_service_fraction

    def test_hbm_only_beats_tlm(self, geometry, trace):
        baseline = run(trace, "tlm", geometry)
        upper = run(trace, "hbm-only", geometry)
        assert upper.ammat_ns < baseline.ammat_ns

    def test_future_tech_is_faster(self, geometry, trace):
        now = run(trace, "tlm", geometry)
        future = run(trace, "tlm", geometry, future_tech=True)
        assert future.ammat_ns < now.ammat_ns

    def test_deterministic_replay(self, geometry, trace):
        a = run(trace, "mempod", geometry)
        b = run(trace, "mempod", geometry)
        assert a.ammat_ns == b.ammat_ns
        assert a.migrations == b.migrations


class TestBuildManager:
    def test_unknown_kind_rejected(self, geometry):
        with pytest.raises(ConfigError):
            build_manager("bogus", geometry)

    def test_tlm_rejects_params(self, geometry):
        with pytest.raises(ConfigError):
            build_manager("tlm", geometry, interval_ps=1)

    def test_future_hma_penalty_defaulted(self, geometry):
        manager = build_manager("hma", geometry, future_tech=True)
        assert manager.sort_penalty_ps == 4_200_000_000  # 4.2 ms

    def test_mempod_params_forwarded(self, geometry):
        manager = build_manager(
            "mempod", geometry, interval_ps=us(25), mea_counters=16
        )
        assert manager.interval_ps == us(25)
        assert manager.pods[0].mea.capacity == 16


class TestRemapConsistency:
    def test_pod_remaps_stay_bijective_after_run(self, geometry, trace):
        manager = build_manager("mempod", geometry)
        simulate(trace, manager)
        for pod in manager.pods:
            pod.remap.check_invariants()

    def test_pod_remaps_stay_intra_pod(self, geometry, trace):
        manager = build_manager("mempod", geometry)
        simulate(trace, manager)
        for pod in manager.pods:
            for page in pod.remap._forward:
                frame = pod.remap.location_of(page)
                assert geometry.page_pod(page) == pod.pod_id
                assert geometry.page_pod(frame) == pod.pod_id
