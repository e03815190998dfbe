"""The mechanism registry: specs, validation, and bit-identity.

Three contracts:

* the registry is the single construction path — every canonical kind
  resolves to a validated :class:`MechanismSpec` whose factory builds
  the same manager the pre-registry if-chain built, proven by running
  registry-built managers under both replay kernels and comparing
  results field for field;
* misuse fails with actionable :class:`ConfigError`\\ s — unknown
  mechanism names list the registered ones, unknown parameters name the
  legal ones, and malformed specs are rejected at registration;
* the registered composition is load-bearing — storage reports follow
  the declared components (Table 1 bit counts at paper scale), sweep
  cells fingerprint the spec, and novel hybrids run end to end through
  the reference-loop fallback.
"""

from dataclasses import asdict

import pytest

from repro.common.errors import ConfigError
from repro.geometry import paper_geometry, scaled_geometry
from repro.kernel.replay import select_kernel
from repro.managers.base import ComposedManager
from repro.mechanisms import (
    MANAGER_KINDS,
    MechanismSpec,
    build_manager,
    get_mechanism,
    mechanism_names,
    register_mechanism,
    unregister_mechanism,
)
from repro.mechanisms.hybrids import PodThmManager, TrackedEpochManager
from repro.system.simulator import reference_simulate, simulate
from repro.trace import build_trace, get_workload


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(32)


def _trace(geometry, workload="xalanc", length=4_000, seed=3):
    return build_trace(get_workload(workload), geometry, length=length, seed=seed).trace


class TestResolution:
    def test_canonical_kinds_registered(self):
        names = mechanism_names()
        for kind in MANAGER_KINDS:
            assert kind in names

    def test_hybrids_registered(self):
        names = mechanism_names()
        assert "hma-mea" in names
        assert "thm-pods" in names

    def test_canonical_kinds_lead_the_listing(self):
        assert mechanism_names()[: len(MANAGER_KINDS)] == MANAGER_KINDS

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigError, match="mempod"):
            get_mechanism("nope")

    def test_specs_validate(self):
        for name in mechanism_names():
            get_mechanism(name).validate()

    def test_spec_shape_matches_built_manager(self, geometry):
        for name in mechanism_names():
            spec = get_mechanism(name)
            manager = build_manager(name, geometry)
            assert manager.trigger == spec.trigger
            assert manager.flexibility == spec.flexibility


class TestParamValidation:
    def test_unknown_param_names_valid_ones(self, geometry):
        with pytest.raises(ConfigError, match="interval_ps"):
            build_manager("mempod", geometry, bogus=1)

    def test_unknown_param_names_offender(self, geometry):
        with pytest.raises(ConfigError, match="bogus"):
            build_manager("thm", geometry, bogus=1)

    def test_paramless_mechanism_says_none(self, geometry):
        with pytest.raises(ConfigError, match="none"):
            build_manager("tlm", geometry, interval_ps=100)

    def test_valid_params_forwarded(self, geometry):
        manager = build_manager("mempod", geometry, mea_counters=32)
        assert manager.pods[0].mea.capacity == 32

    def test_hybrid_params_forwarded(self, geometry):
        manager = build_manager("thm-pods", geometry, threshold=4)
        assert manager.counters.threshold == 4


class TestRegistration:
    def _spec(self, **overrides):
        fields = dict(
            name="test-mech",
            summary="a test mechanism",
            trigger="threshold",
            flexibility="pod",
            remap_policy="direct",
            tracker="repro.tracking.competing:CompetingCounterArray",
            factory=PodThmManager,
        )
        fields.update(overrides)
        return MechanismSpec(**fields)

    def test_register_and_build(self, geometry):
        register_mechanism("test-mech", self._spec())
        try:
            assert "test-mech" in mechanism_names()
            manager = build_manager("test-mech", geometry)
            assert isinstance(manager, PodThmManager)
        finally:
            unregister_mechanism("test-mech")
        assert "test-mech" not in mechanism_names()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_mechanism("mempod", self._spec(name="mempod"))

    def test_replace_shadows_deliberately(self, geometry):
        register_mechanism("test-mech", self._spec())
        try:
            replaced = self._spec(summary="shadowed")
            register_mechanism("test-mech", replaced, replace=True)
            assert get_mechanism("test-mech").summary == "shadowed"
        finally:
            unregister_mechanism("test-mech")

    def test_name_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not match"):
            register_mechanism("other-name", self._spec())

    def test_canonical_kind_cannot_unregister(self):
        with pytest.raises(ConfigError, match="canonical"):
            unregister_mechanism("mempod")

    def test_illegal_trigger_rejected(self):
        with pytest.raises(ConfigError, match="trigger"):
            register_mechanism("test-mech", self._spec(trigger="hourly"))

    def test_shape_disagreement_rejected(self):
        # PodThmManager declares (threshold, pod); claiming (event, pod)
        # would desynchronise the kernel dispatcher from reality.
        with pytest.raises(ConfigError, match="shape"):
            register_mechanism("test-mech", self._spec(trigger="event"))

    def test_unimportable_tracker_rejected(self):
        with pytest.raises(ConfigError, match="tracker"):
            register_mechanism(
                "test-mech", self._spec(tracker="repro.tracking.missing:Nope")
            )

    def test_future_override_must_be_valid_param(self):
        with pytest.raises(ConfigError, match="future-tech"):
            register_mechanism(
                "test-mech",
                self._spec(future_tech_overrides=(("sort_penalty_ps", 1),)),
            )


class TestBitIdentity:
    """Registry-built canonical managers equal the reference loop on
    both kernels — the refactor-safety proof for the registry path."""

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_kernels_agree_through_registry(self, geometry, kind):
        trace = _trace(geometry)
        reference = reference_simulate(trace, build_manager(kind, geometry))
        fast = simulate(trace, build_manager(kind, geometry), kernel="fast")
        assert asdict(fast) == asdict(reference)

    @pytest.mark.parametrize("kind", ("mempod", "hma", "thm", "cameo"))
    def test_canonical_kinds_dispatch_specialised(self, geometry, kind):
        _, reason = select_kernel(build_manager(kind, geometry))
        assert reason.startswith("specialised:")


class TestStorageReports:
    """Table 1 hardware budgets, derived from the composed components."""

    PAPER_BITS = {
        "mempod": {"remap_bits": 99_090_432, "tracking_bits": 5_888},
        "hma": {"remap_bits": 0, "tracking_bits": 75_497_472},
        "thm": {"remap_bits": 2_097_152, "tracking_bits": 4_194_304},
        "cameo": {"remap_bits": 67_108_864, "tracking_bits": 0},
        "tlm": {"remap_bits": 0, "tracking_bits": 0},
    }
    SCALE32_BITS = {
        "mempod": {"remap_bits": 2_359_296, "tracking_bits": 4_608},
        "hma": {"remap_bits": 0, "tracking_bits": 2_359_296},
        "thm": {"remap_bits": 65_536, "tracking_bits": 131_072},
        "cameo": {"remap_bits": 2_097_152, "tracking_bits": 0},
        "tlm": {"remap_bits": 0, "tracking_bits": 0},
    }

    @pytest.mark.parametrize("kind", sorted(PAPER_BITS))
    def test_paper_configuration(self, kind):
        manager = build_manager(kind, paper_geometry())
        assert manager.storage_report() == self.PAPER_BITS[kind]

    @pytest.mark.parametrize("kind", sorted(SCALE32_BITS))
    def test_scaled_configuration(self, geometry, kind):
        manager = build_manager(kind, geometry)
        assert manager.storage_report() == self.SCALE32_BITS[kind]

    def test_hma_mea_tracks_far_below_hma(self, geometry):
        hma = build_manager("hma", geometry).storage_report()
        hybrid = build_manager("hma-mea", geometry).storage_report()
        assert hybrid["remap_bits"] == 0  # OS page table, like HMA
        assert hybrid["tracking_bits"] < hma["tracking_bits"] // 100

    def test_thm_pods_matches_thm_budget(self, geometry):
        assert (
            build_manager("thm-pods", geometry).storage_report()
            == build_manager("thm", geometry).storage_report()
        )


class TestHybrids:
    """The registered novel mechanisms run end to end."""

    def test_hybrids_are_composed_managers(self, geometry):
        for kind in ("hma-mea", "thm-pods"):
            assert isinstance(build_manager(kind, geometry), ComposedManager)

    def test_novel_spec_falls_back(self, geometry):
        kernel, reason = select_kernel(build_manager("hma-mea", geometry))
        assert kernel is None
        assert reason == "fallback:novel-spec:TrackedEpochManager"

    def test_novel_shape_falls_back(self, geometry):
        kernel, reason = select_kernel(build_manager("thm-pods", geometry))
        assert kernel is None
        assert reason == "fallback:novel-shape:thresholdxpod"

    def test_fast_kernel_request_matches_reference(self, geometry):
        # With no specialised kernel, kernel="fast" must transparently
        # produce the reference loop's exact results.
        trace = _trace(geometry)
        for kind in ("hma-mea", "thm-pods"):
            reference = reference_simulate(trace, build_manager(kind, geometry))
            fast = simulate(trace, build_manager(kind, geometry), kernel="fast")
            assert asdict(fast) == asdict(reference)

    def test_hma_mea_migrates(self, geometry):
        trace = _trace(geometry, "xalanc", length=12_000)
        manager = build_manager(
            "hma-mea", geometry, interval_ps=50_000_000, mea_min_count=1
        )
        reference_simulate(trace, manager)
        assert manager.total_migrations > 0
        assert all(frame < geometry.total_pages for frame in manager._location.values())

    def test_thm_pods_swaps_stay_in_pod(self, geometry):
        trace = _trace(geometry, "xalanc", length=12_000)
        manager = build_manager("thm-pods", geometry, threshold=4)
        reference_simulate(trace, manager)
        assert manager.total_migrations > 0
        for page, frame in manager._location.items():
            assert geometry.page_pod(page) == geometry.page_pod(frame)

    def test_thm_pods_segments_are_pod_local(self, geometry):
        manager = build_manager("thm-pods", geometry)
        for page in range(geometry.fast_pages, geometry.total_pages, 37):
            anchor = manager.segment_of(page)
            assert anchor < geometry.fast_pages
            assert geometry.page_pod(anchor) == geometry.page_pod(page)

    def test_hybrids_run_sanitized(self, geometry):
        trace = _trace(geometry)
        for kind in ("hma-mea", "thm-pods"):
            result = simulate(trace, build_manager(kind, geometry), sanitize=True)
            assert result.demand_requests == len(trace)


class TestSweepCacheFingerprint:
    def test_sim_cell_payload_embeds_spec(self):
        from repro.experiments.common import ExperimentConfig
        from repro.runner.pool import sim_cell

        cell = sim_cell(ExperimentConfig(length=1_000), "xalanc", "mempod")
        payload = cell.payload()
        assert payload["spec"] == get_mechanism("mempod").fingerprint()

    def test_spec_edit_changes_cell_key(self, geometry):
        from repro.experiments.common import ExperimentConfig
        from repro.runner.pool import cell_key, sim_cell

        register_mechanism(
            "test-mech",
            MechanismSpec(
                name="test-mech",
                summary="cache identity probe",
                trigger="epoch",
                flexibility="global",
                remap_policy="page-table",
                tracker="repro.tracking.mea:MeaTracker",
                factory=TrackedEpochManager,
            ),
        )
        try:
            cell = sim_cell(ExperimentConfig(length=1_000), "xalanc", "test-mech")
            before = cell_key(cell)
            register_mechanism(
                "test-mech",
                MechanismSpec(
                    name="test-mech",
                    summary="cache identity probe",
                    trigger="epoch",
                    flexibility="global",
                    remap_policy="page-table",
                    tracker="repro.tracking.mea:MeaTracker",
                    factory=TrackedEpochManager,
                    valid_params=("interval_ps",),
                ),
                replace=True,
            )
            assert cell_key(cell) != before
        finally:
            unregister_mechanism("test-mech")


class TestDesignSpaceExperiment:
    def test_run_design_space_small(self):
        from repro.experiments import ExperimentConfig, run_design_space

        config = ExperimentConfig(length=2_000)
        result = run_design_space(
            config,
            mechanisms=("thm", "thm-pods"),
            workloads=("xalanc",),
        )
        assert result.workloads() == ["xalanc"]
        assert set(result.normalized["xalanc"]) == {"thm", "thm-pods"}
        assert result.specs["thm-pods"]["flexibility"] == "pod"
        assert result.storage["thm"]["remap_bits"] > 0
        table = result.format_table()
        specs = result.format_specs()
        assert "thm-pods" in table and "thm-pods" in specs
