"""The N-tier generalisation: routing, parity, legality, and the
three-tier design point.

Four concerns:

* ``TieredMemory`` address routing — ``tier_of``/``locate``/
  ``tier_offset`` and the geometry's tier table agree with the
  cumulative-span arithmetic on 1-, 2-, and 3-tier systems;
* two-tier parity — a ``HybridMemory`` (the thin constructor) and a
  hand-assembled ``TieredMemory`` over the same devices are
  state-snapshot identical after a seeded access stream, i.e. the
  refactor changed no observable two-tier behaviour;
* spec-grammar legality — zero-byte tiers, unknown timings, and
  illegal ``swap_tiers`` pairs are rejected with ``ConfigError``
  naming the offending field, and a runtime swap outside the declared
  pairs raises ``MigrationError``;
* the registered ``mempod-3tier`` / ``mempod-bypass`` specs — the
  three-tier point runs end to end under the sanitizer (producing a
  field-for-field identical result), dispatches to the reference loop
  via ``fallback:multi-tier``, and the bypass axis is deterministic
  and collapses onto canonical MemPod at probability zero.
"""

import dataclasses

import pytest

from repro import build_trace, get_workload, scaled_geometry
from repro.common.errors import AddressError, ConfigError, MigrationError
from repro.common.rng import DeterministicRng
from repro.dram.devices import DDR4_1600_TIMING, HBM_TIMING, PCM_TIMING
from repro.kernel.replay import select_kernel
from repro.kernel import replay
from repro.mechanisms.registry import (
    build_manager,
    register_mechanism,
    unregister_mechanism,
)
from repro.mechanisms.spec import MechanismSpec, TierSpec
from repro.analysis.sanitize import SanitizerError, SimulationSanitizer
from repro.managers import NoMigrationManager
from repro.system.hybrid import HybridMemory, TieredMemory, build_device
from repro.system.simulator import reference_simulate, simulate


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(64)


@pytest.fixture(scope="module")
def trace(geometry):
    return build_trace(get_workload("mix3"), geometry, length=15_000, seed=11).trace


def _three_tier(geometry):
    """A hand-built HBM + half-DDR4 + half-PCM memory over ``geometry``."""
    tier_geometry = dataclasses.replace(
        geometry,
        slow_bytes=geometry.slow_bytes // 2,
        extra_tiers=(
            (geometry.slow_bytes // 2, geometry.slow_channels, "PCM-800"),
        ),
    )
    devices = [
        build_device("HBM", HBM_TIMING, tier_geometry.fast_bytes,
                     tier_geometry.fast_channels, tier_geometry),
        build_device("DDR4-1600", DDR4_1600_TIMING, tier_geometry.slow_bytes,
                     tier_geometry.slow_channels, tier_geometry),
        build_device("PCM-800", PCM_TIMING, geometry.slow_bytes // 2,
                     tier_geometry.slow_channels, tier_geometry),
    ]
    return TieredMemory(tier_geometry, devices), tier_geometry


class TestTierRouting:
    def test_tier_boundaries(self, geometry):
        memory, tier_geometry = _three_tier(geometry)
        fast = tier_geometry.fast_bytes
        slow = tier_geometry.slow_bytes
        assert memory.tier_of(0) == 0
        assert memory.tier_of(fast - 1) == 0
        assert memory.tier_of(fast) == 1
        assert memory.tier_of(fast + slow - 1) == 1
        assert memory.tier_of(fast + slow) == 2
        assert memory.tier_of(tier_geometry.total_bytes - 1) == 2
        with pytest.raises(AddressError):
            memory.tier_of(tier_geometry.total_bytes)

    def test_locate_offsets(self, geometry):
        memory, tier_geometry = _three_tier(geometry)
        for index in range(3):
            start = memory.tier_offset(index)
            tier_index, device, offset = memory.locate(start + 100)
            assert tier_index == index
            assert device is memory.tiers[index]
            assert offset == 100

    def test_is_fast_address_matches_tier_zero(self, geometry):
        memory, tier_geometry = _three_tier(geometry)
        assert memory.tier_of(tier_geometry.fast_bytes - 1) == 0
        assert memory.tier_of(tier_geometry.fast_bytes) == 1

    def test_geometry_tier_table(self, geometry):
        _, tier_geometry = _three_tier(geometry)
        assert tier_geometry.tier_count == 3
        assert sum(
            tier_geometry.tier_bytes(i) for i in range(3)
        ) == tier_geometry.total_bytes == geometry.total_bytes
        fast_pages = tier_geometry.fast_pages
        assert tier_geometry.page_tier(0) == 0
        assert tier_geometry.page_tier(fast_pages) == 1
        assert tier_geometry.page_tier(tier_geometry.managed_pages) == 2
        assert tier_geometry.page_tier(tier_geometry.total_pages - 1) == 2

    def test_two_tier_aliases_survive(self, geometry):
        memory = HybridMemory(geometry)
        assert memory.fast is memory.tiers[0]
        assert memory.slow is memory.tiers[1]
        assert len(memory.tiers) == 2
        with pytest.raises(AttributeError):
            memory.device

    def test_three_tier_has_no_device_alias(self, geometry):
        memory, _ = _three_tier(geometry)
        with pytest.raises(AttributeError):
            memory.device

    def test_bad_extra_tier_rejected(self, geometry):
        with pytest.raises(ConfigError):
            dataclasses.replace(
                geometry,
                extra_tiers=((geometry.slow_bytes + 12345, 4, "PCM-800"),),
            )


def _snapshot(memory):
    """Full observable controller state of a memory system."""
    state = []
    for device in memory.tiers:
        for ctrl in device.controllers:
            stats = ctrl.stats
            state.append((
                ctrl.bus_free_ps,
                ctrl.last_completion_ps,
                stats.served, stats.reads, stats.writes,
                stats.demand_count, stats.demand_latency_ps,
                stats.row_hits,
                [(bank.busy_until_ps, bank.open_row) for bank in ctrl.banks],
            ))
    return state


class TestTwoTierParity:
    """HybridMemory (thin constructor) == hand-built two-tier TieredMemory."""

    def _build_pair(self, geometry):
        hybrid = HybridMemory(geometry)
        fast = build_device(
            HBM_TIMING.name, HBM_TIMING, geometry.fast_bytes,
            geometry.fast_channels, geometry,
        )
        slow = build_device(
            DDR4_1600_TIMING.name, DDR4_1600_TIMING, geometry.slow_bytes,
            geometry.slow_channels, geometry,
        )
        tiered = TieredMemory(geometry, [fast, slow])
        return hybrid, tiered

    def test_state_snapshot_equality(self, geometry):
        hybrid, tiered = self._build_pair(geometry)
        rng = DeterministicRng(23).child("tiered-parity")
        clock = 0
        for _ in range(4000):
            address = rng.randrange(geometry.total_bytes) & ~63
            is_write = rng.random() < 0.3
            clock += rng.randint(100, 2000)
            hybrid.access(address, is_write, clock)
            tiered.access(address, is_write, clock)
        assert _snapshot(hybrid) == _snapshot(tiered)
        assert hybrid.flush() == tiered.flush()
        assert _snapshot(hybrid) == _snapshot(tiered)

    def test_merged_stats_equality(self, geometry):
        hybrid, tiered = self._build_pair(geometry)
        rng = DeterministicRng(5).child("tiered-parity-stats")
        for step in range(2000):
            address = rng.randrange(geometry.total_bytes) & ~63
            hybrid.access(address, False, step * 500)
            tiered.access(address, False, step * 500)
        hybrid.flush()
        tiered.flush()
        assert vars(hybrid.merged_stats()) == vars(tiered.merged_stats())


class TestSpecLegality:
    def test_zero_byte_tier_rejected(self, geometry):
        spec = MechanismSpec(
            name="test-zero-tier",
            summary="zero-byte tier fixture",
            trigger="none",
            flexibility="none",
            remap_policy="none",
            tracker=None,
            factory=NoMigrationManager,
            memory_kind=(
                TierSpec("HBM", source="fast"),
                TierSpec("PCM-800", source="slow", capacity_div=1 << 50),
            ),
        )
        register_mechanism("test-zero-tier", spec, replace=True)
        try:
            with pytest.raises(ConfigError, match=r"memory_kind\[1\].*zero-byte"):
                build_manager("test-zero-tier", geometry)
        finally:
            unregister_mechanism("test-zero-tier")

    def test_unknown_timing_rejected(self):
        spec = MechanismSpec(
            name="test-bad-timing",
            summary="unknown timing fixture",
            trigger="none",
            flexibility="none",
            remap_policy="none",
            tracker=None,
            factory=NoMigrationManager,
            memory_kind=(TierSpec("DDR5-9999"),),
        )
        with pytest.raises(ConfigError, match=r"memory_kind\[0\]\.timing"):
            spec.validate()

    def test_illegal_swap_pair_rejected(self):
        spec = MechanismSpec(
            name="test-bad-pair",
            summary="illegal swap pair fixture",
            trigger="none",
            flexibility="none",
            remap_policy="none",
            tracker=None,
            factory=NoMigrationManager,
            memory_kind=(TierSpec("HBM", source="fast"), TierSpec("DDR4-1600")),
            swap_tiers=((0, 5),),
        )
        with pytest.raises(ConfigError, match=r"swap_tiers"):
            spec.validate()

    def test_empty_descriptor_rejected(self):
        spec = MechanismSpec(
            name="test-empty",
            summary="empty descriptor fixture",
            trigger="none",
            flexibility="none",
            remap_policy="none",
            tracker=None,
            factory=NoMigrationManager,
            memory_kind=(),
        )
        with pytest.raises(ConfigError):
            spec.validate()

    def test_runtime_swap_outside_declared_pairs_raises(self, geometry):
        manager = build_manager("mempod", geometry)
        manager.swap_tiers = ()  # declare every cross-tier swap illegal
        fast_frame = 0
        slow_frame = geometry.fast_pages  # first slow-tier page
        with pytest.raises(MigrationError, match="illegal swap pair"):
            manager._apply_swap(fast_frame, slow_frame, 0, 0)

    def test_same_tier_swap_always_legal(self, geometry):
        manager = build_manager("mempod", geometry)
        manager.swap_tiers = ()
        tiers = manager._check_swap_tiers(1, 2)
        assert tiers == (0, 0)

    def test_parameter_range_enforced(self, geometry):
        with pytest.raises(ConfigError, match="bypass_probability"):
            build_manager("mempod-bypass", geometry, bypass_probability=2.0)
        with pytest.raises(ConfigError, match="bypass_probability"):
            build_manager("mempod-bypass", geometry, bypass_probability=-0.1)


class TestThreeTierMechanism:
    def test_carves_flat_space(self, geometry):
        manager = build_manager("mempod-3tier", geometry)
        memory = manager.memory
        assert len(memory.tiers) == 3
        assert [tier.name for tier in memory.tiers] == [
            "HBM", "DDR4-1600", "PCM-800",
        ]
        assert manager.geometry.total_bytes == geometry.total_bytes
        assert manager.swap_tiers == ((0, 1),)

    def test_dispatches_to_reference_loop(self, geometry):
        manager = build_manager("mempod-3tier", geometry)
        kernel, reason = select_kernel(manager)
        assert kernel is None
        assert reason == "fallback:multi-tier"
        # The canonical two-tier MemPod still gets its fast kernel.
        kernel, reason = select_kernel(build_manager("mempod", geometry))
        assert kernel is not None
        assert reason == "specialised:mempod"

    def test_sanitized_run_matches_plain(self, geometry, trace):
        plain = simulate(trace, build_manager("mempod-3tier", geometry))
        sanitized = simulate(
            trace, build_manager("mempod-3tier", geometry), sanitize=True
        )
        assert dataclasses.asdict(plain) == dataclasses.asdict(sanitized)
        assert replay.last_dispatch == "fallback:multi-tier"

    def test_per_tier_extras_reported(self, geometry, trace):
        result = simulate(trace, build_manager("mempod-3tier", geometry))
        for index in range(3):
            assert f"tier{index}_row_hit_rate" in result.extras
            assert f"tier{index}_service_fraction" in result.extras
        fractions = [
            result.extras[f"tier{index}_service_fraction"] for index in range(3)
        ]
        assert sum(fractions) == pytest.approx(1.0)

    def test_migrations_never_touch_far_tier(self, geometry, trace):
        manager = build_manager("mempod-3tier", geometry)
        simulate(trace, manager)
        assert manager.total_migrations > 0
        managed = manager.geometry.managed_pages
        for pod in manager.pods:
            for page, frame in pod.remap._forward.items():
                assert page < managed and frame < managed

    def test_tier_closure_check_fires(self, geometry):
        manager = build_manager("mempod-3tier", geometry)
        sanitizer = SimulationSanitizer(manager)
        tier_geometry = manager.geometry
        far_page = tier_geometry.managed_pages  # first PCM page
        with pytest.raises(SanitizerError, match="tier-closure"):
            sanitizer._check_tier_pair(0, far_page, cycle_ps=0)
        # The declared (0, 1) pair passes.
        sanitizer._check_tier_pair(0, tier_geometry.fast_pages, cycle_ps=0)


class TestBypassMechanism:
    def test_deterministic(self, geometry, trace):
        first = simulate(
            trace, build_manager("mempod-bypass", geometry, bypass_probability=0.5)
        )
        second = simulate(
            trace, build_manager("mempod-bypass", geometry, bypass_probability=0.5)
        )
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_zero_probability_matches_canonical_mempod(self, geometry, trace):
        bypass = build_manager("mempod-bypass", geometry, bypass_probability=0.0)
        result = reference_simulate(trace, bypass)
        canonical = reference_simulate(trace, build_manager("mempod", geometry))
        assert bypass.bypassed == 0
        left = dataclasses.asdict(result)
        right = dataclasses.asdict(canonical)
        assert left.pop("manager") == "MemPod-bypass"
        assert right.pop("manager") == "MemPod"
        assert left == right

    def test_subclass_falls_back(self, geometry):
        manager = build_manager("mempod-bypass", geometry)
        kernel, reason = select_kernel(manager)
        assert kernel is None
        assert reason == "fallback:subclass:BypassingMemPodManager"

    def test_bypass_count_tracks_probability(self, geometry, trace):
        manager = build_manager("mempod-bypass", geometry, bypass_probability=0.5)
        simulate(trace, manager)
        assert manager.bypassed == pytest.approx(len(trace) * 0.5, rel=0.1)
