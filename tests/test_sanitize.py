"""Tests for the runtime simulation sanitizer.

Two contracts: a sanitized run is **observationally free** (its result
equals the reference loop's field for field, across every mechanism),
and every invariant **actually fires** when the corresponding state is
corrupted.
"""

from dataclasses import asdict, replace

import pytest

from repro.analysis.sanitize import (
    CHECK_PERIOD,
    SANITIZE_ENV_VAR,
    SanitizerError,
    SimulationSanitizer,
    resolve_sanitize,
    sanitized_simulate,
)
from repro.common.errors import SimulationError
from repro.geometry import scaled_geometry
from repro.system.simulator import (
    MANAGER_KINDS,
    build_manager,
    reference_simulate,
    simulate,
)
from repro.trace import build_trace, get_workload
from repro.trace.record import Trace


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(32)


def _trace(geometry, workload="xalanc", length=4_000, seed=3):
    return build_trace(get_workload(workload), geometry, length=length, seed=seed).trace


class TestResolveSanitize:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        assert resolve_sanitize() is False

    @pytest.mark.parametrize("value,expected", [("1", True), ("yes", True), ("0", False), ("", False)])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(SANITIZE_ENV_VAR, value)
        assert resolve_sanitize() is expected

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        assert resolve_sanitize(False) is False
        monkeypatch.setenv(SANITIZE_ENV_VAR, "0")
        assert resolve_sanitize(True) is True


class TestResultIdentity:
    """Sanitized runs are field-for-field identical to unsanitized ones."""

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_every_mechanism(self, geometry, kind):
        trace = _trace(geometry)
        reference = reference_simulate(trace, build_manager(kind, geometry))
        sanitized = sanitized_simulate(trace, build_manager(kind, geometry))
        assert asdict(sanitized) == asdict(reference)

    def test_simulate_flag(self, geometry):
        trace = _trace(geometry, length=2_000)
        reference = reference_simulate(trace, build_manager("mempod", geometry))
        flagged = simulate(trace, build_manager("mempod", geometry), sanitize=True)
        assert asdict(flagged) == asdict(reference)

    def test_simulate_env(self, geometry, monkeypatch):
        trace = _trace(geometry, length=2_000)
        reference = reference_simulate(trace, build_manager("thm", geometry))
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        ambient = simulate(trace, build_manager("thm", geometry))
        assert asdict(ambient) == asdict(reference)

    def test_empty_trace(self, geometry):
        trace = Trace(name="empty", records=[])
        reference = reference_simulate(trace, build_manager("tlm", geometry))
        sanitized = sanitized_simulate(trace, build_manager("tlm", geometry))
        assert asdict(sanitized) == asdict(reference)

    def test_checks_run_during_replay(self, geometry, monkeypatch):
        """Boundary detection must trigger mid-run sweeps, not just the
        final one."""
        cycles = []
        original = SimulationSanitizer.check

        def counting(self, cycle_ps):
            cycles.append(cycle_ps)
            original(self, cycle_ps)

        monkeypatch.setattr(SimulationSanitizer, "check", counting)
        sanitized_simulate(_trace(geometry), build_manager("mempod", geometry))
        # at least one boundary/periodic sweep before the final check
        assert len(cycles) >= 2


class TestCheckCadence:
    """The exact cycles the sanitizer sweeps at, derived from the arrivals.

    A sweep runs at the arrival of every record that moves the manager's
    interval boundary, and otherwise at every CHECK_PERIOD-th record
    since the last sweep; the final sweep runs at ``duration_ps``.  The
    arrivals are the ones ``observe`` receives: the CPU throttle may
    shift them past the trace's own timestamps.
    """

    @staticmethod
    def _sweeps(monkeypatch, trace, manager):
        """``(sweep cycles, observed arrivals, result)`` of one run."""
        cycles = []
        arrivals = []
        check = SimulationSanitizer.check
        observe = SimulationSanitizer.observe

        def recording(self, cycle_ps):
            cycles.append(cycle_ps)
            check(self, cycle_ps)

        def observing(self, arrival_ps):
            arrivals.append(arrival_ps)
            observe(self, arrival_ps)

        monkeypatch.setattr(SimulationSanitizer, "check", recording)
        monkeypatch.setattr(SimulationSanitizer, "observe", observing)
        result = sanitized_simulate(trace, manager)
        assert len(arrivals) == len(trace)
        return cycles, arrivals, result

    def test_periodic_only(self, geometry, monkeypatch):
        trace = _trace(geometry)
        cycles, arrivals, result = self._sweeps(
            monkeypatch, trace, build_manager("thm", geometry)
        )
        expected = arrivals[CHECK_PERIOD - 1::CHECK_PERIOD]
        assert len(expected) == 3
        assert cycles == expected + [result.duration_ps]

    def test_boundaries_restart_the_countdown(self, geometry, monkeypatch):
        interval_ps = 10_000_000
        trace = _trace(geometry)
        cycles, arrivals, result = self._sweeps(
            monkeypatch,
            trace,
            build_manager("mempod", geometry, interval_ps=interval_ps),
        )
        expected = []
        boundary_sweeps = periodic_sweeps = 0
        next_boundary = interval_ps
        countdown = CHECK_PERIOD
        for arrival in arrivals:
            crossed = arrival >= next_boundary
            while arrival >= next_boundary:
                next_boundary += interval_ps
            countdown -= 1
            if crossed or countdown == 0:
                expected.append(arrival)
                boundary_sweeps += crossed
                periodic_sweeps += not crossed
                countdown = CHECK_PERIOD
        assert boundary_sweeps >= 2 and periodic_sweeps >= 1
        assert cycles == expected + [result.duration_ps]


class TestSimCellRecordsSanitize:
    def test_ambient_flag_recorded(self, monkeypatch):
        from repro.experiments.common import ExperimentConfig
        from repro.runner.pool import sim_cell

        config = ExperimentConfig(scale=64, length=100, seed=1)
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        cell = sim_cell(config, "xalanc", "tlm")
        assert cell.sanitize is True
        assert cell.payload()["sanitize"] is True
        monkeypatch.delenv(SANITIZE_ENV_VAR)
        cell = sim_cell(config, "xalanc", "tlm")
        assert cell.sanitize is False
        assert cell.payload()["sanitize"] is False


# -- invariant firing -------------------------------------------------------


def _warmed(geometry, kind, length=600, **params):
    """A manager that has replayed a short trace (realistic state)."""
    manager = build_manager(kind, geometry, **params)
    reference_simulate(_trace(geometry, length=length), manager)
    return manager


def _invariant(excinfo):
    return excinfo.value.invariant


class TestRemapInvariants:
    def test_forward_without_resident(self, geometry):
        manager = _warmed(geometry, "mempod")
        pod = manager.pods[0]
        pod.remap._forward[1] = 2  # no matching inverted entry
        sanitizer = SimulationSanitizer(manager)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(0)
        assert _invariant(excinfo) == "remap-bijectivity"
        assert excinfo.value.pod == 0

    def test_identity_entry_stored(self, geometry):
        manager = _warmed(geometry, "mempod")
        pod = manager.pods[0]
        pod.remap._forward[3] = 3
        pod.remap._resident[3] = 3
        sanitizer = SimulationSanitizer(manager)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(0)
        assert _invariant(excinfo) == "remap-bijectivity"

    def test_cross_pod_migration(self, geometry):
        manager = _warmed(geometry, "mempod")
        pod = manager.pods[0]
        page = next(p for p in range(geometry.total_pages) if geometry.page_pod(p) == 0)
        frame = next(p for p in range(geometry.total_pages) if geometry.page_pod(p) == 1)
        pod.remap._forward[page] = frame
        pod.remap._resident[frame] = page
        sanitizer = SimulationSanitizer(manager)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(0)
        assert _invariant(excinfo) == "pod-closure"

    def test_thm_segment_closure(self, geometry):
        manager = _warmed(geometry, "thm")
        page = next(
            p for p in range(geometry.total_pages) if manager.segment_of(p) == 0
        )
        frame = next(
            p for p in range(geometry.total_pages) if manager.segment_of(p) == 1
        )
        manager._location[page] = frame
        manager._resident[frame] = page
        sanitizer = SimulationSanitizer(manager)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(0)
        assert _invariant(excinfo) == "segment-closure"

    def test_cameo_group_closure(self, geometry):
        manager = _warmed(geometry, "cameo")
        line = next(x for x in range(1 << 20) if manager.group_of(x) == 0)
        slot = next(x for x in range(1 << 20) if manager.group_of(x) == 1)
        manager._location[line] = slot
        manager._resident[slot] = line
        sanitizer = SimulationSanitizer(manager)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(0)
        assert _invariant(excinfo) == "group-closure"


class TestMeaInvariants:
    def test_capacity_overflow(self, geometry):
        manager = _warmed(geometry, "mempod")
        mea = manager.pods[0].mea
        mea._table = {page: 1 for page in range(mea.capacity + 1)}
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "mea-capacity"

    def test_zero_counter(self, geometry):
        manager = _warmed(geometry, "mempod")
        mea = manager.pods[0].mea
        mea._table = {7: 0}  # must have been evicted by its decrement round
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "mea-counter-range"

    def test_counter_above_saturation(self, geometry):
        manager = _warmed(geometry, "mempod")
        mea = manager.pods[0].mea
        mea._table = {7: mea._max_count + 1}
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "mea-counter-range"

    def test_eviction_without_decrement_round(self, geometry):
        manager = _warmed(geometry, "mempod")
        mea = manager.pods[0].mea
        mea.decrement_rounds = 0
        mea.evictions = 1
        mea.insertions = 5
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "mea-decrement-semantics"

    def test_more_evictions_than_insertions(self, geometry):
        manager = _warmed(geometry, "mempod")
        mea = manager.pods[0].mea
        mea.decrement_rounds = 1
        mea.insertions = 2
        mea.evictions = 5
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "mea-decrement-semantics"


class TestBlockingInvariant:
    def test_block_without_expiry_entry(self, geometry):
        manager = _warmed(geometry, "mempod")
        manager._blocked.clear()
        manager._blocked_expiry.clear()
        manager._blocked[42] = 10**12  # never pushed onto the expiry heap
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "block-expiry-coverage"


class TestTimelineInvariants:
    def _snapshotted(self, geometry, kind="tlm"):
        manager = _warmed(geometry, kind)
        sanitizer = SimulationSanitizer(manager)
        sanitizer.check(0)  # record the shadow snapshot
        return manager, sanitizer

    def test_bus_rewind(self, geometry):
        manager, sanitizer = self._snapshotted(geometry)
        ctrl = manager.memory.fast.controllers[0]
        assert ctrl.bus_free_ps > 0
        ctrl.bus_free_ps -= 1
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(1)
        assert _invariant(excinfo) == "bus-monotonicity"

    def test_completion_rewind(self, geometry):
        manager, sanitizer = self._snapshotted(geometry)
        ctrl = manager.memory.fast.controllers[0]
        ctrl.last_completion_ps -= 1
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(1)
        assert _invariant(excinfo) == "completion-monotonicity"

    def test_bank_rewind(self, geometry):
        manager, sanitizer = self._snapshotted(geometry)
        bank = max(
            (b for ctrl in manager.memory.fast.controllers for b in ctrl.banks),
            key=lambda b: b.busy_until_ps,
        )
        assert bank.busy_until_ps > 0
        bank.busy_until_ps -= 1
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check(1)
        assert _invariant(excinfo) == "bank-monotonicity"

    def test_illegal_open_row(self, geometry):
        manager = _warmed(geometry, "tlm")
        device = manager.memory.fast
        device.controllers[0].banks[0].open_row = device.mapper.rows_per_bank
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "row-legality"

    def test_activation_after_busy_window(self, geometry):
        manager = _warmed(geometry, "tlm")
        bank = manager.memory.fast.controllers[0].banks[0]
        bank.open_row = 0
        bank.activated_ps = bank.busy_until_ps + 10
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "row-legality"


class TestStatsInvariants:
    def test_served_read_write_split(self, geometry):
        manager = _warmed(geometry, "tlm")
        manager.memory.fast.controllers[0].stats.served += 1
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "stats-conservation"

    def test_kind_latency_split(self, geometry):
        manager = _warmed(geometry, "tlm")
        manager.memory.fast.controllers[0].stats.demand_latency_ps += 5
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "stats-conservation"

    def test_row_hits_bounded_by_served(self, geometry):
        manager = _warmed(geometry, "tlm")
        stats = manager.memory.fast.controllers[0].stats
        stats.row_hits = stats.served + 1
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check(0)
        assert _invariant(excinfo) == "stats-conservation"


class TestFinalInvariants:
    def _finished(self, geometry):
        trace = _trace(geometry, length=600)
        manager = build_manager("tlm", geometry)
        result = reference_simulate(trace, manager)
        return trace, manager, result

    def test_clean_final_passes(self, geometry):
        trace, manager, result = self._finished(geometry)
        SimulationSanitizer(manager).check_final(trace, result, 10**9)

    def test_demand_conservation(self, geometry):
        trace, manager, result = self._finished(geometry)
        truncated = Trace(name=trace.name, records=trace.records[:-1])
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check_final(truncated, result, 10**9)
        assert _invariant(excinfo) == "demand-conservation"

    def test_ammat_definition(self, geometry):
        trace, manager, result = self._finished(geometry)
        doctored = replace(result, ammat_ns=result.ammat_ns + 1.0)
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check_final(trace, doctored, 10**9)
        assert _invariant(excinfo) == "ammat-definition"

    def test_served_conservation(self, geometry):
        trace, manager, result = self._finished(geometry)
        doctored = replace(result, served=result.served + 1)
        with pytest.raises(SanitizerError) as excinfo:
            SimulationSanitizer(manager).check_final(trace, doctored, 10**9)
        assert _invariant(excinfo) == "served-conservation"


class TestSanitizerErrorStructure:
    def test_fields_and_message(self):
        error = SanitizerError("remap-bijectivity", "detail here", pod=3, cycle_ps=500)
        assert isinstance(error, SimulationError)
        assert error.invariant == "remap-bijectivity"
        assert error.pod == 3
        assert error.cycle_ps == 500
        message = str(error)
        assert "invariant 'remap-bijectivity' violated" in message
        assert "pod 3" in message
        assert "cycle 500 ps" in message
        assert "detail here" in message

    def test_location_optional(self):
        error = SanitizerError("stats-conservation", "detail")
        assert error.pod is None and error.cycle_ps is None
        assert str(error) == "invariant 'stats-conservation' violated: detail"
