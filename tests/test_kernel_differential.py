"""Differential suite: the fast kernel must equal the reference loop.

This is the contract that lets ``kernel="fast"`` be the default: for
every mechanism in ``MANAGER_KINDS``, across workloads, seeds and
cache configurations, the fast kernel's
``SimulationResult`` must equal the reference loop's **field for
field** — not approximately, identically.  Any divergence is a kernel
bug by definition (the reference loop is the semantic spec).
"""

from dataclasses import asdict
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernel.replay
from repro.analysis.sanitize import sanitized_simulate
from repro.common.errors import AddressError
from repro.common.rng import DeterministicRng
from repro.core.datapath import MigrationStats
from repro.core.remap import RemapTable
from repro.dram.controller import ChannelController
from repro.experiments.common import ExperimentConfig
from repro.geometry import scaled_geometry
from repro.managers.base import ComposedManager, MemoryManager
from repro.managers.cameo import CameoManager
from repro.managers.hma import HmaManager
from repro.mechanisms.registry import mechanism_names
from repro.system.simulator import (
    MANAGER_KINDS,
    build_manager,
    reference_simulate,
    resolve_kernel,
    simulate,
)
from repro.trace import build_trace, get_workload
from repro.trace.io import save_columnar
from repro.trace.record import Trace
from repro.trace.store import open_columnar


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(32)


def _trace(geometry, workload, length=6_000, seed=3):
    return build_trace(get_workload(workload), geometry, length=length, seed=seed).trace


def assert_kernels_agree(trace, geometry, kind, **params):
    reference = reference_simulate(trace, build_manager(kind, geometry, **params))
    manager = build_manager(kind, geometry, **params)
    fast = simulate(trace, manager, kernel="fast")
    assert asdict(fast) == asdict(reference)
    return manager


@pytest.fixture()
def no_numpy(monkeypatch):
    """numpy patched out of every module with a numpy leg, as on a
    numpy-free install: the record stream decodes through each
    mapper's ``fast_decode`` and ``open_columnar`` returns an eager
    trace."""
    import repro.trace.io
    import repro.trace.packed
    import repro.tracking.competing
    import repro.tracking.full_counters
    import repro.tracking.mea

    monkeypatch.setattr(repro.trace.io, "_np", None)
    monkeypatch.setattr(repro.trace.packed, "_np", None)
    monkeypatch.setattr(repro.kernel.replay, "_np", None)
    monkeypatch.setattr(repro.tracking.mea, "_np", None)
    monkeypatch.setattr(repro.tracking.competing, "_np", None)
    monkeypatch.setattr(repro.tracking.full_counters, "_np", None)


class TestEveryMechanism:
    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    @pytest.mark.parametrize("workload", ["xalanc", "mix8", "libquantum"])
    def test_default_config(self, geometry, kind, workload):
        assert_kernels_agree(_trace(geometry, workload), geometry, kind)

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_second_seed(self, geometry, kind):
        assert_kernels_agree(
            _trace(geometry, "mix9", seed=17), geometry, kind
        )


class TestFallbackConfigurations:
    """Metadata-cache configs run through the reference fallback inside
    fast_simulate; equality must still hold end to end."""

    def test_mempod_with_remap_cache(self, geometry):
        assert_kernels_agree(
            _trace(geometry, "xalanc"), geometry, "mempod", cache_bytes=4096
        )

    def test_hma_stall_penalty_mode(self, geometry):
        # A short epoch, so the stall-mode epochs (memory.block_until)
        # run and migrate: the kernel must land its buffered demand and
        # due swaps before each one.
        manager = assert_kernels_agree(
            _trace(geometry, "xalanc"), geometry, "hma", penalty_mode="stall",
            interval_ps=5_000_000, sort_penalty_ps=500_000,
        )
        assert manager.intervals > 0
        assert manager.total_migrations > 0

    def test_hma_with_counter_cache(self, geometry):
        assert_kernels_agree(
            _trace(geometry, "mix8"), geometry, "hma", cache_bytes=4096
        )

    def test_thm_with_srt_cache(self, geometry):
        assert_kernels_agree(
            _trace(geometry, "mix8"), geometry, "thm", cache_bytes=4096
        )

    def test_manager_subclass_falls_back(self, geometry):
        """A subclass may override anything; dispatch must not trust it."""
        from repro.kernel import replay
        from repro.managers.static import NoMigrationManager

        calls = []

        class Audited(NoMigrationManager):
            def handle(self, address, is_write, arrival_ps, core):
                calls.append(address)
                super().handle(address, is_write, arrival_ps, core)

        trace = _trace(geometry, "xalanc", length=500)
        memory = build_manager("tlm", geometry).memory
        result = replay.fast_simulate(trace, Audited(memory, geometry))
        assert len(calls) == len(trace)  # went through handle, not the kernel
        reference = reference_simulate(trace, build_manager("tlm", geometry))
        assert asdict(result) == asdict(reference)


def manager_state(manager):
    """Every leaf of the state reachable through ``vars()`` from
    ``manager``, keyed by its attribute path.

    That covers the memory and its tiers, the controllers with their
    banks and pending buffers, the engine, the tracker, the remap
    tables, the block tables and the swap queue.  Tuples flatten like
    lists, so a pending entry compares field by field, where ``False ==
    0`` (a bool compares as an int).  Only the ``service_paths`` sidecar
    is skipped: it tallies which controller engine served a
    transaction, which differs between the paths by design.  An object
    met twice (a controller is listed by the memory and by its device)
    is walked once, at its first path.
    """
    leaves = {}
    seen = set()

    def walk(obj, path):
        if isinstance(obj, dict):
            items = obj.items()
        elif isinstance(obj, (list, tuple)):
            items = enumerate(obj)
        elif hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
            leaves[path] = type(obj).__qualname__
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if hasattr(obj, "__dict__"):
                items = vars(obj).items()
            else:
                items = ((name, getattr(obj, name)) for name in obj.__slots__)
        else:
            leaves[path] = obj
            return
        for key, value in items:
            if key != "service_paths":
                walk(value, f"{path}.{key}")

    walk(manager, "manager")
    return leaves


class _SampleFault(Exception):
    pass


def _fault_at_sample(memory, k):
    """Make the ``k``-th throttle sample of ``memory`` raise."""
    probe = memory.peak_bus_free_ps
    calls = count(1)

    def peak_bus_free_ps():
        if next(calls) == k:
            raise _SampleFault(k)
        return probe()

    memory.peak_bus_free_ps = peak_bus_free_ps


class TestManagerState:
    """Each kernel leaves the manager in the reference loop's state, at
    a normal exit and when a throttle sample raises mid-replay.

    The kernels keep manager and controller state in locals and write
    it back in ``finally`` blocks.  A result comparison cannot see a
    write-back that only an exception exit skips, yet the skipped one
    leaves the manager wrong for anything that reads it afterwards.
    Both paths take the same samples, and a kernel flushes its buffers
    before each one, so both must raise at the ``fault_at``-th sample
    and leave equal state.
    """

    @pytest.mark.parametrize("fault_at", [None, 7, 20, 40])
    @pytest.mark.parametrize("kind", ["tlm", "mempod", "thm", "hma", "cameo"])
    @pytest.mark.parametrize("workload", ["mix8", "xalanc"])
    def test_matches_reference(self, geometry, workload, kind, fault_at):
        trace = _trace(geometry, workload)
        # A 20 us interval, so that mempod boundaries and hma epochs run
        # before the 20th sample: mempod's default 50 us first falls due
        # after the 40th, hma's 100 ms never within the trace.
        params = {"interval_ps": 20_000_000} if kind in ("mempod", "hma") else {}
        states = []
        for replay in (reference_simulate, repro.kernel.replay.fast_simulate):
            manager = build_manager(kind, geometry, **params)
            if fault_at is None:
                replay(trace, manager)
            else:
                _fault_at_sample(manager.memory, fault_at)
                with pytest.raises(_SampleFault):
                    replay(trace, manager)
                del manager.memory.peak_bus_free_ps
            states.append(manager_state(manager))
        assert repro.kernel.replay.last_dispatch == f"specialised:{kind}"
        reference, fast = states
        assert fast == reference


class TestPurePythonTwins:
    """numpy is an accelerator, never a dependency: with it patched out,
    the comprehension-based decode/grouping legs must drive the batched
    datapath to the same bit-identical results.  (CI also runs this
    whole file on a numpy-free interpreter; these tests keep the twins
    covered on developer machines that do have numpy.)"""

    @pytest.mark.parametrize(
        "kind", ["tlm", "mempod", "thm", "hma", "cameo", "hbm-only"]
    )
    def test_without_numpy(self, geometry, kind, no_numpy):
        assert_kernels_agree(_trace(geometry, "mix8", length=3_000), geometry, kind)


def _churn_trace(geometry, seed=23, length=20_000):
    """CI's migration-churn cell: a 32-page hot set drawn from slow
    memory and redrawn every 1,500 records, one record every 30 ns."""
    rng = DeterministicRng(seed)
    hot, records, at = [], [], 0
    for i in range(length):
        if i % 1_500 == 0:
            hot = [
                geometry.fast_pages + rng.randrange(geometry.slow_pages)
                for _ in range(32)
            ]
        page = hot[rng.randrange(32)]
        address = page * geometry.page_bytes + rng.randrange(geometry.lines_per_page) * 64
        records.append((at, address, 1 if rng.random() < 0.3 else 0, 0))
        at += 30_000
    return Trace.from_records("churn", records, geometry.page_bytes)


def _churn_copy(churn, copy, tmp_path):
    """The churn trace itself, or a mapped copy of it."""
    if copy == "in-memory":
        return churn
    path = tmp_path / "churn.mpt"
    save_columnar(churn, path)
    return open_columnar(path, name="churn")


class TestHmaChurn:
    """HMA's kernel on the migration-churn cell.

    The scaled epoch schedules hundreds of paced swaps.  The kernel is
    one per-record loop over the windowed record source: it checks the
    epoch and due swaps inline, reads the live page table and block
    table per record, and never takes a sorted snapshot of either.
    """

    HMA = ExperimentConfig().hma_params()

    @pytest.fixture(scope="class")
    def churn(self, geometry):
        return _churn_trace(geometry)

    @pytest.fixture(scope="class")
    def reference(self, churn, geometry):
        return asdict(reference_simulate(churn, build_manager("hma", geometry, **self.HMA)))

    def _fast(self, trace, geometry):
        return asdict(
            simulate(trace, build_manager("hma", geometry, **self.HMA), kernel="fast")
        )

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    def test_matches_reference(self, churn, reference, geometry, tmp_path, copy):
        assert self._fast(_churn_copy(churn, copy, tmp_path), geometry) == reference

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    def test_matches_reference_without_numpy(
        self, churn, reference, geometry, tmp_path, copy, no_numpy
    ):
        assert self._fast(_churn_copy(churn, copy, tmp_path), geometry) == reference

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    def test_no_handle_and_no_snapshots(
        self, churn, reference, geometry, tmp_path, monkeypatch, copy
    ):
        # Neither the per-record manager path nor a sorted page-table
        # or block-table snapshot may run.
        def refuse(*args, **kwargs):
            raise AssertionError("handle or snapshot called")

        monkeypatch.setattr(HmaManager, "handle", refuse)
        monkeypatch.setattr(ComposedManager, "remap_columns", refuse)
        monkeypatch.setattr(MemoryManager, "blocked_columns", refuse)
        result = self._fast(_churn_copy(churn, copy, tmp_path), geometry)
        assert result == reference
        assert result["migrations"] > 100


class TestPageSwapChurn:
    """mempod, thm and hma on the migration-churn cell with the scalar
    controller path and ``enqueue_run`` refused.

    Every page swap reaches a controller as a read run and a write run
    of identical transactions per side.  The kernels keep the engine's
    swap sink installed for the whole replay, so every swap — inline,
    at an interval boundary or at the end of the trace — passes both
    runs inside the ``enqueue_batch`` call that carries the demand
    around them: no transaction may take ``ChannelController.enqueue``
    or ``enqueue_run``.

    The prefix drain serves the row-hit twin runs that head a buffer in
    closed form: 14-20x the scan-engine services on this trace, and
    2.3-2.4x without it, so the closed forms must outnumber the scan
    services at least 4 to 1.
    """

    @pytest.fixture(scope="class")
    def churn(self, geometry):
        return _churn_trace(geometry)

    @pytest.fixture(scope="class")
    def references(self):
        return {}

    @staticmethod
    def _params(mech):
        return ExperimentConfig().hma_params() if mech == "hma" else {}

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    @pytest.mark.parametrize("mech", ["mempod", "thm", "hma"])
    def test_no_transaction_takes_enqueue(
        self, churn, references, geometry, tmp_path, monkeypatch, mech, copy
    ):
        if mech not in references:
            references[mech] = asdict(reference_simulate(
                churn, build_manager(mech, geometry, **self._params(mech))
            ))

        def refuse(*args, **kwargs):
            raise AssertionError("enqueue or enqueue_run called")

        monkeypatch.setattr(ChannelController, "enqueue", refuse)
        monkeypatch.setattr(ChannelController, "enqueue_run", refuse)
        trace = _churn_copy(churn, copy, tmp_path)
        manager = build_manager(mech, geometry, **self._params(mech))
        result = asdict(simulate(trace, manager, kernel="fast"))
        assert result == references[mech]
        assert result["migrations"] > 100
        paths = manager.memory.merged_service_paths()
        assert paths.closed_form_served > 0
        assert paths.closed_form_served >= 4 * paths.scan_served, (
            f"{paths.closed_form_served} closed-form against "
            f"{paths.scan_served} scan services: the prefix drain stopped firing"
        )


class TestCameoChurn:
    """CAMEO's kernel on the migration-churn cell.

    Almost every record is a slow hit, so almost every record swaps a
    line: the kernel inlines ``handle`` and its block, remap and
    swap-count bookkeeping, and batches the demand and each swap's
    traffic through ``enqueue_batch``.
    """

    @pytest.fixture(scope="class")
    def churn(self, geometry):
        return _churn_trace(geometry)

    @pytest.fixture(scope="class")
    def reference_run(self, churn, geometry):
        manager = build_manager("cameo", geometry)
        return asdict(reference_simulate(churn, manager)), manager

    @pytest.fixture(scope="class")
    def reference(self, reference_run):
        return reference_run[0]

    @staticmethod
    def _state(manager):
        """Post-run bookkeeping; only the swap counts reach the result."""
        return (
            manager._blocked,
            sorted(manager._blocked_expiry),
            manager.remap._forward,
            manager.remap._resident,
            manager.engine.stats,
        )

    def _fast(self, trace, geometry):
        return asdict(simulate(trace, build_manager("cameo", geometry), kernel="fast"))

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    def test_matches_reference(self, churn, reference, geometry, tmp_path, copy):
        assert self._fast(_churn_copy(churn, copy, tmp_path), geometry) == reference

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    def test_matches_reference_without_numpy(
        self, churn, reference, geometry, tmp_path, copy, no_numpy
    ):
        assert self._fast(_churn_copy(churn, copy, tmp_path), geometry) == reference

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    def test_no_record_takes_the_scalar_path(
        self, churn, reference, geometry, tmp_path, monkeypatch, copy
    ):
        # Neither the per-record manager path nor the scalar controller
        # path may run: every transaction goes down enqueue_batch.
        def refuse(*args, **kwargs):
            raise AssertionError("scalar path taken")

        monkeypatch.setattr(CameoManager, "handle", refuse)
        monkeypatch.setattr(ChannelController, "enqueue", refuse)
        result = self._fast(_churn_copy(churn, copy, tmp_path), geometry)
        assert result == reference
        assert result["migrations"] > 1_000

    @pytest.mark.parametrize("copy", ["in-memory", "mapped"])
    def test_no_bookkeeping_helper_calls(
        self, churn, reference_run, geometry, tmp_path, monkeypatch, copy
    ):
        # The block, remap and swap-count helpers handle calls per
        # record are inlined too: none may run, and the manager must
        # end in the reference manager's state.
        def refuse(*args, **kwargs):
            raise AssertionError("bookkeeping helper called")

        for owner, name in (
            (MemoryManager, "_block_penalty_ps"),
            (MemoryManager, "_block_page"),
            (RemapTable, "swap_frames"),
            (MigrationStats, "note_swap"),
        ):
            monkeypatch.setattr(owner, name, refuse)
        reference, reference_manager = reference_run
        manager = build_manager("cameo", geometry)
        trace = _churn_copy(churn, copy, tmp_path)
        result = asdict(simulate(trace, manager, kernel="fast"))
        assert result == reference
        assert result["extras"]["blocked_hits"] > 0
        assert self._state(manager) == self._state(reference_manager)

    def test_idle_path_serves_the_line_swaps(self, churn, reference, geometry):
        # A line swap's demand and read share arrival, bank and row; the
        # idle path's hold and pair rules serve them.  Without the rules
        # the scan engine serves 46.5% of this trace's services, with
        # them about 3%.
        manager = build_manager("cameo", geometry)
        assert asdict(simulate(churn, manager, kernel="fast")) == reference
        scan = manager.memory.merged_service_paths().scan_served
        served = manager.memory.merged_stats().served
        assert scan <= 0.05 * served, (
            f"{scan} of {served} services on the scan engine: the idle "
            "path's hold or pair rule stopped firing"
        )


class TestFuzzedKernels:
    """Reference, fast and sanitized replays agree on random cells.

    One property over every registered mechanism — the fallbacks
    included — with small random traces on the shipped machine (the
    fixed controller window and throttle cap).  Interval- and
    epoch-triggered mechanisms get a short interval so boundaries, paced
    swaps and (for hma) stall-mode epochs fall inside the trace.
    """

    @staticmethod
    def _records(geometry, seed, length, hot_pages, gap_ps):
        # A small hot set drawn from the whole flat space, so counters
        # cross their thresholds within a few intervals.
        rng = DeterministicRng(seed)
        pages = geometry.fast_pages + geometry.slow_pages
        hot = [rng.randrange(pages) for _ in range(hot_pages)]
        records, at = [], 0
        for _ in range(length):
            page = hot[rng.randrange(hot_pages)]
            address = (page * geometry.page_bytes
                       + rng.randrange(geometry.lines_per_page) * 64)
            records.append((at, address, rng.randrange(2), 0))
            at += rng.randrange(gap_ps + 1)
        return records

    @settings(max_examples=250, deadline=None)
    @given(
        mech=st.sampled_from(mechanism_names()),
        seed=st.integers(0, 2**16),
        length=st.integers(0, 1_500),
        hot_pages=st.integers(1, 24),
        gap_ps=st.sampled_from([2_000, 30_000, 400_000]),
        records_per_interval=st.sampled_from([8, 64, 256]),
        stall=st.booleans(),
    )
    def test_replays_agree(
        self, geometry, mech, seed, length, hot_pages, gap_ps,
        records_per_interval, stall,
    ):
        trace = Trace.from_records(
            "fuzz", self._records(geometry, seed, length, hot_pages, gap_ps),
            geometry.page_bytes,
        )
        # Gaps average gap_ps / 2, so an interval spans about
        # records_per_interval records.
        interval_ps = gap_ps * records_per_interval // 2
        params = {}
        probe = build_manager(mech, geometry)
        if getattr(probe, "interval_ps", None):
            params["interval_ps"] = interval_ps
        if hasattr(probe, "penalty_mode"):
            params["sort_penalty_ps"] = interval_ps // 10
            params["penalty_mode"] = "stall" if stall else "compute"

        def replay(run, **kwargs):
            manager = build_manager(mech, geometry, **params)
            return asdict(run(trace, manager, **kwargs))

        reference = replay(reference_simulate)
        assert replay(simulate, kernel="fast") == reference
        assert replay(sanitized_simulate) == reference


class TestEdgeTraces:
    def test_empty_trace(self, geometry):
        trace = Trace(name="empty", records=[])
        assert_kernels_agree(trace, geometry, "mempod")

    def test_single_record(self, geometry):
        trace = Trace(name="one", records=[(0, 4096, 1, 0)])
        assert_kernels_agree(trace, geometry, "tlm")

    def test_boundary_heavy_trace(self, geometry):
        # Arrivals spanning many MemPod intervals, exercising the
        # boundary loop and the paced-swap queue from the kernel side.
        records = [(i * 3_000_000, (i * 8192) % (1 << 22), i % 2, 0) for i in range(512)]
        trace = Trace(name="sparse", records=records)
        for kind in ("mempod", "hma", "thm"):
            assert_kernels_agree(trace, geometry, kind)

    def test_boundaries_exactly_on_arrivals(self, geometry):
        # Records landing exactly *at* interval boundaries pin the
        # kernels' strict-vs-inclusive cut: the boundary fires before
        # the record arriving at the same picosecond (the reference
        # loop's _tick order).
        interval = build_manager("mempod", geometry).interval_ps
        records = []
        for k in range(1, 40):
            at = k * interval
            records.append((at, (k * 8192) % (1 << 22), k % 2, 0))
            records.append((at, (k * 4096) % (1 << 22), 0, 0))
            records.append((at + 1, (k * 2048) % (1 << 22), 1, 0))
        trace = Trace(name="on-boundary", records=records)
        for kind in ("mempod", "hma"):
            assert_kernels_agree(trace, geometry, kind)

    def test_empty_interval_slices(self, geometry):
        # Dense bursts separated by dozens of record-free intervals:
        # the kernels must run every boundary (tracker resets,
        # paced swap drains) without any records in between, and equal
        # arrivals inside a burst must not split chunks incorrectly.
        interval = build_manager("mempod", geometry).interval_ps
        records = []
        for burst in range(6):
            base = burst * 40 * interval
            for i in range(64):
                at = base + (i // 4)  # runs of 4 equal arrivals
                records.append((at, ((burst * 64 + i) * 8192) % (1 << 22), i % 2, 0))
        trace = Trace(name="bursty", records=records)
        for kind in ("mempod", "hma", "thm"):
            assert_kernels_agree(trace, geometry, kind)

    def test_out_of_range_address_raises_identically(self, geometry):
        bad = Trace(
            name="bad", records=[(0, 0, 0, 0), (100, geometry.total_bytes + 64, 0, 0)]
        )
        with pytest.raises(AddressError):
            reference_simulate(bad, build_manager("tlm", geometry))
        with pytest.raises(AddressError):
            simulate(bad, build_manager("tlm", geometry), kernel="fast")


class TestKernelSelection:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel() == "fast"
        assert resolve_kernel("reference") == "reference"
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert resolve_kernel() == "reference"
        assert resolve_kernel("fast") == "fast"  # explicit beats env

    def test_rejects_unknown_kernel(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            resolve_kernel("turbo")

    def test_sim_cell_records_ambient_kernel(self, monkeypatch):
        from repro.experiments.common import ExperimentConfig
        from repro.runner.pool import sim_cell

        config = ExperimentConfig(scale=64, length=100, seed=1)
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        cell = sim_cell(config, "xalanc", "tlm")
        assert cell.kernel == "reference"
        assert cell.payload()["kernel"] == "reference"
        monkeypatch.delenv("REPRO_KERNEL")
        assert sim_cell(config, "xalanc", "tlm").kernel == "fast"


class TestDispatchReasons:
    """Dispatch is structural and observable, never exception-driven."""

    def _reason(self, geometry, kind, **params):
        from repro.kernel.replay import select_kernel

        return select_kernel(build_manager(kind, geometry, **params))[1]

    def test_specialised_reasons(self, geometry):
        assert self._reason(geometry, "tlm") == "specialised:tlm"
        assert self._reason(geometry, "mempod") == "specialised:mempod"
        assert self._reason(geometry, "hma") == "specialised:hma"
        assert self._reason(geometry, "thm") == "specialised:thm"
        assert self._reason(geometry, "cameo") == "specialised:cameo"
        assert self._reason(geometry, "hbm-only") == "specialised:single-level"

    def test_fallback_reasons(self, geometry):
        from repro.kernel.replay import select_kernel

        assert (
            self._reason(geometry, "mempod", cache_bytes=4096)
            == "fallback:metadata-cache"
        )
        kernel, reason = select_kernel(build_manager("hma", geometry, cache_bytes=4096))
        assert kernel is None and reason == "fallback:metadata-cache"

    def test_subclass_reason_names_the_type(self, geometry):
        from repro.kernel.replay import select_kernel
        from repro.managers.static import NoMigrationManager

        class Audited(NoMigrationManager):
            pass

        memory = build_manager("tlm", geometry).memory
        kernel, reason = select_kernel(Audited(memory, geometry))
        assert kernel is None
        assert reason == "fallback:subclass:Audited"

    def test_last_dispatch_records_the_run(self, geometry):
        from repro.kernel import replay

        trace = _trace(geometry, "xalanc", length=300)
        replay.fast_simulate(trace, build_manager("tlm", geometry))
        assert replay.last_dispatch == "specialised:tlm"
        replay.fast_simulate(trace, build_manager("mempod", geometry, cache_bytes=4096))
        assert replay.last_dispatch == "fallback:metadata-cache"

    def test_last_dispatch_out_of_range(self, geometry):
        from repro.kernel import replay

        bad = Trace(
            name="bad", records=[(0, 0, 0, 0), (100, geometry.total_bytes + 64, 0, 0)]
        )
        with pytest.raises(AddressError):
            replay.fast_simulate(bad, build_manager("tlm", geometry))
        assert replay.last_dispatch == "fallback:out-of-range-address"

    def test_kernel_failure_propagates(self, geometry, monkeypatch):
        """A raising specialised kernel must NEVER be silently retried on
        the reference loop — that would hide kernel bugs from the
        differential suite."""
        from repro.kernel import replay

        calls = []

        def exploding(trace, packed, manager):
            calls.append(True)
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(replay, "_replay_tlm", exploding)
        trace = _trace(geometry, "xalanc", length=100)
        with pytest.raises(RuntimeError, match="kernel bug"):
            replay.fast_simulate(trace, build_manager("tlm", geometry))
        assert calls == [True]
