"""Microbenchmarks of the simulator's hot paths (pytest-benchmark).

These time the structures every experiment leans on — MEA updates, the
channel-controller service loop, trace generation, and the end-to-end
replay — so performance regressions in the substrate are visible
without running a full figure.
"""

import pytest

import repro.kernel  # noqa: F401  -- pay the lazy kernel (and numpy) import
# at collection time so the first replay round times replay, not imports

from repro.common.rng import DeterministicRng
from repro.dram import HBM_TIMING
from repro.dram.controller import ChannelController
from repro.geometry import scaled_geometry
from repro.system.simulator import build_manager, simulate
from repro.trace import build_trace, get_workload
from repro.trace.record import Trace
from repro.tracking.mea import MeaTracker


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(32)


@pytest.fixture(scope="module")
def small_trace(geometry):
    return build_trace(get_workload("xalanc"), geometry, length=20_000, seed=11).trace


@pytest.fixture(scope="module")
def churn_trace(geometry):
    """Migration-heavy synthetic cell: rotating slow-region hot sets.

    Every 1,500 records the 32-page hot set is redrawn from the slow
    region, so the migration mechanisms keep promoting pages that were
    just demoted.  This drives the swap datapath and the contended
    FR-FCFS backlog (swap bursts interleaved with demand) far harder
    than the xalanc cell, which settles into a stable hot set.
    """
    rng = DeterministicRng(23)
    first_slow = geometry.fast_pages
    slow = geometry.slow_pages
    lines = geometry.lines_per_page
    hot = []
    records = []
    at = 0
    for i in range(20_000):
        if i % 1_500 == 0:
            hot = [first_slow + rng.randrange(slow) for _ in range(32)]
        page = hot[rng.randrange(32)]
        addr = page * geometry.page_bytes + rng.randrange(lines) * 64
        records.append((at, addr, 1 if rng.random() < 0.3 else 0, 0))
        at += 30_000
    return Trace.from_records("churn", records, geometry.page_bytes)


def test_mea_record_throughput(benchmark):
    rng = DeterministicRng(3)
    pages = [rng.zipf_index(4000, 1.1) for _ in range(50_000)]
    mea = MeaTracker(capacity=64, counter_bits=2)

    def record_all():
        mea.reset()
        for page in pages:
            mea.record(page)

    benchmark(record_all)


def test_controller_service_throughput(benchmark):
    rng = DeterministicRng(4)
    requests = [
        (rng.randrange(16), rng.randrange(64), rng.random() < 0.3, i * 9_000)
        for i in range(20_000)
    ]

    def replay():
        ctrl = ChannelController(HBM_TIMING, 16)
        for bank, row, is_write, at in requests:
            ctrl.enqueue(bank, row, is_write, at)
        ctrl.flush()

    benchmark(replay)


def test_trace_generation_throughput(benchmark, geometry):
    benchmark.pedantic(
        lambda: build_trace(get_workload("mix8"), geometry, length=20_000, seed=5),
        rounds=3,
        iterations=1,
    )


def test_tlm_replay_throughput(benchmark, geometry, small_trace):
    benchmark.pedantic(
        lambda: simulate(small_trace, build_manager("tlm", geometry)),
        rounds=3,
        iterations=1,
    )


def test_mempod_replay_throughput(benchmark, geometry, small_trace):
    benchmark.pedantic(
        lambda: simulate(small_trace, build_manager("mempod", geometry)),
        rounds=3,
        iterations=1,
    )


def test_single_level_replay_throughput(benchmark, geometry, small_trace):
    benchmark.pedantic(
        lambda: simulate(small_trace, build_manager("hbm-only", geometry)),
        rounds=3,
        iterations=1,
    )


def test_tlm_replay_reference_throughput(benchmark, geometry, small_trace):
    """The reference loop on the same cell as test_tlm_replay_throughput,
    so the fast kernel's speedup is measurable from one benchmark run."""
    benchmark.pedantic(
        lambda: simulate(small_trace, build_manager("tlm", geometry),
                         kernel="reference"),
        rounds=3,
        iterations=1,
    )


def test_mempod_replay_reference_throughput(benchmark, geometry, small_trace):
    benchmark.pedantic(
        lambda: simulate(small_trace, build_manager("mempod", geometry),
                         kernel="reference"),
        rounds=3,
        iterations=1,
    )


def test_single_level_replay_reference_throughput(benchmark, geometry, small_trace):
    benchmark.pedantic(
        lambda: simulate(small_trace, build_manager("hbm-only", geometry),
                         kernel="reference"),
        rounds=3,
        iterations=1,
    )


def test_mempod_migration_churn_throughput(benchmark, geometry, churn_trace):
    benchmark.pedantic(
        lambda: simulate(churn_trace, build_manager("mempod", geometry)),
        rounds=3,
        iterations=1,
    )


def test_mempod_migration_churn_reference_throughput(benchmark, geometry, churn_trace):
    benchmark.pedantic(
        lambda: simulate(churn_trace, build_manager("mempod", geometry),
                         kernel="reference"),
        rounds=3,
        iterations=1,
    )


def test_thm_migration_churn_throughput(benchmark, geometry, churn_trace):
    benchmark.pedantic(
        lambda: simulate(churn_trace, build_manager("thm", geometry)),
        rounds=3,
        iterations=1,
    )


def test_thm_migration_churn_reference_throughput(benchmark, geometry, churn_trace):
    benchmark.pedantic(
        lambda: simulate(churn_trace, build_manager("thm", geometry),
                         kernel="reference"),
        rounds=3,
        iterations=1,
    )


def test_trace_store_cold_synth_write_throughput(benchmark, geometry, tmp_path):
    """Trace acquisition before the store: synthesise the cell's trace
    (plus the store's one-time columnar write, which rides along)."""
    from repro.trace.io import save_columnar

    out = tmp_path / "cell.mpt"

    def cold():
        trace = build_trace(
            get_workload("mix8"), geometry, length=20_000, seed=5
        ).trace
        save_columnar(trace, out)

    benchmark.pedantic(cold, rounds=3, iterations=1)


def test_trace_store_throughput(benchmark, geometry, tmp_path):
    """Trace acquisition after the store: a warm hit memory-maps the
    planes in O(1) — compare against the cold benchmark above for the
    per-sweep-cell saving."""
    from repro.trace.io import save_columnar
    from repro.trace.store import open_columnar

    out = tmp_path / "cell.mpt"
    trace = build_trace(get_workload("mix8"), geometry, length=20_000, seed=5).trace
    save_columnar(trace, out)

    def warm():
        loaded = open_columnar(out, name="mix8")
        # Touch both ends so the benchmark includes first-page faults.
        assert loaded.records[0][0] <= loaded.records[-1][0]
        return loaded

    benchmark(warm)
