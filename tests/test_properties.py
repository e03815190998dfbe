"""Cross-cutting property-based tests on the timing substrate.

These check physical invariants no refactor may break:

* causality — a transaction never completes before it arrives;
* bus monotonicity — one channel's data bus never runs backwards;
* conservation — every enqueued transaction is eventually served,
  exactly once;
* latency sanity — idle-system latency equals the analytic access time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DDR4_1600_TIMING, HBM_TIMING
from repro.dram.controller import ChannelController
from repro.dram.timing import DramTiming
from tests.batching import controller

NO_REFRESH_HBM = DramTiming("hbm-nr", 1e9, 128, 1, 7, 7, 7, 17, turnaround=2)

# One transaction: (bank, row, is_write, gap to next arrival in ps).
transaction = st.tuples(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=63),
    st.booleans(),
    st.integers(min_value=0, max_value=50_000),
)


def replay(transactions, timing=NO_REFRESH_HBM, window=ChannelController.WINDOW):
    """Run transactions through one controller, recording completions."""
    ctrl = controller(timing, 16, window)
    completions = []
    original = ctrl._service_at

    def tracking(idx):
        before = ctrl.stats.served
        arrival_ps = ctrl._pending[idx][0]
        original(idx)
        assert ctrl.stats.served == before + 1
        completions.append((arrival_ps, ctrl.last_completion_ps))

    ctrl._service_at = tracking
    now = 0
    for bank, row, is_write, gap in transactions:
        ctrl.enqueue(bank, row, is_write, now)
        now += gap
    ctrl.flush()
    return ctrl, completions


class TestControllerInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(transaction, max_size=120))
    def test_conservation(self, transactions):
        ctrl, completions = replay(transactions)
        assert ctrl.stats.served == len(transactions)
        assert not ctrl._pending
        assert len(completions) == len(transactions)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(transaction, min_size=1, max_size=120))
    def test_causality(self, transactions):
        _, completions = replay(transactions)
        for arrival, completion in completions:
            # Minimum service: a column access plus the burst.
            assert completion >= arrival + NO_REFRESH_HBM.tcas_ps

    @settings(max_examples=80, deadline=None)
    @given(st.lists(transaction, min_size=1, max_size=120))
    def test_bus_never_runs_backwards(self, transactions):
        ctrl = ChannelController(NO_REFRESH_HBM, 16)
        last_bus = 0
        now = 0
        for bank, row, is_write, gap in transactions:
            ctrl.enqueue(bank, row, is_write, now)
            assert ctrl.bus_free_ps >= last_bus
            last_bus = ctrl.bus_free_ps
            now += gap
        ctrl.flush()
        assert ctrl.bus_free_ps >= last_bus

    @settings(max_examples=80, deadline=None)
    @given(st.lists(transaction, min_size=1, max_size=120))
    def test_latency_accounting_consistent(self, transactions):
        ctrl, _ = replay(transactions)
        by_kind_total = sum(ctrl.stats.latency_by_kind.values())
        assert by_kind_total == ctrl.stats.total_latency_ps
        assert sum(ctrl.stats.count_by_kind.values()) == ctrl.stats.served

    @settings(max_examples=40, deadline=None)
    @given(st.lists(transaction, min_size=1, max_size=60), st.integers(min_value=2, max_value=16))
    def test_window_size_does_not_lose_transactions(self, transactions, window):
        ctrl, _ = replay(transactions, window=window)
        assert ctrl.stats.served == len(transactions)


class TestIdleLatency:
    @pytest.mark.parametrize("timing", [NO_REFRESH_HBM], ids=["hbm"])
    def test_cold_access_analytic(self, timing):
        ctrl = ChannelController(timing, 16)
        ctrl.enqueue(3, 7, False, 1_000_000)
        completion = ctrl.flush()
        expected = (
            1_000_000
            + timing.trcd_ps
            + timing.tcas_ps
            + timing.burst_ps(64)
        )
        assert completion == expected

    def test_widely_spaced_accesses_all_idle_latency(self):
        ctrl = ChannelController(NO_REFRESH_HBM, 16)
        for i in range(10):
            ctrl.enqueue(i, 0, False, i * 10_000_000)  # 10 us apart
        ctrl.flush()
        per_access = ctrl.stats.total_latency_ps / 10
        cold = NO_REFRESH_HBM.trcd_ps + NO_REFRESH_HBM.tcas_ps + NO_REFRESH_HBM.burst_ps(64)
        assert per_access == pytest.approx(cold, abs=NO_REFRESH_HBM.turnaround_ps)

    def test_ddr4_slower_than_hbm(self):
        results = {}
        for name, timing in (("hbm", HBM_TIMING), ("ddr", DDR4_1600_TIMING)):
            ctrl = ChannelController(timing, 16)
            for i in range(50):
                ctrl.enqueue(i % 16, i, False, i * 1_000_000)
            ctrl.flush()
            results[name] = ctrl.stats.total_latency_ps
        assert results["ddr"] > results["hbm"]
