"""Channel controller: scheduling, bus accounting, stalls, refresh."""

import pytest

from repro.common.errors import ConfigError
from repro.dram.controller import ChannelController
from repro.dram.request import BOOKKEEPING, DEMAND, MIGRATION
from repro.dram.timing import DramTiming

# A refresh-free HBM variant so latency arithmetic below stays exact.
HBM_NO_REFRESH = DramTiming(
    name="HBM-nr",
    freq_hz=1e9,
    bus_bits=128,
    data_rate=1,
    tcas=7,
    trcd=7,
    trp=7,
    tras=17,
    turnaround=2,
)

BURST = HBM_NO_REFRESH.burst_ps(64)


def make_controller(timing=HBM_NO_REFRESH, banks=16):
    return ChannelController(timing, banks)


class TestBasicService:
    def test_single_request_latency(self):
        ctrl = make_controller()
        ctrl.enqueue(bank=0, row=0, is_write=False, arrival_ps=1000)
        completion = ctrl.flush()
        expected = 1000 + HBM_NO_REFRESH.trcd_ps + HBM_NO_REFRESH.tcas_ps + BURST
        assert completion == expected
        assert ctrl.stats.served == 1
        assert ctrl.stats.total_latency_ps == expected - 1000

    def test_idle_channel_services_immediately(self):
        # A request must not wait for the reorder window to fill: the
        # next arrival far in the future triggers eager service.
        ctrl = make_controller()
        ctrl.enqueue(bank=0, row=0, is_write=False, arrival_ps=0)
        ctrl.enqueue(bank=1, row=0, is_write=False, arrival_ps=10_000_000)
        # First request was serviced by the time the second arrived.
        assert ctrl.stats.served >= 1
        first_latency = ctrl.stats.total_latency_ps
        assert first_latency < 100_000  # tens of ns, not ten us

    def test_reads_and_writes_counted(self):
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0)
        ctrl.enqueue(0, 0, True, 0)
        ctrl.flush()
        assert ctrl.stats.reads == 1
        assert ctrl.stats.writes == 1

    def test_kind_accounting(self):
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0, kind=DEMAND)
        ctrl.enqueue(1, 0, False, 0, kind=MIGRATION)
        ctrl.enqueue(2, 0, False, 0, kind=BOOKKEEPING)
        ctrl.flush()
        assert ctrl.stats.count_by_kind == {DEMAND: 1, MIGRATION: 1, BOOKKEEPING: 1}
        assert all(v > 0 for v in ctrl.stats.latency_by_kind.values())

    def test_account_ps_extends_latency(self):
        # A blocked request accounts from before its arrival: the
        # blocking penalty lands in total latency.
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, arrival_ps=10_000, account_ps=2_000)
        ctrl.flush()
        base = make_controller()
        base.enqueue(0, 0, False, arrival_ps=10_000)
        base.flush()
        assert ctrl.stats.total_latency_ps == base.stats.total_latency_ps + 8_000


class TestScheduling:
    def test_row_hits_preferred(self):
        # Queue a conflict and a hit for the same bank; the hit is
        # serviced first under FR-FCFS even though it arrived later.
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0)
        ctrl.flush()  # open row 0
        hits_before = ctrl.stats.row_hits
        ctrl.enqueue(0, 5, False, 1_000)  # conflict, older
        ctrl.enqueue(0, 0, False, 1_001)  # hit, newer
        ctrl.flush()
        assert ctrl.stats.row_hits == hits_before + 1

    def test_bus_serializes_across_banks(self):
        # Two simultaneous requests to different banks share one data bus.
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0)
        ctrl.enqueue(1, 0, False, 0)
        completion = ctrl.flush()
        single = 0 + HBM_NO_REFRESH.trcd_ps + HBM_NO_REFRESH.tcas_ps + BURST
        assert completion >= single + BURST

    def test_turnaround_penalty_applied(self):
        ctrl = make_controller()
        # Same bank, same row: read then write (direction switch).
        ctrl.enqueue(0, 0, False, 0)
        ctrl.enqueue(0, 0, True, 0)
        with_turn = ctrl.flush()
        no_turn_timing = DramTiming(
            "HBM-nt", 1e9, 128, 1, 7, 7, 7, 17, turnaround=0
        )
        ctrl2 = make_controller(timing=no_turn_timing)
        ctrl2.enqueue(0, 0, False, 0)
        ctrl2.enqueue(0, 0, True, 0)
        without_turn = ctrl2.flush()
        assert with_turn == without_turn + HBM_NO_REFRESH.turnaround_ps

    def test_write_batching_defers_direction_switch(self):
        # With a read in flight (bus direction = read) and both a write
        # and a read pending with no open-row hits, the read goes first.
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0)
        ctrl.flush()
        ctrl.enqueue(1, 3, True, 1000)   # older write (conflict path)
        ctrl.enqueue(2, 4, False, 1001)  # newer read, same direction as bus
        ctrl.flush()
        # total turnarounds: exactly one switch (for the write at the
        # end) rather than two.
        assert ctrl.stats.served == 3


class TestBlockUntil:
    def test_block_until_delays_later_requests(self):
        ctrl = make_controller()
        ctrl.block_until(1_000_000)
        ctrl.enqueue(0, 0, False, 0)
        completion = ctrl.flush()
        assert completion >= 1_000_000

    def test_block_flushes_pending_first(self):
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0)
        ctrl.block_until(5_000_000)
        assert not ctrl._pending


class TestRefresh:
    def test_refresh_stalls_accesses(self):
        timing = DramTiming(
            "R", 1e9, 128, 1, 7, 7, 7, 17, trefi=1000, trfc=300
        )  # refresh every 1 us for 300 ns
        ctrl = make_controller(timing=timing)
        ctrl.enqueue(0, 0, False, 2_000_000)  # past two refresh intervals
        completion = ctrl.flush()
        assert ctrl.refreshes >= 1
        # Access pays the refresh stall on top of the cold-access path.
        assert completion >= 2_000_000 + 300_000

    def test_no_refresh_when_disabled(self):
        ctrl = make_controller()  # HBM_NO_REFRESH
        ctrl.enqueue(0, 0, False, 50_000_000)
        ctrl.flush()
        assert ctrl.refreshes == 0


class TestValidation:
    def test_rejects_zero_banks(self):
        with pytest.raises(ConfigError):
            ChannelController(HBM_NO_REFRESH, 0)

    def test_row_hit_rate_property(self):
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0)
        ctrl.enqueue(0, 0, False, 0)
        ctrl.flush()
        assert (ctrl.stats.row_hits, ctrl.stats.served) == (1, 2)


class TestControllerStatsFields:
    """The per-kind tallies are plain int fields; the dict views the
    older callers use are derived properties over the closed kind set."""

    def test_kind_dicts_are_views_over_int_fields(self):
        ctrl = make_controller()
        ctrl.enqueue(0, 0, False, 0, kind=DEMAND)
        ctrl.enqueue(1, 0, True, 0, kind=MIGRATION)
        ctrl.enqueue(2, 0, False, 0, kind=BOOKKEEPING)
        ctrl.flush()
        stats = ctrl.stats
        assert stats.demand_count == 1
        assert stats.migration_count == 1
        assert stats.bookkeeping_count == 1
        assert stats.count_by_kind == {DEMAND: 1, MIGRATION: 1, BOOKKEEPING: 1}
        assert stats.latency_by_kind == {
            DEMAND: stats.demand_latency_ps,
            MIGRATION: stats.migration_latency_ps,
            BOOKKEEPING: stats.bookkeeping_latency_ps,
        }
        assert stats.total_latency_ps == sum(stats.latency_by_kind.values())

    def test_merge_accumulates_fieldwise(self):
        from repro.dram.controller import ControllerStats

        a = ControllerStats(served=2, reads=1, writes=1, row_hits=1,
                            total_latency_ps=100, demand_latency_ps=60,
                            migration_latency_ps=40, demand_count=1,
                            migration_count=1)
        b = ControllerStats(served=1, reads=1, bookkeeping_latency_ps=9,
                            bookkeeping_count=1, total_latency_ps=9)
        a.merge(b)
        assert a.served == 3
        assert a.reads == 2
        assert a.count_by_kind == {DEMAND: 1, MIGRATION: 1, BOOKKEEPING: 1}
        assert a.total_latency_ps == 109
