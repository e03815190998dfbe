"""Bank row-buffer state machine: outcomes, tRAS enforcement, pipelining."""

from repro.dram import HBM_TIMING
from repro.dram.bank import Bank, ROW_CLOSED, ROW_CONFLICT, ROW_HIT

BURST = HBM_TIMING.burst_ps(64)  # 4,000 ps


def make_bank():
    return Bank()


class TestOutcomes:
    def test_first_access_is_closed(self):
        bank = make_bank()
        ready, outcome = bank.access(5, 0, HBM_TIMING, BURST)
        assert outcome == ROW_CLOSED
        assert ready == HBM_TIMING.trcd_ps + HBM_TIMING.tcas_ps

    def test_same_row_hits(self):
        bank = make_bank()
        bank.access(5, 0, HBM_TIMING, BURST)
        ready, outcome = bank.access(5, 100_000, HBM_TIMING, BURST)
        assert outcome == ROW_HIT
        assert ready == 100_000 + HBM_TIMING.tcas_ps

    def test_different_row_conflicts(self):
        bank = make_bank()
        bank.access(5, 0, HBM_TIMING, BURST)
        _, outcome = bank.access(9, 100_000, HBM_TIMING, BURST)
        assert outcome == ROW_CONFLICT

    def test_conflict_opens_new_row(self):
        bank = make_bank()
        bank.access(5, 0, HBM_TIMING, BURST)
        bank.access(9, 100_000, HBM_TIMING, BURST)
        assert bank.open_row == 9
        _, outcome = bank.access(9, 300_000, HBM_TIMING, BURST)
        assert outcome == ROW_HIT


class TestTiming:
    def test_tras_delays_early_conflict(self):
        # Activate at t=0, conflict immediately after: the precharge
        # must wait until tRAS has elapsed since activation.
        bank = make_bank()
        bank.access(5, 0, HBM_TIMING, BURST)
        ready, outcome = bank.access(9, 0, HBM_TIMING, BURST)
        assert outcome == ROW_CONFLICT
        expected = (
            HBM_TIMING.tras_ps  # wait out activate window
            + HBM_TIMING.trp_ps
            + HBM_TIMING.trcd_ps
            + HBM_TIMING.tcas_ps
        )
        assert ready >= expected

    def test_late_conflict_pays_only_precharge_path(self):
        bank = make_bank()
        bank.access(5, 0, HBM_TIMING, BURST)
        late = 10 * HBM_TIMING.tras_ps
        ready, _ = bank.access(9, late, HBM_TIMING, BURST)
        assert ready == late + HBM_TIMING.trp_ps + HBM_TIMING.trcd_ps + HBM_TIMING.tcas_ps

    def test_row_hits_pipeline_at_burst_rate(self):
        # Back-to-back hits to the open row must sustain one access per
        # burst time, not one per full access latency.
        bank = make_bank()
        bank.access(5, 0, HBM_TIMING, BURST)
        first_busy = bank.busy_until_ps
        readies = []
        for _ in range(4):
            ready, outcome = bank.access(5, 0, HBM_TIMING, BURST)
            assert outcome == ROW_HIT
            readies.append(ready)
        gaps = [b - a for a, b in zip(readies, readies[1:])]
        assert all(gap == BURST for gap in gaps)
        assert bank.busy_until_ps == first_busy + 4 * BURST

    def test_access_never_before_busy(self):
        bank = make_bank()
        bank.access(5, 0, HBM_TIMING, BURST)
        busy = bank.busy_until_ps
        ready, _ = bank.access(5, 0, HBM_TIMING, BURST)
        assert ready >= busy
