"""enqueue_batch must equal per-record enqueue, state field for field.

``ChannelController.enqueue_batch`` is the batched datapath the replay
kernels hand whole per-controller chunks of pending entries to; its
contract is bit-for-bit equality with calling
:meth:`ChannelController.enqueue` once per element.  Every test here
drives the same requests (built column-wise and handed down through
:func:`tests.batching.enqueue_columns`) through both
datapaths on twin controllers and compares a *full* state snapshot —
aggregate stats, bus/refresh/turnaround state, every bank's row-buffer
state and tallies, and the exact pending-buffer contents — so a
divergence anywhere in the scheduling pipeline fails loudly.

The edge-case classes pin the controller behaviours most likely to
drift: FR-FCFS age promotion at ``STARVATION_PS``, write-batching
direction runs across the bus-turnaround penalty, and lazy refresh
fast-forward across long idle gaps.
"""

from dataclasses import asdict

import pytest

from repro.common.rng import DeterministicRng
from repro.dram import DDR4_1600_TIMING, HBM_TIMING
from repro.dram.controller import ChannelController
from repro.dram.request import BOOKKEEPING, DEMAND, MIGRATION
from tests.batching import assert_conserved, controller, enqueue_columns

BANKS = 16


def snapshot(ctrl):
    """Every externally observable piece of controller state."""
    return {
        "stats": asdict(ctrl.stats),
        "bus_free_ps": ctrl.bus_free_ps,
        "last_completion_ps": ctrl.last_completion_ps,
        "refreshes": ctrl.refreshes,
        "last_was_write": bool(ctrl._last_was_write),
        "next_refresh_ps": ctrl._next_refresh_ps,
        "pending": list(ctrl._pending),
        "banks": [
            (b.open_row, b.busy_until_ps, b.activated_ps, b.hits, b.misses, b.conflicts)
            for b in ctrl.banks
        ],
    }


def run_pair(
    requests,
    timing=HBM_TIMING,
    window=ChannelController.WINDOW,
    kind=DEMAND,
    accounts=None,
    controller_cls=ChannelController,
):
    """Drive ``requests`` through both datapaths; assert equal throughout.

    ``requests`` is a list of ``(bank, row, is_write, arrival_ps)``.
    Returns the per-record controller (post-flush) for scenario checks.
    """
    one = controller(timing, BANKS, window, controller_cls)
    for i, (bank, row, is_write, arrival) in enumerate(requests):
        one.enqueue(
            bank, row, is_write, arrival, kind,
            accounts[i] if accounts is not None else None,
        )
    many = controller(timing, BANKS, window, controller_cls)
    if requests:
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
    else:
        bank_col = row_col = write_col = arrival_col = []
    enqueue_columns(many, bank_col, row_col, write_col, arrival_col, accounts, kind)
    assert snapshot(many) == snapshot(one)
    assert one.flush() == many.flush()
    assert snapshot(many) == snapshot(one)
    assert_conserved(many)
    return one


def random_requests(seed, count, row_span=48, hit_bias=True, spacing=6_000):
    """A mixed workload: bursts, idle gaps, row-locality runs."""
    rng = DeterministicRng(seed)
    requests = []
    at = 0
    bank = 0
    row = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.55 and hit_bias:
            pass  # stay on the open (bank, row): row-hit run
        elif roll < 0.8:
            row = rng.randrange(row_span)
        else:
            bank = rng.randrange(BANKS)
            row = rng.randrange(row_span)
        gap_roll = rng.random()
        if gap_roll < 0.25:
            gap = 0  # back-to-back burst: contention
        elif gap_roll < 0.9:
            gap = rng.randrange(spacing)
        else:
            gap = spacing * 50  # idle stretch: drain + refresh catch-up
        at += gap
        requests.append((bank, row, int(rng.random() < 0.4), at))
    return requests


class TestRandomStress:
    @pytest.mark.parametrize("timing", [HBM_TIMING, DDR4_1600_TIMING],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("window", [2, 8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_workload(self, timing, window, seed):
        run_pair(random_requests(seed, 2_500), timing=timing, window=window)

    def test_tight_contention(self):
        # 1-ps spacing keeps the window saturated: the general path and
        # the window-overflow drain run for essentially every element.
        rng = DeterministicRng(9)
        requests = [
            (rng.randrange(4), rng.randrange(8), int(rng.random() < 0.5), i)
            for i in range(2_000)
        ]
        for window in (2, 8):
            run_pair(requests, window=window)

    def test_migration_kind_batch(self):
        run_pair(random_requests(5, 1_200), kind=MIGRATION)

    def test_account_column(self):
        # Blocked-behind-migration accounting: latency measured from an
        # account timestamp earlier than the arrival.
        requests = random_requests(7, 1_200)
        rng = DeterministicRng(8)
        accounts = [at - rng.randrange(20_000) for _, _, _, at in requests]
        run_pair(requests, accounts=accounts)


class TestEdgeCases:
    def test_empty_batch_is_a_noop(self):
        ctrl = ChannelController(HBM_TIMING, BANKS)
        before = snapshot(ctrl)
        enqueue_columns(ctrl, [], [], [], [])
        assert snapshot(ctrl) == before

    def test_single_element(self):
        run_pair([(3, 7, 1, 1_000)])

    def test_batch_split_points_do_not_matter(self):
        # One big batch == any partition into consecutive sub-batches
        # (the kernels split at throttle-chunk and flush boundaries).
        requests = random_requests(11, 900)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        whole = ChannelController(HBM_TIMING, BANKS)
        enqueue_columns(whole, bank_col, row_col, write_col, arrival_col)
        split = ChannelController(HBM_TIMING, BANKS)
        for begin in range(0, len(requests), 128):
            end = begin + 128
            enqueue_columns(
                split, bank_col[begin:end], row_col[begin:end],
                write_col[begin:end], arrival_col[begin:end],
            )
        assert snapshot(split) == snapshot(whole)

    def test_migration_pending_then_demand_batch(self):
        # Swap traffic enqueued ahead of time can sit pending with a
        # *future* arrival while earlier demand batches arrive — the
        # batch fast path must not service it early.
        def run(ctrl, batched):
            ctrl.enqueue(0, 5, True, 2_000_000, MIGRATION)
            demands = random_requests(13, 600, spacing=4_000)
            if batched:
                bank_col, row_col, write_col, arrival_col = map(list, zip(*demands))
                enqueue_columns(ctrl, bank_col, row_col, write_col, arrival_col)
            else:
                for bank, row, is_write, arrival in demands:
                    ctrl.enqueue(bank, row, is_write, arrival)
            return ctrl

        one = run(ChannelController(HBM_TIMING, BANKS), batched=False)
        many = run(ChannelController(HBM_TIMING, BANKS), batched=True)
        assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)

    def test_dirty_sink_marked(self):
        ctrl = ChannelController(HBM_TIMING, BANKS)
        sink = set()
        ctrl._dirty_sink = sink
        ctrl._dirty_key = 42
        enqueue_columns(ctrl, [0], [1], [0], [100])
        assert sink == {42}


class TestEnqueueRun:
    """enqueue_run must equal ``count`` identical enqueue calls — it is
    a one-run ``enqueue_batch`` call, the shape ``swap_pages`` issues at
    interval boundaries and in ``finish`` (32-64 identical transactions
    per page side)."""

    def run_vs_loop(
        self, preamble, runs, timing=HBM_TIMING, window=ChannelController.WINDOW
    ):
        """``preamble`` seeds both controllers; each run is
        ``(bank, row, is_write, arrival, count, kind)``."""
        one = controller(timing, BANKS, window)
        many = controller(timing, BANKS, window)
        for bank, row, is_write, arrival in preamble:
            one.enqueue(bank, row, is_write, arrival)
            many.enqueue(bank, row, is_write, arrival)
        for bank, row, is_write, arrival, count, kind in runs:
            for _ in range(count):
                one.enqueue(bank, row, is_write, arrival, kind)
            many.enqueue_run(bank, row, is_write, arrival, count, kind)
            assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)
        return one

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 32, 200])
    def test_cold_run_lengths(self, count):
        self.run_vs_loop([], [(2, 5, False, 1_000, count, MIGRATION)])

    @pytest.mark.parametrize("timing", [HBM_TIMING, DDR4_1600_TIMING],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_after_random_preamble(self, timing, window):
        rng = DeterministicRng(31)
        preamble = random_requests(31, 400)
        at = preamble[-1][3]
        runs = []
        for i in range(40):
            at += rng.randrange(3) * 40_000
            runs.append((
                rng.randrange(BANKS), rng.randrange(16),
                bool(rng.random() < 0.5), at, 1 + rng.randrange(64),
                MIGRATION if rng.random() < 0.7 else DEMAND,
            ))
        self.run_vs_loop(preamble, runs, timing=timing, window=window)

    def test_swap_shape_read_then_write_phase(self):
        # The exact shape swap_pages issues: a read run, then a write
        # run one phase later, twice (both pods), chained swaps.
        runs = []
        at = 0
        for _ in range(12):
            runs.append((1, 3, False, at, 32, MIGRATION))
            runs.append((1, 3, True, at + 170_000, 32, MIGRATION))
            at += 340_000
        self.run_vs_loop([], runs)

    def test_run_crossing_refresh_boundary(self):
        trefi = DDR4_1600_TIMING.trefi_ps
        self.run_vs_loop(
            [], [(0, 9, False, trefi - 3_000, 120, MIGRATION)],
            timing=DDR4_1600_TIMING,
        )

    def test_zero_count_is_a_noop(self):
        ctrl = ChannelController(HBM_TIMING, BANKS)
        before = snapshot(ctrl)
        ctrl.enqueue_run(0, 1, False, 500, 0)
        assert snapshot(ctrl) == before

    def test_demand_interleaved_between_runs(self):
        rng = DeterministicRng(33)
        one = ChannelController(HBM_TIMING, BANKS)
        many = ChannelController(HBM_TIMING, BANKS)
        at = 0
        for _ in range(30):
            at += rng.randrange(250_000)
            bank, row = rng.randrange(BANKS), rng.randrange(12)
            count = 1 + rng.randrange(48)
            for _ in range(count):
                one.enqueue(bank, row, True, at, MIGRATION)
            many.enqueue_run(bank, row, True, at, count, MIGRATION)
            for _ in range(rng.randrange(6)):
                at += rng.randrange(9_000)
                demand = (rng.randrange(BANKS), rng.randrange(12),
                          bool(rng.random() < 0.4), at)
                one.enqueue(*demand)
                many.enqueue(*demand)
        assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)


class TestEnqueueBatchRuns:
    """Page-copy runs passed inside ``enqueue_batch``.

    A run ``(pos, bank, row, is_write, arrival, count, kind)`` must equal
    ``count`` identical ``enqueue`` calls made right before column
    element ``pos``; the replay kernels hand every swap side's read and
    write runs down this way, in the same call as the demand around
    them.
    """

    @staticmethod
    def replay(ctrl, requests, runs, kinds=None):
        """The reference: per-element ``enqueue`` in merged order."""
        pending_runs = list(runs)
        for i in range(len(requests) + 1):
            while pending_runs and pending_runs[0][0] == i:
                _, bank, row, is_write, arrival, count, kind = pending_runs.pop(0)
                for _ in range(count):
                    ctrl.enqueue(bank, row, is_write, arrival, kind)
            if i < len(requests):
                bank, row, is_write, arrival = requests[i]
                ctrl.enqueue(
                    bank, row, is_write, arrival,
                    DEMAND if kinds is None else kinds[i],
                )
        assert not pending_runs

    def calls_vs_loop(
        self, calls, timing=HBM_TIMING, window=ChannelController.WINDOW
    ):
        """Each call is ``(requests, runs)``; snapshots must agree after
        every call and after the final flush."""
        one = controller(timing, BANKS, window)
        many = controller(timing, BANKS, window)
        for requests, runs in calls:
            self.replay(one, requests, runs)
            if requests:
                cols = list(map(list, zip(*requests)))
            else:
                cols = [[], [], [], []]
            enqueue_columns(many, *cols, runs=runs)
            assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)
        return many

    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_runs_at_start_middle_and_end(self, window):
        requests = random_requests(41, 60, spacing=3_000)
        at = requests[30][3]
        runs = [
            (0, 2, 5, False, 0, 32, MIGRATION),
            (30, 4, 9, False, at, 32, MIGRATION),
            (60, 4, 9, True, requests[-1][3] + 1, 32, MIGRATION),
        ]
        self.calls_vs_loop([(requests, runs)], window=window)

    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_two_runs_at_one_position(self, window):
        # The swap shape: a read run, then the write run one phase
        # later, both queued before the same demand element.
        requests = random_requests(43, 80, spacing=2_000)
        at = requests[40][3]
        runs = [
            (40, 1, 3, False, at, 32, MIGRATION),
            (40, 1, 3, True, at + 170_000, 32, MIGRATION),
        ]
        self.calls_vs_loop([(requests, runs)], window=window)

    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_runs_only_call(self, window):
        demand = random_requests(47, 50, spacing=2_000)
        at = demand[-1][3]
        self.calls_vs_loop([
            (demand, []),
            ([], [(0, 3, 7, False, at, 32, MIGRATION),
                  (0, 3, 7, True, at + 170_000, 32, MIGRATION)]),
            (random_requests(48, 50, spacing=2_000), []),
        ], window=window)

    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_run_behind_contended_backlog(self, window):
        # Zero-gap demand keeps the window full of distinct entries, so
        # the run's first twins take the per-element drain; the episode
        # must re-form once the backlog ahead of it has drained.
        requests = [(i % 4, i % 11, i % 2, 10_000) for i in range(40)]
        runs = [
            (20, 2, 6, False, 10_000, 32, MIGRATION),
            (20, 2, 6, True, 10_000, 32, MIGRATION),
        ]
        many = self.calls_vs_loop([(requests, runs)], window=window)
        if window == 8:
            assert many.service_paths.closed_form_served > 0

    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_zero_count_run(self, window):
        requests = random_requests(53, 40)
        runs = [
            (10, 0, 1, False, requests[10][3], 0, MIGRATION),
            (25, 1, 2, True, requests[25][3], 5, MIGRATION),
        ]
        self.calls_vs_loop([(requests, runs)], window=window)

    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_run_crossing_refresh_boundary(self, window):
        trefi = DDR4_1600_TIMING.trefi_ps
        requests = [(i % 3, 4, 0, trefi - 40_000 + i * 1_000) for i in range(60)]
        runs = [
            (30, 0, 9, False, trefi - 3_000, 120, MIGRATION),
            (30, 0, 9, True, trefi + 5_000, 64, MIGRATION),
        ]
        one = self.calls_vs_loop(
            [(requests, runs)], timing=DDR4_1600_TIMING, window=window
        )
        assert one.refreshes >= 1

    @pytest.mark.parametrize("timing", [HBM_TIMING, DDR4_1600_TIMING],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("window", [2, 8, 32])
    def test_random_runs_across_calls(self, timing, window):
        rng = DeterministicRng(59 + window)
        calls = []
        for c in range(12):
            requests = random_requests(60 + c, 40 + rng.randrange(80))
            base = calls[-1][0][-1][3] if calls else 0
            requests = [(b, r, w, at + base) for b, r, w, at in requests]
            positions = sorted(
                rng.randrange(len(requests) + 1) for _ in range(rng.randrange(5))
            )
            runs = []
            for pos in positions:
                at = requests[pos][3] if pos < len(requests) else requests[-1][3]
                bank, row = rng.randrange(BANKS), rng.randrange(16)
                lines = 1 + rng.randrange(48)
                runs.append((pos, bank, row, False, at, lines, MIGRATION))
                runs.append((pos, bank, row, True, at + 150_000, lines, MIGRATION))
            calls.append((requests, runs))
        self.calls_vs_loop(calls, timing=timing, window=window)

    def test_unsorted_runs_are_rejected(self):
        ctrl = ChannelController(HBM_TIMING, BANKS)
        with pytest.raises(ValueError, match="run position"):
            enqueue_columns(
                ctrl, [0, 0], [1, 1], [0, 0], [100, 200],
                runs=[(1, 0, 1, False, 150, 4, MIGRATION),
                      (0, 0, 1, False, 90, 4, MIGRATION)],
            )
        with pytest.raises(ValueError, match="run position"):
            enqueue_columns(
                ctrl, [0], [1], [0], [100],
                runs=[(2, 0, 1, False, 150, 4, MIGRATION)],
            )


class TestAgePromotion:
    """FR-FCFS starvation bound: an old conflicting request interrupts a
    row-hit stream once it has aged past STARVATION_PS."""

    def _starving_stream(self, first_hit_ps=200):
        # Open bank 0 row 1, park a conflicting row-2 request, then
        # stream row-1 hits arriving slightly faster than the DDR4 bus
        # drains them: the bank never catches up (so the conflict is
        # never drained eagerly) and the hits' arrivals cross the 500 ns
        # starvation bound mid-stream, forcing age promotion.
        requests = [(0, 1, 0, 0), (0, 2, 0, 100)]
        requests += [(0, 1, 0, first_hit_ps + i * 4_000) for i in range(1, 200)]
        return requests

    def test_promotion_scenario_matches(self):
        run_pair(self._starving_stream(), timing=DDR4_1600_TIMING)
        # 100 ps earlier, hit 125 arrives exactly STARVATION_PS after the
        # parked conflict: on the bound, not past it, so it still wins.
        at_bound = self._starving_stream(first_hit_ps=100)
        assert (0, 1, 0, 100 + ChannelController.STARVATION_PS) in at_bound
        run_pair(at_bound, timing=DDR4_1600_TIMING)

    def test_scenario_actually_promotes(self):
        # Prove the stream crosses the bound: with an effectively
        # infinite starvation limit the same requests schedule
        # differently — and each variant still equals its batch twin.
        class NoPromotion(ChannelController):
            STARVATION_PS = 10**15

        promoted = run_pair(self._starving_stream(), timing=DDR4_1600_TIMING)
        starved = run_pair(
            self._starving_stream(), timing=DDR4_1600_TIMING,
            controller_cls=NoPromotion,
        )
        assert snapshot(promoted) != snapshot(starved)


class TestFaultMidBatch:
    """``enqueue_batch`` keeps the controller's cursors and stats in
    locals and writes them back in a ``finally``: an exception mid-batch
    must still leave the stats in step with the bank accesses already
    made, and the cursors in step with each other."""

    @pytest.mark.parametrize("timing", [HBM_TIMING, DDR4_1600_TIMING],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("window", [2, 8, 16])
    def test_writebacks_survive_a_bad_bank(self, timing, window):
        for seed in range(1, 21):
            ctrl = controller(timing, BANKS, window)
            # The 50 requests before the bad one are writes, so the last
            # one served before the fault is a write.
            requests = [
                (bank, row, 1 if 150 <= i < 200 else is_write, at)
                for i, (bank, row, is_write, at) in enumerate(random_requests(seed, 400))
            ]
            _, row, is_write, at = requests[200]
            requests[200] = (len(ctrl.banks), row, is_write, at)
            kinds = [(DEMAND, MIGRATION, BOOKKEEPING)[i % 3] for i in range(400)]
            with pytest.raises(IndexError):
                enqueue_columns(ctrl, *map(list, zip(*requests)), kinds=kinds)
            assert ctrl._last_was_write
            banks = ctrl.banks
            assert ctrl.stats.row_hits == sum(b.hits for b in banks)
            assert ctrl.stats.served == sum(
                b.hits + b.misses + b.conflicts for b in banks
            )
            assert_conserved(ctrl)
            # The bus cursor is the last completion, and a refresh falls
            # due every tREFI, so the refresh cursor is one past the count.
            assert ctrl.bus_free_ps == ctrl.last_completion_ps > 0
            assert ctrl._next_refresh_ps == (ctrl.refreshes + 1) * ctrl._trefi_ps


class TestWriteBatching:
    """Direction runs: _choose drains reads and writes in runs to
    amortise the bus-turnaround penalty; the batch path must reproduce
    the exact run boundaries (each one moves bus_free_ps)."""

    def test_interleaved_directions_under_contention(self):
        rng = DeterministicRng(21)
        # All conflicts (distinct rows, one bank) so direction is the
        # only scheduling signal; 1-ps spacing keeps the window full.
        requests = [
            (0, i % 29, i % 2, i) for i in range(600)
        ]
        run_pair(requests)
        requests = [
            (rng.randrange(2), rng.randrange(32), int(rng.random() < 0.5), i * 3)
            for i in range(800)
        ]
        run_pair(requests)

    def test_turnaround_state_carries_across_batches(self):
        reads = [(0, 1, 0, i * 5_000) for i in range(64)]
        writes = [(0, 1, 1, 320_000 + i * 5_000) for i in range(64)]
        one = ChannelController(HBM_TIMING, BANKS)
        for bank, row, is_write, at in reads + writes:
            one.enqueue(bank, row, is_write, at)
        many = ChannelController(HBM_TIMING, BANKS)
        for chunk in (reads, writes):
            bank_col, row_col, write_col, arrival_col = map(list, zip(*chunk))
            enqueue_columns(many, bank_col, row_col, write_col, arrival_col)
        assert snapshot(many) == snapshot(one)


class TestLazyRefresh:
    """Refresh is fast-forwarded at service time: boundaries elapsed
    during idle gaps are tallied in one step and only the latest one's
    tRFC window can delay the transaction."""

    def test_long_idle_gaps_fast_forward(self):
        trefi = DDR4_1600_TIMING.trefi_ps
        requests = []
        at = 0
        for i in range(40):
            at += trefi * 25 + (i * 137) % 9_000  # ~25 boundaries per gap
            requests.append((i % BANKS, i % 7, i % 2, at))
        one = run_pair(requests, timing=DDR4_1600_TIMING)
        # Fast-forward must have tallied far more refreshes than
        # services — the gap arithmetic, not per-boundary iteration.
        assert one.refreshes > 40 * 20

    def test_refresh_inside_row_hit_run(self):
        # A refresh boundary lands mid-run: the batch path's streak
        # must break and re-apply the stall exactly.
        trefi = HBM_TIMING.trefi_ps
        start = trefi - 2_000
        requests = [(2, 9, 0, start + i * 1_500) for i in range(200)]
        one = run_pair(requests, timing=HBM_TIMING)
        assert one.refreshes >= 1
        assert one.stats.row_hits > 150


class TestServiceEngine:
    """The contended-path service engine: closed-form episodes and the
    observability sidecar.

    End-state equality is covered by every ``run_pair`` above; these
    tests pin the *internals*: that the episode classifier actually
    fires on its degenerate shape, and that the sidecar counters are
    conserved and invisible to result snapshots.
    """

    def test_episode_shape_uses_closed_form(self):
        # The degenerate backlog: one long run of identical elements at
        # one arrival — every buffered entry is a twin of the incoming
        # element, so FR-FCFS's pick order is provably fixed and the
        # whole stretch must service via closed-form arithmetic.
        requests = [(1, 3, 0, 5_000)] * 300
        one = run_pair(requests)
        many = ChannelController(HBM_TIMING, BANKS)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        enqueue_columns(many, bank_col, row_col, write_col, arrival_col)
        assert many.service_paths.closed_form_served > 200
        assert many.service_paths.scalar_fallback_served == 0

    def test_episode_bails_on_direction_flip(self):
        # A write twin arriving into a read backlog breaks the
        # degenerate shape: the engine must fall back to its exact
        # per-element drain at the turnaround, not mis-serve the episode.
        requests = [(2, 7, 0, 9_000)] * 40 + [(2, 7, 1, 9_000)] * 40
        run_pair(requests)

    def test_episode_bails_on_refresh_boundary(self):
        # The twin run arrives past a pending tREFI boundary; the
        # closed-form recurrence has no refresh term, so the classifier
        # must reject the episode until the per-element path has
        # fast-forwarded the refresh and tallied its stall.
        trefi = DDR4_1600_TIMING.trefi_ps
        requests = [(0, 4, 0, trefi + 1_000)] * 150
        one = run_pair(requests, timing=DDR4_1600_TIMING)
        assert one.refreshes >= 1

    def test_episode_bails_on_age_promotion_candidate(self):
        # A conflicting older entry parked in the backlog means the
        # buffer is not all twins: promotion may fire mid-stretch, so
        # the episode precondition must reject the run.
        requests = [(0, 2, 0, 100)] + [(0, 1, 0, 5_000)] * 120
        run_pair(requests, timing=DDR4_1600_TIMING)

    def test_kinds_column_matches_per_element_kinds(self):
        # A mixed per-element kind column (the merged swap+demand drain
        # shape) must tally per-kind stats exactly as interleaved
        # enqueue calls with each element's own kind.
        rng = DeterministicRng(17)
        requests = random_requests(17, 1_500)
        kinds = [MIGRATION if rng.random() < 0.4 else DEMAND for _ in requests]
        one = ChannelController(HBM_TIMING, BANKS)
        for (bank, row, is_write, arrival), k in zip(requests, kinds):
            one.enqueue(bank, row, is_write, arrival, k)
        many = ChannelController(HBM_TIMING, BANKS)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        enqueue_columns(
            many, bank_col, row_col, write_col, arrival_col, kinds=kinds
        )
        assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)
        assert one.stats.migration_count == sum(
            1 for k in kinds if k == MIGRATION
        )

    @staticmethod
    def _cameo_shape(seed, count):
        """CAMEO's per-controller column: each demand followed by its line
        swap's read/write migration pair on the same bank and row, the
        write one line-phase later.  A demand read and its swap read are
        twins in everything but kind, and zero gaps pile them up into
        contended backlogs."""
        rng = DeterministicRng(seed)
        requests, kinds = [], []
        at = 0
        for _ in range(count):
            bank = rng.randrange(4)
            row = rng.randrange(6)
            requests.append((bank, row, int(rng.random() < 0.3), at))
            requests.append((bank, row, 0, at))
            requests.append((bank, row, 1, at + 30_000))
            kinds += [DEMAND, MIGRATION, MIGRATION]
            at += rng.choice((0, 0, 5_000, 30_000, 90_000))
        return requests, kinds

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    def test_cameo_shape_kinds_column(self, window):
        requests, kinds = self._cameo_shape(29 + window, 700)
        one = controller(DDR4_1600_TIMING, BANKS, window)
        for (bank, row, is_write, arrival), k in zip(requests, kinds):
            one.enqueue(bank, row, is_write, arrival, k)
        many = controller(DDR4_1600_TIMING, BANKS, window)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        enqueue_columns(
            many, bank_col, row_col, write_col, arrival_col, kinds=kinds
        )
        assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)
        assert many.stats.count_by_kind == one.stats.count_by_kind
        assert many.stats.latency_by_kind == one.stats.latency_by_kind
        assert one.stats.migration_count == 2 * one.stats.demand_count == 1_400

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    def test_twin_runs_differing_only_in_kind(self, window):
        # A closed-form episode collapses a run of identical elements;
        # a twin of another kind must end the run, or its services would
        # be tallied under the wrong kind.
        requests = [(1, 3, 0, 5_000)] * 120
        kinds = [DEMAND] * 50 + [MIGRATION] * 40 + [DEMAND] * 30
        one = controller(HBM_TIMING, BANKS, window)
        for (bank, row, is_write, arrival), k in zip(requests, kinds):
            one.enqueue(bank, row, is_write, arrival, k)
        many = controller(HBM_TIMING, BANKS, window)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        enqueue_columns(
            many, bank_col, row_col, write_col, arrival_col, kinds=kinds
        )
        assert many.service_paths.closed_form_served > 0
        assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)

    def test_mixed_kinds_batch_is_one_call(self):
        # The kinds column is read per element: a mixed column must not
        # be split into one nested enqueue_batch call per uniform run.
        calls = []

        class Counting(ChannelController):
            def enqueue_batch(self, *args, **kwargs):
                calls.append(len(args[0]))
                return super().enqueue_batch(*args, **kwargs)

        requests, kinds = self._cameo_shape(31, 200)
        ctrl = Counting(DDR4_1600_TIMING, BANKS)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        enqueue_columns(
            ctrl, bank_col, row_col, write_col, arrival_col, kinds=kinds
        )
        assert calls == [len(requests)]

    def test_sidecar_counters_are_conserved(self):
        requests = random_requests(19, 2_000, spacing=400)
        ctrl = ChannelController(HBM_TIMING, BANKS)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        enqueue_columns(ctrl, bank_col, row_col, write_col, arrival_col)
        ctrl.flush()
        paths = ctrl.service_paths
        assert paths.closed_form_served >= 0
        assert paths.scan_served >= 0
        assert paths.batched_served <= ctrl.stats.served

    def test_window_eight_counts_scan_engine(self):
        # At the shipped window the contended stretches run the
        # direct-scan engine.
        requests = random_requests(19, 2_000, spacing=400)
        ctrl = ChannelController(HBM_TIMING, BANKS)
        bank_col, row_col, write_col, arrival_col = map(list, zip(*requests))
        enqueue_columns(ctrl, bank_col, row_col, write_col, arrival_col)
        assert ctrl.service_paths.scan_served > 0

    def test_sidecar_never_leaks_into_snapshots(self):
        # The sidecar is observability only: two controllers that served
        # the same traffic through different paths must still snapshot
        # identically (run_pair depends on this).
        requests = [(1, 3, 0, 5_000)] * 100
        one = run_pair(requests)
        assert one.service_paths.closed_form_served == 0
