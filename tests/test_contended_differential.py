"""Randomized differential stress for the contended service engine.

The episode classifier and the scan engine replace the scalar
``_choose`` drain inside ``enqueue_batch``'s contended path.  The unit
suite (``test_dram_controller_batch.py``) pins each precondition in
isolation; this suite generates *adversarial composites* — seeded
random interleavings of the exact shapes that sit on the episode
boundaries:

* equal-arrival twin bursts (the degenerate all-twins backlog the
  closed form serves),
* read/write turnarounds straddling an episode (direction flip mid
  twin run),
* refresh boundaries landing inside a would-be episode,
* an aged conflicting element parked under the backlog so starvation
  promotion fires mid-stretch,
* swap-shaped migration runs merged behind demand (the merged-drain
  shape),
* CAMEO's line swaps: demand, a same-arrival swap read of the same
  row, then the later write,
* twin prefixes with something else queued behind them (the prefix
  drain's shape): a page-copy run followed by demand, by a write run
  on the same row, or by a run on another bank, and
* idle gaps that drain the window back to the fast path between
  stretches.

Every case drives identical traffic through per-element ``enqueue``
and through ``enqueue_batch`` (with and without page-copy runs) /
``enqueue_run`` on twin controllers
and asserts *full* state-snapshot equality (stats, bus/refresh/
turnaround cursors, per-bank row state, exact pending contents), and
that the batched controller's derived counters are conserved (reads
plus writes is ``served``; the total latency is the per-kind sum).  The
suite is pure Python — no numpy anywhere — so CI's no-numpy job runs
it unchanged as the no-numpy leg.
"""

from dataclasses import asdict, replace

import pytest

from repro.common.rng import DeterministicRng
from repro.dram import DDR4_1600_TIMING, HBM_TIMING
from repro.dram.controller import ChannelController
from repro.dram.request import DEMAND, MIGRATION
from tests.batching import assert_conserved, controller, enqueue_columns

BANKS = 16


def snapshot(ctrl):
    return {
        "stats": asdict(ctrl.stats),
        "bus_free_ps": ctrl.bus_free_ps,
        "last_completion_ps": ctrl.last_completion_ps,
        "refreshes": ctrl.refreshes,
        "last_was_write": bool(ctrl._last_was_write),
        "next_refresh_ps": ctrl._next_refresh_ps,
        "pending": list(ctrl._pending),
        "banks": [(b.open_row, b.busy_until_ps, b.activated_ps) for b in ctrl.banks],
    }


def adversarial_stretch(seed, events, timing):
    """One seeded adversarial request stream.

    Returns ``(bank, row, is_write, arrival, kind)`` tuples composed of
    the boundary shapes listed in the module docstring.
    """
    rng = DeterministicRng(seed)
    trefi = timing.trefi_ps
    requests = []
    at = 0
    bank = 0
    row = 0
    for _ in range(events):
        roll = rng.random()
        if roll < 0.30:
            # Equal-arrival twin burst: the episode shape, long enough
            # to overflow the window several times over.
            bank = rng.randrange(4)
            row = rng.randrange(8)
            w = int(rng.random() < 0.5)
            at += rng.randrange(40_000)
            burst = 4 + rng.randrange(80)
            requests += [(bank, row, w, at, DEMAND)] * burst
        elif roll < 0.45:
            # Turnaround straddling an episode: a read twin run that
            # flips direction midway at the same arrival.
            bank = rng.randrange(4)
            row = rng.randrange(8)
            at += rng.randrange(40_000)
            half = 4 + rng.randrange(40)
            requests += [(bank, row, 0, at, DEMAND)] * half
            requests += [(bank, row, 1, at, DEMAND)] * half
        elif roll < 0.55:
            # Refresh inside an episode: park the burst right past the
            # next tREFI multiple so the classifier must bail once.
            boundary = (at // trefi + 1) * trefi
            at = boundary + rng.randrange(5_000)
            bank = rng.randrange(4)
            row = rng.randrange(8)
            requests += [(bank, row, 0, at, DEMAND)] * (8 + rng.randrange(32))
        elif roll < 0.70:
            # Promotion mid-backlog: an old conflicting element, then a
            # twin stream arriving past the starvation bound relative
            # to it — the aged entry must interrupt the run exactly
            # where the scalar reference promotes it.
            bank = rng.randrange(2)
            at += rng.randrange(10_000)
            requests.append((bank, 31, 0, at, DEMAND))
            at += ChannelController.STARVATION_PS + rng.randrange(50_000)
            requests += [(bank, rng.randrange(8), 0, at, DEMAND)] * (
                8 + rng.randrange(48)
            )
        elif roll < 0.90:
            # The merged-drain column shape: demand, then a swap's
            # read-phase/write-phase migration runs, then more demand —
            # all in one column with a per-element kind.
            at += rng.randrange(40_000)
            lines = 8 + rng.randrange(24)
            write_ps = at + 200_000
            bank = rng.randrange(4)
            row = rng.randrange(8)
            requests += [(bank, row, 0, at, MIGRATION)] * lines
            requests += [(bank, row, 1, write_ps, MIGRATION)] * lines
            at = write_ps
        else:
            # Idle gap: drain back to the fast path (and let refresh
            # fast-forward catch up on DDR4 timings).
            at += trefi // 2 + rng.randrange(trefi)
            requests.append(
                (rng.randrange(BANKS), rng.randrange(32),
                 int(rng.random() < 0.4), at, DEMAND)
            )
    return requests


def assert_batch_matches(requests, timing, window):
    one = controller(timing, BANKS, window)
    for bank, row, is_write, arrival, kind in requests:
        one.enqueue(bank, row, is_write, arrival, kind)
    many = controller(timing, BANKS, window)
    bank_col, row_col, write_col, arrival_col, kind_col = map(
        list, zip(*requests)
    )
    enqueue_columns(
        many, bank_col, row_col, write_col, arrival_col, kinds=kind_col
    )
    assert snapshot(many) == snapshot(one)
    assert one.flush() == many.flush()
    assert snapshot(many) == snapshot(one)
    assert_conserved(many)
    return many


def cameo_stream(seed, count):
    """CAMEO's per-controller shape: each demand is followed by its line
    swap's read — same (bank, row), same arrival, ``MIGRATION`` — and
    the swap's write one line-phase later.  Zero gaps pile the triples
    up into contended backlogs; a few idle gaps drain them again."""
    rng = DeterministicRng(seed)
    requests = []
    at = 0
    for _ in range(count):
        bank = rng.randrange(4)
        row = rng.randrange(6)
        requests.append((bank, row, int(rng.random() < 0.3), at, DEMAND))
        requests.append((bank, row, 0, at, MIGRATION))
        requests.append((bank, row, 1, at + 30_000, MIGRATION))
        at += rng.choice((0, 0, 0, 2_000, 5_000, 400_000))
    return requests


class TestAdversarialStretches:
    @pytest.mark.parametrize("timing", [HBM_TIMING, DDR4_1600_TIMING],
                             ids=lambda t: t.name)
    # One scan engine serves every window of 2 or more, so window 32
    # proves it well past the shipped width of 8.
    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_snapshot_equality(self, timing, window, seed):
        requests = adversarial_stretch(seed, 60, timing)
        assert_batch_matches(requests, timing, window)

    def test_streams_exercise_every_engine(self):
        # The generator must actually reach both counted paths (plus
        # the uncounted fast path) — otherwise the equality passes above
        # prove less than they claim.
        totals = {"closed": 0, "scan": 0}
        for seed in (101, 202, 303):
            requests = adversarial_stretch(seed, 60, HBM_TIMING)
            for window in (8, 32):
                many = assert_batch_matches(requests, HBM_TIMING, window)
                paths = many.service_paths
                totals["closed"] += paths.closed_form_served
                totals["scan"] += paths.scan_served
                assert paths.batched_served <= many.stats.served
                if window == 32:
                    # The wide window runs the same scan engine.
                    assert paths.scan_served > 0
        assert totals["closed"] > 0
        assert totals["scan"] > 0

    @pytest.mark.parametrize("seed", [7, 8])
    def test_enqueue_run_inside_adversarial_stream(self, seed):
        # Interleave enqueue_run calls (the swap datapath) with scalar
        # demand from the adversarial generator: the run's closed-form
        # tail must chain correctly off an episode-engine-drained
        # backlog and vice versa.
        rng = DeterministicRng(seed)
        one = ChannelController(DDR4_1600_TIMING, BANKS)
        many = ChannelController(DDR4_1600_TIMING, BANKS)
        at = 0
        for _ in range(40):
            at += rng.randrange(300_000)
            bank = rng.randrange(4)
            row = rng.randrange(8)
            count = 1 + rng.randrange(64)
            for _ in range(count):
                one.enqueue(bank, row, False, at, MIGRATION)
            many.enqueue_run(bank, row, False, at, count, MIGRATION)
            for _ in range(rng.randrange(8)):
                demand = (rng.randrange(BANKS), rng.randrange(16),
                          bool(rng.random() < 0.4), at)
                one.enqueue(*demand)
                many.enqueue(*demand)
                at += rng.randrange(4_000)
            assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)
        assert_conserved(many)

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_runs_inside_enqueue_batch(self, window, seed):
        # The kernels' shape: an adversarial column per chunk with swap
        # read/write runs recorded against it, all in one enqueue_batch
        # call.  Runs land behind contended backlogs, on twin bursts and
        # across refresh boundaries, and must chain exactly with the
        # column's own episodes and drains.
        rng = DeterministicRng(seed)
        timing = DDR4_1600_TIMING
        stream = adversarial_stretch(seed, 60, timing)
        one = controller(timing, BANKS, window)
        many = controller(timing, BANKS, window)
        for lo in range(0, len(stream), 128):
            chunk = stream[lo:lo + 128]
            positions = sorted(
                rng.randrange(len(chunk) + 1) for _ in range(rng.randrange(5))
            )
            runs = []
            for pos in positions:
                at = chunk[pos][3] if pos < len(chunk) else chunk[-1][3]
                bank, row = rng.randrange(4), rng.randrange(8)
                lines = 8 + rng.randrange(32)
                runs.append((pos, bank, row, False, at, lines, MIGRATION))
                runs.append((pos, bank, row, True, at + 200_000, lines, MIGRATION))
            queued = list(runs)
            for i in range(len(chunk) + 1):
                while queued and queued[0][0] == i:
                    _, bank, row, is_write, at, lines, kind = queued.pop(0)
                    for _ in range(lines):
                        one.enqueue(bank, row, is_write, at, kind)
                if i < len(chunk):
                    one.enqueue(*chunk[i])
            cols = list(map(list, zip(*chunk)))
            enqueue_columns(
                many, cols[0], cols[1], cols[2], cols[3], kinds=cols[4], runs=runs
            )
            assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)
        assert_conserved(many)
        if window == 8:
            assert many.service_paths.closed_form_served > 0

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_cameo_line_swap_stream(self, window, seed):
        # Demand plus its same-arrival swap read is the pair the gated
        # drain skips without a service; the later write lands behind
        # them.  Served in one call, as the cameo kernel flushes it.
        many = assert_batch_matches(cameo_stream(seed, 400), DDR4_1600_TIMING, window)
        assert many.stats.migration_count == 2 * many.stats.demand_count == 800
        if window == 8:
            assert many.service_paths.scan_served > 0

    def test_batch_split_points_inside_episodes(self):
        # Splitting a column mid-episode (the kernels flush at
        # arbitrary chunk boundaries) must not change anything: the
        # episode re-forms from the carried pending buffer.
        requests = adversarial_stretch(404, 50, HBM_TIMING)
        cols = list(map(list, zip(*requests)))
        whole = ChannelController(HBM_TIMING, BANKS)
        enqueue_columns(whole, cols[0], cols[1], cols[2], cols[3], kinds=cols[4])
        split = ChannelController(HBM_TIMING, BANKS)
        step = 37  # deliberately coprime with the burst sizes
        for lo in range(0, len(requests), step):
            hi = lo + step
            enqueue_columns(
                split, cols[0][lo:hi], cols[1][lo:hi], cols[2][lo:hi],
                cols[3][lo:hi], kinds=cols[4][lo:hi],
            )
        assert snapshot(split) == snapshot(whole)
        assert whole.flush() == split.flush()
        assert snapshot(split) == snapshot(whole)
        assert_conserved(split)


# -- twin-prefix shapes ------------------------------------------------------
#
# The prefix drain serves a row-hit twin prefix at the buffer's head in
# one step, whatever follows it.  Each shape below is a page-copy run
# with something else queued behind it, driven through scalar
# ``enqueue`` and through ``enqueue_batch`` with the run passed as a run.

NO_REFRESH_TIMING = replace(DDR4_1600_TIMING, name="DDR4-no-refresh", trefi=0, trfc=0)


def run_pair(timing, window, chunks):
    """Replay ``chunks`` — ``(demand, runs)`` pairs, one ``enqueue_batch``
    call each — on a scalar and a batched controller, asserting snapshot
    equality after every call and after the final flush.

    ``demand`` holds ``(bank, row, is_write, arrival, kind)`` requests and
    ``runs`` ``(pos, bank, row, is_write, arrival, count, kind)`` page-copy
    runs, queued right before ``demand[pos]``.
    """
    one = controller(timing, BANKS, window)
    many = controller(timing, BANKS, window)
    for demand, runs in chunks:
        queued = list(runs)
        for i in range(len(demand) + 1):
            while queued and queued[0][0] == i:
                _, bank, row, is_write, at, count, kind = queued.pop(0)
                for _ in range(count):
                    one.enqueue(bank, row, is_write, at, kind)
            if i < len(demand):
                one.enqueue(*demand[i])
        cols = [list(col) for col in zip(*demand)] or [[]] * 5
        enqueue_columns(
            many, cols[0], cols[1], cols[2], cols[3], kinds=cols[4], runs=runs
        )
        assert snapshot(many) == snapshot(one)
    assert one.flush() == many.flush()
    assert snapshot(many) == snapshot(one)
    assert_conserved(many)
    return many


def run_then_demand(seed):
    """A twin run, then a demand column arriving right behind it: the
    run's twins drain from the head while the demand waits."""
    rng = DeterministicRng(seed)
    chunks = []
    at = 0
    for _ in range(30):
        bank, row = rng.randrange(4), rng.randrange(8)
        run = (0, bank, row, int(rng.random() < 0.3), at, 8 + rng.randrange(33), MIGRATION)
        gap = rng.choice((0, 500, 2_000, 10_000))
        demand = []
        for _ in range(1 + rng.randrange(12)):
            at += gap
            demand.append((rng.randrange(BANKS), rng.randrange(8),
                           int(rng.random() < 0.3), at, DEMAND))
        chunks.append((demand, [run]))
        at += rng.choice((0, 5_000, 60_000, 400_000))
    return chunks


def read_then_write_runs(seed):
    """A swap side: a read run, then a write run on the same bank and
    row, at the same arrival or one copy phase later, then demand."""
    rng = DeterministicRng(seed)
    chunks = []
    at = 0
    for _ in range(30):
        bank, row = rng.randrange(4), rng.randrange(8)
        lines = 8 + rng.randrange(33)
        write_at = at + rng.choice((0, 3_000, 200_000))
        demand = [(rng.randrange(BANKS), rng.randrange(8), 0, at + 1_000 * j, DEMAND)
                  for j in range(rng.randrange(4))]
        runs = [(0, bank, row, 0, at, lines, MIGRATION),
                (0, bank, row, 1, write_at, lines, MIGRATION)]
        chunks.append((demand, runs))
        at = write_at + rng.choice((0, 5_000, 400_000))
    return chunks


def run_then_other_bank_run(seed):
    """A run, then a run on another bank: the second run's twins queue
    behind the first run's prefix."""
    rng = DeterministicRng(seed)
    chunks = []
    at = 0
    for _ in range(30):
        bank = rng.randrange(4)
        other = (bank + 1 + rng.randrange(3)) % 4
        w = int(rng.random() < 0.5)
        runs = [(0, bank, rng.randrange(8), w, at, 8 + rng.randrange(33), MIGRATION),
                (0, other, rng.randrange(8), w, at + rng.choice((0, 700, 4_000)),
                 8 + rng.randrange(33), MIGRATION)]
        demand = [(rng.randrange(BANKS), rng.randrange(8), 0, at + 5_000, DEMAND)]
        chunks.append((demand, runs))
        at += rng.choice((0, 5_000, 60_000, 400_000))
    return chunks


class TestTwinPrefixDrain:
    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_run_then_demand_column(self, window, seed):
        many = run_pair(DDR4_1600_TIMING, window, run_then_demand(seed))
        if window == 8:
            assert many.service_paths.closed_form_served > 0

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_read_run_then_write_run_same_row(self, window, seed):
        many = run_pair(DDR4_1600_TIMING, window, read_then_write_runs(seed))
        if window == 8:
            assert many.service_paths.closed_form_served > 0

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    @pytest.mark.parametrize("seed", [51, 52])
    def test_run_then_run_on_another_bank(self, window, seed):
        run_pair(HBM_TIMING, window, run_then_other_bank_run(seed))

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    def test_prefix_drain_without_refresh(self, window):
        # No refresh: the batched path tests refresh against a sentinel,
        # and must leave the controller's own cursor at 0.
        assert NO_REFRESH_TIMING.trefi_ps == 0
        many = run_pair(NO_REFRESH_TIMING, window, run_then_demand(61))
        assert many._next_refresh_ps == 0
        assert many.refreshes == 0

    @pytest.mark.parametrize("window", [2, 8, 16, 32])
    def test_block_until_then_a_call_that_serves_nothing(self, window):
        # ``block_until`` pushes the bus cursor past the last completion;
        # a call that only buffers must not move ``last_completion_ps``.
        one = controller(DDR4_1600_TIMING, BANKS, window)
        many = controller(DDR4_1600_TIMING, BANKS, window)
        for ctrl in (one, many):
            ctrl.enqueue(0, 3, False, 1_000)
            ctrl.block_until(900_000)
        last = many.last_completion_ps
        assert 0 < last < many.bus_free_ps
        one.enqueue(1, 5, False, 2_000)
        enqueue_columns(many, [1], [5], [False], [2_000])
        assert many.stats.served == 1  # the call only buffered its entry
        assert many.last_completion_ps == last
        assert snapshot(many) == snapshot(one)
        assert one.flush() == many.flush()
        assert snapshot(many) == snapshot(one)

    @pytest.mark.parametrize("window", [2, 3])
    def test_lone_older_entry_after_overflow_served_the_incoming(self, window):
        # The overflow serves the incoming row hit, the gated drain an
        # older entry, and the lone entry left is older than the
        # incoming arrival: it can still start before it, so the drain
        # must test it rather than stop at one entry.
        requests = [(2, 5, 0, 0, DEMAND)]  # opens bank 2's row 5
        requests += [(b, 1, 0, 1_000, DEMAND) for b in (0, 1, 3)[:window]]
        requests.append((2, 5, 0, 50_000, DEMAND))
        one = controller(HBM_TIMING, BANKS, window)
        for bank, row, is_write, arrival, kind in requests:
            one.enqueue(bank, row, is_write, arrival, kind)
        assert not one._pending  # the lone older entry was served
        many = controller(HBM_TIMING, BANKS, window)
        cols = [list(col) for col in zip(*requests)]
        enqueue_columns(many, cols[0], cols[1], cols[2], cols[3], kinds=cols[4])
        assert snapshot(many) == snapshot(one)
