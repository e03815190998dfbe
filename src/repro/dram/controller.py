"""Per-channel memory controller with bounded FR-FCFS scheduling.

The controller is event-driven: the simulator presents transactions in
global arrival order, the controller buffers up to ``WINDOW`` of them,
and whenever the buffer overflows (or :meth:`flush` is called) it
services one transaction, preferring **row hits** among the buffered
candidates and falling back to the **oldest** — a bounded-window
approximation of FR-FCFS that preserves the row-locality effects the
paper's results depend on while keeping per-request cost ``O(WINDOW)``.

Timing accounted per transaction:

* bank availability plus the row-buffer outcome latency (see
  :mod:`repro.dram.bank`),
* channel data-bus occupancy (one burst per transaction, serialised),
* an optional external *block* time (used to model HMA's OS/sort stalls
  and in-flight migration page locks).

Completion times are returned to the caller and aggregated into
:class:`ControllerStats`.

Every structure here is replayed millions of times per experiment, so
the pending buffer holds plain tuples
``(arrival_ps, account_ps, bank, row, is_write, kind)`` rather than
objects, and the scheduling loops keep their state in locals.

Two service datapaths share the same semantics:

* :meth:`ChannelController.enqueue` — the reference path, one
  transaction per call;
* :meth:`ChannelController.enqueue_batch` — the batched path the replay
  kernels use: a list of pending-entry tuples per controller, built by
  the kernel in the buffer's own layout, and the page-copy runs queued
  between its elements, handed down at once, serviced with controller,
  bank, and stats state hoisted into locals, an idle-channel drain fast
  path for the uncontended common case and two overtaking shapes FR-FCFS
  serves in a fixed order — a held row hit whose overtakers arrive in
  non-increasing order (the hold rule), and a same-arrival pair on one
  row whose next element arrives after the pair can start (the pair
  rule) — and run-length row-hit streaming.  It must stay bit-for-bit
  equal to calling ``enqueue`` per element —
  ``tests/test_dram_controller_batch.py`` and the kernel
  differential suite enforce it, so an edit to a scheduling function it
  inlines (``enqueue``, ``_choose``, ``_service_at``, ``Bank.access``)
  must be mirrored there.

Controllers also report *dirty-channel* hints: every entry point that
may advance the data bus adds the controller's key to a sink set shared
with the owning memory, so the CPU throttle's peak-bus probe scans only
channels touched since its last sample (see
``HybridMemory.peak_bus_free_ps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..common.config import require_positive_int
from .bank import Bank, ROW_HIT
from .request import BOOKKEEPING, DEMAND, MIGRATION
from .timing import DramTiming

REQUEST_BYTES = 64

#: ``enqueue_batch``'s next-refresh cursor on a channel without refresh:
#: no arrival reaches it, so every refresh test is one comparison.
_NO_REFRESH = float("inf")

#: Pending-buffer entry layout (plain tuple, index-addressed):
#: ``(arrival_ps, account_ps, bank, row, is_write, kind)``.  It is also
#: the unit :meth:`ChannelController.enqueue_batch` takes.
PendingEntry = Tuple[int, int, int, int, int, int]


@dataclass
class ControllerStats:
    """Aggregate service statistics for one channel controller.

    The request kinds form a closed set of three, so the per-kind
    tallies are plain integer fields (the service loop touches them for
    every transaction); the dict-shaped views existing callers expect
    are derived on demand.
    """

    served: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    total_latency_ps: int = 0
    demand_latency_ps: int = 0
    migration_latency_ps: int = 0
    bookkeeping_latency_ps: int = 0
    demand_count: int = 0
    migration_count: int = 0
    bookkeeping_count: int = 0

    @property
    def latency_by_kind(self) -> dict:
        """``{kind: total latency}`` view over the closed kind set."""
        return {
            DEMAND: self.demand_latency_ps,
            MIGRATION: self.migration_latency_ps,
            BOOKKEEPING: self.bookkeeping_latency_ps,
        }

    @property
    def count_by_kind(self) -> dict:
        """``{kind: served count}`` view over the closed kind set."""
        return {
            DEMAND: self.demand_count,
            MIGRATION: self.migration_count,
            BOOKKEEPING: self.bookkeeping_count,
        }

    def merge(self, other: "ControllerStats") -> None:
        """Accumulate ``other`` into this stats object (field-wise sum)."""
        self.served += other.served
        self.reads += other.reads
        self.writes += other.writes
        self.row_hits += other.row_hits
        self.total_latency_ps += other.total_latency_ps
        self.demand_latency_ps += other.demand_latency_ps
        self.migration_latency_ps += other.migration_latency_ps
        self.bookkeeping_latency_ps += other.bookkeeping_latency_ps
        self.demand_count += other.demand_count
        self.migration_count += other.migration_count
        self.bookkeeping_count += other.bookkeeping_count


@dataclass
class ServicePathStats:
    """Which batched-datapath regime serviced each transaction.

    Observability sidecar for the contention-aware service engine in
    :meth:`ChannelController.enqueue_batch` (``enqueue_run`` is a
    one-run call of it): the counters are bumped only by the batched
    entry point (the reference ``enqueue`` path never touches them), so
    they measure how contended a replay was without perturbing
    :class:`ControllerStats` or the differential state snapshots.  They
    never feed a simulation result.

    * ``closed_form_served`` — serviced as part of a row-hit twin
      prefix in one step (the prefix drain or a backlog episode;
      arithmetic-series timing, no per-element scheduling),
      on a demand column or on a page-copy run's twin column;
    * ``scan_served`` — serviced per element by the direct-scan
      FR-FCFS engine inside a contended stretch;
    * ``scalar_fallback_served`` — always 0: no batched call serves
      through the reference ``enqueue``.  The field stays because the
      benchmark's layer report reads it.

    Idle-channel fast-path services are the remainder: a controller's
    ``stats.served`` minus these two minus any reference-path services.
    That includes what the idle path serves under its hold rule (a held
    row hit whose overtakers arrive in non-increasing order) and its
    pair rule (a same-arrival pair on one row).
    """

    closed_form_served: int = 0
    scan_served: int = 0
    scalar_fallback_served: int = 0

    def merge(self, other: "ServicePathStats") -> None:
        """Accumulate ``other`` into this sidecar (field-wise sum)."""
        self.closed_form_served += other.closed_form_served
        self.scan_served += other.scan_served
        self.scalar_fallback_served += other.scalar_fallback_served

    @property
    def batched_served(self) -> int:
        """Transactions serviced by any counted batched regime."""
        return self.closed_form_served + self.scan_served


class ChannelController:
    """One channel's scheduler, banks, and data bus.

    Parameters
    ----------
    timing:
        The DRAM technology parameters for this channel.
    banks:
        Flat bank count (ranks x banks per channel).

    The reorder window is the fixed :attr:`WINDOW`.
    """

    def __init__(self, timing: DramTiming, banks: int) -> None:
        require_positive_int("banks", banks)
        self.timing = timing
        self.banks: List[Bank] = [Bank() for _ in range(banks)]
        self.bus_free_ps = 0
        self.stats = ControllerStats()
        self.service_paths = ServicePathStats()
        self._pending: List[PendingEntry] = []
        self._burst_ps = timing.burst_ps(REQUEST_BYTES)
        self._turnaround_ps = timing.turnaround_ps
        self._last_was_write = False
        self._trefi_ps = timing.trefi_ps
        self._trfc_ps = timing.trfc_ps
        self._next_refresh_ps = self._trefi_ps if self._trefi_ps else 0
        self.refreshes = 0
        self.last_completion_ps = 0
        # Dirty-channel hint for the owning memory's peak-bus cache:
        # every entry point that may advance the bus adds this
        # controller's key to the sink.  ``_dirty`` short-circuits the
        # common already-marked case to one attribute test; the owning
        # memory rewires the sink to one set shared by all its
        # controllers and clears the flag when it drains the set.  A
        # standalone controller keeps a private sink so the hot paths
        # stay branch-free.
        self._dirty = False
        self._dirty_sink: set = set()
        self._dirty_key = 0

    # -- public API -----------------------------------------------------

    def enqueue(
        self,
        bank: int,
        row: int,
        is_write: bool,
        arrival_ps: int,
        kind: int = DEMAND,
        account_ps: Optional[int] = None,
    ) -> None:
        """Buffer one transaction; may trigger a service step.

        ``account_ps`` is the timestamp latency is measured against —
        usually the arrival, but a request that was blocked behind a
        migrating page accounts from its original arrival so the block
        time shows up as stall time.
        """
        if not self._dirty:
            self._dirty = True
            self._dirty_sink.add(self._dirty_key)
        pending = self._pending
        pending.append((
            arrival_ps,
            arrival_ps if account_ps is None else account_ps,
            bank,
            row,
            is_write,
            kind,
        ))
        if len(pending) == 1:
            # A lone transaction can never start before its own arrival,
            # so the drain loop below would break without side effects.
            return
        # Keep the buffer bounded, then drain every transaction whose
        # service would have *started* before this arrival: an idle
        # channel services immediately; the window only buys reordering
        # while the channel is genuinely contended.
        banks = self.banks
        choose = self._choose
        service_at = self._service_at
        while len(pending) > self.WINDOW:
            service_at(choose())
        while pending:
            idx = choose()
            cand = pending[idx]
            start = banks[cand[2]].busy_until_ps
            if cand[0] > start:
                start = cand[0]
            if start >= arrival_ps:
                # The preferred candidate cannot start yet; an older
                # transaction to a free bank still can (hardware would
                # have issued it already), so drain that one instead.
                if idx != 0:
                    head = pending[0]
                    head_start = banks[head[2]].busy_until_ps
                    if head[0] > head_start:
                        head_start = head[0]
                    if head_start < arrival_ps:
                        service_at(0)
                        continue
                break
            service_at(idx)

    def enqueue_batch(self, entries, runs=None) -> None:
        """Batched :meth:`enqueue`: service a list of pending entries.

        ``entries`` holds :data:`PendingEntry` tuples ``(arrival_ps,
        account_ps, bank, row, is_write, kind)`` — the pending buffer's
        own layout, so an element enters the buffer as the very tuple
        the caller built.  The call is bit-for-bit equal to
        ``enqueue(bank, row, is_write, arrival_ps, kind, account_ps)``
        for each entry in order, but with every controller, bank, and
        stats field hoisted into locals for the whole batch.  Kind only
        buckets the per-kind stats and never steers a scheduling
        decision, so a list mixing demand and migration traffic is
        serviced in one pass.  Entries are replayed in *reference
        enqueue order* — arrivals need not be monotone (migration
        write-backs carry future timestamps).

        ``runs`` is an optional list of page-copy runs, ``(pos, entry,
        count)`` with ``pos`` ascending (a ``ValueError`` otherwise,
        raised before anything is serviced): ``count`` copies of
        ``entry`` enqueued right before element ``pos`` (``pos ==
        len(entries)`` appends the run after the list).  The call splits
        into segments — stretches of ``entries`` between run positions,
        and each run as a *twin column* ``[entry] * count`` — and feeds
        them to the engines below in order, so a run costs no Python
        call per element and no call of its own.

        Two engines alternate inside the loop:

        * **idle-channel drain fast path** — with at most one buffered
          transaction and each arrival past the previous transaction's
          service start, the scheduler provably services the older
          transaction immediately (the window never fills), so the loop
          holds the single in-flight entry in locals and never touches
          the pending buffer; consecutive same-bank same-row
          transactions stream as a run-length row-hit burst with the
          bank's fields cached in locals too.  Two exact rules keep it
          going where the next arrivals *overtake* the held entry ``p``
          (arrive no later than its start), as in CAMEO's line swaps (a
          demand and its swap read share arrival, bank and row):

          - **hold rule** — ``p`` is a row hit, the next entry is not
            its twin (twin columns stay with the prefix drain), the
            overtakers arrive in non-increasing order, and either an
            element arriving after ``p``'s start follows them inside
            the call or there are at least ``WINDOW`` of them.
            ``_choose`` picks ``p`` (the first row hit, at the head; age
            promotion also returns the head) on each of their enqueues,
            nothing is served before it, so its timing cannot change,
            and no overtaker can start before a later one arrives.  So
            the reference serves ``p`` first, on that element's arrival
            or on the window's overflow, and the idle path serves it at
            once and holds the next entry.
          - **pair rule** — ``p`` is no row hit, the next entry shares
            its arrival, bank and row, the element after them arrives
            after ``p``'s start, and the window (3 or more) cannot
            overflow on it.  The reference serves the pair on that
            element's arrival: ``p`` first, or the partner when only
            the partner matches the bus direction and that element is
            no row hit.  The row-hit streak serves the second, gated by
            that element's arrival as the reference's drain is.
        * **scan engine** — contended stretches run the window-bounded
          FR-FCFS drain on the reference pending list, exact at any
          window: one loop per appended element with ``_choose``'s scan
          and ``_service_at``'s timing written out inline, so a
          contended service costs no Python call.  Twin prefixes are
          served in closed form, as one arithmetic series of row hits
          one burst apart.  The **prefix drain** fires whenever the
          buffer's head is a row hit (bus direction matching, no
          refresh due) with a twin right behind it: ``_choose`` then
          picks the head for as long as the twins last, so the drain
          serves the overflow plus every twin that could start before
          the incoming arrival in one step, whatever follows the
          twins.  The **episode** is its uniform case: with every
          buffered entry a twin of the incoming element, the element's
          whole twin run is appended at once and the overflow is
          prefix-drained.  Any precondition failing falls back to the
          exact per-element drain.  On a twin column every element
          re-tests the backlog for uniformity (one ``list.count``), so
          the episode re-forms as soon as the drain has worked off the
          demand queued ahead of the run.

        Per service the engines update only the per-kind counts and
        latencies, the write count and the row hits; ``served``, the
        read count and the total latency are derived from them on exit,
        exactly as ``_service_at`` keeps them in step.  So is
        ``last_completion_ps``: every completion becomes the bus cursor
        and completions strictly increase, so a call that served
        anything leaves its last completion in the bus cursor.

        Which regime serviced how many transactions is tallied in the
        :class:`ServicePathStats` sidecar (``self.service_paths``) —
        observability only, never part of a simulation result.
        """
        stop = len(entries)
        if not stop and not runs:
            return
        # Segments ``(entries, start, stop, twin)``, kept last-first for
        # ``pop``: stretches of the list, and each run as a twin column
        # (``twin`` set).  A run-free call builds none: its list is the
        # one segment, already in the engine's locals.
        if runs:
            segments = []
            lo = 0
            for pos, r_entry, count in runs:
                if pos != lo:
                    if not lo < pos <= stop:
                        raise ValueError(
                            f"run position {pos} outside [{lo}, {stop}]: runs "
                            "must be sorted by position within the entries"
                        )
                    segments.append((entries, lo, pos, False))
                    lo = pos
                if count > 0:
                    segments.append(([r_entry] * count, 0, count, True))
            if stop > lo:
                segments.append((entries, lo, stop, False))
            segments.reverse()
            stop = 0  # the engine loads the first segment on entry
        else:
            segments = ()
            twin = False
        if not self._dirty:
            self._dirty = True
            self._dirty_sink.add(self._dirty_key)
        pending = self._pending
        bank_list = self.banks
        window = self.WINDOW
        timing = self.timing
        burst = self._burst_ps
        turnaround = self._turnaround_ps
        trefi = self._trefi_ps
        trfc = self._trfc_ps
        trcd = timing.trcd_ps
        tcas = timing.tcas_ps
        trp = timing.trp_ps
        tras = timing.tras_ps
        starvation = self.STARVATION_PS
        # Controller cursors and stats accumulators, hoisted into plain
        # locals: no nested function shares them, so both engines below
        # update them without cell indirection.  Without refresh the
        # next boundary is a sentinel no arrival reaches, so a refresh
        # test is one comparison either way.
        bus_free = self.bus_free_ps
        last_was_write = self._last_was_write
        next_refresh = self._next_refresh_ps if trefi else _NO_REFRESH
        refreshes = self.refreshes
        n_writes = 0
        row_hits = 0
        demand_lat = 0
        migration_lat = 0
        bookkeeping_lat = 0
        demand_n = 0
        migration_n = 0
        bookkeeping_n = 0
        # The prefix drain is tried only where a buffer can hold twins:
        # a call carrying runs, a buffer that already starts with two,
        # or after an episode (which sets it).
        prefix = bool(runs) or (len(pending) > 1 and pending[0] == pending[1])

        # Service paths below mutate only the hoisted cursors and
        # accumulators; the finally writes every one of them back so
        # the controller stays consistent on exceptional exits too.
        try:
            closed_served = 0
            scan_served = 0
            # Walk the segments in order; the engines below bound every
            # loop by the current segment's ``stop``.
            i = 0
            while True:
                if i >= stop:
                    if not segments:
                        break
                    entries, i, stop, twin = segments.pop()
                    continue
                if len(pending) <= 1:
                    # -- idle-channel drain fast path -----------------------
                    # Holds the one in-flight entry ``p`` in locals; the
                    # pending buffer is only touched again on exit.
                    if pending:
                        p = pending.pop()
                    else:
                        p = entries[i]
                        i += 1
                    p_arr, p_acc, p_bank, p_row, p_w, p_kind = p
                    while i < stop:
                        entry = entries[i]
                        bank = bank_list[p_bank]
                        busy = bank.busy_until_ps
                        start = p_arr if p_arr > busy else busy
                        if start >= entry[0]:
                            # Contended, unless the hold or pair rule holds.
                            j = i + 1
                            if bank.open_row == p_row:
                                # Hold rule: the overtakers must not rise,
                                # and an element past ``start`` (or the
                                # window's overflow) must end them.
                                if entry == p:
                                    break
                                end = i + window
                                if end > stop:
                                    end = stop
                                last = entry[0]
                                while j < end:
                                    o_arr = entries[j][0]
                                    if o_arr > start or o_arr > last:
                                        break
                                    last = o_arr
                                    j += 1
                                if j - i < window and (
                                    j == stop or entries[j][0] <= start
                                ):
                                    break
                            else:
                                if j >= stop:
                                    break
                                nxt = entries[j]
                                if (
                                    nxt[0] <= start
                                    or entry[0] != p_arr
                                    or entry[3] != p_row
                                    or entry[2] != p_bank
                                    or window < 3
                                ):
                                    break
                                if (
                                    entry[4] == last_was_write
                                    and p_w != last_was_write
                                    and bank_list[nxt[2]].open_row != nxt[3]
                                ):
                                    # The partner goes first.
                                    entry, p = p, entry
                                    p_arr, p_acc, p_bank, p_row, p_w, p_kind = p
                        # Service the held transaction (== _service_at on a
                        # lone pending entry).
                        if p_arr >= next_refresh:
                            elapsed = (p_arr - next_refresh) // trefi
                            boundary = next_refresh + elapsed * trefi
                            refreshes += elapsed + 1
                            next_refresh = boundary + trefi
                            stall_end = boundary + trfc
                            if bus_free < stall_end:
                                bus_free = stall_end
                            for b in bank_list:
                                if b.busy_until_ps < stall_end:
                                    b.busy_until_ps = stall_end
                            busy = bank.busy_until_ps
                            start = p_arr if p_arr > busy else busy
                        open_row = bank.open_row
                        if open_row == p_row:
                            row_hits += 1
                            cas_issue = start
                        elif open_row == -1:
                            bank.activated_ps = start
                            bank.open_row = p_row
                            cas_issue = start + trcd
                        else:
                            earliest_pre = bank.activated_ps + tras
                            pre_start = start if start > earliest_pre else earliest_pre
                            act_start = pre_start + trp
                            bank.activated_ps = act_start
                            bank.open_row = p_row
                            cas_issue = act_start + trcd
                        data_ready = cas_issue + tcas
                        bank_busy = cas_issue + burst
                        bank.busy_until_ps = bank_busy
                        if p_w != last_was_write:
                            bus_free += turnaround
                            last_was_write = p_w
                        completion = (
                            data_ready if data_ready > bus_free else bus_free
                        ) + burst
                        bus_free = completion
                        if p_w:
                            n_writes += 1
                        if p_kind == DEMAND:
                            demand_lat += completion - p_acc
                            demand_n += 1
                        elif p_kind == MIGRATION:
                            migration_lat += completion - p_acc
                            migration_n += 1
                        else:
                            bookkeeping_lat += completion - p_acc
                            bookkeeping_n += 1
                        s_bank = p_bank
                        s_row = p_row
                        p = entry
                        p_arr, p_acc, p_bank, p_row, p_w, p_kind = entry
                        i += 1
                        if p_bank != s_bank or p_row != s_row:
                            continue
                        # Run-length row-hit streak: the serviced row is now
                        # open, so successive same-bank same-row transactions
                        # are guaranteed hits — stream them with the bank's
                        # fields held in locals (refresh or contention breaks
                        # the streak back to the full path above).
                        run_hits = 0
                        while i < stop:
                            entry = entries[i]
                            start = p_arr if p_arr > bank_busy else bank_busy
                            if start >= entry[0]:
                                break
                            if p_arr >= next_refresh:
                                break
                            run_hits += 1
                            bank_busy = start + burst
                            if p_w != last_was_write:
                                bus_free += turnaround
                                last_was_write = p_w
                            data_ready = start + tcas
                            completion = (
                                data_ready if data_ready > bus_free else bus_free
                            ) + burst
                            bus_free = completion
                            if p_w:
                                n_writes += 1
                            if p_kind == DEMAND:
                                demand_lat += completion - p_acc
                                demand_n += 1
                            elif p_kind == MIGRATION:
                                migration_lat += completion - p_acc
                                migration_n += 1
                            else:
                                bookkeeping_lat += completion - p_acc
                                bookkeeping_n += 1
                            p = entry
                            p_arr, p_acc, p_bank, p_row, p_w, p_kind = entry
                            i += 1
                            if p_bank != s_bank or p_row != s_row:
                                break
                        if run_hits:
                            row_hits += run_hits
                            bank.busy_until_ps = bank_busy
                    pending.append(p)
                    if i >= stop:
                        continue  # segment done: on to the next one
                    # The next element is contended against the held one:
                    # fall through into the contended engine.
                # -- contended stretch: scan engine -------------------------
                # The reference pending list plus a direct ``_choose``
                # scan, exact at any window: appends stay a plain list
                # append and a mid-list pop of a handful of entries is a
                # single small memmove.  What the engine adds on top of
                # the reference drain is closed-form service of twin
                # prefixes (the episode and the prefix drain below),
                # gated on the ``uni`` and ``prefix`` flags so ordinary
                # demand pays one local bool test for each.
                #
                # ``uni`` tracks "every buffered entry equals ``prev``"
                # incrementally instead of rescanning the buffer per
                # element: it is established once on stretch entry (the
                # backlog a run leaves is all twins), preserved by the
                # episode path (it only appends twins), and killed by
                # any ordinary append on a column.  A column buffer that
                # *becomes* uniform some other way is merely missed.  On
                # a twin column an ordinary append *sets* it instead:
                # every later element is ``prev``, so the episode gate
                # re-tests the buffer itself per element and catches the
                # moment the drain has worked off the demand queued
                # ahead of the run.  The episode always checks the
                # buffer before it collapses anything, so the flag is a
                # performance hint, never a correctness input.  The
                # buffer holds at least one entry on every pass below.
                prev = pending[-1]
                uni = pending.count(prev) == len(pending)
                s0 = demand_n + migration_n + bookkeeping_n - closed_served
                while i < stop:
                    entry = entries[i]
                    gate = uni and entry == prev
                    if gate and pending.count(entry) == len(pending):
                        # -- closed-form backlog episode ----------------
                        # With the buffer holding only twins of the
                        # incoming element, appending the element's whole
                        # twin run at once is exact: below the window an
                        # append is service-free (the chosen head is a
                        # twin, which cannot start before its own
                        # arrival), and past it — twins' row open, bus
                        # direction matching, no refresh due — each
                        # append services exactly one twin head, which is
                        # the overflow the prefix drain below serves in
                        # closed form.  With a precondition failing only
                        # the window fill is bulk-appended, and the next
                        # twin takes the exact per-element drain.
                        if twin:
                            j = stop
                        else:
                            j = i + 1
                            while j < stop and entries[j] == entry:
                                j += 1
                        k = len(pending) + j - i
                        if k > window and not (
                            entry[4] == last_was_write
                            and entry[0] < next_refresh
                            and bank_list[entry[2]].open_row == entry[3]
                        ):
                            j -= k - window
                            if j <= i:
                                j = i + 1
                        pending.extend(entries[i:j])
                        i = j
                        k = len(pending)
                        if k <= window:
                            continue
                        prefix = True
                    else:
                        # -- per-element: append + window-bounded drain -
                        pending.append(entry)
                        i += 1
                        k = len(pending)
                        if not gate:
                            # An ordinary append breaks a column's twin
                            # shape, and arms a twin column's per-element
                            # re-test.  A gated append whose buffer is
                            # not uniform yet is another twin: a column's
                            # buffer stays uniform, and a twin column
                            # re-tests its buffer anyway.
                            prev = entry
                            uni = twin
                    arrival = entry[0]
                    if k == 2 and pending[0][0] >= arrival:
                        # Neither entry can start before this arrival:
                        # every start is at least its own arrival, and
                        # the other entry is the incoming one.
                        continue
                    if prefix:
                        # -- prefix drain -------------------------------
                        # A row-hit head twinned by the next entry, bus
                        # direction matching and no refresh due at its
                        # arrival: ``_choose`` picks index 0 for as long
                        # as the twins last (the first row hit wins, and
                        # age promotion only acts past the head), and
                        # each service is a row hit one burst after the
                        # previous start.  So the drain serves
                        # ``t = max(overflow, gated)`` heads in one step,
                        # ``gated`` counting the starts still below this
                        # arrival, capped by the twin-prefix length.
                        head = pending[0]
                        if (
                            pending[1] == head
                            and head[4] == last_was_write
                            and head[0] < next_refresh
                        ):
                            bank = bank_list[head[2]]
                            if bank.open_row == head[3]:
                                e_arr = head[0]
                                busy = bank.busy_until_ps
                                start = e_arr if e_arr > busy else busy
                                t = k - window
                                if start < arrival:
                                    gated = (arrival - start + burst - 1) // burst
                                    if gated > t:
                                        t = gated
                                if t <= 0:
                                    continue  # the head cannot start: drained
                                if t > 2:
                                    n = pending.count(head)
                                    if n < t:
                                        t = n
                                    if pending[:t].count(head) != t:
                                        t = 2
                                        while pending[t] == head:
                                            t += 1
                                # Closed form: the first service completes
                                # at ``completion``; every later start is
                                # one burst after the previous one, so the
                                # bus excess over the bank-limited
                                # completion stays what the first service
                                # left, and the completions form an
                                # arithmetic series one burst apart.
                                data_ready = start + tcas
                                completion = (
                                    data_ready if data_ready > bus_free else bus_free
                                ) + burst
                                bank.busy_until_ps = start + t * burst
                                bus_free = completion + (t - 1) * burst
                                lat = t * (completion - head[1]) + burst * t * (t - 1) // 2
                                row_hits += t
                                if head[4]:
                                    n_writes += t
                                e_kind = head[5]
                                if e_kind == DEMAND:
                                    demand_lat += lat
                                    demand_n += t
                                elif e_kind == MIGRATION:
                                    migration_lat += lat
                                    migration_n += t
                                else:
                                    bookkeeping_lat += lat
                                    bookkeeping_n += t
                                closed_served += t
                                del pending[:t]
                                k -= t
                                if pending[0] == head:
                                    # A twin is left at the head, and it
                                    # cannot start before this arrival.
                                    continue
                    # The window-bounded drain, ``_choose`` and
                    # ``_service_at`` inlined once: while the buffer is
                    # over the window the chosen entry is serviced
                    # unconditionally (``enqueue``'s overflow loop); from
                    # then on only while it — or, failing it, the head —
                    # could have started before this arrival.
                    while k:
                        # _choose, against the hoisted bus direction.
                        if k > 1:
                            same_direction = -1
                            for idx, cand in enumerate(pending):
                                if bank_list[cand[2]].open_row == cand[3]:
                                    # Age promotion beats the row hit; a
                                    # hit at the head is the head anyway.
                                    if idx and cand[0] > pending[0][0] + starvation:
                                        idx = 0
                                    break
                                if same_direction < 0 and cand[4] == last_was_write:
                                    same_direction = idx
                            else:
                                idx = same_direction if same_direction >= 0 else 0
                        elif pending[0][0] >= arrival:
                            break  # a lone entry this young cannot start yet
                        else:
                            idx = 0
                        c_arr, c_acc, c_bank, c_row, c_w, c_kind = pending[idx]
                        bank = bank_list[c_bank]
                        busy = bank.busy_until_ps
                        start = c_arr if c_arr > busy else busy
                        if k <= window and start >= arrival:
                            # The preferred candidate cannot start yet;
                            # an older transaction to a free bank still
                            # can, so drain that one.
                            if not idx:
                                break
                            c_arr, c_acc, c_bank, c_row, c_w, c_kind = pending[0]
                            bank = bank_list[c_bank]
                            busy = bank.busy_until_ps
                            start = c_arr if c_arr > busy else busy
                            if start >= arrival:
                                break
                            idx = 0
                        # _service_at on the chosen entry, reusing its
                        # bank and start unless a refresh stalls it.
                        del pending[idx]
                        k -= 1
                        if c_arr >= next_refresh:
                            elapsed = (c_arr - next_refresh) // trefi
                            boundary = next_refresh + elapsed * trefi
                            refreshes += elapsed + 1
                            next_refresh = boundary + trefi
                            stall_end = boundary + trfc
                            if bus_free < stall_end:
                                bus_free = stall_end
                            for b in bank_list:
                                if b.busy_until_ps < stall_end:
                                    b.busy_until_ps = stall_end
                            busy = bank.busy_until_ps
                            start = c_arr if c_arr > busy else busy
                        open_row = bank.open_row
                        if open_row == c_row:
                            row_hits += 1
                            cas_issue = start
                        elif open_row == -1:
                            bank.activated_ps = start
                            bank.open_row = c_row
                            cas_issue = start + trcd
                        else:
                            earliest_pre = bank.activated_ps + tras
                            pre_start = start if start > earliest_pre else earliest_pre
                            act_start = pre_start + trp
                            bank.activated_ps = act_start
                            bank.open_row = c_row
                            cas_issue = act_start + trcd
                        data_ready = cas_issue + tcas
                        bank.busy_until_ps = cas_issue + burst
                        if c_w != last_was_write:
                            bus_free += turnaround
                            last_was_write = c_w
                        completion = (
                            data_ready if data_ready > bus_free else bus_free
                        ) + burst
                        bus_free = completion
                        if c_w:
                            n_writes += 1
                        if c_kind == DEMAND:
                            demand_lat += completion - c_acc
                            demand_n += 1
                        elif c_kind == MIGRATION:
                            migration_lat += completion - c_acc
                            migration_n += 1
                        else:
                            bookkeeping_lat += completion - c_acc
                            bookkeeping_n += 1
                    if k <= 1:
                        break  # drained: the fast path takes over
                # Every service in this stretch is either the drain's or
                # a closed form's, and those tracked their own count, so
                # the scan tally is the served delta minus the closed
                # delta — no per-service increment in the drain.
                scan_served += (
                    demand_n + migration_n + bookkeeping_n - closed_served - s0
                )

        finally:
            self.bus_free_ps = bus_free
            self._last_was_write = last_was_write
            self.refreshes = refreshes
            if trefi:
                self._next_refresh_ps = next_refresh
            served = demand_n + migration_n + bookkeeping_n
            # Every completion becomes the bus cursor and completions
            # strictly increase, so the last one is the bus cursor at
            # exit — if anything was served (``block_until`` may have
            # pushed the cursor past the last completion).
            if served and bus_free > self.last_completion_ps:
                self.last_completion_ps = bus_free
            stats = self.stats
            stats.served += served
            stats.reads += served - n_writes
            stats.writes += n_writes
            stats.row_hits += row_hits
            stats.total_latency_ps += demand_lat + migration_lat + bookkeeping_lat
            stats.demand_latency_ps += demand_lat
            stats.migration_latency_ps += migration_lat
            stats.bookkeeping_latency_ps += bookkeeping_lat
            stats.demand_count += demand_n
            stats.migration_count += migration_n
            stats.bookkeeping_count += bookkeeping_n
            if closed_served or scan_served:
                paths = self.service_paths
                paths.closed_form_served += closed_served
                paths.scan_served += scan_served

    def enqueue_run(
        self,
        bank: int,
        row: int,
        is_write: bool,
        arrival_ps: int,
        count: int,
        kind: int = DEMAND,
    ) -> None:
        """``count`` identical :meth:`enqueue` calls, bit for bit.

        One page-copy run through :meth:`enqueue_batch` with no entries.
        Nothing in the simulator calls it: the replay kernels pass their
        runs inside the ``enqueue_batch`` call that carries the demand
        around them.  It stays only because the benchmark's layer list
        (``perfbench/layers.py``) wraps it by name, like
        ``MemoryManager.blocked_columns``.
        """
        self.enqueue_batch(
            (), [(0, (arrival_ps, arrival_ps, bank, row, is_write, kind), count)]
        )

    def flush(self) -> int:
        """Service every buffered transaction; return last completion time."""
        if not self._dirty:
            self._dirty = True
            self._dirty_sink.add(self._dirty_key)
        while self._pending:
            self._service_at(self._choose())
        return self.last_completion_ps

    def block_until(self, ps: int) -> None:
        """Make the whole channel unavailable until ``ps``.

        Models coarse stalls such as HMA's per-interval OS/sorting
        penalty: every bank and the data bus are pushed to at least
        ``ps``.  Already-buffered transactions are serviced first so the
        stall applies at a well-defined point in time.
        """
        self.flush()
        if not self._dirty:
            self._dirty = True
            self._dirty_sink.add(self._dirty_key)
        if self.bus_free_ps < ps:
            self.bus_free_ps = ps
        for bank in self.banks:
            if bank.busy_until_ps < ps:
                bank.busy_until_ps = ps

    # -- internals -------------------------------------------------------

    #: FR-FCFS reorder window, in buffered transactions: a fixed part of
    #: the modelled machine.  ``enqueue_batch``'s idle fast path and
    #: closed forms are exact for any window of 2 or more (the
    #: contended suites shadow it per instance to stress 2, 16 and 32);
    #: a window of 1 (FCFS) would break their preconditions.
    WINDOW = 8

    #: FR-FCFS fairness bound: once the oldest pending transaction has
    #: waited this long past a younger candidate, it is serviced first
    #: regardless of row-hit status (real controllers age-promote to
    #: stop conflict requests starving behind an open-row stream).
    STARVATION_PS = 500_000  # 500 ns

    def _choose(self) -> int:
        """Index of the next transaction to service.

        FR-FCFS with write batching and age promotion: the oldest row
        hit wins, unless the oldest transaction overall has been
        starving past the fairness bound; failing a hit, the oldest
        transaction moving in the bus's current direction (controllers
        drain reads and writes in runs to amortise the turnaround
        penalty); failing that, the oldest overall.  The pending list
        is append-ordered, so lower index is always older.
        """
        pending = self._pending
        if len(pending) == 1:
            return 0
        banks = self.banks
        promote_past = pending[0][0] + self.STARVATION_PS
        same_direction = -1
        direction = self._last_was_write
        for idx, cand in enumerate(pending):
            if banks[cand[2]].open_row == cand[3]:
                if cand[0] > promote_past:
                    return 0  # age promotion beats the row hit
                return idx
            if same_direction < 0 and cand[4] == direction:
                same_direction = idx
        return same_direction if same_direction >= 0 else 0

    def _service_at(self, chosen_idx: int) -> None:
        arrival_ps, account_ps, bank_idx, row, is_write, kind = self._pending.pop(
            chosen_idx
        )
        # Refresh: every tREFI the channel pauses for tRFC, all banks
        # unavailable.  Applied lazily at service time: elapsed
        # boundaries are fast-forwarded and only the latest one's
        # stall window [boundary, boundary + tRFC] can still delay this
        # transaction — refreshes that completed while the channel was
        # idle cost nothing, exactly as in hardware.
        trefi_ps = self._trefi_ps
        if trefi_ps and arrival_ps >= self._next_refresh_ps:
            elapsed = (arrival_ps - self._next_refresh_ps) // trefi_ps
            boundary = self._next_refresh_ps + elapsed * trefi_ps
            self.refreshes += elapsed + 1
            self._next_refresh_ps = boundary + trefi_ps
            stall_end = boundary + self._trfc_ps
            if self.bus_free_ps < stall_end:
                self.bus_free_ps = stall_end
            for bank in self.banks:
                if bank.busy_until_ps < stall_end:
                    bank.busy_until_ps = stall_end

        data_ready, outcome = self.banks[bank_idx].access(
            row, arrival_ps, self.timing, self._burst_ps
        )
        bus_free = self.bus_free_ps
        if is_write != self._last_was_write:
            bus_free += self._turnaround_ps
            self._last_was_write = is_write
        completion = (data_ready if data_ready > bus_free else bus_free) + self._burst_ps
        self.bus_free_ps = completion
        if completion > self.last_completion_ps:
            self.last_completion_ps = completion

        stats = self.stats
        stats.served += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if outcome == ROW_HIT:
            stats.row_hits += 1
        latency = completion - account_ps
        stats.total_latency_ps += latency
        if kind == DEMAND:
            stats.demand_latency_ps += latency
            stats.demand_count += 1
        elif kind == MIGRATION:
            stats.migration_latency_ps += latency
            stats.migration_count += 1
        else:
            stats.bookkeeping_latency_ps += latency
            stats.bookkeeping_count += 1
