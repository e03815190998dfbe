"""Batched replay kernels — the reference loop, faster, bit for bit.

The reference path (:func:`repro.system.simulator.reference_simulate`)
calls ``manager.handle`` per record, which re-resolves the same
attribute chains and re-takes the same never-taken branches millions of
times.  The kernels here replay the *identical* sequence of state
mutations with the per-record overhead hoisted out:

* input comes from a :class:`~repro.trace.packed.PackedTrace`: columnar
  record fields plus page numbers and address decodes
  (channel/bank/row), computed one bounded window at a time and
  vectorised through numpy when available;
* one specialised loop per manager type inlines ``handle`` with every
  attribute lookup bound to a local and the common case fast-pathed —
  no blocked page (both block structures empty), identity remapping
  (the sparse tables never store identity entries, so ``get(page) is
  None`` *is* the identity test), empty swap queue;
* the CPU throttle samples in chunks of exactly
  ``THROTTLE_SAMPLE_PERIOD`` records, which is equivalent to the
  reference countdown because the offset only ever changes at sample
  points; the peak-bus probe itself goes through the memory's
  dirty-channel cache instead of scanning every controller per sample;
* the DRAM datapath is **batched**: instead of one
  ``ChannelController.enqueue`` call per record, transactions are
  regrouped by controller index and each controller's list of
  pending-entry tuples ``(arrival, account, bank, row, is_write,
  kind)`` goes down one ``enqueue_batch`` call — exact because controllers
  share no state, intra-controller order is preserved, and the offset
  only changes at chunk boundaries.

Each mechanism has one kernel, chosen because it measured fastest:

* tlm and the single-level bounds (hbm-only, ddr-only) share one
  direct kernel, :func:`_replay_tlm`: the memory's tier table decodes
  a two-tier and a one-tier memory alike, into flat controller
  indices.  It replays every chunk pre-grouped by controller:
  ``PackedTrace.chunk_groups_streamed`` decodes a window, sorts it once
  by (chunk, controller) and yields each chunk's columns in that order,
  with each controller's span;
  numpy-free installs group through the eager ``chunk_groups``;
* mempod, thm, hma and cameo are per-record loops over
  :func:`_record_stream`, which decodes the trace one bounded window
  at a time.  MemPod's per-pod MEA and THM's competing counters are
  per-access state machines, and batched numpy recurrences for them
  measured slower than these loops; hma checks its epoch ticks and due
  swaps inline, as mempod checks its interval boundaries, and defers
  its full-counter updates into one ``FullCountersTracker.record_batch``
  call per epoch or window.  All four share one chunk loop
  (:func:`_throttled_chunks`) and one buffered datapath
  (:func:`_swap_merged_buffers`): demand and swap traffic append to
  per-controller entry buffers that flush through one ``enqueue_batch`` call
  per controller per chunk — mempod's, thm's and hma's page swaps as
  page-copy runs recorded through the engine's swap sink, installed
  for the whole replay, cameo's line swaps (one on nearly every slow
  access) appended inline.

**Equality contract**: for every supported configuration the fast
kernel produces a ``SimulationResult`` equal field-for-field to the
reference loop's (``tests/test_kernel_differential.py`` enforces this
across all ``MANAGER_KINDS``).  Guaranteeing that requires exactness,
not plausibility, so dispatch is deliberately conservative:

* dispatch keys on the mechanism's declared ``(trigger, flexibility)``
  shape, but then requires ``type(manager) is`` the canonical class the
  loop was written against — a subclass or a novel registered spec may
  override anything, so both fall back to the reference loop;
* configurations with metadata caches fall back (their per-record
  cache state makes hoisting a wash anyway);
* traces with any out-of-range address fall back, because the direct
  controller enqueues below bypass ``memory.access`` bounds checking
  and the reference loop's ``AddressError`` must surface at the same
  record.

The fallback *is* the reference loop, so ``fast_simulate`` is total:
anything it cannot accelerate it still simulates correctly.

**Streaming.** Every trace replays without trace-length derived
columns: the direct kernel consumes ``chunk_groups_streamed`` and the
per-record loops read :func:`_record_stream` windows, whether the
columns are memory-mapped planes of a columnar trace file, in-memory
synthesised columns (``packed.mapped`` for both, see
:mod:`repro.trace.store`) or an eager record list converted per window.
Peak Python-heap usage is bounded by the streaming window instead of
the trace length; results are pinned byte-identical to the eager path
by ``tests/test_trace_store.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, islice, repeat

from ..common.errors import MigrationError
from ..core.mempod import MemPodManager
from ..dram.request import DEMAND, MIGRATION
from ..managers.cameo import LINE_BYTES, CameoManager
from ..managers.hma import HmaManager
from ..managers.static import NoMigrationManager, SingleLevelManager
from ..managers.thm import ThmManager
from ..system.simulator import (
    THROTTLE_CAP_PS,
    THROTTLE_SAMPLE_PERIOD,
    reference_simulate,
)
from ..system.stats import collect_result
from ..trace.store import DEFAULT_TRACE_WINDOW

try:  # optional accelerator; plane builders have pure-Python twins
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

LINE_SHIFT = LINE_BYTES.bit_length() - 1

# -- decode planes ---------------------------------------------------------
#
# A plane is a per-record column of precomputed address decode results,
# cached on a PackedTrace under a key derived from the memory layout —
# two managers over the same geometry share planes.  Only the numpy-free
# leg of the direct kernel builds planes; with numpy it decodes one
# window at a time inside chunk_groups_streamed.


def _mapper_key(mapper) -> tuple:
    return (
        mapper._row_shift,
        mapper._bank_shift,
        mapper._chan_shift,
        mapper._bank_mask,
        mapper._chan_mask,
    )


def _tier_table(memory):
    """Per-tier decode rows: ``(start, end, ctrl_base, mapper)``.

    One row per tier in address order, with flat controller indices
    (tier 0's channels first) — the table both decoders walk, for one
    tier or many.
    """
    table = []
    start = 0
    base = 0
    for device, end in zip(memory.tiers, memory._tier_ends):
        table.append((start, end, base, device.mapper))
        start = end
        base += device.channels
    return table


def _hybrid_plane(packed, memory):
    """(controller, bank, row) columns for a tiered memory — the whole
    trace through :func:`_hybrid_decode`'s numpy-free leg, memoised per
    layout."""
    key = ("hybrid",) + tuple(
        (end - start, base, _mapper_key(mapper))
        for start, end, base, mapper in _tier_table(memory)
    )
    plane = packed.planes.get(key)
    if plane is None:
        plane = packed.planes[key] = _hybrid_decode(memory)(packed.addresses)
    return plane


# -- windowed decode -------------------------------------------------------
#
# The decode formulas, packaged as callables over one window of
# addresses: chunk_groups_streamed takes the numpy forms, and
# _record_stream the list form of either leg.


def _hybrid_decode_np(memory):
    """Windowed (ctrl, bank, row) array decoder for a tiered memory.

    Controller indices are flat across every tier — tier 0's channels
    first — matching ``TieredMemory._controllers``.  The table is walked
    last tier first: the final tier is the unconditional branch and
    earlier tiers overlay it under their ``address < end`` condition,
    so on two-tier systems the chained ``where`` is exactly the
    fast/slow select.
    """
    table = _tier_table(memory)
    where = _np.where

    def decode(addresses):
        ctrls = banks = rows = None
        for start, end, base, mapper in reversed(table):
            off = addresses - start
            tier_ctrl = base + ((off >> mapper._bank_shift) & mapper._chan_mask)
            tier_bank = (off >> mapper._row_shift) & mapper._bank_mask
            tier_row = off >> mapper._chan_shift
            if ctrls is None:
                ctrls, banks, rows = tier_ctrl, tier_bank, tier_row
            else:
                here = addresses < end
                ctrls = where(here, tier_ctrl, ctrls)
                banks = where(here, tier_bank, banks)
                rows = where(here, tier_row, rows)
        return ctrls, banks, rows

    return decode


def _hybrid_decode(memory):
    """Windowed (ctrl, bank, row) *list* decoder for a tiered memory:
    :func:`_hybrid_decode_np` over an int64 array with numpy, else the
    same tier-table walk through each tier's ``mapper.fast_decode``."""
    if _np is not None:
        decode_np = _hybrid_decode_np(memory)
        asarray = _np.asarray
        int64 = _np.int64

        def decode(addresses):
            return tuple(
                column.tolist()
                for column in decode_np(asarray(addresses, dtype=int64))
            )

        return decode
    table = _tier_table(memory)
    last = table[-1]

    def decode(addresses):
        ctrls, banks, rows = [], [], []
        for address in addresses:
            entry = last
            for row in table:
                if address < row[1]:
                    entry = row
                    break
            start, _, base, mapper = entry
            channel, bank, row_id = mapper.fast_decode(address - start)
            ctrls.append(base + channel)
            banks.append(bank)
            rows.append(row_id)
        return ctrls, banks, rows

    return decode


def _stream_window(packed) -> int:
    """The streaming window in records: a mapped trace's own (a positive
    multiple of the 128-record throttle chunk, validated at open), else
    the default."""
    return packed.window or DEFAULT_TRACE_WINDOW


def _record_stream(packed, memory, page_shift):
    """The trace's records for the per-record loops, one window at a time.

    Returns an iterator of ``(arrival, is_write, address, core, page,
    ctrl, bank, row)`` tuples: ``page`` is ``address >> page_shift`` and
    ``ctrl/bank/row`` decode the original address through
    :func:`_hybrid_decode`.  Windows of :func:`_stream_window` records
    are decoded lazily as the loop reaches them, so at most one window
    of derived columns is alive — for mapped and in-memory traces alike
    — and nothing is memoised on ``packed``.
    """
    window = _stream_window(packed)
    decode = _hybrid_decode(memory)
    arrivals = packed.arrivals
    is_writes = packed.is_writes
    addresses = packed.addresses
    cores = packed.cores
    mapped_col = packed.np_addresses() if packed.mapped and _np is not None else None

    def windows():
        for lo in range(0, packed.length, window):
            hi = lo + window
            address_w = addresses[lo:hi]
            if _np is None:
                col = address_w
                pages = [address >> page_shift for address in address_w]
            else:
                col = (
                    _np.asarray(address_w, dtype=_np.int64)
                    if mapped_col is None
                    else mapped_col[lo:hi]
                )
                pages = (col >> page_shift).tolist()
            ctrls, banks, rows = decode(col)
            yield zip(
                arrivals[lo:hi], is_writes[lo:hi], address_w, cores[lo:hi], pages,
                ctrls, banks, rows,
            )

    return chain.from_iterable(windows())


# -- replay loops ----------------------------------------------------------
#
# Shared chunk scaffolding: runs of THROTTLE_SAMPLE_PERIOD records, then
# a sample of the CPU throttle exactly as the reference countdown would
# take it.  The arrival offset only changes at sample points, so
# `arrivals[end-1] + offset` equals the reference's shifted arrival at
# chunk end, the time the sample compares the busiest bus with.  The
# per-record kernels take their chunks from _throttled_chunks and end
# through _finish_replay; _replay_tlm keeps its own loop because its
# chunks arrive pre-grouped by controller.


def _replay_tlm(trace, packed, manager):
    """The direct kernel, for managers whose ``handle`` is a bare
    ``memory.access``: TLM over the fast/slow pair, and the HBM-only and
    DDR-only bounds over a one-tier memory (the tier table decodes
    either shape).

    Fully batched: every throttle chunk arrives already regrouped by
    flat controller index — from the windowed ``chunk_groups_streamed``
    generator (O(window) memory), or the eager ``chunk_groups`` on
    numpy-free installs (identical chunks) — so the replay zips the
    chunk's ``DEMAND`` pending entries once and makes one
    ``enqueue_batch`` call per (chunk, controller), plus the throttle
    sample.  Entries are built one chunk at a time, never a window at a
    time: a window's worth of live tuples would wake the cyclic garbage
    collector over and over, a chunk's never does.
    """
    memory = manager.memory
    if _np is None:
        chunks = packed.chunk_groups(*_hybrid_plane(packed, memory))
    else:
        chunks = packed.chunk_groups_streamed(
            _hybrid_decode_np(memory), _stream_window(packed)
        )
    batch = [ctrl.enqueue_batch for ctrl in memory._controllers]
    peak_bus = memory.peak_bus_free_ps
    arrivals = packed.arrivals
    demand = repeat(DEMAND)
    offset = 0
    pos = 0
    for count, at, banks, rows, is_writes, spans in chunks:
        if offset:
            at = [arrival + offset for arrival in at]
        entries = list(zip(at, at, banks, rows, is_writes, demand))
        for ci, lo, hi in spans:
            batch[ci](entries[lo:hi])
        pos += count
        if count == THROTTLE_SAMPLE_PERIOD:
            backlog = peak_bus() - (arrivals[pos - 1] + offset)
            if backlog > THROTTLE_CAP_PS:
                offset += backlog - THROTTLE_CAP_PS
    end_ps = manager.finish()
    return collect_result(manager, trace, end_ps)


def _swap_merged_buffers(memory):
    """Per-controller entry buffers with the swap datapath merged in.

    Shared by every migrating kernel; indexed by flat controller, as
    ``memory._controllers`` lists them.  Returns ``(bufs, flush_all,
    sink)``.  ``bufs[c]`` accumulates controller ``c``'s deferred
    transactions as pending-entry tuples ``(arrival, account, bank, row,
    is_write, kind)`` — the kernels append their demand, cameo its line
    swaps too — and ``flush_all()`` hands every controller's entries and
    page-copy runs to one ``enqueue_batch`` call and empties them (the
    lists themselves are kept, so a kernel may hoist them).

    ``sink`` has the ``MigrationEngine.swap_sink`` signature: it merges
    one swap's per-controller transaction pattern — exactly the pattern
    ``swap_pages`` would have enqueued — into the buffers instead of
    enqueuing it.  A distinct-controller side (``lines`` same-bank
    same-row reads, then ``lines`` writes — the overwhelmingly common
    shape) becomes two runs, ``(pos, entry, lines)``, recorded against
    the open buffer at its current length, so the flush's
    ``enqueue_batch`` replays each run right before the demand that
    followed it, as a twin column of its own.  Only same-controller
    swaps, whose two banks interleave per line, expand into the buffer
    per element.

    Exact because a kernel issues a swap at the point of its record
    loop where the reference loop would — after the earlier records'
    demand, before the current record's — so the merged emission order
    *is* the reference per-controller enqueue order: a due swap never
    ejects the buffered demand from the batched path, and the backlog
    it creates lands in the controller's closed-form episode engine.
    """
    migration = MIGRATION
    ctrls = memory._controllers
    batch = [ctrl.enqueue_batch for ctrl in ctrls]
    nctrl = len(ctrls)
    bufs = [[] for _ in range(nctrl)]
    runs = [[] for _ in range(nctrl)]
    ctrl_index = {id(ctrl): ci for ci, ctrl in enumerate(ctrls)}

    def flush_all():
        for c in range(nctrl):
            buf = bufs[c]
            rn = runs[c]
            if rn:
                batch[c](buf, rn)
                runs[c] = []
            elif buf:
                batch[c](buf)
            else:
                continue
            buf.clear()

    def sink(ctrl_a, bank_a, row_a, ctrl_b, bank_b, row_b, at_ps, write_ps, lines):
        ca = ctrl_index[id(ctrl_a)]
        cb = ctrl_index[id(ctrl_b)]
        read_a = (at_ps, at_ps, bank_a, row_a, False, migration)
        write_a = (write_ps, write_ps, bank_a, row_a, True, migration)
        read_b = (at_ps, at_ps, bank_b, row_b, False, migration)
        write_b = (write_ps, write_ps, bank_b, row_b, True, migration)
        if ca == cb:
            # One shared controller sees the interleaved a/b pattern:
            # 2*lines reads, then 2*lines writes (cf. swap_pages).
            bufs[ca] += [read_a, read_b] * lines + [write_a, write_b] * lines
        else:
            # Distinct controllers share no state: each side's
            # subsequence (lines reads, then lines writes) is the
            # reference per-controller order of the interleaved loop.
            pos = len(bufs[ca])
            runs[ca] += ((pos, read_a, lines), (pos, write_a, lines))
            pos = len(bufs[cb])
            runs[cb] += ((pos, read_b, lines), (pos, write_b, lines))

    return bufs, flush_all, sink


def _throttled_chunks(packed, records, peak_bus, flush_all):
    """The per-record kernels' chunk loop: yields ``(chunk, offset)``.

    ``chunk`` is an ``islice`` of the next ``THROTTLE_SAMPLE_PERIOD``
    records of ``records``, and ``offset`` is the throttle's arrival
    offset for every record in it.  Once the kernel has consumed a
    chunk, the generator flushes its buffers through ``flush_all`` and,
    after a full chunk, takes the reference's throttle sample.  The cost
    is one generator resume per chunk, never a call per record.
    """
    arrivals = packed.arrivals
    total = packed.length
    sample = THROTTLE_SAMPLE_PERIOD
    offset = 0
    pos = 0
    while pos < total:
        end = min(pos + sample, total)
        yield islice(records, end - pos), offset
        flush_all()
        if end - pos == sample:
            backlog = peak_bus() - (arrivals[end - 1] + offset)
            if backlog > THROTTLE_CAP_PS:
                offset += backlog - THROTTLE_CAP_PS
        pos = end


def _finish_replay(manager, flush_all):
    """The per-record kernels' tail, run with the swap sink installed;
    returns ``manager.finish``'s end time.

    The swaps still queued issue through the sink and land with one
    ``flush_all``, so ``finish`` only drains the devices.
    """
    manager._issue_due_swaps(None)
    flush_all()
    return manager.finish()


def _replay_hma(trace, packed, manager):
    """HMA without a counter cache: epoch ticks, paced swaps, full-counter
    recording, page-table lookup, block penalties.

    Per record over :func:`_record_stream`, in the shape of
    :func:`_replay_mempod`: the epoch check and due swaps run inline,
    each record's decoded transaction appends to the per-controller
    buffers of :func:`_swap_merged_buffers`, and every swap's traffic
    merges into those buffers through the engine's swap sink.  At an
    epoch the previous epoch's due swaps issue through the sink and the
    buffers flush before ``_run_boundary``, which may stall the machine
    (``memory.block_until`` in stall mode); its own due-swap drain is
    then a no-op.  A remapped page decodes inline with the mappers'
    shifts and masks; the page table only holds in-range frames, so the
    routing is ``memory.access``'s.

    Full-counter updates are deferred and applied with one
    ``FullCountersTracker.record_batch`` call right before each epoch
    runs and at the top of the first chunk after :func:`_stream_window`
    records — the tracker is only *read* at epochs and never touches
    the controllers, so deferral commutes, and the window keeps the
    deferred list (and the peak heap) independent of the trace length.
    The ``finally`` uninstalls the sink, writes the epoch cursor back
    and applies the updates of every record already replayed, so an
    exception mid-chunk cannot leave the manager with stale state.
    """
    memory = manager.memory
    record_batch = manager.tracker.record_batch
    location_get = manager._location.get
    block_penalty = manager._block_penalty_ps
    blocked = manager._blocked
    expiry = manager._blocked_expiry
    queue = manager._swap_queue
    issue_swaps = manager._issue_due_swaps
    run_boundary = manager._run_boundary
    interval = manager.interval_ps
    next_boundary = manager._next_boundary_ps
    page_shift = manager._page_shift
    page_mask = manager._page_mask
    fast_bytes = memory.geometry.fast_bytes
    fast_channels = memory.fast.channels
    # AddressMapper.fast_decode, inlined: each tier's shifts and masks.
    f_row_sh, f_bank_sh, f_chan_sh, f_bank_m, f_chan_m = _mapper_key(
        memory.fast.mapper
    )
    s_row_sh, s_bank_sh, s_chan_sh, s_bank_m, s_chan_m = _mapper_key(
        memory.slow.mapper
    )
    demand = DEMAND
    bufs, flush_all, swap_sink = _swap_merged_buffers(memory)
    push = [buf.append for buf in bufs]

    window = _stream_window(packed)
    deferred = []  # pages whose full-counter updates are pending
    defer = deferred.append
    records = _record_stream(packed, memory, page_shift)
    chunks = _throttled_chunks(packed, records, memory.peak_bus_free_ps, flush_all)
    engine = manager.engine
    engine.swap_sink = swap_sink
    try:
        for chunk, offset in chunks:
            if len(deferred) >= window:
                record_batch(deferred)
                deferred.clear()
            for arrival, is_write, address, _, page, ci, bank, row in chunk:
                arrival += offset
                if arrival >= next_boundary:
                    # The epoch reads the counters, so they catch up
                    # first; the due swaps and buffered demand land
                    # before it, because a stall-mode epoch services
                    # every controller directly.
                    record_batch(deferred)
                    deferred.clear()
                    while arrival >= next_boundary:
                        issue_swaps(next_boundary)
                        flush_all()
                        run_boundary(next_boundary)
                        next_boundary += interval
                if queue and queue[0][0] <= arrival:
                    # Due swaps merge into the buffers through the
                    # sink; every buffered demand arrival precedes
                    # the swap's issue time, so per-controller enqueue
                    # order is the reference's.
                    issue_swaps(arrival)
                defer(page)
                if blocked or expiry:
                    penalty = block_penalty(page, arrival)
                else:
                    penalty = 0
                frame = location_get(page)
                if frame is not None:
                    translated = (frame << page_shift) | (address & page_mask)
                    if translated < fast_bytes:
                        ci = (translated >> f_bank_sh) & f_chan_m
                        bank = (translated >> f_row_sh) & f_bank_m
                        row = translated >> f_chan_sh
                    else:
                        translated -= fast_bytes
                        ci = ((translated >> s_bank_sh) & s_chan_m) + fast_channels
                        bank = (translated >> s_row_sh) & s_bank_m
                        row = translated >> s_chan_sh
                push[ci]((arrival, arrival - penalty, bank, row, is_write, demand))
        record_batch(deferred)
        deferred.clear()
        end_ps = _finish_replay(manager, flush_all)
    finally:
        engine.swap_sink = None
        manager._next_boundary_ps = next_boundary
        if deferred:
            record_batch(deferred)
    return collect_result(manager, trace, end_ps)


def _replay_mempod(trace, packed, manager):
    """MemPod without a metadata cache: boundary ticks, paced swaps,
    per-pod MEA recording and remap lookup, block penalties.

    The manager-side work runs per record over :func:`_record_stream`,
    but the DRAM side batches: each record's decoded transaction is
    appended to the per-controller buffers of
    :func:`_swap_merged_buffers`, flushed through ``enqueue_batch`` at
    every chunk end.  Every swap — due at a record or at an interval
    boundary — *merges* into the buffers through the engine's swap
    sink, and boundary planning (``Pod.plan_interval``) never touches
    memory, so a boundary needs no flush.  Remapped frames decode
    inline with the mappers' shifts and masks instead of
    ``memory.access``: remap tables only ever hold in-range frames, so
    the routing is identical and the bounds check is vacuous.
    """
    memory = manager.memory
    observe = [pod.mea.record for pod in manager.pods]
    forward_get = [pod.remap._forward.get for pod in manager.pods]
    block_penalty = manager._block_penalty_ps
    blocked = manager._blocked
    expiry = manager._blocked_expiry
    queue = manager._swap_queue
    issue_swaps = manager._issue_due_swaps
    run_boundary = manager._run_boundary
    interval = manager.interval_ps
    next_boundary = manager._next_boundary_ps
    page_shift = manager._page_shift
    page_mask = manager._page_mask
    fast_bytes = memory.geometry.fast_bytes
    fast_channels = memory.fast.channels
    # AddressMapper.fast_decode, inlined: each tier's shifts and masks.
    f_row_sh, f_bank_sh, f_chan_sh, f_bank_m, f_chan_m = _mapper_key(
        memory.fast.mapper
    )
    s_row_sh, s_bank_sh, s_chan_sh, s_bank_m, s_chan_m = _mapper_key(
        memory.slow.mapper
    )
    demand = DEMAND
    bufs, flush_all, swap_sink = _swap_merged_buffers(memory)
    push = [buf.append for buf in bufs]

    fast_pages = manager._fast_pages
    ppr = manager._ppr
    fast_chan = manager._fast_chan
    fast_cpp = manager._fast_cpp
    slow_chan = manager._slow_chan
    slow_cpp = manager._slow_cpp
    records = _record_stream(packed, memory, page_shift)
    chunks = _throttled_chunks(packed, records, memory.peak_bus_free_ps, flush_all)
    engine = manager.engine
    engine.swap_sink = swap_sink
    try:
        for chunk, offset in chunks:
            for arrival, is_write, address, _, page, ci, bank, row in chunk:
                arrival += offset
                while arrival >= next_boundary:
                    run_boundary(next_boundary)
                    next_boundary += interval
                if queue and queue[0][0] <= arrival:
                    # Due swaps merge into the buffers through the
                    # sink; per-controller enqueue order is the
                    # reference's because every buffered demand arrival
                    # precedes the swap's issue time.
                    issue_swaps(arrival)
                # The owning pod, inlined from MemPodManager.handle.
                if page < fast_pages:
                    pod_id = ((page // ppr) % fast_chan) // fast_cpp
                else:
                    pod_id = (((page - fast_pages) // ppr) % slow_chan) // slow_cpp
                observe[pod_id](page)
                if blocked or expiry:
                    penalty = block_penalty(page, arrival)
                else:
                    penalty = 0
                frame = forward_get[pod_id](page)
                if frame is not None:
                    translated = (frame << page_shift) | (address & page_mask)
                    if translated < fast_bytes:
                        ci = (translated >> f_bank_sh) & f_chan_m
                        bank = (translated >> f_row_sh) & f_bank_m
                        row = translated >> f_chan_sh
                    else:
                        translated -= fast_bytes
                        ci = ((translated >> s_bank_sh) & s_chan_m) + fast_channels
                        bank = (translated >> s_row_sh) & s_bank_m
                        row = translated >> s_chan_sh
                push[ci]((arrival, arrival - penalty, bank, row, is_write, demand))
        end_ps = _finish_replay(manager, flush_all)
    finally:
        # Written back on every exit, so that a replay that raises
        # leaves the boundary cursor where the reference loop leaves it.
        engine.swap_sink = None
        manager._next_boundary_ps = next_boundary
    return collect_result(manager, trace, end_ps)


def _replay_thm(trace, packed, manager):
    """THM without an SRT cache: competing counters, inline migration,
    segment-local remap, block penalties.

    Per record over :func:`_record_stream`, with the DRAM side batched
    into per-controller entry buffers flushed at chunk ends; an inline
    migration's swap traffic *merges* into the buffers through
    the engine's swap sink instead of forcing a flush (``_migrate``
    never reads controller state, and buffered demand arrivals precede
    the swap's issue time, so the flushed buffer replays the reference
    per-controller enqueue order).
    """
    memory = manager.memory
    access_resident = manager.counters.access_resident
    access_challenger = manager.counters.access_challenger
    migrate = manager._migrate
    location_get = manager._location.get
    block_penalty = manager._block_penalty_ps
    blocked = manager._blocked
    expiry = manager._blocked_expiry
    fast_pages = manager.geometry.fast_pages
    page_shift = manager._page_shift
    page_mask = manager._page_mask
    fast_bytes = memory.geometry.fast_bytes
    fast_channels = memory.fast.channels
    # AddressMapper.fast_decode, inlined: each tier's shifts and masks.
    f_row_sh, f_bank_sh, f_chan_sh, f_bank_m, f_chan_m = _mapper_key(
        memory.fast.mapper
    )
    s_row_sh, s_bank_sh, s_chan_sh, s_bank_m, s_chan_m = _mapper_key(
        memory.slow.mapper
    )
    demand = DEMAND
    bufs, flush_all, swap_sink = _swap_merged_buffers(memory)
    push = [buf.append for buf in bufs]

    records = _record_stream(packed, memory, page_shift)
    chunks = _throttled_chunks(packed, records, memory.peak_bus_free_ps, flush_all)
    engine = manager.engine
    engine.swap_sink = swap_sink
    try:
        for chunk, offset in chunks:
            for arrival, is_write, address, _, page, ci, bank, row in chunk:
                arrival += offset
                if blocked or expiry:
                    penalty = block_penalty(page, arrival)
                else:
                    penalty = 0
                frame = location_get(page)
                if page < fast_pages:
                    segment = page  # ThmManager.segment_of, inlined
                else:
                    segment = (page - fast_pages) % fast_pages
                if (page if frame is None else frame) < fast_pages:
                    access_resident(segment)
                else:
                    challenger = access_challenger(segment, page)
                    if challenger is not None:
                        # The swap traffic merges into the buffers
                        # through the sink; _migrate itself never
                        # reads controller state, so deferred demand need
                        # not land first.
                        penalty += migrate(segment, challenger, arrival)
                        frame = location_get(page, page)
                if frame is not None:
                    translated = (frame << page_shift) | (address & page_mask)
                    if translated < fast_bytes:
                        ci = (translated >> f_bank_sh) & f_chan_m
                        bank = (translated >> f_row_sh) & f_bank_m
                        row = translated >> f_chan_sh
                    else:
                        translated -= fast_bytes
                        ci = ((translated >> s_bank_sh) & s_chan_m) + fast_channels
                        bank = (translated >> s_row_sh) & s_bank_m
                        row = translated >> s_chan_sh
                push[ci]((arrival, arrival - penalty, bank, row, is_write, demand))
        end_ps = _finish_replay(manager, flush_all)
    finally:
        engine.swap_sink = None
    return collect_result(manager, trace, end_ps)


def _replay_cameo(trace, packed, manager):
    """CAMEO: ``handle`` and its bookkeeping inlined, every transaction
    batched.

    Per record over :func:`_record_stream` (line numbers in the page
    slot), the loop replays ``CameoManager.handle`` step for step, with
    the manager, remap and stats helpers it calls written out too: the
    block penalty (``_block_penalty_ps``: pop the expiry heap while its
    head is due, then look the line up in ``_blocked``), the
    ``_location`` lookup, the untouched-list delete, the demand and —
    on a slow hit — the line swap: the fast slot (``group_of``), the
    evicted line's wasted-migration count, ``remap.swap_frames`` with
    both ``_set`` calls, both ``_block_page`` calls and the migration
    count.  Those counts and the blocked hits live in locals; the
    ``finally`` writes them back and adds one ``note_swap`` line swap
    per migration to ``engine.stats``.  Nothing reaches a controller
    directly.  The demand and each
    swap's ``MigrationEngine.swap_lines`` pattern — a read then a write
    on the fast slot's controller and on the slow line's, always two
    distinct devices — append to the :func:`_swap_merged_buffers`
    buffers as pending entries, the swap's tagged ``MIGRATION``, and
    flush through one ``enqueue_batch`` per controller per throttle
    chunk.  Exact because CAMEO's bookkeeping never reads controller
    state, controllers share no state, each controller's buffer is in
    reference enqueue order (demand, then the swap's read and write on
    its side), and the arrival offset only changes at chunk boundaries.
    A remapped line decodes ``current * 64`` with the mappers' shifts
    and masks instead of ``memory.access``: the remap table only holds
    in-range lines, so the routing is identical and the bounds check is
    vacuous.
    """
    memory = manager.memory
    forward = manager._location
    resident = manager._resident
    location_get = forward.get
    resident_get = resident.get
    untouched = manager._untouched_in_fast
    fast_lines = manager.fast_lines
    blocked = manager._blocked
    blocked_get = blocked.get
    expiry = manager._blocked_expiry
    fast_bytes = memory.geometry.fast_bytes
    fast_channels = memory.fast.channels
    # AddressMapper.fast_decode, inlined: each tier's shifts and masks.
    f_row_sh, f_bank_sh, f_chan_sh, f_bank_m, f_chan_m = _mapper_key(
        memory.fast.mapper
    )
    s_row_sh, s_bank_sh, s_chan_sh, s_bank_m, s_chan_m = _mapper_key(
        memory.slow.mapper
    )
    engine = manager.engine
    line_phase = engine._line_phase_ps
    swap_cost = engine.line_swap_cost_ps
    swap_bytes = 2 * LINE_BYTES
    demand = DEMAND
    migration = MIGRATION
    bufs, flush_all, _ = _swap_merged_buffers(memory)
    push = [buf.append for buf in bufs]

    records = _record_stream(packed, memory, LINE_SHIFT)
    chunks = _throttled_chunks(packed, records, memory.peak_bus_free_ps, flush_all)
    migrations = first_migrations = manager.total_migrations
    wasted = manager.wasted_migrations
    blocked_hits = manager.blocked_hits
    try:
        for chunk, offset in chunks:
            for arrival, is_write, _, _, line, ci, bank, row in chunk:
                arrival += offset
                # MemoryManager._block_penalty_ps: prune the blocks due
                # by now, then charge what is left of this line's.
                while expiry and expiry[0][0] <= arrival:
                    until, page = heappop(expiry)
                    if blocked_get(page) == until:
                        del blocked[page]
                penalty = 0
                until = blocked_get(line)
                if until is not None:
                    if until <= arrival:
                        del blocked[line]
                    else:
                        blocked_hits += 1
                        penalty = until - arrival
                current = location_get(line)
                if line in untouched:
                    del untouched[line]
                if current is None:
                    current = line
                else:
                    translated = current << LINE_SHIFT
                    if translated < fast_bytes:
                        ci = (translated >> f_bank_sh) & f_chan_m
                        bank = (translated >> f_row_sh) & f_bank_m
                        row = translated >> f_chan_sh
                    else:
                        translated -= fast_bytes
                        ci = ((translated >> s_bank_sh) & s_chan_m) + fast_channels
                        bank = (translated >> s_row_sh) & s_bank_m
                        row = translated >> s_chan_sh
                push[ci]((arrival, arrival - penalty, bank, row, is_write, demand))
                if current < fast_lines:
                    continue
                # Slow hit: swap the line into its group's fast slot
                # (CameoManager.group_of, remap.swap_frames and
                # swap_lines, inlined).  ``line_a`` is the evicted line.
                if line < fast_lines:
                    fast_slot = line
                else:
                    fast_slot = (line - fast_lines) % fast_lines
                line_a = resident_get(fast_slot, fast_slot)
                if line_a in untouched:
                    del untouched[line_a]
                    wasted += 1
                if fast_slot == current:
                    raise MigrationError(f"cannot swap frame {fast_slot} with itself")
                line_b = resident_get(current, current)
                # Both RemapTable._set calls; identity entries are dropped.
                if line_a == current:
                    forward.pop(line_a, None)
                    resident.pop(current, None)
                else:
                    forward[line_a] = current
                    resident[current] = line_a
                if line_b == fast_slot:
                    forward.pop(line_b, None)
                    resident.pop(fast_slot, None)
                else:
                    forward[line_b] = fast_slot
                    resident[fast_slot] = line_b
                write_ps = arrival + line_phase
                # Slow side (the demand's controller): read, then write.
                bufs[ci] += (
                    (arrival, arrival, bank, row, False, migration),
                    (write_ps, write_ps, bank, row, True, migration),
                )
                # Fast side: the slot's controller, read then write.
                slot = fast_slot << LINE_SHIFT
                bank = (slot >> f_row_sh) & f_bank_m
                row = slot >> f_chan_sh
                bufs[(slot >> f_bank_sh) & f_chan_m] += (
                    (arrival, arrival, bank, row, False, migration),
                    (write_ps, write_ps, bank, row, True, migration),
                )
                # Both _block_page calls.
                completion = arrival + swap_cost
                if completion > blocked_get(line_a, 0):
                    blocked[line_a] = completion
                    heappush(expiry, (completion, line_a))
                if completion > blocked_get(line_b, 0):
                    blocked[line_b] = completion
                    heappush(expiry, (completion, line_b))
                untouched[line] = True
                migrations += 1
    finally:
        manager.total_migrations = migrations
        manager.wasted_migrations = wasted
        manager.blocked_hits = blocked_hits
        # MigrationStats.note_swap(swap_bytes, is_line=True) for each
        # line swap; every migration here is one line swap.
        swaps = migrations - first_migrations
        stats = engine.stats
        stats.line_swaps += swaps
        stats.bytes_moved += swaps * swap_bytes
    end_ps = _finish_replay(manager, flush_all)
    return collect_result(manager, trace, end_ps)


# -- dispatch --------------------------------------------------------------

#: The most recent :func:`fast_simulate` dispatch decision, as a
#: ``"specialised:<kind>"`` or ``"fallback:<reason>"`` string.  Dispatch
#: is *structural* (manager type and configuration), never exception
#: driven: a specialised kernel that raises mid-replay propagates the
#: error — it is NEVER caught and silently retried on the reference
#: loop, because a kernel that can fail where the reference loop would
#: not is itself a bug the differential suite must see.  This module
#: global (plus the reason returned by :func:`select_kernel`) exists so
#: tests and debugging sessions can observe *why* a run took the path
#: it took.
last_dispatch = "unused"


def _gate_mempod(manager):
    return "metadata-cache" if manager._caches is not None else None


def _gate_metadata_cache(manager):
    return "metadata-cache" if manager._cache is not None else None


def _gate_none(manager):
    return None


#: Spec-shape dispatch table: (trigger, flexibility) -> (canonical
#: manager class, kernel name, label, config gate).  Each specialised
#: loop was written against one canonical implementation, so after the
#: shape match the manager's type must still be *exactly* that class —
#: shape says what the mechanism does, not how its internals are laid
#: out.  Kernels are stored by name and resolved through the module
#: namespace at dispatch time, so tests can monkeypatch a loop.
_SHAPE_KERNELS = {
    ("none", "none"): (NoMigrationManager, "_replay_tlm", "tlm", _gate_none),
    ("none", "single"): (
        SingleLevelManager, "_replay_tlm", "single-level", _gate_none,
    ),
    ("interval", "pod"): (MemPodManager, "_replay_mempod", "mempod", _gate_mempod),
    ("epoch", "global"): (
        HmaManager, "_replay_hma", "hma", _gate_metadata_cache,
    ),
    ("threshold", "segment"): (
        ThmManager, "_replay_thm", "thm", _gate_metadata_cache,
    ),
    ("event", "group"): (CameoManager, "_replay_cameo", "cameo", _gate_none),
}


def select_kernel(manager) -> "tuple":
    """Pick the specialised kernel for ``manager``: ``(kernel, reason)``.

    Dispatch goes through the mechanism's declared *shape* — its
    ``(trigger, flexibility)`` pair — then verifies the concrete type is
    the canonical implementation the specialised loop was written
    against.  ``kernel`` is ``None`` when only the reference loop is
    exact for this configuration; ``reason`` always explains the
    decision:

    * ``specialised:<kind>`` — the named fast loop will run;
    * ``fallback:multi-tier`` — the memory has more than two tiers;
      every specialised loop was written against the fast/slow pair,
      so N-tier systems replay on the reference loop;
    * ``fallback:metadata-cache`` — per-record cache state (MemPod/HMA/
      THM metadata caches) makes hoisting a wash and is not inlined;
    * ``fallback:subclass:<Name>`` — a subclass of a canonical manager
      may override anything, so only the reference loop is trusted;
    * ``fallback:novel-spec:<Name>`` — a registered mechanism sharing a
      canonical shape but not its implementation;
    * ``fallback:novel-shape:<trigger>x<flexibility>`` — a shape no
      specialised loop exists for.
    """
    if len(manager.memory.tiers) > 2:
        return None, "fallback:multi-tier"
    manager_type = type(manager)
    trigger = getattr(manager, "trigger", "none")
    flexibility = getattr(manager, "flexibility", "none")
    entry = _SHAPE_KERNELS.get((trigger, flexibility))
    if entry is None:
        return None, f"fallback:novel-shape:{trigger}x{flexibility}"
    canonical, kernel_name, label, gate = entry
    if manager_type is not canonical:
        if issubclass(manager_type, canonical):
            return None, f"fallback:subclass:{manager_type.__name__}"
        return None, f"fallback:novel-spec:{manager_type.__name__}"
    blocked = gate(manager)
    if blocked is not None:
        return None, f"fallback:{blocked}"
    return globals()[kernel_name], f"specialised:{label}"


def fast_simulate(trace, manager):
    """Replay ``trace`` through ``manager`` on the fastest exact path.

    Drop-in equivalent of
    :func:`repro.system.simulator.reference_simulate`: same arguments,
    same result, same exceptions, and the same manager state afterwards,
    also when the replay raises (``TestManagerState`` in
    ``tests/test_kernel_differential.py`` faults each kernel mid-replay
    to check it).  Unsupported configurations (manager subclasses,
    metadata caches, out-of-range traces) fall back to the reference
    loop — the decision is recorded in :data:`last_dispatch`.  Once a
    specialised kernel starts, any exception it raises propagates to the
    caller; failures are never swallowed into a silent reference-loop
    retry.
    """
    global last_dispatch
    kernel, reason = select_kernel(manager)
    last_dispatch = reason
    if kernel is None:
        return reference_simulate(trace, manager)
    packed = trace.packed()
    if packed.max_address >= manager.geometry.total_bytes:
        # The direct enqueues bypass memory.access bounds checking; an
        # out-of-range record must raise AddressError at exactly the
        # reference loop's point of failure, so replay it the slow way.
        last_dispatch = "fallback:out-of-range-address"
        return reference_simulate(trace, manager)
    return kernel(trace, packed, manager)
