"""Packed struct-of-arrays trace representation.

The reference :class:`~repro.trace.record.Trace` stores one tuple per
record, which is the right interchange format but a poor replay format:
the hot loops touch one field at a time and recompute page numbers and
address decodes per record.  :class:`PackedTrace` stores the same data
as parallel columns (plain lists — the fastest thing CPython iterates)
plus memoised derived columns:

* page numbers for any page-size shift (``pages``),
* per-memory-layout address decode planes (channel/bank/row), cached in
  :attr:`planes` under a layout key chosen by the kernel.

Derived columns are computed vectorised through numpy when it is
available and with plain comprehensions otherwise — numpy is an
accelerator here, never a requirement.

A packed trace is a *view* of an immutable record list: it is built
once per :class:`Trace` (see :meth:`Trace.packed`) and assumes the
records do not change afterwards.

Mapped traces
-------------

:meth:`PackedTrace.from_planes` builds the same columnar view directly
over the int64 planes of a v2 columnar trace file (see
:mod:`repro.trace.io`), typically ``np.memmap`` views: opening is O(1)
and the OS pages record data in on demand.  Such a trace is *mapped*
(:attr:`mapped` is true) and the replay kernels switch to streaming —
decode planes are computed per bounded window instead of trace-length
lists, so peak RSS stays flat for traces much larger than memory.
Columns are wrapped in :class:`_IntColumn` so every scalar read is a
plain Python int (numpy scalar types must never leak into controller
stats — the JSON result cache cannot serialise them)."""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Sequence, Tuple

try:  # optional accelerator; every path below has a pure-Python twin
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


class _IntColumn:
    """Sequence-of-Python-ints view over an int64 array (typically a
    ``np.memmap`` plane of a columnar trace file).

    Replay code indexes trace columns with ints and slices, bisects
    them, and zips over them; handing out the raw memmap would leak
    numpy scalar types into controller stats (and from there crash the
    JSON result cache).  This wrapper converts at the boundary: item
    access returns Python ints, slices return plain lists, iteration is
    blockwise so zip loops never materialise the whole column.  The
    backing array stays reachable as :attr:`array` for zero-copy
    vector use.
    """

    __slots__ = ("array",)

    _ITER_BLOCK = 65_536

    def __init__(self, array) -> None:
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.array[index].tolist()
        return int(self.array[index])

    def __iter__(self) -> Iterator[int]:
        array = self.array
        block = self._ITER_BLOCK
        for begin in range(0, len(array), block):
            yield from array[begin:begin + block].tolist()


def _as_int64(column):
    """``column`` as an int64 numpy array, zero-copy when it already is
    one (directly or behind an :class:`_IntColumn`)."""
    if isinstance(column, _IntColumn):
        return column.array
    if isinstance(column, _np.ndarray):
        return column
    return _np.asarray(column, dtype=_np.int64)


class PackedTrace:
    """Columnar view of a trace's records with memoised decode planes."""

    __slots__ = (
        "length",
        "arrivals",
        "addresses",
        "is_writes",
        "cores",
        "max_address",
        "planes",
        "mapped",
        "window",
        "_np_addresses",
        "_pages",
    )

    def __init__(self, records: Sequence[Tuple[int, int, int, int]]) -> None:
        self.length = len(records)
        if records:
            arrivals, addresses, is_writes, cores = map(list, zip(*records))
        else:
            arrivals, addresses, is_writes, cores = [], [], [], []
        self.arrivals: List[int] = arrivals
        self.addresses: List[int] = addresses
        self.is_writes: List[int] = is_writes
        self.cores: List[int] = cores
        self.max_address: int = max(addresses) if addresses else -1
        #: kernel-managed cache: memory-layout key -> decode plane tuple
        self.planes: Dict[tuple, tuple] = {}
        #: true when the columns are views of an on-disk columnar file
        self.mapped: bool = False
        #: streaming window (records) for mapped replay; ``None`` otherwise
        self.window = None
        self._np_addresses = None
        self._pages: Dict[int, Sequence[int]] = {}

    @classmethod
    def from_planes(
        cls,
        planes: Dict[str, Sequence[int]],
        max_address: int,
        page_shift: int,
        window: int = None,
    ) -> "PackedTrace":
        """Columnar view over the planes of a v2 trace file.

        ``planes`` maps the :data:`repro.trace.io.PLANE_NAMES` to int64
        columns as returned by
        :func:`repro.trace.io.load_columnar_planes` — numpy memmaps on
        the numpy leg, plain lists on the pure leg.  The numpy leg is
        zero-copy (columns wrapped in :class:`_IntColumn`, the stored
        page plane registered under ``page_shift``) and flags the trace
        :attr:`mapped` so kernels stream decode work per ``window``
        records; the pure leg is an ordinary eager packed trace.
        ``page_shift`` below 0 (non-power-of-two page size) leaves the
        page memo empty.
        """
        self = object.__new__(cls)
        arrival = planes["arrival"]
        self.length = len(arrival)
        self.max_address = max_address
        self.planes = {}
        if _np is not None and isinstance(arrival, _np.ndarray):
            self.arrivals = _IntColumn(arrival)
            self.addresses = _IntColumn(planes["address"])
            self.is_writes = _IntColumn(planes["iswrite"])
            self.cores = _IntColumn(planes["core"])
            self._np_addresses = planes["address"]
            self._pages = (
                {page_shift: _IntColumn(planes["page"])} if page_shift >= 0 else {}
            )
            self.mapped = True
            self.window = window
        else:
            self.arrivals = list(planes["arrival"])
            self.addresses = list(planes["address"])
            self.is_writes = list(planes["iswrite"])
            self.cores = list(planes["core"])
            self._np_addresses = None
            self._pages = (
                {page_shift: list(planes["page"])} if page_shift >= 0 else {}
            )
            self.mapped = False
            self.window = None
        return self

    def np_addresses(self):
        """The address column as an int64 numpy array (``None`` without
        numpy); built once and reused by every plane computation."""
        if _np is None:
            return None
        if self._np_addresses is None:
            self._np_addresses = _np.asarray(self.addresses, dtype=_np.int64)
        return self._np_addresses

    def pages(self, page_shift: int) -> Sequence[int]:
        """Page number of every record for ``page_bytes = 1 << page_shift``
        (memoised per shift — managers at different page sizes coexist).

        Mapped traces serve the stored shift as a zero-copy view of the
        on-disk page plane; other shifts are computed once into an int64
        array and wrapped.
        """
        cached = self._pages.get(page_shift)
        if cached is None:
            addresses = self.np_addresses()
            if addresses is not None:
                shifted = addresses >> page_shift
                cached = _IntColumn(shifted) if self.mapped else shifted.tolist()
            else:
                cached = [address >> page_shift for address in self.addresses]
            self._pages[page_shift] = cached
        return cached

    def cut_at(self, arrival_ps: int, lo: int, hi: int) -> int:
        """First record index in ``[lo, hi)`` whose arrival is at or
        past ``arrival_ps`` (``hi`` when none is).

        This is the interval-slicing primitive of the columnar replay
        kernels: instead of a per-record ``arrival >= next_boundary``
        check, one binary search over the (non-decreasing) arrival
        column finds where the next boundary or due swap lands, and
        everything before the cut replays as one event-free slice.
        Identical to ``numpy.searchsorted(arrivals[lo:hi], arrival_ps,
        "left")`` but works on the plain column, so the pure-Python leg
        shares it.
        """
        return bisect_left(self.arrivals, arrival_ps, lo, hi)

    def np_columns(self, key: tuple, columns: tuple) -> tuple:
        """``columns`` as int64 numpy arrays, memoised under
        ``("np", key)`` in :attr:`planes`.

        The chunk-sliced kernels index decode planes with fancy masks
        and vectorised arithmetic; converting the memoised list planes
        once per (trace, layout) keeps that off the per-slice path.
        Columns already backed by arrays (mapped traces hand in
        :class:`_IntColumn` views) pass through zero-copy.
        Callers must only use this when numpy is available.
        """
        cached = self.planes.get(("np", key))
        if cached is None:
            cached = tuple(_as_int64(column) for column in columns)
            self.planes[("np", key)] = cached
        return cached

    def chunk_groups(
        self,
        layout_key: tuple,
        ctrls: Sequence[int],
        banks: Sequence[int],
        rows: Sequence[int],
        sample: int,
    ) -> list:
        """Throttle chunks regrouped columnarly by controller index.

        Splits the trace into runs of ``sample`` records (one run for
        the whole trace when ``sample`` is 0 — the unthrottled case) and
        groups each run's records by the ``ctrls`` decode column,
        preserving arrival order within every controller.  Controllers
        share no state and the throttle offset only changes at chunk
        boundaries, so handing each group to
        ``ChannelController.enqueue_batch`` replays the chunk exactly.

        Returns a list of ``(record_count, groups)`` chunks where
        ``groups`` is a tuple of ``(ctrl, banks, rows, is_writes,
        arrivals)`` column tuples ordered by controller index.  Memoised
        in :attr:`planes` under ``("chunk-groups", sample, layout_key)``.
        Grouped through numpy's stable argsort when available; the pure
        dict-accumulation twin produces identical chunks.
        """
        key = ("chunk-groups", sample, layout_key)
        cached = self.planes.get(key)
        if cached is not None:
            return cached
        total = self.length
        step = sample if sample else (total or 1)
        chunks = []
        if _np is not None:
            ctrl_col = _as_int64(ctrls)
            bank_col = _as_int64(banks)
            row_col = _as_int64(rows)
            write_col = _as_int64(self.is_writes)
            arrival_col = _as_int64(self.arrivals)
            for begin in range(0, total, step):
                end = begin + step
                if end > total:
                    end = total
                order = _np.argsort(ctrl_col[begin:end], kind="stable") + begin
                sorted_ctrl = ctrl_col[order]
                cuts = _np.flatnonzero(sorted_ctrl[1:] != sorted_ctrl[:-1]) + 1
                bounds = [0, *cuts.tolist(), end - begin]
                groups = tuple(
                    (
                        int(sorted_ctrl[bounds[gi]]),
                        bank_col[sel].tolist(),
                        row_col[sel].tolist(),
                        write_col[sel].tolist(),
                        arrival_col[sel].tolist(),
                    )
                    for gi in range(len(bounds) - 1)
                    for sel in (order[bounds[gi]:bounds[gi + 1]],)
                )
                chunks.append((end - begin, groups))
        else:
            is_writes = self.is_writes
            arrivals = self.arrivals
            for begin in range(0, total, step):
                end = begin + step
                if end > total:
                    end = total
                index: Dict[int, List[int]] = {}
                for i in range(begin, end):
                    members = index.get(ctrls[i])
                    if members is None:
                        index[ctrls[i]] = [i]
                    else:
                        members.append(i)
                groups = tuple(
                    (
                        ci,
                        [banks[i] for i in members],
                        [rows[i] for i in members],
                        [is_writes[i] for i in members],
                        [arrivals[i] for i in members],
                    )
                    for ci, members in sorted(index.items())
                )
                chunks.append((end - begin, groups))
        self.planes[key] = chunks
        return chunks

    def chunk_groups_streamed(self, decode, sample: int, window: int):
        """Windowed generator form of :meth:`chunk_groups` for mapped
        traces (numpy only — the pure twin is the eager method itself).

        Instead of consuming precomputed trace-length decode planes, it
        decodes ``window`` records at a time through ``decode`` (an
        ``int64 address array -> (ctrl, bank, row) arrays`` callable)
        and yields the same ``(record_count, groups)`` chunks, so peak
        memory is O(window) regardless of trace length.  Exactness:
        when ``sample`` is positive ``window`` must be a multiple of it,
        so chunk boundaries land on the same global grid as the eager
        method; when ``sample`` is 0 the eager method emits one whole-
        trace chunk and this one emits one chunk per window — equal by
        batch splitting, because controllers share no state, the
        per-controller record order is preserved across the split, and
        no throttle adjustment separates unthrottled chunks.  Nothing is
        memoised; the differential suite pins generator output to the
        eager chunks.
        """
        total = self.length
        if sample and window % sample:
            raise ValueError(
                f"window {window} is not a multiple of throttle sample {sample}"
            )
        addresses = self.np_addresses()
        write_full = _as_int64(self.is_writes)
        arrival_full = _as_int64(self.arrivals)
        step = sample if sample else window
        for w_begin in range(0, total, window):
            w_end = w_begin + window
            if w_end > total:
                w_end = total
            ctrl_w, bank_w, row_w = decode(addresses[w_begin:w_end])
            write_w = write_full[w_begin:w_end]
            arrival_w = arrival_full[w_begin:w_end]
            span = w_end - w_begin
            for begin in range(0, span, step):
                end = begin + step
                if end > span:
                    end = span
                order = _np.argsort(ctrl_w[begin:end], kind="stable") + begin
                sorted_ctrl = ctrl_w[order]
                cuts = _np.flatnonzero(sorted_ctrl[1:] != sorted_ctrl[:-1]) + 1
                bounds = [0, *cuts.tolist(), end - begin]
                groups = tuple(
                    (
                        int(sorted_ctrl[bounds[gi]]),
                        bank_w[sel].tolist(),
                        row_w[sel].tolist(),
                        write_w[sel].tolist(),
                        arrival_w[sel].tolist(),
                    )
                    for gi in range(len(bounds) - 1)
                    for sel in (order[bounds[gi]:bounds[gi + 1]],)
                )
                yield (end - begin, groups)
