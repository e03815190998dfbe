"""Packed struct-of-arrays trace representation.

The reference :class:`~repro.trace.record.Trace` stores one tuple per
record, which is the right interchange format but a poor replay format:
the hot loops touch one field at a time and recompute page numbers and
address decodes per record.  :class:`PackedTrace` stores the same data
as parallel columns plus memoised derived columns:

* page numbers for any page-size shift (``pages``),
* per-memory-layout address decode planes (channel/bank/row), cached in
  :attr:`planes` by the numpy-free kernels.

A packed trace is a *view* of immutable records: it is built once per
:class:`Trace` (see :meth:`Trace.packed`) and assumes the records do
not change afterwards.

Column-backed traces
--------------------

:meth:`PackedTrace.from_planes` builds the columnar view directly over
int64 columns: the ``np.memmap`` planes of a v2 columnar trace file (see
:mod:`repro.trace.io`), where opening is O(1) and the OS pages record
data in on demand, or the in-memory columns synthesis writes (see
:func:`repro.trace.store.column_trace`).  Such a trace is *mapped*
(:attr:`mapped` is true) and the replay kernels stream it — decode
planes are computed per block of :data:`~repro.trace.io.BLOCK_RECORDS`
records instead of trace-length lists, so peak RSS stays flat for
traces much larger than memory.  Columns are
wrapped in :class:`_IntColumn` so every scalar read is a plain Python
int (numpy scalar types must never leak into controller stats — the
JSON result cache cannot serialise them).

With numpy, the direct kernels group every trace through
:meth:`PackedTrace.chunk_groups_streamed`, one stable sort per window;
the eager :meth:`PackedTrace.chunk_groups` is the numpy-free leg."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from .io import CHUNK_RECORDS

try:  # optional accelerator; every path below has a pure-Python twin
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


class _IntColumn:
    """Sequence-of-Python-ints view over an int64 array: a ``np.memmap``
    plane of a columnar trace file, or a synthesised column (converted once).

    Replay code indexes trace columns with ints and slices and zips
    over them; handing out the raw memmap would leak numpy scalar types
    into controller stats (and from there crash the JSON result
    cache).  This wrapper converts at the boundary: item
    access returns Python ints, slices return plain lists, iteration is
    blockwise so zip loops never materialise the whole column.  The
    backing array stays reachable as :attr:`array` for zero-copy
    vector use.
    """

    __slots__ = ("array",)

    _ITER_BLOCK = 65_536

    def __init__(self, column) -> None:
        self.array = _as_int64(column)

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
    """``column`` as an int64 numpy array: itself when it already is one
    (a memmap plane stays zero-copy), else converted once."""
    if isinstance(column, _np.ndarray):
        return column
    return _np.fromiter(column, dtype=_np.int64, count=len(column))


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
        #: numpy-free kernels' cache: memory-layout key -> decode plane tuple
        self.planes: Dict[tuple, tuple] = {}
        #: true when the columns are int64 arrays (mapped or in memory)
        self.mapped: bool = False
        self._np_addresses = None
        self._pages: Dict[int, Sequence[int]] = {}

    @classmethod
    def from_planes(
        cls,
        planes: Dict[str, Sequence[int]],
        max_address: int,
        page_shift: int,
    ) -> "PackedTrace":
        """Columnar view over int64 record columns.

        ``planes`` maps the :data:`repro.trace.io.PLANE_NAMES` to
        columns: the planes :func:`repro.trace.io.load_columnar_planes`
        returns (numpy memmaps, or plain lists on the pure leg), or
        synthesised columns.  With numpy the view is zero-copy over
        int64 arrays (lists are converted once), columns are wrapped in
        :class:`_IntColumn`, and the trace is flagged :attr:`mapped` so
        kernels stream decode work per
        :data:`~repro.trace.io.BLOCK_RECORDS` records; without numpy
        it is an ordinary eager packed trace.  The ``page`` plane is
        registered under ``page_shift`` when that is 0 or more;
        ``page_shift`` below 0 leaves the page memo empty, so
        :meth:`pages` computes the column on first use.
        """
        self = object.__new__(cls)
        self.length = len(planes["arrival"])
        self.max_address = max_address
        self.planes = {}
        self.mapped = _np is not None
        column = _IntColumn if self.mapped else list
        self.arrivals, self.addresses, self.is_writes, self.cores = (
            column(planes[name]) for name in ("arrival", "address", "iswrite", "core")
        )
        self._np_addresses = self.addresses.array if self.mapped else None
        self._pages = {page_shift: column(planes["page"])} if page_shift >= 0 else {}
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

    def chunk_groups(
        self,
        ctrls: Sequence[int],
        banks: Sequence[int],
        rows: Sequence[int],
    ) -> list:
        """Throttle chunks regrouped by controller index.

        Splits the trace into runs of :data:`~repro.trace.io.CHUNK_RECORDS`
        records, the CPU throttle's sample period, and
        groups each run's records by the ``ctrls`` decode column,
        preserving arrival order within every controller.  Controllers
        share no state and the throttle offset only changes at chunk
        boundaries, so handing each group to
        ``ChannelController.enqueue_batch`` replays the chunk exactly.

        Returns a list of ``(record_count, arrivals, banks, rows,
        is_writes, spans)`` chunks: the chunk's records as columns,
        ordered by controller index and arrival order within one, and
        ``spans`` a tuple of ``(ctrl, lo, hi)`` marking each
        controller's group as the column slice ``[lo, hi)``.  This
        eager dict-accumulation form is the numpy-free kernels' leg;
        with numpy the kernels use :meth:`chunk_groups_streamed`, which
        yields the same chunks.
        """
        total = self.length
        step = CHUNK_RECORDS
        is_writes = self.is_writes
        arrivals = self.arrivals
        chunks = []
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
            order: List[int] = []
            spans = []
            for ci, members in sorted(index.items()):
                spans.append((ci, len(order), len(order) + len(members)))
                order += members
            chunks.append((
                end - begin,
                [arrivals[i] for i in order],
                [banks[i] for i in order],
                [rows[i] for i in order],
                [is_writes[i] for i in order],
                tuple(spans),
            ))
        return chunks

    def chunk_groups_streamed(self, decode, window: int):
        """Windowed generator form of :meth:`chunk_groups` (numpy only —
        the pure twin is the eager method itself).

        Instead of consuming precomputed trace-length decode planes, it
        decodes ``window`` records at a time through ``decode`` (an
        ``int64 address array -> (ctrl, bank, row) arrays`` callable)
        and yields the same chunks, so peak
        memory is O(window) regardless of trace length.  List-backed
        columns are converted one window at a time.  Each window is
        grouped by :func:`_group_window`.  Exactness: ``window`` must be
        a multiple of the chunk, so chunk boundaries land on the same
        global grid as the eager method.  Nothing is memoised; the
        differential suite pins generator output to the eager chunks.
        """
        total = self.length
        if window % CHUNK_RECORDS:
            raise ValueError(
                f"window {window} is not a multiple of the {CHUNK_RECORDS}-record "
                "throttle chunk"
            )
        columns = (self.addresses, self.is_writes, self.arrivals)
        for w_begin in range(0, total, window):
            w_end = w_begin + window
            address_w, write_w, arrival_w = (
                column.array[w_begin:w_end]
                if isinstance(column, _IntColumn)
                else _as_int64(column[w_begin:w_end])
                for column in columns
            )
            yield from _group_window(*decode(address_w), write_w, arrival_w)


def _group_window(ctrl, bank, row, is_write, arrival):
    """Throttle chunks of ``CHUNK_RECORDS`` records over one window, each
    grouped by controller, as :meth:`PackedTrace.chunk_groups` groups them.

    The arguments are int64 arrays over the window's records; controller
    indices are small non-negative ints.  One stable argsort by
    ``(chunk index << 32) | ctrl`` keeps every chunk's
    records in their own block of the sorted order, groups each chunk's
    records by ascending controller, and keeps arrival order within a
    group.  Each column is then gathered and converted to a list once
    per window, and every chunk's columns are list slices of it.
    """
    span = len(ctrl)
    step = CHUNK_RECORDS
    key = (_np.arange(span) // step << 32) | ctrl
    order = _np.argsort(key, kind="stable")
    key = key[order]
    bounds = [0, *(_np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), span]
    ids = (key[bounds[:-1]] & 0xFFFFFFFF).tolist()
    banks, rows, writes, arrivals = (
        column[order].tolist() for column in (bank, row, is_write, arrival)
    )
    group = 0
    for begin in range(0, span, step):
        end = begin + step if begin + step < span else span
        spans = []
        while bounds[group] < end:
            spans.append((ids[group], bounds[group] - begin, bounds[group + 1] - begin))
            group += 1
        yield (
            end - begin, arrivals[begin:end], banks[begin:end], rows[begin:end],
            writes[begin:end], tuple(spans),
        )
