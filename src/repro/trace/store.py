"""Content-addressed columnar trace store.

Trace synthesis is deterministic in ``(workload, scale, length, seed)``
but costs real wall-clock (~305k records/s) and was, before this store,
repeated by every sweep worker: ``SweepRunner`` processes share nothing,
so a 7-mechanism comparison synthesised the same trace seven times.
This module persists each synthesised trace once, in the v2 columnar
format of :mod:`repro.trace.io`, under a SHA-256 key over exactly the
inputs that determine its content — the trace spec plus the code-version
token, so a synthesis change can never serve a stale trace.  Synthesis
writes int64 columns from the start (:func:`column_trace`), so a cold
save encodes its planes straight from those arrays and no record tuple
is built on the way.  Every later request memory-maps the stored planes
in O(1) and streams them through the replay kernels with flat peak RSS
(see :meth:`repro.trace.packed.PackedTrace.from_planes`).

The same machinery replays *external* traces: ``repro trace import``
converts tracehm-style ``cnt<TAB>addr<TAB>is_write`` TSV captures (and
the v1/text formats) into columnar files that ``repro run --trace``
replays directly, which is the on-ramp for real captured workloads at
scales that never fit a Python record list.

Environment knobs (all folded into — or provably excluded from — the
result-cache key; see ``repro.analysis.cachekey``):

* ``REPRO_TRACE_DIR``       — store root (default ``~/.cache/repro/traces``),
* ``REPRO_NO_TRACE_STORE``  — set to 1 to bypass the store entirely.

Replay streams every trace in fixed blocks of
:data:`~repro.trace.io.BLOCK_RECORDS` records; no knob sizes them.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Union

from ..common.errors import ConfigError, TraceError
from . import io as _io
from .io import (
    PLANE_NAMES,
    load_columnar_planes,
    read_columnar_header,
    save_columnar,
)
from .packed import PackedTrace
from .record import PAGE_BYTES, Trace, TraceRecord

TRACE_DIR_ENV_VAR = "REPRO_TRACE_DIR"
NO_STORE_ENV_VAR = "REPRO_NO_TRACE_STORE"

#: default picoseconds per tracehm tick (1 ns — captures count in
#: request ticks, not picoseconds)
DEFAULT_TSV_TICK_PS = 1_000

PathLike = Union[str, Path]


def default_store_dir() -> Path:
    """``REPRO_TRACE_DIR`` if set, else ``~/.cache/repro/traces``."""
    override = os.environ.get(TRACE_DIR_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "traces"


def store_enabled() -> bool:
    """False when ``REPRO_NO_TRACE_STORE`` asks for in-memory traces.

    Excluded from the result-cache key on purpose: the store serves
    byte-identical replays of what synthesis would build (pinned by the
    mapped-vs-in-memory differential suite), so the flag changes where
    the trace lives, never what any cell computes.
    """
    return os.environ.get(NO_STORE_ENV_VAR, "").strip() in ("", "0")


class _ColumnRecords:
    """Record-tuple view over a column-backed :class:`PackedTrace`.

    Stands in for the ``Trace.records`` list on column-backed traces:
    indexing, slicing, iteration, ``==`` and ``repr`` behave as on the
    eager record list of the same ``(arrival, address, is_write, core)``
    tuples of Python ints, but nothing trace-length is kept —
    iteration converts one block of each column at a time and slices
    convert only their span.
    """

    __slots__ = ("_packed",)

    def __init__(self, packed: PackedTrace) -> None:
        self._packed = packed

    def __len__(self) -> int:
        return self._packed.length

    def _columns(self):
        packed = self._packed
        return packed.arrivals, packed.addresses, packed.is_writes, packed.cores

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*(column[index] for column in self._columns())))
        return tuple(column[index] for column in self._columns())

    def __iter__(self) -> Iterator[TraceRecord]:
        columns, block = self._columns(), _io.BLOCK_RECORDS
        return chain.from_iterable(
            zip(*(column[begin:begin + block] for column in columns))
            for begin in range(0, len(self), block)
        )

    def __eq__(self, other):
        if isinstance(other, (list, _ColumnRecords)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class MappedTrace(Trace):
    """A :class:`Trace` whose records live in int64 columns.

    The columns are the memory-mapped planes of a columnar trace file
    (:func:`open_columnar`) or the in-memory columns synthesis writes
    (:func:`column_trace`).  Behaves exactly like the eager trace of
    the same records — same records, same metadata, same ``packed()``
    columns — but the record "list" is a :class:`_ColumnRecords` view
    and ``packed()`` returns the zero-copy column-backed
    :class:`PackedTrace`, so opening is O(1) and replay streams.
    ``sliced()`` still works and degrades gracefully: the clone holds a
    plain in-memory record list for its span.
    """


def _packed_trace(name: str, page_bytes: int, packed: PackedTrace) -> Trace:
    """The trace over ``packed``'s columns, which are valid already: a
    :class:`MappedTrace` when they are int64 arrays, else an eager
    :class:`Trace` holding the identical records."""
    if packed.mapped:
        trace = MappedTrace.unchecked(name, _ColumnRecords(packed), page_bytes)
    else:
        columns = (packed.arrivals, packed.addresses, packed.is_writes, packed.cores)
        trace = Trace.unchecked(name, list(zip(*columns)), page_bytes)
    trace._packed_cache = (trace.records, packed)
    return trace


def open_columnar(path: PathLike, name: str = "") -> Trace:
    """Open a v2 columnar trace file for replay.

    With numpy, returns a :class:`MappedTrace` that replay streams one
    block at a time; without numpy, the pure twin reads the planes
    chunk-at-a-time into an ordinary eager :class:`Trace` holding the
    identical records.  Validation already happened in
    :func:`~repro.trace.io.read_columnar_header`; the stored columns
    were validated when written, so neither leg re-runs the O(n) record
    validation.
    """
    info, planes = load_columnar_planes(path)
    packed = PackedTrace.from_planes(planes, info.max_address, info.page_shift)
    return _packed_trace(name or Path(path).stem, info.page_bytes, packed)


def column_trace(name: str, page_bytes: int, columns: Sequence[Sequence[int]]) -> Trace:
    """The trace over ``(arrival, address, is_write, core)`` columns
    that are valid by construction, as synthesis writes them, without
    :meth:`Trace.validate`: with numpy a :class:`MappedTrace` over
    in-memory int64 columns (its page column computed on first use),
    without numpy an eager :class:`Trace` of the zipped records."""
    planes = dict(zip(PLANE_NAMES, columns))  # the four record planes
    addresses = planes["address"]
    packed = PackedTrace.from_planes(planes, max(addresses) if addresses else -1, -1)
    return _packed_trace(name, page_bytes, packed)


class TraceStore:
    """One columnar trace file per content key.

    Mirrors :class:`repro.runner.cache.ResultCache`: two-level fan-out
    under the store root, atomic write-then-rename (concurrent sweep
    workers synthesising the same trace race to write identical bytes),
    corrupt or truncated files fail loudly at open (the header
    validates the whole layout) rather than reading as garbage.
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_store_dir()

    def path_for(self, key: str) -> Path:
        """Where entry ``key`` lives (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key[2:]}.mpt"

    def save(self, key: str, trace: Trace) -> Path:
        """Persist ``trace`` under ``key`` atomically; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        try:
            save_columnar(trace, tmp)
            os.replace(tmp, path)
        finally:
            # After a successful replace the temp name is gone; on any
            # failure this reclaims it.  Either way nothing is swallowed.
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return path

    def open(self, key: str, name: str = "") -> Optional[Trace]:
        """Open entry ``key``, or ``None`` when it was never stored.

        A present-but-invalid file raises :class:`TraceError` — unlike
        the result cache, a corrupt trace must never silently demote to
        a rebuild that masks store bugs.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        return open_columnar(path, name=name)


def synth_trace_key(workload: str, scale: int, length: int, seed: int) -> str:
    """Store key for a synthesised trace.

    Exactly the inputs that determine the trace bytes: the spec tuple
    plus the code-version token — the same token the result cache keys
    on, so any edit to the synthesis code (or anything else in the
    package) re-synthesises instead of serving a stale trace.
    """
    from ..runner.cache import code_version_token, fingerprint

    return fingerprint(
        {
            "trace": "synth",
            "workload": workload,
            "scale": scale,
            "length": length,
            "seed": seed,
            "code": code_version_token(),
        }
    )


def import_tracehm_tsv(
    path: PathLike,
    name: str = "",
    page_bytes: int = PAGE_BYTES,
    tick_ps: int = DEFAULT_TSV_TICK_PS,
) -> Trace:
    """Parse a tracehm-style TSV capture into a :class:`Trace`.

    One ``cnt<TAB>addr<TAB>is_write`` line per request: ``cnt`` is a
    non-decreasing tick counter (scaled to picoseconds by ``tick_ps``),
    ``addr`` a byte address in any Python integer literal base, and
    ``is_write`` 0 or 1.  Captures carry no core id, so every record is
    core 0.  Blank lines and ``#`` comments are skipped; anything
    malformed raises :class:`TraceError` naming ``path:line``.
    """
    if tick_ps <= 0:
        raise ConfigError(f"tick_ps must be positive, got {tick_ps}")
    records: List[TraceRecord] = []
    last_cnt = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise TraceError(
                    f"{path}:{line_no}: expected 3 fields "
                    f"(cnt, addr, is_write), got {len(parts)}"
                )
            try:
                cnt = int(parts[0])
                address = int(parts[1], 0)
                is_write = int(parts[2])
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}") from exc
            if last_cnt is not None and cnt < last_cnt:
                raise TraceError(
                    f"{path}:{line_no}: cnt {cnt} precedes previous {last_cnt}"
                )
            if cnt < 0:
                raise TraceError(f"{path}:{line_no}: negative cnt {cnt}")
            if address < 0:
                raise TraceError(f"{path}:{line_no}: negative address {address}")
            if is_write not in (0, 1):
                raise TraceError(
                    f"{path}:{line_no}: is_write must be 0 or 1, got {is_write}"
                )
            records.append((cnt * tick_ps, address, is_write, 0))
            last_cnt = cnt
    return Trace(
        name=name or Path(path).stem, records=records, page_bytes=page_bytes
    )


__all__ = [
    "DEFAULT_TSV_TICK_PS",
    "MappedTrace",
    "NO_STORE_ENV_VAR",
    "TRACE_DIR_ENV_VAR",
    "TraceStore",
    "column_trace",
    "default_store_dir",
    "import_tracehm_tsv",
    "open_columnar",
    "read_columnar_header",
    "store_enabled",
    "synth_trace_key",
]
