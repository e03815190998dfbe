"""Trace serialisation.

Three formats:

* a compact v1 binary format (little-endian ``<qqBB`` records behind a
  small header) for portable row-oriented interchange,
* a v2 *columnar* binary format (one little-endian int64 plane per
  record column, chunk-aligned) built for memory-mapped replay — the
  on-disk layout of the content-addressed trace store
  (:mod:`repro.trace.store`), and
* a human-readable text format (one ``arrival address w core`` line per
  record) for debugging and hand-written fixtures.

All formats round-trip exactly; each binary header carries a magic, a
version, the page size, and the record count so truncated or foreign
files fail loudly instead of decoding garbage.  Encode/decode paths are
vectorised through numpy when it is available and fall back to
pure-Python struct/array twins otherwise; tests/test_trace_io.py and
tests/test_trace_store.py prove the twins byte-identical, and CI runs
both suites again on an interpreter without numpy.

v2 columnar format, byte for byte
---------------------------------

All integers are little-endian.  The file is a 1024-byte header block
followed by five int64 column planes::

    offset  size  field
    ------  ----  -----------------------------------------------------
         0     8  magic, the ASCII bytes "MPTRACE2"
         8     4  format version, u32, currently 2
        12     4  plane count, u32, currently 5
        16     8  page_bytes, u64 — the migration page size the
                  addresses were laid out for
        24     8  count, u64 — number of records
        32     8  max_address, i64 — maximum address column value
                  (-1 when count == 0), stored so replay dispatch
                  (fast_simulate's bounds gate) never scans the file
        40    80  plane directory: 5 entries x 16 bytes, each
                    +0  8  plane name, NUL-padded ASCII: "arrival",
                           "address", "iswrite", "core", "page"
                    +8  4  numpy dtype code, NUL-padded ASCII: "<i8"
                   +12  4  reserved, u32, must be 0
       120   904  zero padding (header block is 1024 bytes, leaving
                  room for future directory growth)
      1024     -  plane data, in directory order

Every plane stores ``count`` int64 values padded with zeros up to
``stride = ceil(count / 128) * 128`` values, so plane ``i`` begins at
byte ``1024 + i * stride * 8``.  The 128-record alignment matches the
replay throttle's ``THROTTLE_SAMPLE_PERIOD`` chunk, so a streaming
reader that consumes whole chunks never splits a plane block, and each
plane begins on a 1024-byte boundary.  The "page" plane holds
``address // page_bytes`` for the header's ``page_bytes`` — derived
data, persisted so mapped replay needs no O(N) page recomputation.
All five planes deliberately share the int64 dtype: an ``asarray``
over any plane (or any slice) is a zero-copy view of the mapping.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..common.errors import TraceError
from .record import Trace

try:  # optional accelerator; every codec below has a pure-Python twin
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

MAGIC = b"MPTRACE1"
_HEADER = struct.Struct("<8sIQQ")  # magic, version, page_bytes, record count
_RECORD = struct.Struct("<qqBB")  # arrival_ps, address, is_write, core(+1)
VERSION = 1

# -- v2 columnar constants (see the format spec in the module docstring) --
MAGIC2 = b"MPTRACE2"
VERSION2 = 2
#: plane padding granularity, in records — matches the replay throttle's
#: THROTTLE_SAMPLE_PERIOD chunk (asserted in tests/test_trace_store.py)
CHUNK_RECORDS = 128
#: v2 plane names, in directory (and on-disk) order
PLANE_NAMES = ("arrival", "address", "iswrite", "core", "page")
_PLANE_DTYPE = b"<i8"
_HEADER2 = struct.Struct("<8sIIQQq")  # magic, version, planes, page_bytes, count, max_address
_PLANE_DIR = struct.Struct("<8s4sI")  # name, dtype code, reserved
_DATA_OFFSET = 1024
#: pure-reader block size, in records (a whole number of chunks)
_PURE_READ_RECORDS = 512 * CHUNK_RECORDS

PathLike = Union[str, Path]


def _encode_records_v1(records: Sequence[Tuple[int, int, int, int]]) -> bytes:
    """The v1 record section for ``records`` (cores stored +1).

    Fused twin: one numpy leg building the packed structured array in
    four column assignments, one pure struct-pack loop — byte-identical
    by the round-trip suite.
    """
    if _np is not None:
        dt = _np.dtype(
            [("arrival", "<i8"), ("address", "<i8"), ("w", "u1"), ("core", "u1")]
        )
        out = _np.empty(len(records), dtype=dt)
        if records:
            arrivals, addresses, is_writes, cores = zip(*records)
            out["arrival"] = arrivals
            out["address"] = addresses
            out["w"] = is_writes
            out["core"] = _np.asarray(cores, dtype=_np.int64) + 1
        return out.tobytes()
    pack = _RECORD.pack
    return b"".join(
        pack(arrival, address, is_write, core + 1)
        for arrival, address, is_write, core in records
    )


def _decode_records_v1(raw: bytes, offset: int, count: int) -> List[Tuple[int, int, int, int]]:
    """The record list encoded at ``raw[offset:]`` (cores stored +1).

    Fused twin of :func:`_encode_records_v1`: numpy ``frombuffer`` over
    the packed structured dtype, or the per-record struct-unpack loop.
    """
    if _np is not None:
        dt = _np.dtype(
            [("arrival", "<i8"), ("address", "<i8"), ("w", "u1"), ("core", "u1")]
        )
        arr = _np.frombuffer(raw, dtype=dt, count=count, offset=offset)
        return list(
            zip(
                arr["arrival"].tolist(),
                arr["address"].tolist(),
                arr["w"].tolist(),
                (arr["core"].astype(_np.int64) - 1).tolist(),
            )
        )
    records: List[Tuple[int, int, int, int]] = []
    unpack = _RECORD.unpack_from
    for _ in range(count):
        arrival, address, is_write, core = unpack(raw, offset)
        records.append((arrival, address, is_write, core - 1))
        offset += _RECORD.size
    return records


def save_binary(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in the v1 binary format."""
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, trace.page_bytes, len(trace.records)))
        handle.write(_encode_records_v1(trace.records))


def load_binary(path: PathLike, name: str = "") -> Trace:
    """Read a v1 binary trace, validating header and length."""
    raw = Path(path).read_bytes()
    try:
        records, page_bytes = _parse_v1(raw)
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from None
    return Trace(name=name or Path(path).stem, records=records, page_bytes=page_bytes)


def _parse_v1(raw: bytes) -> Tuple[List[Tuple[int, int, int, int]], int]:
    if len(raw) < _HEADER.size:
        raise TraceError("file shorter than trace header")
    magic, version, page_bytes, count = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise TraceError(f"bad magic {magic!r}; not a trace file")
    if version != VERSION:
        raise TraceError(f"unsupported trace version {version}")
    expected = _HEADER.size + count * _RECORD.size
    if len(raw) != expected:
        raise TraceError(
            f"expected {expected} bytes for {count} records, got {len(raw)}"
        )
    return _decode_records_v1(raw, _HEADER.size, count), page_bytes


def save_text(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` as one ``arrival address w core`` line per record."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# mempod-trace v{VERSION} page_bytes={trace.page_bytes}\n")
        for arrival, address, is_write, core in trace.records:
            handle.write(f"{arrival} {address:#x} {is_write} {core}\n")


def load_text(path: PathLike, name: str = "") -> Trace:
    """Read the text format written by :func:`save_text`.

    Field ranges are validated per line — ``is_write`` must be 0/1 and
    ``core`` at least -1 — so a malformed file names the offending line
    instead of surfacing as a record-index error from
    :meth:`Trace.validate` (or worse, decoding garbage silently).
    """
    page_bytes = None
    records: List[Tuple[int, int, int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line.split():
                    if token.startswith("page_bytes="):
                        page_bytes = int(token.split("=", 1)[1])
                continue
            parts = line.split()
            if len(parts) != 4:
                raise TraceError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
            try:
                arrival = int(parts[0])
                address = int(parts[1], 0)
                is_write = int(parts[2])
                core = int(parts[3])
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}") from exc
            if is_write not in (0, 1):
                raise TraceError(
                    f"{path}:{line_no}: is_write must be 0 or 1, got {is_write}"
                )
            if core < -1:
                raise TraceError(
                    f"{path}:{line_no}: core must be >= -1, got {core}"
                )
            records.append((arrival, address, is_write, core))
    if page_bytes is None:
        raise TraceError(f"{path}: missing page_bytes header line")
    return Trace(name=name or Path(path).stem, records=records, page_bytes=page_bytes)


def dumps(trace: Trace) -> bytes:
    """v1-serialise to bytes (for tests and in-memory transport)."""
    buffer = io.BytesIO()
    buffer.write(_HEADER.pack(MAGIC, VERSION, trace.page_bytes, len(trace.records)))
    buffer.write(_encode_records_v1(trace.records))
    return buffer.getvalue()


def loads(data: bytes, name: str = "trace") -> Trace:
    """Rebuild a trace from :func:`dumps` output (header validated)."""
    records, page_bytes = _parse_v1(data)
    return Trace(name=name, records=records, page_bytes=page_bytes)


# -- v2 columnar format ------------------------------------------------------


def _padded_count(count: int) -> int:
    """Records per plane after zero-padding to whole throttle chunks."""
    return (count + CHUNK_RECORDS - 1) // CHUNK_RECORDS * CHUNK_RECORDS


def columnar_size(count: int) -> int:
    """Exact file size, in bytes, of a v2 file holding ``count`` records."""
    return _DATA_OFFSET + len(PLANE_NAMES) * _padded_count(count) * 8


def _encode_plane(column: Sequence[int], count: int) -> bytes:
    """One zero-padded little-endian int64 plane for ``column``.

    Fused twin: numpy builds the padded array in one assignment; the
    pure leg goes through ``array('q')`` (byte-swapped on big-endian
    hosts, so the disk bytes are little-endian everywhere).
    """
    stride = _padded_count(count)
    if _np is not None:
        out = _np.zeros(stride, dtype="<i8")
        # Unwrap PackedTrace's _IntColumn wrapper (``.array``) so
        # column-backed traces (stored or synthesised) encode straight
        # from their int64 arrays instead of element-wise.
        out[:count] = _np.asarray(getattr(column, "array", column), dtype=_np.int64)
        return out.tobytes()
    plane = array("q", column)
    if len(plane) < stride:
        plane.extend([0] * (stride - len(plane)))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        plane = array("q", plane)
        plane.byteswap()
    return plane.tobytes()


def save_columnar(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in the v2 columnar format (a
    column-backed trace encodes straight from its int64 columns)."""
    packed = trace.packed()
    count = packed.length
    page_bytes = trace.page_bytes
    if page_bytes <= 0:
        raise TraceError(f"{path}: page_bytes must be positive, got {page_bytes}")
    if page_bytes & (page_bytes - 1) == 0:
        pages = packed.pages(page_bytes.bit_length() - 1)
    else:
        pages = [address // page_bytes for address in packed.addresses]
    columns = (packed.arrivals, packed.addresses, packed.is_writes, packed.cores, pages)
    with open(path, "wb") as handle:
        header = _HEADER2.pack(
            MAGIC2, VERSION2, len(PLANE_NAMES), page_bytes, count, packed.max_address
        )
        directory = b"".join(
            _PLANE_DIR.pack(plane_name.encode("ascii"), _PLANE_DTYPE, 0)
            for plane_name in PLANE_NAMES
        )
        prefix = header + directory
        handle.write(prefix)
        handle.write(b"\0" * (_DATA_OFFSET - len(prefix)))
        for column in columns:
            handle.write(_encode_plane(column, count))


class ColumnarInfo:
    """Validated v2 header fields plus the derived plane offsets."""

    __slots__ = ("path", "page_bytes", "count", "max_address", "stride")

    def __init__(self, path: Path, page_bytes: int, count: int, max_address: int) -> None:
        self.path = path
        self.page_bytes = page_bytes
        self.count = count
        self.max_address = max_address
        self.stride = _padded_count(count)

    def plane_offset(self, plane_name: str) -> int:
        """Byte offset of ``plane_name``'s data within the file."""
        return _DATA_OFFSET + PLANE_NAMES.index(plane_name) * self.stride * 8

    @property
    def page_shift(self) -> int:
        """log2(page_bytes), or -1 when page_bytes is not a power of two."""
        if self.page_bytes & (self.page_bytes - 1) == 0:
            return self.page_bytes.bit_length() - 1
        return -1


def read_columnar_header(path: PathLike) -> ColumnarInfo:
    """Validate the v2 header + directory of ``path`` (the whole file
    size included, so truncated planes fail here, not at replay)."""
    path = Path(path)
    with open(path, "rb") as handle:
        head = handle.read(_DATA_OFFSET)
        handle.seek(0, io.SEEK_END)
        size = handle.tell()
    if len(head) < _HEADER2.size + len(PLANE_NAMES) * _PLANE_DIR.size:
        raise TraceError(f"{path}: file shorter than columnar trace header")
    magic, version, plane_count, page_bytes, count, max_address = _HEADER2.unpack_from(
        head, 0
    )
    if magic != MAGIC2:
        raise TraceError(f"{path}: bad magic {magic!r}; not a columnar trace file")
    if version != VERSION2:
        raise TraceError(f"{path}: unsupported columnar trace version {version}")
    if plane_count != len(PLANE_NAMES):
        raise TraceError(
            f"{path}: expected {len(PLANE_NAMES)} planes, header says {plane_count}"
        )
    if page_bytes <= 0:
        raise TraceError(f"{path}: invalid page_bytes {page_bytes}")
    if (count == 0) != (max_address == -1) and max_address < 0:
        raise TraceError(f"{path}: invalid max_address {max_address}")
    for index, plane_name in enumerate(PLANE_NAMES):
        raw_name, dtype_code, reserved = _PLANE_DIR.unpack_from(
            head, _HEADER2.size + index * _PLANE_DIR.size
        )
        stored_name = raw_name.rstrip(b"\0")
        stored_dtype = dtype_code.rstrip(b"\0")
        if stored_name != plane_name.encode("ascii"):
            raise TraceError(
                f"{path}: plane {index} is {stored_name!r}, "
                f"expected {plane_name!r}"
            )
        if stored_dtype != _PLANE_DTYPE:
            raise TraceError(
                f"{path}: plane {plane_name!r} has dtype "
                f"{stored_dtype!r}, expected {_PLANE_DTYPE!r}"
            )
        if reserved != 0:
            raise TraceError(f"{path}: plane {plane_name!r} reserved field not zero")
    expected = columnar_size(count)
    if size != expected:
        raise TraceError(
            f"{path}: expected {expected} bytes for {count} records, got {size}"
        )
    return ColumnarInfo(path, page_bytes, count, max_address)


def load_columnar_planes(path: PathLike) -> Tuple[ColumnarInfo, Dict[str, Sequence[int]]]:
    """Open a v2 file and return ``(info, plane name -> column)``.

    Fused twin: with numpy every plane is an ``np.memmap`` view (or an
    empty array when the trace is empty — a zero-length mapping is not
    representable), so opening is O(1) and the OS pages data in on
    demand; the pure leg reads each plane chunk-at-a-time through
    ``array('q')`` into plain lists.  Both legs return columns whose
    per-element values are exactly the written integers.
    """
    info = read_columnar_header(path)
    count = info.count
    planes: Dict[str, Sequence[int]] = {}
    if _np is not None:
        for plane_name in PLANE_NAMES:
            if count == 0:
                planes[plane_name] = _np.empty(0, dtype=_np.int64)
            else:
                planes[plane_name] = _np.memmap(
                    info.path,
                    dtype="<i8",
                    mode="r",
                    offset=info.plane_offset(plane_name),
                    shape=(count,),
                )
        return info, planes
    swap = sys.byteorder != "little"
    with open(info.path, "rb") as handle:
        for plane_name in PLANE_NAMES:
            handle.seek(info.plane_offset(plane_name))
            column: List[int] = []
            remaining = count
            while remaining > 0:
                block = min(remaining, _PURE_READ_RECORDS)
                chunk = array("q", handle.read(block * 8))
                if swap:  # pragma: no cover - big-endian hosts only
                    chunk.byteswap()
                column.extend(chunk.tolist())
                remaining -= block
            planes[plane_name] = column
    return info, planes
