"""Trace containers.

A trace is the unit of simulator input: a time-ordered sequence of 64 B
LLC-miss transactions, each ``(arrival_ps, address, is_write, core)``.
Records are plain tuples inside :class:`Trace` — the simulator iterates
millions of them, so we avoid per-record object overhead — with the
class carrying workload-level metadata (name, page size, footprint).
Synthesised and stored traces keep the same records as int64 columns
behind a view of tuples (:class:`repro.trace.store.MappedTrace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

from ..common.errors import TraceError

# Record layout inside Trace.records: (arrival_ps, address, is_write, core)
TraceRecord = Tuple[int, int, int, int]

PAGE_BYTES = 2 * 1024
LINE_BYTES = 64
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES


@dataclass
class Trace:
    """A complete multi-programmed memory trace.

    Attributes
    ----------
    name:
        Workload name (e.g. ``"libquantum"`` or ``"mix9"``).
    records:
        Time-ordered list of ``(arrival_ps, address, is_write, core)``.
    page_bytes:
        The migration page size the addresses were laid out for.
    """

    name: str
    records: List[TraceRecord] = field(default_factory=list)
    page_bytes: int = PAGE_BYTES

    def __post_init__(self) -> None:
        self.validate()

    def __eq__(self, other):
        # Equal records are equal traces whether they are held as tuples
        # or as columns (MappedTrace).
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.name, self.records, self.page_bytes) == (
            other.name, other.records, other.page_bytes
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def validate(self) -> None:
        """Check monotone timestamps and well-formed records.

        Raises :class:`TraceError` on the first violation.  Called once
        at construction so the simulator hot loop can skip per-record
        checks.
        """
        last_ps = -1
        for idx, record in enumerate(self.records):
            if len(record) != 4:
                raise TraceError(f"record {idx} has {len(record)} fields, expected 4")
            arrival, address, is_write, core = record
            if arrival < last_ps:
                raise TraceError(
                    f"record {idx} arrival {arrival} precedes previous {last_ps}"
                )
            if address < 0:
                raise TraceError(f"record {idx} has negative address {address}")
            if is_write not in (0, 1):
                raise TraceError(f"record {idx} is_write must be 0/1, got {is_write!r}")
            if core < -1:
                raise TraceError(f"record {idx} has invalid core {core}")
            last_ps = arrival

    @property
    def duration_ps(self) -> int:
        """Time span from the first to the last arrival."""
        if not self.records:
            return 0
        return self.records[-1][0] - self.records[0][0]

    @property
    def write_fraction(self) -> float:
        """Fraction of records that are writes."""
        if not self.records:
            return 0.0
        return sum(r[2] for r in self.records) / len(self.records)

    def pages_touched(self) -> "set[int]":
        """Distinct page numbers referenced by the trace."""
        page = self.page_bytes
        if page & (page - 1) == 0:
            shift = page.bit_length() - 1
            return {r[1] >> shift for r in self.records}
        return {r[1] // page for r in self.records}

    def page_sequence(self) -> List[int]:
        """Page number of every record, in order (tracker-study input)."""
        page = self.page_bytes
        if page & (page - 1) == 0:
            shift = page.bit_length() - 1
            return [r[1] >> shift for r in self.records]
        return [r[1] // page for r in self.records]

    def sliced(self, start: int, stop: int) -> "Trace":
        """A new trace holding ``records[start:stop]`` (metadata shared).

        A slice of an already-validated monotone record list is itself
        valid, so the copy skips re-validation — slicing large traces is
        on the sweep-construction path.
        """
        return type(self).unchecked(self.name, self.records[start:stop], self.page_bytes)

    def packed(self):
        """Columnar :class:`~repro.trace.packed.PackedTrace` view.

        Cached on the trace with the record list it was built from;
        rebuilt if ``records`` is another object or was resized in place
        since the last call (records are treated as immutable otherwise).
        """
        from .packed import PackedTrace

        records = self.records
        source, packed = getattr(self, "_packed_cache", (None, None))
        if source is not records or packed.length != len(records):
            packed = PackedTrace(records)
            self._packed_cache = (records, packed)
        return packed

    @classmethod
    def unchecked(cls, name: str, records: List[TraceRecord], page_bytes: int) -> "Trace":
        """A trace over ``records`` known valid already, without
        re-running :meth:`validate` (slices of a valid trace, stored or
        synthesised columns)."""
        trace = object.__new__(cls)
        trace.name = name
        trace.records = records
        trace.page_bytes = page_bytes
        return trace

    @classmethod
    def from_records(
        cls, name: str, records: Iterable[TraceRecord], page_bytes: int = PAGE_BYTES
    ) -> "Trace":
        """Build and validate a trace from any record iterable."""
        return cls(name=name, records=list(records), page_bytes=page_bytes)
