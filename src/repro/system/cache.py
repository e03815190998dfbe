"""Set-associative metadata cache (Section 6.3.3's caching effect).

Migration mechanisms keep remap tables and counters too large for
on-chip SRAM; a small cache fronts a backing store carved out of
stacked memory.  This model is a classic set-associative LRU cache over
abstract *entry keys* (a remap-table index, a counter block id):

* a **hit** costs nothing (the cache is pipelined with the request),
* a **miss** is reported to the caller, which injects a
  ``BOOKKEEPING`` read into the memory stream and blocks the affected
  page until the fill returns — exactly the paper's blocking-miss
  semantics ("all incoming requests to that page need to be delayed
  until the missing data is retrieved").

Entries are grouped ``entries_per_line`` per 64 B cache line, so a
cache of ``capacity_bytes`` holds ``capacity_bytes/64`` lines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from ..common.config import require_positive_int
from ..common.units import is_power_of_two
from ..common.errors import ConfigError

LINE_BYTES = 64


class MetadataCache:
    """Set-associative, LRU, 64 B-line cache over metadata entry keys.

    Parameters
    ----------
    capacity_bytes:
        Total cache capacity (paper sweeps 16/32/64 kB).
    entry_bytes:
        Size of one metadata entry; ``64 // entry_bytes`` entries share
        a line, so adjacent keys hit together (spatial locality in the
        remap table is real — neighbouring pages have neighbouring
        entries).
    associativity:
        Ways per set (default 8).
    """

    def __init__(
        self,
        capacity_bytes: int,
        entry_bytes: int = 4,
        associativity: int = 8,
    ) -> None:
        require_positive_int("capacity_bytes", capacity_bytes)
        require_positive_int("entry_bytes", entry_bytes)
        require_positive_int("associativity", associativity)
        if entry_bytes > LINE_BYTES:
            raise ConfigError(f"entry_bytes must be <= {LINE_BYTES}, got {entry_bytes}")
        lines = capacity_bytes // LINE_BYTES
        if lines == 0:
            raise ConfigError(f"capacity {capacity_bytes} smaller than one line")
        sets = max(1, lines // associativity)
        if not is_power_of_two(sets):
            # Round sets down to a power of two; the capacity loss is a
            # modelling detail and is reported via effective_bytes.
            sets = 1 << (sets.bit_length() - 1)
        self.sets = sets
        self.associativity = associativity
        self.entries_per_line = LINE_BYTES // entry_bytes
        self._ways: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0

    @property
    def effective_bytes(self) -> int:
        """Actual modelled capacity after power-of-two set rounding."""
        return self.sets * self.associativity * LINE_BYTES

    def _line_of(self, key: int) -> int:
        return key // self.entries_per_line

    def lookup(self, key: int) -> bool:
        """Access entry ``key``; returns True on hit.

        On a miss the line is filled immediately (the caller models the
        fill latency by blocking the requesting page); LRU is updated
        either way.
        """
        line = self._line_of(key)
        set_idx = line & (self.sets - 1)
        ways = self._ways.get(set_idx)
        if ways is None:
            ways = OrderedDict()
            self._ways[set_idx] = ways
        if line in ways:
            ways.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        ways[line] = True
        if len(ways) > self.associativity:
            ways.popitem(last=False)
        return False

    def contains(self, key: int) -> bool:
        """Non-mutating presence check (no LRU update, no stats)."""
        line = self._line_of(key)
        ways = self._ways.get(line & (self.sets - 1))
        return bool(ways) and line in ways
