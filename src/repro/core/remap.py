"""Remap-table building block: bijective page-to-frame state.

Every migration mechanism that moves data without rewriting addresses
needs the same two lookups (paper Sections 4.2 and 5.2):

* **forward** — given a requested (original) page, where does its data
  currently live?  Consulted on every memory access.
* **inverted** — given a fast-memory frame, which original page's data
  occupies it?  Consulted when picking a frame to vacate for an
  incoming hot page.

Both start as the identity (no page has moved) and stay sparse: only
migrated pages occupy dict entries.  The two directions are updated
together by :meth:`RemapTable.swap_frames`, the only mutation, so the
bijection invariant (forward and inverse composing to identity) holds
by construction; :meth:`check_invariants` verifies it for tests.

The subclasses are the paper's remap-table *policies* — the same state
machine priced differently for the Table 1 hardware-cost comparison:
:class:`PageTableRemap` is HMA's OS page table (zero modelled
hardware), :class:`DirectRemap` is the one-entry-per-fast-slot table of
set-restricted mechanisms (THM segments, CAMEO congruence groups), and
MemPod's per-pod tables are plain :class:`RemapTable` instances priced
by :meth:`~repro.core.pod.Pod.storage_bits`.
"""

from __future__ import annotations

from typing import Dict

from ..common.errors import MigrationError


class RemapTable:
    """Bijective page-to-frame mapping, identity by default."""

    def __init__(self) -> None:
        self._forward: Dict[int, int] = {}  # original page -> current frame
        self._resident: Dict[int, int] = {}  # frame -> original page

    def location_of(self, page: int) -> int:
        """Frame currently holding ``page``'s data."""
        return self._forward.get(page, page)

    def resident_of(self, frame: int) -> int:
        """Original page whose data currently sits in ``frame``."""
        return self._resident.get(frame, frame)

    def swap_frames(self, frame_a: int, frame_b: int) -> "tuple[int, int]":
        """Exchange the contents of two frames.

        Returns ``(page_a, page_b)``: the original pages whose data was
        in ``frame_a`` / ``frame_b`` before the swap (the pages a caller
        must block while the copy is in flight).
        """
        if frame_a == frame_b:
            raise MigrationError(f"cannot swap frame {frame_a} with itself")
        page_a = self._resident.get(frame_a, frame_a)
        page_b = self._resident.get(frame_b, frame_b)
        self._set(page_a, frame_b)
        self._set(page_b, frame_a)
        return page_a, page_b

    def _set(self, page: int, frame: int) -> None:
        if page == frame:
            # Back home: drop the entries instead of storing identities,
            # keeping the tables exactly as sparse as the set of moved pages.
            self._forward.pop(page, None)
            self._resident.pop(frame, None)
        else:
            self._forward[page] = frame
            self._resident[frame] = page

    def __len__(self) -> int:
        """Number of non-identity entries."""
        return len(self._forward)

    def check_invariants(self) -> None:
        """Verify the bijection; raises :class:`MigrationError` on damage.

        O(moved pages); used by tests and the simulator's debug mode.
        """
        if len(self._forward) != len(self._resident):
            raise MigrationError(
                f"forward ({len(self._forward)}) and inverted "
                f"({len(self._resident)}) table sizes diverged"
            )
        for page, frame in self._forward.items():
            back = self._resident.get(frame)
            if back != page:
                raise MigrationError(
                    f"page {page} maps to frame {frame}, but frame holds {back}"
                )
            if page == frame:
                raise MigrationError(f"identity entry {page} stored explicitly")

    def storage_bits(self) -> Dict[str, int]:
        """Hardware cost of this table as a storage component.

        The base table does not price itself — mechanisms that use bare
        tables (MemPod's per-pod shards) price them in their own
        component (:meth:`repro.core.pod.Pod.storage_bits`).
        """
        return {"remap_bits": 0, "tracking_bits": 0}


class PageTableRemap(RemapTable):
    """OS-page-table remap policy (HMA): migrations are made visible by
    rewriting page tables at the epoch, so address translation costs no
    modelled hardware — the table here is the *simulated* page table."""


class DirectRemap(RemapTable):
    """Set-restricted remap policy (THM segments, CAMEO groups).

    Hardware is one entry per fast slot recording which of the set's
    ``ways`` members is resident, so the cost is
    ``slots * ceil(log2(ways))`` bits (Table 1).
    """

    def __init__(self, slots: int, ways: int) -> None:
        super().__init__()
        self.slots = slots
        self.ways = ways

    def storage_bits(self) -> Dict[str, int]:
        entry_bits = max(1, self.ways.bit_length())
        return {"remap_bits": self.slots * entry_bits, "tracking_bits": 0}
