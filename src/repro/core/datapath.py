"""The migration datapath: page and line swaps as DRAM traffic.

The paper models migration cost explicitly (Section 6.2): moving one
2 KB page requires 32 read transactions per source and 32 write
transactions per destination — a swap is 64 reads + 64 writes.  The
:class:`MigrationEngine` turns swap decisions into ``MIGRATION``-kind
transactions on the hybrid memory and keeps the traffic statistics the
paper reports (GB moved per experiment, per-pod split).

Swap pipelining
---------------
A hardware migration driver is a simple DMA pipeline: it reads both
pages into buffers, then writes them back crossed.  We model each
phase's duration analytically from the device timings (activate +
column access + 32 serialized bursts on the slower of the two channels)
and *stagger* the transactions accordingly: reads enter the controllers
at the swap's start, writes one read-phase later, and the swap
completes one write-phase after that.  Consecutive swaps issued by one
driver chain start-to-completion.

Staggering matters: issuing a whole interval's swap traffic at the
boundary instant would charge every transaction the queueing delay of
the entire burst and starve interleaved demand — a convoy no real
memory controller exhibits.  The analytic phase cost deliberately
ignores demand contention (it is a lower bound); the *contention* cost
is still fully modelled, because every migration transaction occupies
real bank and bus slots that demand requests then wait for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

from ..dram.request import MIGRATION
from ..geometry import MemoryGeometry

if TYPE_CHECKING:  # import only for annotations; avoids a package cycle
    from ..dram.controller import ChannelController
    from ..system.hybrid import HybridMemory

LINE_BYTES = 64


@dataclass
class MigrationStats:
    """Traffic accounting for one manager's migration datapath."""

    page_swaps: int = 0
    line_swaps: int = 0
    bytes_moved: int = 0
    swaps_by_pod: Dict[int, int] = field(default_factory=dict)

    def note_swap(self, bytes_moved: int, pod: int = -1, is_line: bool = False) -> None:
        """Record one completed swap."""
        if is_line:
            self.line_swaps += 1
        else:
            self.page_swaps += 1
        self.bytes_moved += bytes_moved
        if pod >= 0:
            self.swaps_by_pod[pod] = self.swaps_by_pod.get(pod, 0) + 1


class MigrationEngine:
    """Issues swap traffic against a :class:`HybridMemory`."""

    def __init__(self, memory: "HybridMemory", geometry: MemoryGeometry) -> None:
        self.memory = memory
        self.geometry = geometry
        self.stats = MigrationStats()
        #: When set, :meth:`swap_pages` hands its transaction pattern to
        #: this callable instead of the controllers::
        #:
        #:     sink(ctrl_a, bank_a, row_a, ctrl_b, bank_b, row_b,
        #:          at_ps, write_ps, lines)
        #:
        #: The per-record replay kernels install one for the whole
        #: replay (restored in their ``finally``) that *merges* the
        #: swap's per-controller runs into their buffered demand entries
        #: (see ``repro.kernel.replay._swap_merged_buffers``), so every
        #: swap they issue — inline, at an interval boundary or at the
        #: end of the trace — reaches the controllers through the
        #: batched path.  The sink owner replays the pattern in
        #: reference per-controller enqueue order and flushes its
        #: buffers before any code that services controllers directly.
        #: Unset, the per-transaction loop below is the semantic spec.
        self.swap_sink = None
        lines = geometry.lines_per_page
        # Phase costs are sized for the migrating pair — tiers 0 and 1
        # (the only migrating devices on single-pair systems; tiers
        # beyond the second are served in place).
        migrating = memory.tiers[:2]
        self._page_phase_ps = max(
            self._phase_cost(device.timing, lines) for device in migrating
        )
        self._line_phase_ps = max(
            self._phase_cost(device.timing, 1) for device in migrating
        )

    @staticmethod
    def _phase_cost(timing, lines: int) -> int:
        """Time to move one page-side in one direction: activate + column
        access + ``lines`` serialized bursts."""
        return timing.trcd_ps + timing.tcas_ps + lines * timing.burst_ps(LINE_BYTES)

    def _locate(self, address: int) -> "Tuple[ChannelController, int, int]":
        """Resolve a flat address to ``(controller, bank, row)``.

        A migration page is smaller than the row buffer and page-aligned,
        so every line of the page shares one (channel, bank, row) — the
        swap loops decode once per page side instead of once per line.
        """
        _, device, offset = self.memory.locate(address)
        channel, bank, row = device.mapper.fast_decode(offset)
        return device.controllers[channel], bank, row

    @property
    def page_swap_cost_ps(self) -> int:
        """Pipelined duration of one full page swap (read + write phase)."""
        return 2 * self._page_phase_ps

    @property
    def line_swap_cost_ps(self) -> int:
        """Pipelined duration of one 64 B line swap."""
        return 2 * self._line_phase_ps

    def swap_pages(self, frame_a: int, frame_b: int, at_ps: int, pod: int = -1) -> int:
        """Swap the *contents* of page frames ``frame_a`` and ``frame_b``.

        Issues the paper's 64-read / 64-write transaction pattern
        starting at ``at_ps`` (writes staggered one read-phase later)
        and returns the swap's completion time.  Callers must block
        demand accesses to the two affected pages until then.
        """
        geometry = self.geometry
        lines = geometry.lines_per_page
        page_bytes = geometry.page_bytes
        ctrl_a, bank_a, row_a = self._locate(frame_a * page_bytes)
        ctrl_b, bank_b, row_b = self._locate(frame_b * page_bytes)
        write_ps = at_ps + self._page_phase_ps
        if self.swap_sink is not None:
            self.swap_sink(
                ctrl_a, bank_a, row_a, ctrl_b, bank_b, row_b,
                at_ps, write_ps, lines,
            )
        else:
            enqueue_a = ctrl_a.enqueue
            enqueue_b = ctrl_b.enqueue
            # Reads of both candidates into the migration buffers...
            for _ in range(lines):
                enqueue_a(bank_a, row_a, False, at_ps, MIGRATION)
                enqueue_b(bank_b, row_b, False, at_ps, MIGRATION)
            # ...then the two write-backs to the swapped locations.
            for _ in range(lines):
                enqueue_a(bank_a, row_a, True, write_ps, MIGRATION)
                enqueue_b(bank_b, row_b, True, write_ps, MIGRATION)
        self.stats.note_swap(2 * page_bytes, pod=pod)
        return at_ps + self.page_swap_cost_ps

    def swap_lines(self, address_a: int, address_b: int, at_ps: int) -> int:
        """Swap two 64 B lines (CAMEO's migration unit).

        Two reads plus two writes; returns the completion time.  CAMEO's
        fast kernel (``repro.kernel.replay._replay_cameo``) issues the
        same pattern inline into its buffered controller columns, so a
        change here must be mirrored there.
        """
        ctrl_a, bank_a, row_a = self._locate(address_a)
        ctrl_b, bank_b, row_b = self._locate(address_b)
        write_ps = at_ps + self._line_phase_ps
        ctrl_a.enqueue(bank_a, row_a, False, at_ps, MIGRATION)
        ctrl_b.enqueue(bank_b, row_b, False, at_ps, MIGRATION)
        ctrl_a.enqueue(bank_a, row_a, True, write_ps, MIGRATION)
        ctrl_b.enqueue(bank_b, row_b, True, write_ps, MIGRATION)
        self.stats.note_swap(2 * LINE_BYTES, is_line=True)
        return at_ps + self.line_swap_cost_ps
