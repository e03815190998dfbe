"""Bank row-buffer state machine.

Each :class:`Bank` tracks the currently open row, when it was activated
(to honour ``tRAS`` before a conflicting precharge), and when the bank
is next free.  The three classic row-buffer outcomes are modelled:

* **hit** — requested row is open: pay ``tCAS``.
* **closed** — no row open (first touch): pay ``tRCD + tCAS``.
* **conflict** — a different row is open: wait out ``tRAS`` if needed,
  then pay ``tRP + tRCD + tCAS``.

The bank never consults wall-clock state outside what the controller
passes in, which keeps it unit-testable in isolation.

:meth:`Bank.access` is inlined by the controller's columnar datapath
(``ChannelController.enqueue_batch``), so an edit here must be mirrored
there: ``tests/test_dram_controller_batch.py`` and the kernel
differential suites hold the two paths bit-identical.
"""

from __future__ import annotations

from .timing import DramTiming

# Row-buffer outcomes (ints: hot path).
ROW_HIT = 0
ROW_CLOSED = 1
ROW_CONFLICT = 2

OUTCOME_NAMES = {ROW_HIT: "hit", ROW_CLOSED: "closed", ROW_CONFLICT: "conflict"}


class Bank:
    """One DRAM bank: open-row register plus availability bookkeeping."""

    __slots__ = ("open_row", "busy_until_ps", "activated_ps")

    def __init__(self) -> None:
        self.open_row: int = -1  # -1 means precharged / no open row
        self.busy_until_ps: int = 0
        self.activated_ps: int = 0

    def access(self, row: int, at_ps: int, timing: DramTiming, burst_ps: int) -> "tuple[int, int]":
        """Perform a column access to ``row`` no earlier than ``at_ps``.

        Returns ``(data_ready_ps, outcome)`` where ``data_ready_ps`` is
        when the column data is available on the bank's internal bus
        (the controller then schedules the channel burst) and
        ``outcome`` is one of :data:`ROW_HIT`, :data:`ROW_CLOSED`,
        :data:`ROW_CONFLICT`.

        Column commands *pipeline*: the bank can accept its next CAS
        one burst time (~tCCD) after the previous one issued, not after
        the previous data finished transferring — so back-to-back row
        hits stream at full bus rate.  ``busy_until_ps`` therefore
        advances to ``cas_issue + burst_ps``, while ``data_ready_ps``
        still reflects the full access latency.
        """
        start = at_ps if at_ps > self.busy_until_ps else self.busy_until_ps
        if self.open_row == row:
            outcome = ROW_HIT
            cas_issue = start
        elif self.open_row == -1:
            outcome = ROW_CLOSED
            self.activated_ps = start
            self.open_row = row
            cas_issue = start + timing.trcd_ps
        else:
            outcome = ROW_CONFLICT
            # A precharge may not begin before the open row has been
            # active for tRAS.
            earliest_pre = self.activated_ps + timing.tras_ps
            pre_start = start if start > earliest_pre else earliest_pre
            act_start = pre_start + timing.trp_ps
            self.activated_ps = act_start
            self.open_row = row
            cas_issue = act_start + timing.trcd_ps
        ready = cas_issue + timing.tcas_ps
        self.busy_until_ps = cas_issue + burst_ps
        return ready, outcome
