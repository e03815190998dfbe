"""Drive ``ChannelController.enqueue_batch`` from request columns.

The controller's batched entry point takes pending-entry tuples
``(arrival, account, bank, row, is_write, kind)`` and page-copy runs
``(pos, entry, count)``.  Many tests build their traffic column-wise;
:func:`enqueue_columns` is the one place that turns those columns into
the entry list and the runs into entry runs.
"""

from repro.dram.request import DEMAND


def enqueue_columns(
    ctrl, banks, rows, is_writes, arrivals,
    accounts=None, kind=DEMAND, kinds=None, runs=None,
):
    """``ctrl.enqueue_batch`` over columns.

    ``accounts=None`` accounts each element from its own arrival and
    ``kinds=None`` gives every element ``kind``.  ``runs`` holds
    ``(pos, bank, row, is_write, arrival, count, kind)`` page-copy runs,
    each accounted from its own arrival.
    """
    entries = [
        (
            arrivals[i],
            arrivals[i] if accounts is None else accounts[i],
            banks[i],
            rows[i],
            is_writes[i],
            kind if kinds is None else kinds[i],
        )
        for i in range(len(arrivals))
    ]
    if runs is not None:
        runs = [
            (pos, (arrival, arrival, bank, row, is_write, r_kind), count)
            for pos, bank, row, is_write, arrival, count, r_kind in runs
        ]
    ctrl.enqueue_batch(entries, runs)


def assert_conserved(ctrl):
    """The controller's derived counters agree with the per-kind ones:
    every service is a read or a write, and the total latency is the sum
    of the three per-kind latencies."""
    stats = ctrl.stats
    assert stats.reads + stats.writes == stats.served
    assert stats.served == (
        stats.demand_count + stats.migration_count + stats.bookkeeping_count
    )
    assert stats.total_latency_ps == (
        stats.demand_latency_ps
        + stats.migration_latency_ps
        + stats.bookkeeping_latency_ps
    )
