"""Offline oracle study of tracker quality (paper Section 3, Figs 1-3).

Replicates the paper's in-house offline simulator: a workload's page
sequence is cut into fixed-size intervals (5,500 requests — the average
serviced in a 50 us window), MEA and Full Counters run side by side, and
oracle knowledge of the *next* interval grades their predictions.

Two studies, exactly as in the paper:

* **Counting accuracy** (Fig. 1): how much of the past interval's true
  top-10 / 11-20 / 21-30 tiers appear anywhere in MEA's table — FC is
  100 % by construction.
* **Prediction accuracy** (Figs. 2-3): MEA nominates up to K pages from
  interval *i*; FC is truncated to the same nomination count (top-m by
  exact count) for a fair comparison; both are graded by hits against
  the true tiers of interval *i+1*.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Sequence

from ..common.config import require_positive_int
from .mea import MeaTracker

# The paper grades the 30 hottest pages in bins of 10.
TIER_SIZE = 10
TIER_COUNT = 3
TIER_LABELS = ("ranks 1-10", "ranks 11-20", "ranks 21-30")

PAPER_INTERVAL_REQUESTS = 5500
PAPER_ORACLE_COUNTERS = 128


@dataclass
class OracleResult:
    """Per-workload outcome of the offline study.

    ``counting_accuracy`` is a fraction in [0, 1] per tier;
    ``mea_future_hits`` / ``fc_future_hits`` are average hit *counts*
    per interval per tier (0-10, matching the paper's y-axes).
    """

    workload: str
    intervals: int
    counting_accuracy: List[float] = field(default_factory=lambda: [0.0] * TIER_COUNT)
    mea_future_hits: List[float] = field(default_factory=lambda: [0.0] * TIER_COUNT)
    fc_future_hits: List[float] = field(default_factory=lambda: [0.0] * TIER_COUNT)
    mea_predictions_avg: float = 0.0


def _tiers(ranked: Sequence[int]) -> List[List[int]]:
    """Cut a ranking into the paper's three 10-page tiers."""
    return [
        list(ranked[t * TIER_SIZE : (t + 1) * TIER_SIZE]) for t in range(TIER_COUNT)
    ]


def _rank_pages(counts: Counter) -> List[int]:
    """Exact ranking, ties broken by page number for determinism."""
    return [p for p, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def run_oracle_study(
    page_sequence: Sequence[int],
    workload: str = "",
    interval_requests: int = PAPER_INTERVAL_REQUESTS,
    mea_counters: int = PAPER_ORACLE_COUNTERS,
    mea_counter_bits: int = 16,
) -> OracleResult:
    """Run the Section 3 study on one workload's page sequence.

    The sequence is truncated to whole intervals; at least two intervals
    are required for the prediction study (the last interval has no
    future and only contributes as an oracle target).
    """
    require_positive_int("interval_requests", interval_requests)
    total_intervals = len(page_sequence) // interval_requests
    result = OracleResult(workload=workload, intervals=total_intervals)
    if total_intervals == 0:
        return result

    mea = MeaTracker(capacity=mea_counters, counter_bits=mea_counter_bits)
    counting_acc = [0.0] * TIER_COUNT
    mea_hits = [0.0] * TIER_COUNT
    fc_hits = [0.0] * TIER_COUNT
    prediction_intervals = 0
    predictions_total = 0

    previous_mea: List[int] = []
    previous_fc: List[int] = []
    have_previous = False

    for interval_idx in range(total_intervals):
        start = interval_idx * interval_requests
        window = page_sequence[start : start + interval_requests]

        true_counts: Counter = Counter(window)
        mea.reset()
        for page in window:
            mea.record(page)

        ranked = _rank_pages(true_counts)
        tiers = _tiers(ranked)

        # -- counting accuracy: does MEA's table contain the true tiers?
        mea_set = set(mea.hot_pages())
        for tier_idx, tier in enumerate(tiers):
            if tier:
                counting_acc[tier_idx] += len(mea_set & set(tier)) / len(tier)

        # -- prediction: grade last interval's nominations against this
        #    interval's true tiers.
        if have_previous:
            prediction_intervals += 1
            prev_mea_set = set(previous_mea)
            prev_fc_set = set(previous_fc)
            for tier_idx, tier in enumerate(tiers):
                tier_set = set(tier)
                mea_hits[tier_idx] += len(prev_mea_set & tier_set)
                fc_hits[tier_idx] += len(prev_fc_set & tier_set)

        # -- nominate for the next interval: MEA returns its table; FC is
        #    truncated to the same count for a like-for-like comparison.
        previous_mea = mea.hot_pages()
        previous_fc = ranked[: len(previous_mea)]
        predictions_total += len(previous_mea)
        have_previous = True

    result.counting_accuracy = [acc / total_intervals for acc in counting_acc]
    if prediction_intervals:
        result.mea_future_hits = [h / prediction_intervals for h in mea_hits]
        result.fc_future_hits = [h / prediction_intervals for h in fc_hits]
    result.mea_predictions_avg = predictions_total / total_intervals
    return result


def average_results(results: Sequence[OracleResult], label: str) -> OracleResult:
    """Arithmetic mean across workloads (the paper's AVG HG/MIX/ALL bars)."""
    if not results:
        return OracleResult(workload=label, intervals=0)
    merged = OracleResult(
        workload=label,
        intervals=round(sum(r.intervals for r in results) / len(results)),
    )
    n = len(results)
    for tier in range(TIER_COUNT):
        merged.counting_accuracy[tier] = sum(r.counting_accuracy[tier] for r in results) / n
        merged.mea_future_hits[tier] = sum(r.mea_future_hits[tier] for r in results) / n
        merged.fc_future_hits[tier] = sum(r.fc_future_hits[tier] for r in results) / n
    merged.mea_predictions_avg = sum(r.mea_predictions_avg for r in results) / n
    return merged
