"""Trace characterisation utilities.

Answers the questions a memory-systems person asks before trusting a
workload: how big is the footprint, how skewed is the traffic, how much
reuse is there, how fast does the hot set move between intervals?  The
experiment harness uses these to sanity-check that each synthetic
benchmark exercises the behaviour class it stands in for, and users
tuning custom profiles (see ``examples/custom_workload.py``) get the
same lens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

from ..common.config import require_fraction, require_positive_int
from .record import Trace


@dataclass
class TraceProfile:
    """Aggregate characterisation of one trace."""

    name: str
    requests: int
    distinct_pages: int
    write_fraction: float
    duration_us: float
    requests_per_us: float
    # Traffic concentration: smallest fraction of pages absorbing half
    # (and 90 %) of all accesses.  Small values = skewed (cache-friendly).
    pages_for_half_traffic: float
    pages_for_90pct_traffic: float
    # Mean accesses per distinct page (reuse; 1.0 = pure streaming).
    reuse_factor: float
    # Interval dynamics (see interval_churn): mean fraction of each
    # interval's top pages that were NOT top in the previous interval.
    hot_set_churn: float


def concentration(counts: Counter, fraction: float) -> float:
    """Smallest share of pages absorbing ``fraction`` of all accesses.

    Returns a value in (0, 1]; 0.01 means 1 % of touched pages soak up
    the requested share of traffic.
    """
    require_fraction("fraction", fraction)
    if not counts:
        return 0.0
    total = sum(counts.values())
    target = total * fraction
    acc = 0
    for idx, (_, count) in enumerate(counts.most_common()):
        acc += count
        if acc >= target:
            return (idx + 1) / len(counts)
    return 1.0


def interval_churn(
    page_sequence: Sequence[int],
    interval_requests: int = 5500,
    top_n: int = 30,
) -> float:
    """Mean fraction of an interval's top pages absent from the previous top.

    0.0 means a frozen ranking (the cactus regime); 1.0 means complete
    turnover every interval (the streaming regime).  This is the single
    number that best predicts whether MEA out-predicts Full Counters.
    """
    require_positive_int("interval_requests", interval_requests)
    require_positive_int("top_n", top_n)
    intervals = len(page_sequence) // interval_requests
    if intervals < 2:
        return 0.0
    previous: set = set()
    churn_total = 0.0
    samples = 0
    for idx in range(intervals):
        window = page_sequence[idx * interval_requests : (idx + 1) * interval_requests]
        counts = Counter(window)
        top = {page for page, _ in counts.most_common(top_n)}
        if idx > 0 and top:
            churn_total += len(top - previous) / len(top)
            samples += 1
        previous = top
    return churn_total / samples if samples else 0.0


def profile_trace(trace: Trace, interval_requests: int = 5500) -> TraceProfile:
    """Characterise ``trace`` (see :class:`TraceProfile`)."""
    sequence = trace.page_sequence()
    counts = Counter(sequence)
    duration_us = trace.duration_ps / 1e6 if trace.duration_ps else 0.0
    return TraceProfile(
        name=trace.name,
        requests=len(trace),
        distinct_pages=len(counts),
        write_fraction=trace.write_fraction,
        duration_us=duration_us,
        requests_per_us=(len(trace) / duration_us) if duration_us else 0.0,
        pages_for_half_traffic=concentration(counts, 0.5),
        pages_for_90pct_traffic=concentration(counts, 0.9),
        reuse_factor=(len(sequence) / len(counts)) if counts else 0.0,
        hot_set_churn=interval_churn(sequence, interval_requests),
    )


def compare_profiles(profiles: List[TraceProfile]) -> str:
    """Aligned table over several profiles (CLI/report output)."""
    headers = [
        "workload", "requests", "pages", "writes",
        "half-traffic", "reuse", "churn",
    ]
    widths = [max(10, len(h)) for h in headers]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for p in profiles:
        row = [
            p.name,
            f"{p.requests:,}",
            f"{p.distinct_pages:,}",
            f"{p.write_fraction:.0%}",
            f"{p.pages_for_half_traffic:.1%}",
            f"{p.reuse_factor:.1f}x",
            f"{p.hot_set_churn:.0%}",
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
