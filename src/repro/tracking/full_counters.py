"""Full-Counters tracker: one access counter per memory page.

This is the HMA-style scheme the paper compares MEA against: perfect
*counting* (every access is tallied) at linear storage cost, followed by
an expensive sort to extract the ranking.  Its prediction weakness —
counting perfectly over the *past* says little about the *future* under
streaming or phase churn — is exactly what Figures 2 and 3 demonstrate.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from ..common.config import require_positive_int
from .base import ActivityTracker

try:  # only to accept ndarray batches; the tracker itself is pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


class FullCountersTracker(ActivityTracker):
    """Exact per-page access counting over one interval.

    Parameters
    ----------
    total_pages:
        Number of pages the hardware would dedicate a counter to
        (storage-cost denominator; the Python dict only materialises
        touched pages).
    counter_bits:
        Hardware counter width (paper's HMA uses 16 bits/page -> 9 MB).
    """

    def __init__(self, total_pages: int, counter_bits: int = 16) -> None:
        require_positive_int("total_pages", total_pages)
        require_positive_int("counter_bits", counter_bits)
        self.total_pages = total_pages
        self.counter_bits = counter_bits
        self._max_count = (1 << counter_bits) - 1
        self._counts: Counter = Counter()

    def record(self, page: int) -> None:
        if self._counts[page] < self._max_count:
            self._counts[page] += 1

    def record_batch(self, pages: Sequence[int]) -> None:
        """Replay :meth:`record` over every page of ``pages``, in order.

        Saturating increments commute, so the batch tallies through a
        local :class:`~collections.Counter` first: each touched page
        ends at ``min(max, current + occurrences)`` — identical to the
        per-record loop's final state.  An ndarray batch is converted
        first so table keys stay plain ints.
        """
        if _np is not None and isinstance(pages, _np.ndarray):
            pages = pages.tolist()
        counts = self._counts
        max_count = self._max_count
        for page, occurrences in Counter(pages).items():
            current = counts[page]
            if current < max_count:
                total = current + occurrences
                counts[page] = total if total < max_count else max_count

    def hot_pages(self) -> List[int]:
        """All touched pages ranked by count (ties: lower page first)."""
        return [
            page
            for page, _ in sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def top_pages(self, n: int) -> List[int]:
        """The ``n`` most-accessed pages of the interval."""
        return self.hot_pages()[:n]

    def counts(self) -> Dict[int, int]:
        """Snapshot of page -> exact count (copy; analysis support)."""
        return dict(self._counts)

    def pages_touched(self) -> int:
        """Distinct pages accessed this interval."""
        return len(self._counts)

    def reset(self) -> None:
        """Zero every counter (interval boundary)."""
        self._counts.clear()

    def storage_bits(self) -> int:
        """One counter per page: ``total_pages x counter_bits``."""
        return self.total_pages * self.counter_bits
