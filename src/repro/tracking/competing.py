"""THM-style competing counters.

THM (Sim et al., MICRO 2014) tracks activity with **one counter per
segment**, where a segment groups one fast page with N slow pages.  The
counter "competes": an access to a slow page of the segment increments
it (evidence the resident fast page should be replaced); an access to
the currently fast-resident page decrements it (evidence it should
stay).  When the counter crosses a threshold, the most recently accessed
slow page swaps with the fast-resident one and the counter resets.

The paper notes the scheme's false-positive failure mode — a cold page
that happens to be accessed near the threshold crossing gets migrated —
which this implementation reproduces by nominating the *last accessing*
slow page, exactly as the competing-counter hardware would.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import require_positive_int
from .base import ActivityTracker

try:  # only to accept ndarray batches; the counters themselves are pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


class CompetingCounterArray(ActivityTracker):
    """One up/down counter per segment with threshold-triggered swaps.

    Parameters
    ----------
    segments:
        Segment count (= number of fast pages in THM).
    threshold:
        Counter value that triggers a migration nomination.
    counter_bits:
        Saturating width (paper: 8 bits per fast page -> 512 kB).
    """

    def __init__(self, segments: int, threshold: int = 4, counter_bits: int = 8) -> None:
        require_positive_int("segments", segments)
        require_positive_int("threshold", threshold)
        require_positive_int("counter_bits", counter_bits)
        self.segments = segments
        self.threshold = threshold
        self.counter_bits = counter_bits
        self._max_count = (1 << counter_bits) - 1
        self._counts = [0] * segments
        self._last_challenger: List[Optional[int]] = [None] * segments
        self.triggers = 0

    def access_resident(self, segment: int) -> None:
        """The fast-resident page of ``segment`` was accessed: defend it."""
        if self._counts[segment] > 0:
            self._counts[segment] -= 1

    def access_challenger(self, segment: int, slow_page: int) -> Optional[int]:
        """A slow page of ``segment`` was accessed: attack the resident.

        Returns the page to migrate (the last challenger — THM's
        false-positive mechanism) when the threshold is crossed, else
        ``None``.  The counter resets on a trigger.
        """
        self._last_challenger[segment] = slow_page
        count = self._counts[segment]
        if count < self._max_count:
            count += 1
            self._counts[segment] = count
        if count >= self.threshold:
            self._counts[segment] = 0
            self.triggers += 1
            return slow_page
        return None

    def counter(self, segment: int) -> int:
        """Current counter value of ``segment``."""
        return self._counts[segment]

    def access_batch(self, segments, pages, challenger) -> Optional[int]:
        """Replay a run of accesses; stop *before* the first trigger.

        ``segments``/``pages``/``challenger`` are parallel columns: one
        access per element, attacking (``challenger`` true →
        :meth:`access_challenger`) or defending (false →
        :meth:`access_resident`).  Every access before the first
        threshold crossing is applied — counters and last-challenger
        state end exactly as the scalar calls would leave them — and the
        crossing access itself is **not** applied; its index is
        returned so the caller can replay it through
        :meth:`access_challenger` and handle the migration it demands.
        Returns ``None`` when the whole run is trigger-free.  An ndarray
        ``pages`` column is converted first so stored challengers stay
        plain ints.
        """
        if _np is not None and isinstance(pages, _np.ndarray):
            pages = pages.tolist()
        counts = self._counts
        last = self._last_challenger
        threshold = self.threshold
        max_count = self._max_count
        for i, (segment, page, attacks) in enumerate(zip(segments, pages, challenger)):
            count = counts[segment]
            if attacks:
                if count < max_count:
                    count += 1
                if count >= threshold:
                    return i
                counts[segment] = count
                last[segment] = page
            elif count > 0:
                counts[segment] = count - 1
        return None

    # -- ActivityTracker protocol (segment-granularity view) -------------

    def record(self, page: int) -> None:
        """Protocol adapter: treat ``page`` as a challenger of its segment.

        Online THM drives :meth:`access_resident` /
        :meth:`access_challenger` directly; this adapter exists so the
        offline oracle harness can exercise competing counters too.
        """
        self.access_challenger(page % self.segments, page)

    def hot_pages(self) -> List[int]:
        """Last challenger of every over-threshold-half segment.

        Ranked by counter value, highest first, ties broken by lower
        page — the same deterministic ``(-count, page)`` order the MEA
        and full-counter trackers pin, so downstream consumers see a
        stable nomination order regardless of segment layout.
        """
        nominations = []
        for segment in range(self.segments):
            challenger = self._last_challenger[segment]
            if challenger is not None and self._counts[segment] * 2 >= self.threshold:
                nominations.append((-self._counts[segment], challenger))
        nominations.sort()
        return [challenger for _, challenger in nominations]

    def reset(self) -> None:
        """Zero every counter and forget challengers."""
        self._counts = [0] * self.segments
        self._last_challenger = [None] * self.segments
        self.triggers = 0

    def storage_bits(self) -> int:
        """One counter per segment."""
        return self.segments * self.counter_bits
