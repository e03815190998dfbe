"""Activity-tracker protocol.

An activity tracker observes the stream of page numbers touching one
memory partition and, at interval boundaries, nominates pages it
believes will be hot in the *next* interval.  Both the online managers
(:mod:`repro.core`, :mod:`repro.managers`) and the offline oracle study
(:mod:`repro.tracking.oracle`) drive trackers through this interface,
so the Section 3 comparison and the Section 6 timing results exercise
the same code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List


class ActivityTracker(ABC):
    """Observes page accesses; nominates hot pages at interval ends."""

    @abstractmethod
    def record(self, page: int) -> None:
        """Observe one access to ``page``."""

    @abstractmethod
    def hot_pages(self) -> List[int]:
        """Current hot-page nominations, hottest first.

        Does not mutate state; call :meth:`reset` to start a new
        interval.
        """

    @abstractmethod
    def reset(self) -> None:
        """Clear per-interval state (called at each interval boundary)."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Hardware cost of the tracking state, in bits.

        Used by the Table 1 cost comparison; counts tags and counters,
        not control logic.
        """
