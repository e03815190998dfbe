"""Seeded migration-churn trace generator.

A ``hot_pages``-page hot set is drawn from slow memory and redrawn every
``period`` records, so migrating mechanisms keep promoting pages they
have just demoted.  Each record touches a random line of a random hot
page, is a write with probability ``write_fraction``, and arrives
``spacing_ps`` after the previous one on core 0.

With ``seed=23`` and ``length=20_000`` the records equal the
``churn_trace`` fixture of ``benchmarks/test_micro_hotpaths.py`` record
for record, so churn numbers stay comparable with the cells measured
there.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.rng import DeterministicRng
from repro.geometry import MemoryGeometry
from repro.trace.record import Trace


def churn_records(
    geometry: MemoryGeometry,
    seed: int,
    length: int,
    hot_pages: int = 32,
    period: int = 1_500,
    write_fraction: float = 0.3,
    spacing_ps: int = 30_000,
) -> List[Tuple[int, int, int, int]]:
    """The churn records for ``seed``: ``(arrival_ps, address, is_write, 0)``."""
    rng = DeterministicRng(seed)
    first_slow = geometry.fast_pages
    slow = geometry.slow_pages
    lines = geometry.lines_per_page
    page_bytes = geometry.page_bytes
    hot: List[int] = []
    records = []
    at = 0
    for i in range(length):
        if i % period == 0:
            hot = [first_slow + rng.randrange(slow) for _ in range(hot_pages)]
        page = hot[rng.randrange(hot_pages)]
        address = page * page_bytes + rng.randrange(lines) * 64
        records.append((at, address, 1 if rng.random() < write_fraction else 0, 0))
        at += spacing_ps
    return records


def churn_trace(geometry: MemoryGeometry, seed: int, length: int) -> Trace:
    """The churn records as a validated in-memory :class:`Trace`."""
    return Trace.from_records(
        "churn", churn_records(geometry, seed, length), geometry.page_bytes
    )
