"""HMA's victim order: the lazy ``(count, frame)`` order against a heap.

``HmaManager._victim_order`` yields the fast frames coldest first
without building a heap over every frame.  These tests hold it to the
pop order of that heap — ``(resident count, frame, frame)`` over all
fast frames — on random page tables and counts, and hold the epoch's
swap plans to the plans the heap would give, including the two ways the
planning loop stops early: running out of fast frames, and meeting a
resident at least as hot as the candidate.
"""

import heapq

import pytest

from repro.common.rng import DeterministicRng
from repro.geometry import scaled_geometry
from repro.managers import HmaManager
from repro.system.hybrid import HybridMemory

GEOMETRY = scaled_geometry(1024)  # 512 fast frames


def heap_order(manager, counts):
    """The heap's pop sequence, ``(count, frame)`` per pop."""
    heap = []
    for frame in range(manager.geometry.fast_pages):
        resident = manager._resident.get(frame, frame)
        heap.append((counts.get(resident, 0), frame, frame))
    heapq.heapify(heap)
    order = []
    while heap:
        count, _, frame = heapq.heappop(heap)
        order.append((count, frame))
    return order


def heap_plans(manager, counts):
    """The epoch's swap plans as the heap-based planner made them."""
    fast_pages = manager.geometry.fast_pages
    candidates = sorted(
        (
            (count, page)
            for page, count in counts.items()
            if count >= manager.hot_threshold
            and manager._location.get(page, page) >= fast_pages
        ),
        key=lambda pair: (-pair[0], pair[1]),
    )[: manager.max_migrations_per_interval]
    victims = heap_order(manager, counts)
    plans = []
    for count, page in candidates:
        if not victims:
            break
        victim_count, victim_frame = victims.pop(0)
        if victim_count >= count:
            break
        plans.append((victim_frame, manager._location.get(page, page), -1))
    return plans


def random_manager(seed, swaps, **params):
    """An HMA manager whose page table holds ``swaps`` random swaps."""
    rng = DeterministicRng(seed)
    manager = HmaManager(HybridMemory(GEOMETRY), GEOMETRY, **params)
    fast, total = GEOMETRY.fast_pages, GEOMETRY.total_pages
    for _ in range(swaps):
        frame_a = rng.randrange(fast)
        frame_b = fast + rng.randrange(total - fast) if rng.random() < 0.7 else rng.randrange(fast)
        if frame_a != frame_b:
            manager.remap.swap_frames(frame_a, frame_b)
    return manager, rng


def random_counts(rng, pages, top):
    """Counts over ``pages`` random pages, ties and zeros included."""
    return {
        rng.randrange(GEOMETRY.total_pages): rng.randrange(top)
        for _ in range(pages)
    }


class TestVictimOrder:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pages", [0, 40, 700, 3_000])
    def test_matches_heap_pop_order(self, seed, pages):
        manager, rng = random_manager(seed, swaps=300)
        counts = random_counts(rng, pages, top=6)
        assert list(manager._victim_order(counts)) == heap_order(manager, counts)

    def test_every_fast_frame_counted(self):
        # No uncounted frame: the order is the sorted counted frames.
        manager, rng = random_manager(7, swaps=200)
        counts = {
            manager._resident.get(frame, frame): 1 + rng.randrange(4)
            for frame in range(GEOMETRY.fast_pages)
        }
        order = list(manager._victim_order(counts))
        assert order == heap_order(manager, counts)
        assert all(count > 0 for count, _ in order)


class TestEpochPlans:
    def plans(self, manager, counts):
        captured = []
        manager._schedule_swaps = lambda plans, at, spacing: captured.extend(plans)
        manager.tracker._counts.update(counts)
        manager._run_boundary(1_000_000)
        return captured

    @pytest.mark.parametrize("seed", range(4))
    def test_hotter_residents_stop_the_plan(self, seed):
        # Residents as hot as the candidates: planning stops at the
        # first victim at least as hot as its candidate.
        manager, rng = random_manager(
            seed, swaps=100, hot_threshold=2, max_migrations_per_interval=4_096
        )
        counts = random_counts(rng, 600, top=12)
        for frame in range(GEOMETRY.fast_pages):
            counts[manager._resident.get(frame, frame)] = rng.randrange(12)
        expected = heap_plans(manager, counts)
        candidates = sum(
            1 for page, count in counts.items()
            if count >= 2 and manager._location.get(page, page) >= GEOMETRY.fast_pages
        )
        # Neither the candidates nor the fast frames ran out first.
        assert 0 < len(expected) < min(candidates, GEOMETRY.fast_pages)
        assert self.plans(manager, counts) == expected

    def test_running_out_of_fast_frames(self):
        # More hot slow pages than fast frames, every resident colder:
        # planning stops when the victims run out.
        manager, rng = random_manager(
            11, swaps=50, hot_threshold=1, max_migrations_per_interval=4_096
        )
        fast = GEOMETRY.fast_pages
        counts = {}
        for page in range(fast, GEOMETRY.total_pages):
            if manager._location.get(page, page) >= fast:
                counts[page] = 5 + rng.randrange(5)
            if len(counts) == fast + 100:
                break
        expected = heap_plans(manager, counts)
        assert len(expected) == fast  # one plan per fast frame, then none
        assert self.plans(manager, counts) == expected
