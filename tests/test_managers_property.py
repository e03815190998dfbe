"""Property-based manager tests: remap consistency under random traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import us
from repro.core.mempod import MemPodManager
from repro.geometry import scaled_geometry
from repro.managers import CameoManager, HmaManager, ThmManager
from repro.system.hybrid import HybridMemory

GEOMETRY = scaled_geometry(128)  # tiny machine: page collisions likely

# A random demand request: page (over the full flat space), line, write.
request = st.tuples(
    st.integers(min_value=0, max_value=GEOMETRY.total_pages - 1),
    st.integers(min_value=0, max_value=31),
    st.booleans(),
)


def drive(manager, requests, gap_ps=40_000):
    now = 0
    page_bytes = GEOMETRY.page_bytes
    for page, line, is_write in requests:
        manager.handle(page * page_bytes + line * 64, is_write, now, 0)
        now += gap_ps
    manager.finish()
    return manager


class TestMemPodProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(request, max_size=250))
    def test_remap_bijective_and_intra_pod(self, requests):
        manager = MemPodManager(
            HybridMemory(GEOMETRY), GEOMETRY, interval_ps=us(10)
        )
        drive(manager, requests)
        for pod in manager.pods:
            pod.remap.check_invariants()
            for page in pod.remap._forward:
                assert GEOMETRY.page_pod(page) == pod.pod_id
                assert GEOMETRY.page_pod(pod.remap.location_of(page)) == pod.pod_id

    @settings(max_examples=25, deadline=None)
    @given(st.lists(request, max_size=250))
    def test_every_demand_served(self, requests):
        manager = MemPodManager(
            HybridMemory(GEOMETRY), GEOMETRY, interval_ps=us(10)
        )
        drive(manager, requests)
        from repro.dram.request import DEMAND

        merged = manager.memory.merged_stats()
        assert merged.count_by_kind[DEMAND] == len(requests)


class TestThmProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(request, max_size=250))
    def test_locations_stay_within_segment(self, requests):
        manager = ThmManager(HybridMemory(GEOMETRY), GEOMETRY, threshold=2)
        drive(manager, requests)
        for page, frame in manager._location.items():
            assert manager.segment_of(page) == manager.segment_of(frame)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(request, max_size=250))
    def test_location_maps_consistent(self, requests):
        manager = ThmManager(HybridMemory(GEOMETRY), GEOMETRY, threshold=2)
        drive(manager, requests)
        for page, frame in manager._location.items():
            assert manager._resident[frame] == page
        for frame, page in manager._resident.items():
            assert manager._location[page] == frame


class TestCameoProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(request, max_size=200))
    def test_lines_stay_within_group(self, requests):
        manager = CameoManager(HybridMemory(GEOMETRY), GEOMETRY)
        drive(manager, requests)
        for line, current in manager._location.items():
            assert manager.group_of(line) == manager.group_of(current)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(request, max_size=200))
    def test_fast_slot_holds_exactly_one_group_member(self, requests):
        manager = CameoManager(HybridMemory(GEOMETRY), GEOMETRY)
        drive(manager, requests)
        for frame, line in manager._resident.items():
            if frame < manager.fast_lines:
                assert manager.group_of(line) == frame


class TestHmaProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(request, min_size=50, max_size=250))
    def test_page_table_consistent(self, requests):
        manager = HmaManager(
            HybridMemory(GEOMETRY), GEOMETRY,
            interval_ps=us(100), sort_penalty_ps=0, hot_threshold=2,
        )
        drive(manager, requests)
        for page, frame in manager._location.items():
            assert manager._resident[frame] == page

    @settings(max_examples=15, deadline=None)
    @given(st.lists(request, min_size=50, max_size=250))
    def test_hot_pages_end_up_fast_when_capacity_allows(self, requests):
        manager = HmaManager(
            HybridMemory(GEOMETRY), GEOMETRY,
            interval_ps=us(100), sort_penalty_ps=0, hot_threshold=2,
        )
        drive(manager, requests)
        # Everything HMA chose to migrate in must sit in fast memory.
        migrated_in = [
            page for page, frame in manager._location.items()
            if page >= GEOMETRY.fast_pages and frame < GEOMETRY.fast_pages
        ]
        assert len(migrated_in) <= GEOMETRY.fast_pages
