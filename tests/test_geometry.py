"""Machine geometry: derived counts, pod partition, slot round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AddressError, ConfigError
from repro.common.units import gib, mib
from repro.geometry import MemoryGeometry, paper_geometry, scaled_geometry


class TestPaperGeometry:
    def test_capacities(self):
        g = paper_geometry()
        assert g.fast_bytes == gib(1)
        assert g.slow_bytes == gib(8)

    def test_page_counts(self):
        g = paper_geometry()
        assert g.fast_pages == 512 * 1024  # 1 GiB / 2 KiB
        assert g.slow_pages == 4 * 1024 * 1024

    def test_pages_per_pod_matches_paper(self):
        # The paper: 21 bits address the ~1.1M pages per pod.
        g = paper_geometry()
        assert g.pages_per_pod == (512 * 1024 + 4 * 1024 * 1024) // 4
        assert (g.pages_per_pod - 1).bit_length() == 21

    def test_pages_per_row(self):
        assert paper_geometry().pages_per_row == 4

    def test_lines_per_page(self):
        assert paper_geometry().lines_per_page == 32


class TestScaledGeometry:
    def test_preserves_ratio(self):
        g = scaled_geometry(32)
        assert g.slow_bytes == 8 * g.fast_bytes

    def test_capacity_divided(self):
        assert scaled_geometry(32).fast_bytes == mib(32)

    def test_channels_not_scaled(self):
        g = scaled_geometry(32)
        assert g.fast_channels == 8
        assert g.slow_channels == 4

    def test_rejects_non_power_of_two_scale(self):
        with pytest.raises(ConfigError):
            scaled_geometry(3)


class TestPodPartition:
    def test_fast_channels_split_evenly(self):
        g = scaled_geometry(32)
        assert g.fast_channels_per_pod == 2
        assert g.slow_channels_per_pod == 1

    def test_fast_page_pod_follows_channels(self):
        g = scaled_geometry(32)
        # Pages 0..3 share row 0 -> channel 0 -> pod 0.
        assert g.page_pod(0) == 0
        assert g.page_pod(3) == 0
        # Row 1 -> channel 1 -> still pod 0; row 2 -> channel 2 -> pod 1.
        assert g.page_pod(4) == 0
        assert g.page_pod(8) == 1

    def test_slow_page_pod(self):
        g = scaled_geometry(32)
        first_slow = g.fast_pages
        assert g.page_pod(first_slow) == 0
        # Slow row 1 -> slow channel 1 -> pod 1.
        assert g.page_pod(first_slow + g.pages_per_row) == 1

    def test_page_pod_bounds(self):
        g = scaled_geometry(32)
        with pytest.raises(AddressError):
            g.page_pod(g.total_pages)
        with pytest.raises(AddressError):
            g.page_pod(-1)

    def test_pod_ownership_counts_balanced(self):
        g = scaled_geometry(64)
        fast_counts = [0] * g.pods
        for page in range(g.fast_pages):
            fast_counts[g.fast_page_pod(page)] += 1
        assert fast_counts == [g.fast_pages_per_pod] * g.pods


class TestSlotRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=scaled_geometry(32).fast_pages - 1))
    def test_fast_slot_roundtrip(self, index):
        g = scaled_geometry(32)
        pod, slot = divmod(index, g.fast_pages_per_pod)
        page = g.pod_fast_slot_to_page(pod, slot)
        assert 0 <= page < g.fast_pages
        assert g.fast_page_pod(page) == pod

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=scaled_geometry(32).slow_pages - 1))
    def test_slow_slot_roundtrip(self, index):
        g = scaled_geometry(32)
        pod, slot = divmod(index, g.slow_pages_per_pod)
        page = g.pod_slow_slot_to_page(pod, slot)
        assert g.fast_pages <= page < g.total_pages
        assert g.slow_page_pod(page) == pod

    def test_fast_slots_enumerate_disjointly(self):
        g = scaled_geometry(64)
        seen = set()
        for pod in range(g.pods):
            for slot in range(g.fast_pages_per_pod):
                page = g.pod_fast_slot_to_page(pod, slot)
                assert page not in seen
                seen.add(page)
        assert len(seen) == g.fast_pages

    def test_slot_bounds_checked(self):
        g = scaled_geometry(32)
        with pytest.raises(AddressError):
            g.pod_fast_slot_to_page(0, g.fast_pages_per_pod)
        with pytest.raises(AddressError):
            g.pod_fast_slot_to_page(g.pods, 0)
        with pytest.raises(AddressError):
            g.pod_slow_slot_to_page(0, g.slow_pages_per_pod)


class TestValidation:
    def test_row_smaller_than_page_rejected(self):
        with pytest.raises(ConfigError):
            MemoryGeometry(
                fast_bytes=mib(32),
                slow_bytes=mib(256),
                fast_channels=8,
                slow_channels=4,
                banks=16,
                ranks=1,
                pods=4,
                page_bytes=8192,
                row_bytes=2048,
            )

    def test_channels_must_divide_by_pods(self):
        with pytest.raises(ConfigError):
            MemoryGeometry(
                fast_bytes=mib(32),
                slow_bytes=mib(256),
                fast_channels=8,
                slow_channels=4,
                banks=16,
                ranks=1,
                pods=3,
            )
