"""Remap table: bijection invariants, sparsity, swap semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MigrationError
from repro.core.remap import RemapTable


class TestIdentityDefault:
    def test_unmoved_pages_map_to_themselves(self):
        table = RemapTable()
        assert table.location_of(42) == 42
        assert table.resident_of(42) == 42
        assert len(table) == 0


class TestSwaps:
    def test_single_swap(self):
        table = RemapTable()
        page_a, page_b = table.swap_frames(1, 9)
        assert (page_a, page_b) == (1, 9)
        assert table.location_of(1) == 9
        assert table.location_of(9) == 1
        assert table.resident_of(9) == 1
        assert table.resident_of(1) == 9

    def test_swap_back_restores_identity_and_sparsity(self):
        table = RemapTable()
        table.swap_frames(1, 9)
        table.swap_frames(1, 9)
        assert table.location_of(1) == 1
        assert len(table) == 0  # identity entries are not stored

    def test_three_way_rotation(self):
        # Move page 1 to frame 2, then frame 2's original resident on.
        table = RemapTable()
        table.swap_frames(1, 2)  # 1<->2
        table.swap_frames(2, 3)  # frame2 (holding 1)... swap with frame 3
        # frame 2 now holds 3's data, frame 3 holds 1's data.
        assert table.location_of(1) == 3
        assert table.location_of(3) == 2
        assert table.location_of(2) == 1
        table.check_invariants()

    def test_swap_with_self_rejected(self):
        table = RemapTable()
        with pytest.raises(MigrationError):
            table.swap_frames(5, 5)


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=60,
        )
    )
    def test_random_swap_sequences_stay_bijective(self, swaps):
        table = RemapTable()
        locations = {}  # reference model: page -> frame
        for frame_a, frame_b in swaps:
            if frame_a == frame_b:
                continue
            table.swap_frames(frame_a, frame_b)
            inverse = {v: k for k, v in locations.items()}
            page_a = inverse.get(frame_a, frame_a)
            page_b = inverse.get(frame_b, frame_b)
            locations[page_a] = frame_b
            locations[page_b] = frame_a
        table.check_invariants()
        for page in range(31):
            expected = locations.get(page, page)
            assert table.location_of(page) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=40,
        )
    )
    def test_forward_inverse_compose_to_identity(self, swaps):
        table = RemapTable()
        for frame_a, frame_b in swaps:
            if frame_a != frame_b:
                table.swap_frames(frame_a, frame_b)
        for page in range(21):
            assert table.resident_of(table.location_of(page)) == page
