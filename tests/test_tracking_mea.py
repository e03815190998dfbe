"""MEA tracker: Algorithm 1 semantics, saturation, the MG guarantee."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.tracking.mea import MeaTracker


class TestAlgorithmSemantics:
    def test_tracked_page_increments(self):
        mea = MeaTracker(capacity=4, counter_bits=8)
        mea.record(7)
        mea.record(7)
        assert mea.counters()[7] == 2

    def test_new_page_inserts_with_one(self):
        mea = MeaTracker(capacity=4, counter_bits=8)
        mea.record(7)
        assert mea.counters() == {7: 1}

    def test_full_table_decrements_all(self):
        mea = MeaTracker(capacity=2, counter_bits=8)
        mea.record(1)
        mea.record(1)
        mea.record(2)
        mea.record(3)  # table full: decrement everyone, drop zeros
        assert mea.counters() == {1: 1}
        assert 3 not in mea  # the arriving page is NOT inserted

    def test_decrement_evicts_zeroed_entries(self):
        mea = MeaTracker(capacity=2, counter_bits=8)
        mea.record(1)
        mea.record(2)
        mea.record(3)
        assert len(mea) == 0  # both were at 1, both evicted
        mea.record(3)  # now there is room again
        assert 3 in mea

    def test_event_counters(self):
        mea = MeaTracker(capacity=2, counter_bits=8)
        mea.record(1)  # insert
        mea.record(1)  # increment
        mea.record(2)  # insert
        mea.record(3)  # decrement round: page 2 (count 1) is evicted
        assert mea.insertions == 2
        assert mea.increments == 1
        assert mea.decrement_rounds == 1
        assert mea.evictions == 1


class TestSaturation:
    def test_counter_saturates_at_width(self):
        mea = MeaTracker(capacity=2, counter_bits=2)
        for _ in range(50):
            mea.record(9)
        assert mea.counters()[9] == 3  # 2-bit maximum

    def test_saturated_entry_dies_in_few_decrements(self):
        # The recency property: a long-hot page can be displaced after
        # at most 2^bits decrement rounds once it goes cold.
        mea = MeaTracker(capacity=2, counter_bits=2)
        for _ in range(100):
            mea.record(9)
        # Fresh pages alternate insert (when a slot is free) and
        # decrement rounds (when the table is full); three rounds of
        # decrements clear the 2-bit saturated counter.
        for fresh in range(100, 106):
            mea.record(fresh)
        assert 9 not in mea


class TestHotPages:
    def test_sorted_by_count_desc(self):
        mea = MeaTracker(capacity=4, counter_bits=8)
        for page, times in [(1, 3), (2, 5), (3, 1)]:
            for _ in range(times):
                mea.record(page)
        assert mea.hot_pages() == [2, 1, 3]

    def test_ties_broken_by_page_number(self):
        mea = MeaTracker(capacity=4, counter_bits=8)
        mea.record(9)
        mea.record(4)
        assert mea.hot_pages() == [4, 9]

    def test_min_count_filters(self):
        mea = MeaTracker(capacity=4, counter_bits=8, min_count=2)
        mea.record(1)
        mea.record(1)
        mea.record(2)
        assert mea.hot_pages() == [1]

    def test_reset_clears(self):
        mea = MeaTracker(capacity=4)
        mea.record(1)
        mea.reset()
        assert len(mea) == 0
        assert mea.hot_pages() == []


class TestStorage:
    def test_paper_cost_736_bytes(self):
        # 4 pods x 64 entries x (21 tag + 2 counter) bits = 736 B total.
        per_pod = MeaTracker(capacity=64, counter_bits=2, tag_bits=21)
        assert per_pod.storage_bits() == 64 * 23
        assert 4 * per_pod.storage_bits() == 736 * 8

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            MeaTracker(capacity=0)


class TestMajorityGuarantee:
    """Misra-Gries: any element with frequency > N/(K+1) survives."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=30, max_size=300),
        st.integers(min_value=2, max_value=8),
    )
    def test_heavy_hitters_always_tracked(self, stream, k):
        mea = MeaTracker(capacity=k, counter_bits=32)
        for page in stream:
            mea.record(page)
        counts = Counter(stream)
        threshold = len(stream) / (k + 1)
        for page, count in counts.items():
            if count > threshold:
                assert page in mea, (
                    f"page {page} occurs {count}/{len(stream)} times "
                    f"(> N/(K+1) = {threshold:.1f}) but was evicted"
                )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
    def test_table_never_exceeds_capacity(self, stream):
        mea = MeaTracker(capacity=5, counter_bits=4)
        for page in stream:
            mea.record(page)
            assert len(mea) <= 5

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=200))
    def test_counters_bounded_by_true_counts(self, stream):
        # An MEA counter never exceeds the element's true occurrence count.
        mea = MeaTracker(capacity=5, counter_bits=32)
        for page in stream:
            mea.record(page)
        true_counts = Counter(stream)
        for page, counter in mea.counters().items():
            assert counter <= true_counts[page]
