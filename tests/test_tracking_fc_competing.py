"""Full Counters and competing counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from collections import Counter

from repro.common.errors import ConfigError
from repro.tracking.competing import CompetingCounterArray
from repro.tracking.full_counters import FullCountersTracker


class TestFullCounters:
    def test_exact_counting(self):
        fc = FullCountersTracker(total_pages=100)
        for page in [3, 3, 7, 3, 7, 9]:
            fc.record(page)
        assert fc.counts() == {3: 3, 7: 2, 9: 1}

    def test_ranking(self):
        fc = FullCountersTracker(total_pages=100)
        for page in [3, 3, 7, 3, 7, 9]:
            fc.record(page)
        assert fc.hot_pages() == [3, 7, 9]

    def test_tie_break_by_page_number(self):
        fc = FullCountersTracker(total_pages=100)
        fc.record(9)
        fc.record(4)
        assert fc.hot_pages() == [4, 9]

    def test_counter_saturation(self):
        fc = FullCountersTracker(total_pages=100, counter_bits=2)
        for _ in range(10):
            fc.record(5)
        assert fc.counts()[5] == 3

    def test_reset(self):
        fc = FullCountersTracker(total_pages=100)
        fc.record(1)
        fc.reset()
        assert fc.counts() == {}

    def test_storage_cost_is_linear(self):
        # HMA at paper scale: 4.5M pages x 16 bits = 9 MB.
        fc = FullCountersTracker(total_pages=4_718_592, counter_bits=16)
        assert fc.storage_bits() == 4_718_592 * 16
        assert fc.storage_bits() // 8 // (1024 * 1024) == 9

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=300))
    def test_matches_counter_exactly(self, stream):
        fc = FullCountersTracker(total_pages=31, counter_bits=32)
        for page in stream:
            fc.record(page)
        assert fc.counts() == dict(Counter(stream))


class TestCompetingCounters:
    def test_challenger_triggers_at_threshold(self):
        cc = CompetingCounterArray(segments=4, threshold=3)
        assert cc.access_challenger(0, slow_page=100) is None
        assert cc.access_challenger(0, slow_page=100) is None
        assert cc.access_challenger(0, slow_page=100) == 100

    def test_counter_resets_after_trigger(self):
        cc = CompetingCounterArray(segments=4, threshold=2)
        cc.access_challenger(0, 100)
        cc.access_challenger(0, 100)
        assert cc.counter(0) == 0

    def test_resident_defends(self):
        cc = CompetingCounterArray(segments=4, threshold=3)
        cc.access_challenger(0, 100)
        cc.access_challenger(0, 100)
        cc.access_resident(0)  # decrement
        assert cc.access_challenger(0, 100) is None  # back to 2, no trigger

    def test_resident_decrement_floors_at_zero(self):
        cc = CompetingCounterArray(segments=4, threshold=3)
        cc.access_resident(0)
        assert cc.counter(0) == 0

    def test_false_positive_last_challenger_wins(self):
        # The paper's false-positive mechanism: a cold page touched at
        # the trigger moment gets migrated.
        cc = CompetingCounterArray(segments=4, threshold=3)
        cc.access_challenger(0, 100)
        cc.access_challenger(0, 100)
        assert cc.access_challenger(0, 999) == 999  # cold page, right time

    def test_segments_independent(self):
        cc = CompetingCounterArray(segments=4, threshold=2)
        cc.access_challenger(0, 100)
        assert cc.access_challenger(1, 200) is None
        assert cc.counter(0) == 1
        assert cc.counter(1) == 1

    def test_saturation(self):
        cc = CompetingCounterArray(segments=2, threshold=1000, counter_bits=3)
        for _ in range(50):
            cc.access_challenger(0, 5)
        assert cc.counter(0) == 7

    def test_storage_cost(self):
        # THM at paper scale: 512K segments x 8 bits = 512 kB.
        cc = CompetingCounterArray(segments=512 * 1024, threshold=4, counter_bits=8)
        assert cc.storage_bits() // 8 // 1024 == 512

    def test_reset(self):
        cc = CompetingCounterArray(segments=4, threshold=2)
        cc.access_challenger(0, 100)
        cc.reset()
        assert cc.counter(0) == 0
        assert cc.hot_pages() == []

    def test_rejects_zero_segments(self):
        with pytest.raises(ConfigError):
            CompetingCounterArray(segments=0)
