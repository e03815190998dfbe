"""Trace characterisation: concentration, churn, reuse, profiles."""

from collections import Counter

import pytest

from repro.geometry import scaled_geometry
from repro.trace import build_trace, get_workload
from repro.trace.analysis import (
    compare_profiles,
    concentration,
    interval_churn,
    profile_trace,
)
from repro.trace.record import Trace


class TestConcentration:
    def test_uniform_counts(self):
        counts = Counter({i: 10 for i in range(100)})
        assert concentration(counts, 0.5) == pytest.approx(0.5)

    def test_single_dominant_page(self):
        counts = Counter({0: 1000})
        counts.update({i: 1 for i in range(1, 100)})
        assert concentration(counts, 0.5) == pytest.approx(0.01)

    def test_empty(self):
        assert concentration(Counter(), 0.5) == 0.0

    def test_full_fraction(self):
        counts = Counter({1: 5, 2: 5})
        assert concentration(counts, 1.0) == 1.0


class TestChurn:
    def test_frozen_ranking_zero_churn(self):
        sequence = list(range(20)) * 100  # identical every interval
        assert interval_churn(sequence, interval_requests=200, top_n=10) == 0.0

    def test_stream_full_churn(self):
        sequence = list(range(4000))
        assert interval_churn(sequence, interval_requests=500, top_n=10) == 1.0

    def test_single_interval_undefined(self):
        assert interval_churn([1, 2, 3], interval_requests=100) == 0.0

    def test_partial_churn_between_extremes(self):
        # Half the top pages survive between intervals.
        a = [i for i in range(20) for _ in range(10)]
        b = [i for i in range(10, 30) for _ in range(10)]
        churn = interval_churn(a + b, interval_requests=200, top_n=20)
        assert 0.3 < churn < 0.7


class TestProfile:
    @pytest.fixture(scope="class")
    def geometry(self):
        return scaled_geometry(64)

    def test_stream_vs_hot_set_signatures(self, geometry):
        stream = profile_trace(
            build_trace(get_workload("bwaves"), geometry, length=30_000, seed=3).trace
        )
        hot = profile_trace(
            build_trace(get_workload("xalanc"), geometry, length=30_000, seed=3).trace
        )
        # The stream churns its hot set completely; xalanc does not.
        assert stream.hot_set_churn > 0.9
        assert hot.hot_set_churn < stream.hot_set_churn
        # xalanc concentrates traffic far more than the stream.
        assert hot.pages_for_half_traffic < stream.pages_for_half_traffic

    def test_stable_workload_low_churn(self, geometry):
        cactus = profile_trace(
            build_trace(get_workload("cactus"), geometry, length=30_000, seed=3).trace
        )
        assert cactus.hot_set_churn < 0.35

    def test_profile_fields_consistent(self, geometry):
        trace = build_trace(get_workload("mix4"), geometry, length=10_000, seed=3).trace
        profile = profile_trace(trace)
        assert profile.requests == 10_000
        assert profile.distinct_pages == len(trace.pages_touched())
        assert profile.reuse_factor == pytest.approx(
            profile.requests / profile.distinct_pages
        )

    def test_compare_renders_all_rows(self, geometry):
        profiles = [
            profile_trace(
                build_trace(get_workload(n), geometry, length=5_000, seed=3).trace
            )
            for n in ("lbm", "gems")
        ]
        table = compare_profiles(profiles)
        assert "lbm" in table and "gems" in table

    def test_empty_trace(self):
        profile = profile_trace(Trace(name="empty", records=[]))
        assert profile.requests == 0
        assert profile.reuse_factor == 0.0
