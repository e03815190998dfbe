"""Offline oracle study (Section 3 harness)."""

import pytest

from repro.tracking.oracle import (
    OracleResult,
    average_results,
    run_oracle_study,
)


class TestBasics:
    def test_empty_sequence(self):
        result = run_oracle_study([], workload="empty")
        assert result.intervals == 0
        assert result.counting_accuracy == [0.0, 0.0, 0.0]

    def test_single_interval_no_prediction(self):
        result = run_oracle_study([1, 2, 3] * 40, interval_requests=120)
        assert result.intervals == 1
        # No future interval to grade against.
        assert result.mea_future_hits == [0.0, 0.0, 0.0]

    def test_truncates_partial_interval(self):
        result = run_oracle_study([1] * 250, interval_requests=100)
        assert result.intervals == 2


class TestPerfectlyStableWorkload:
    def test_stable_hot_pages_predicted_by_both(self):
        # Ten pages each accessed 10x per interval, plus cold noise:
        # both schemes should nail tier 1 every interval.
        interval = []
        for page in range(10):
            interval += [page] * 10
        interval += list(range(100, 120))  # 20 cold singletons
        sequence = interval * 6
        result = run_oracle_study(
            sequence, interval_requests=len(interval), mea_counters=64
        )
        assert result.mea_future_hits[0] == pytest.approx(10.0)
        assert result.fc_future_hits[0] == pytest.approx(10.0)
        assert result.counting_accuracy[0] == pytest.approx(1.0)

    def test_pure_stream_fc_scores_zero(self):
        # A monotone stream never repeats pages across intervals.
        sequence = list(range(5000))
        result = run_oracle_study(sequence, interval_requests=500)
        assert result.fc_future_hits == [0.0, 0.0, 0.0]

    def test_counting_accuracy_bounded(self):
        sequence = [i % 50 for i in range(2000)]
        result = run_oracle_study(sequence, interval_requests=400)
        for value in result.counting_accuracy:
            assert 0.0 <= value <= 1.0

    def test_future_hits_bounded_by_tier_size(self):
        sequence = [i % 50 for i in range(2000)]
        result = run_oracle_study(sequence, interval_requests=400)
        for hits in result.mea_future_hits + result.fc_future_hits:
            assert 0.0 <= hits <= 10.0


class TestFcTruncation:
    def test_fc_predictions_matched_to_mea_count(self):
        # With very few MEA counters, FC must be truncated to the same
        # (small) number of nominations, capping its achievable hits.
        interval = []
        for page in range(30):
            interval += [page] * 5
        sequence = interval * 4
        result = run_oracle_study(
            sequence, interval_requests=len(interval), mea_counters=5
        )
        assert result.mea_predictions_avg <= 5
        # FC gets at most 5 predictions for 10-page tiers.
        assert result.fc_future_hits[0] <= 5.0


class TestAveraging:
    def test_average_of_two(self):
        a = OracleResult(workload="a", intervals=4)
        a.counting_accuracy = [1.0, 0.5, 0.0]
        a.mea_future_hits = [4.0, 2.0, 0.0]
        a.fc_future_hits = [2.0, 2.0, 2.0]
        b = OracleResult(workload="b", intervals=6)
        b.counting_accuracy = [0.0, 0.5, 1.0]
        b.mea_future_hits = [0.0, 2.0, 4.0]
        b.fc_future_hits = [4.0, 2.0, 0.0]
        merged = average_results([a, b], "avg")
        assert merged.counting_accuracy == [0.5, 0.5, 0.5]
        assert merged.mea_future_hits == [2.0, 2.0, 2.0]
        assert merged.fc_future_hits == [3.0, 2.0, 1.0]
        assert merged.intervals == 5

    def test_average_empty(self):
        merged = average_results([], "avg")
        assert merged.intervals == 0

