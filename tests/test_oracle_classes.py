"""Oracle-study behaviour across the synthetic workload classes.

These integration tests pin the Section 3 signatures at the class
level, independent of the per-benchmark tuning in ``repro.trace.spec``:
the library's workload primitives must *themselves* produce the
MEA-vs-FC regimes the paper describes.
"""

from itertools import islice

from repro.common.rng import DeterministicRng
from repro.tracking import run_oracle_study
from repro.trace.record import LINE_BYTES, Trace
from repro.trace.synth import HotColdPattern, StreamPattern, WavefrontPattern, ZipfPattern

INTERVAL = 2000


def trace_from(pattern, accesses=24_000, seed=5):
    stream = pattern.stream(DeterministicRng(seed, "oracle-class"))
    records = []
    for i, (page, line, is_write) in enumerate(islice(stream, accesses)):
        records.append((i * 9_000, page * 2048 + line * LINE_BYTES, int(is_write), 0))
    return Trace(name="class", records=records)


def study(pattern, **kwargs):
    trace = trace_from(pattern, **kwargs)
    return run_oracle_study(trace.page_sequence(), interval_requests=INTERVAL)


class TestStableSkew:
    """The cactus regime: exact counting wins."""

    def test_fc_matches_or_beats_mea(self):
        result = study(ZipfPattern(3000, alpha=1.3, shuffle=False))
        assert sum(result.fc_future_hits) >= sum(result.mea_future_hits) - 0.5

    def test_both_predict_well(self):
        result = study(ZipfPattern(3000, alpha=1.3, shuffle=False))
        assert result.fc_future_hits[0] > 7
        assert result.mea_future_hits[0] > 6


class TestRotatingHotSet:
    """The xalanc regime: recency wins."""

    def test_mea_beats_fc(self):
        pattern = HotColdPattern(
            6000, hot_pages=500, hot_fraction=0.92, hot_alpha=1.15,
            rotate_period=150, rotate_step=10,
        )
        result = study(pattern)
        assert sum(result.mea_future_hits) > sum(result.fc_future_hits)


class TestPureStream:
    """The bwaves regime: nobody can predict, FC exactly zero."""

    def test_fc_zero(self):
        result = study(StreamPattern(100_000, lines_per_visit=4))
        assert sum(result.fc_future_hits) == 0.0

    def test_mea_near_zero(self):
        result = study(StreamPattern(100_000, lines_per_visit=4))
        assert sum(result.mea_future_hits) <= 1.0


class TestWavefront:
    """The lbm regime: FC's top pages are finished; MEA scores."""

    def test_mea_beats_fc_with_fc_tier1_failing(self):
        pattern = WavefrontPattern(50_000, zone_pages=30, advance_period=15)
        result = study(pattern)
        assert result.fc_future_hits[0] <= 1.0
        assert sum(result.mea_future_hits) > sum(result.fc_future_hits)


class TestCountingVersusPrediction:
    """The paper's core juxtaposition on one workload: MEA counts worse
    than FC (trivially, FC is perfect) yet predicts at least as well
    under churn."""

    def test_juxtaposition(self):
        # Enough cold traffic that decrement rounds churn MEA's table
        # (the counting weakness), plus rank rotation (the prediction
        # strength) — both signatures on one workload.
        pattern = HotColdPattern(
            6000, hot_pages=500, hot_fraction=0.70, hot_alpha=1.15,
            rotate_period=150, rotate_step=10,
        )
        result = study(pattern)
        # Counting: strictly below FC's perfect 1.0 somewhere.
        assert min(result.counting_accuracy) < 1.0
        # Prediction: MEA ahead in total despite the worse counting.
        assert sum(result.mea_future_hits) > sum(result.fc_future_hits)
