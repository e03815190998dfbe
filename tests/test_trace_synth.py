"""Access-pattern primitives: bounds, structure, churn knobs."""

import pytest
from collections import Counter
from itertools import islice

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.trace.record import LINES_PER_PAGE
from repro.trace.synth import (
    CompositePattern,
    HotColdPattern,
    PhasedPattern,
    StreamPattern,
    UniformPattern,
    WavefrontPattern,
    ZipfPattern,
)


def rng():
    return DeterministicRng(5)


def pages_of(pattern, n, r=None):
    """The first ``n`` pages of a fresh stream of ``pattern``."""
    return pages_from(pattern.stream(r or rng()), n)


def pages_from(accesses, n):
    """The next ``n`` pages of an open stream."""
    return [page for page, _, _ in islice(accesses, n)]


class TestBounds:
    @pytest.mark.parametrize(
        "pattern",
        [
            StreamPattern(100),
            UniformPattern(100),
            ZipfPattern(100),
            HotColdPattern(100, hot_pages=10),
            WavefrontPattern(100, zone_pages=10, advance_period=5),
            PhasedPattern([UniformPattern(30), UniformPattern(40)], phase_length=7),
            CompositePattern([UniformPattern(30), StreamPattern(20)], [1, 1]),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_pages_within_footprint(self, pattern):
        for page, line, is_write in islice(pattern.stream(rng()), 2000):
            assert 0 <= page < pattern.footprint_pages
            assert 0 <= line < LINES_PER_PAGE
            assert isinstance(is_write, bool)


class TestStream:
    def test_sequential_lines_then_pages(self):
        pattern = StreamPattern(10, write_fraction=0.0, lines_per_visit=4)
        accesses = list(islice(pattern.stream(rng()), 8))
        assert [a[0] for a in accesses] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [a[1] for a in accesses[:4]] == [0, 1, 2, 3]

    def test_wraps_at_footprint(self):
        pattern = StreamPattern(3, write_fraction=0.0, lines_per_visit=1)
        assert pages_of(pattern, 6) == [0, 1, 2, 0, 1, 2]

    def test_stride(self):
        pattern = StreamPattern(8, write_fraction=0.0, lines_per_visit=1, stride_pages=2)
        assert pages_of(pattern, 4) == [0, 2, 4, 6]

    def test_revisits_land_behind_front(self):
        pattern = StreamPattern(
            5000, write_fraction=0.0, lines_per_visit=1,
            revisit_fraction=0.5, revisit_lag_pages=20,
        )
        behind = 0
        front = 0  # the sweep's position when each access is drawn
        for page, _, _ in islice(pattern.stream(rng()), 2000):
            distance = (front - page) % 5000
            assert distance <= 20
            if distance > 0:
                behind += 1
            else:
                front = (front + 1) % 5000  # one line per visit
        assert behind > 500  # roughly half are revisits

    def test_write_fraction_respected(self):
        pattern = StreamPattern(100, write_fraction=0.4)
        writes = sum(is_write for _, _, is_write in islice(pattern.stream(rng()), 5000))
        assert writes == pytest.approx(2000, rel=0.1)

    def test_revisit_requires_lag(self):
        with pytest.raises(ConfigError):
            StreamPattern(10, revisit_fraction=0.5, revisit_lag_pages=0)

    def test_lines_per_visit_capped(self):
        with pytest.raises(ConfigError):
            StreamPattern(10, lines_per_visit=LINES_PER_PAGE + 1)


class TestZipf:
    def test_head_dominates(self):
        pattern = ZipfPattern(200, alpha=1.3, shuffle=False)
        counts = Counter(pages_of(pattern, 10000))
        top = counts.most_common(1)[0][1]
        assert top > 10000 * 0.05

    def test_stable_ranking_without_drift(self):
        pattern = ZipfPattern(100, alpha=1.2, shuffle=False)
        first = Counter(pages_of(pattern, 5000, rng()))
        second = Counter(pages_of(pattern, 5000, rng()))
        # Same top page both halves (stability is the cactus trait).
        assert first.most_common(1)[0][0] == second.most_common(1)[0][0]

    def test_drift_moves_top_page(self):
        pattern = ZipfPattern(100, alpha=1.3, shuffle=False, drift_period=100, drift_step=10)
        accesses = pattern.stream(rng())
        early = Counter(pages_from(accesses, 3000))
        late = Counter(pages_from(accesses, 3000))
        assert early.most_common(1)[0][0] != late.most_common(1)[0][0]

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigError):
            ZipfPattern(100, alpha=0)


class TestHotCold:
    def test_hot_fraction_concentrates(self):
        pattern = HotColdPattern(1000, hot_pages=50, hot_fraction=0.9, hot_alpha=0)
        counts = Counter(pages_of(pattern, 10000))
        hot_hits = sum(v for k, v in counts.items() if k < 50)
        assert hot_hits == pytest.approx(9000, rel=0.05)

    def test_zipf_within_window(self):
        pattern = HotColdPattern(1000, hot_pages=50, hot_fraction=1.0, hot_alpha=1.3)
        counts = Counter(pages_of(pattern, 10000))
        assert counts[0] > counts[10] > counts.get(40, 0)

    def test_rotation_changes_top_but_not_set(self):
        pattern = HotColdPattern(
            1000, hot_pages=50, hot_fraction=1.0, hot_alpha=1.3,
            rotate_period=200, rotate_step=10,
        )
        accesses = pattern.stream(rng())
        early = Counter(pages_from(accesses, 4000))
        late = Counter(pages_from(accesses, 4000))
        assert early.most_common(1)[0][0] != late.most_common(1)[0][0]
        # The *set* is unchanged: all accesses stay inside pages [0, 50).
        assert all(k < 50 for k in early)
        assert all(k < 50 for k in late)

    def test_drift_moves_window(self):
        pattern = HotColdPattern(
            1000, hot_pages=50, hot_fraction=1.0, hot_alpha=0,
            drift_period=10, drift_step=5,
        )
        pages = pages_of(pattern, 5000)
        assert max(pages) > 100  # window slid well past its start

    def test_hot_larger_than_footprint_rejected(self):
        with pytest.raises(ConfigError):
            HotColdPattern(10, hot_pages=20)


class TestWavefront:
    def test_zone_trails_front(self):
        pattern = WavefrontPattern(1000, zone_pages=30, advance_period=10)
        for i, (page, _, _) in enumerate(islice(pattern.stream(rng()), 3000)):
            front = (30 + (i + 1) // 10) % 1000  # the front after access i
            lag = (front - page) % 1000
            assert lag <= 30

    def test_leading_edge_hottest(self):
        # Density rises toward the leading (freshly reached) edge.
        pattern = WavefrontPattern(10_000, zone_pages=100, advance_period=10**9)
        counts = Counter(pages_of(pattern, 20000))
        front = (100 + 20000 // 10**9) % 10_000  # the front after the last access
        trailing = sum(counts.get((front - 100 + i) % 10_000, 0) for i in range(0, 20))
        leading = sum(counts.get((front - 100 + i) % 10_000, 0) for i in range(80, 100))
        assert leading > trailing * 2

    def test_zone_larger_than_footprint_rejected(self):
        with pytest.raises(ConfigError):
            WavefrontPattern(10, zone_pages=20)


class TestPhased:
    def test_phases_use_disjoint_regions(self):
        phases = [UniformPattern(10), UniformPattern(10), UniformPattern(10)]
        pattern = PhasedPattern(phases, phase_length=100)
        accesses = pattern.stream(rng())
        first = set(pages_from(accesses, 100))
        second = set(pages_from(accesses, 100))
        assert first <= set(range(0, 10))
        assert second <= set(range(10, 20))

    def test_cycles_back_to_first_phase(self):
        pattern = PhasedPattern([UniformPattern(5), UniformPattern(5)], phase_length=10)
        pages = pages_of(pattern, 25)
        assert all(p < 5 for p in pages[20:25])

    def test_empty_phases_rejected(self):
        with pytest.raises(ConfigError):
            PhasedPattern([], phase_length=10)


class TestComposite:
    def test_weights_respected(self):
        pattern = CompositePattern(
            [UniformPattern(10), UniformPattern(10)], weights=[0.8, 0.2]
        )
        pages = pages_of(pattern, 10000)
        first_region = sum(1 for p in pages if p < 10)
        assert first_region == pytest.approx(8000, rel=0.1)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ConfigError):
            CompositePattern([UniformPattern(10)], weights=[1, 2])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ConfigError):
            CompositePattern([UniformPattern(10)], weights=[0])


class TestDeterminism:
    def test_same_seed_same_accesses(self):
        p1 = HotColdPattern(500, hot_pages=20, rotate_period=50, rotate_step=3)
        p2 = HotColdPattern(500, hot_pages=20, rotate_period=50, rotate_step=3)
        assert pages_of(p1, 1000, DeterministicRng(9)) == pages_of(p2, 1000, DeterministicRng(9))
