"""Differential suite for the tracker batch update paths.

``record_batch`` / ``access_batch`` must replay the per-record tracker
semantics **bit for bit** — same tables, same counters, same aggregate
event stats.  Every case runs in two modes: ``numpy`` hands the batches
over as int64 ndarrays, ``pure`` patches numpy out of the tracker
modules and hands over lists.  Every tracker batches with one scalar
loop either way; the modes pin that ndarray input replays exactly like
list input and never leaks numpy scalars into tracker state.  The
cases are adversarial on purpose: tiny saturating counters, full-table
decrement rounds with evictions, the strict paper capacity variant,
empty batches, and chunkings that land batch boundaries on every
alignment.
"""

import random

import pytest

import repro.tracking.competing as competing_mod
import repro.tracking.full_counters as full_mod
import repro.tracking.mea as mea_mod
from repro.tracking.competing import CompetingCounterArray
from repro.tracking.full_counters import FullCountersTracker
from repro.tracking.mea import MeaTracker

MODES = ["numpy", "pure"]


@pytest.fixture(params=MODES)
def mode(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(mea_mod, "_np", None)
        monkeypatch.setattr(full_mod, "_np", None)
        monkeypatch.setattr(competing_mod, "_np", None)
    elif mea_mod._np is None:
        pytest.skip("numpy not installed")
    return request.param


def _column(values, mode):
    """``values`` as the batch column a caller in ``mode`` passes."""
    if mode == "numpy":
        return mea_mod._np.asarray(values, dtype=mea_mod._np.int64)
    return values


def _streams(seed=11, length=3_000):
    rng = random.Random(seed)
    zipf = [int(rng.paretovariate(1.2)) % 97 for _ in range(length)]
    uniform = [rng.randrange(10_000) for _ in range(length)]
    narrow = [rng.randrange(5) for _ in range(length)]
    return {"zipf": zipf, "uniform": uniform, "narrow": narrow}


def _chunked(stream, seed=5):
    """Split a stream into uneven chunks, empty chunks included."""
    rng = random.Random(seed)
    chunks, i = [], 0
    while i < len(stream):
        size = rng.choice([0, 1, 7, 32, 33, 128, 301])
        chunks.append(stream[i : i + size])
        i += size
    chunks.append([])
    return chunks


class TestMeaBatch:
    def _mea_state(self, tracker):
        return (
            {int(k): int(v) for k, v in tracker.counters().items()},
            tracker.increments,
            tracker.insertions,
            tracker.decrement_rounds,
            tracker.evictions,
            tracker.hot_pages(),
        )

    @pytest.mark.parametrize("counter_bits", [1, 2, 16])
    @pytest.mark.parametrize("capacity", [4, 64])
    @pytest.mark.parametrize("stream_name", ["zipf", "uniform", "narrow"])
    def test_batch_equals_per_record(self, mode, counter_bits, capacity, stream_name):
        stream = _streams()[stream_name]
        reference = MeaTracker(capacity=capacity, counter_bits=counter_bits)
        for page in stream:
            reference.record(page)
        batched = MeaTracker(capacity=capacity, counter_bits=counter_bits)
        for chunk in _chunked(stream):
            batched.record_batch(_column(chunk, mode))
        assert self._mea_state(batched) == self._mea_state(reference)

    def test_single_batch_with_decrement_rounds(self, mode):
        # Capacity 4 with a wide stream: the table overflows constantly,
        # so one batch runs many decrement rounds with evictions.
        stream = _streams()["uniform"][:1_500]
        reference = MeaTracker(capacity=4, counter_bits=2)
        for page in stream:
            reference.record(page)
        batched = MeaTracker(capacity=4, counter_bits=2)
        batched.record_batch(_column(stream, mode))
        assert self._mea_state(batched) == self._mea_state(reference)
        assert batched.decrement_rounds > 0
        assert batched.evictions > 0

    def test_empty_batch(self, mode):
        tracker = MeaTracker(capacity=8)
        tracker.record_batch(_column([], mode))
        assert self._mea_state(tracker) == ({}, 0, 0, 0, 0, [])

    def test_table_keys_stay_plain_ints(self):
        if mea_mod._np is None:
            pytest.skip("numpy not installed")
        tracker = MeaTracker(capacity=8)
        tracker.record_batch(mea_mod._np.asarray([3, 3, 5], dtype=mea_mod._np.int64))
        assert all(type(page) is int for page in tracker.counters())


class TestFullCountersBatch:
    @pytest.mark.parametrize("counter_bits", [1, 2, 16])
    @pytest.mark.parametrize("stream_name", ["zipf", "uniform"])
    def test_batch_equals_per_record(self, mode, counter_bits, stream_name):
        stream = _streams()[stream_name]
        reference = FullCountersTracker(20_000, counter_bits=counter_bits)
        for page in stream:
            reference.record(page)
        batched = FullCountersTracker(20_000, counter_bits=counter_bits)
        for chunk in _chunked(stream):
            batched.record_batch(_column(chunk, mode))
        assert {int(k): int(v) for k, v in batched.counts().items()} == reference.counts()
        assert batched.hot_pages() == reference.hot_pages()

    def test_empty_batch(self, mode):
        tracker = FullCountersTracker(16)
        tracker.record_batch(_column([], mode))
        assert tracker.counts() == {}

    def test_table_keys_stay_plain_ints(self):
        if full_mod._np is None:
            pytest.skip("numpy not installed")
        tracker = FullCountersTracker(16)
        tracker.record_batch(full_mod._np.asarray([3, 3, 5], dtype=full_mod._np.int64))
        assert tracker.counts() == {3: 2, 5: 1}
        assert all(type(page) is int for page in tracker.counts())


def _drive_scalar(counters, accesses):
    """Per-record reference: the THM handle() tracker sequence."""
    triggers = []
    for i, (segment, page, attacks) in enumerate(accesses):
        if attacks:
            nominated = counters.access_challenger(segment, page)
            if nominated is not None:
                triggers.append((i, nominated))
        else:
            counters.access_resident(segment)
    return triggers


def _drive_batched(counters, accesses, mode="pure"):
    """Chunked access_batch with scalar replay of each trigger record."""
    segments = [segment for segment, _, _ in accesses]
    pages = [page for _, page, _ in accesses]
    attacks = [attack for _, _, attack in accesses]
    page_col = _column(pages, mode)
    triggers = []
    i = 0
    while i < len(accesses):
        stop = counters.access_batch(segments[i:], page_col[i:], attacks[i:])
        if stop is None:
            break
        j = i + stop
        assert attacks[j]
        nominated = counters.access_challenger(segments[j], pages[j])
        assert nominated is not None
        triggers.append((j, nominated))
        i = j + 1
    return triggers


def _competing_state(counters):
    return (
        list(counters._counts),
        [None if c is None else int(c) for c in counters._last_challenger],
        counters.triggers,
        counters.hot_pages(),
    )


class TestCompetingBatch:
    def _accesses(self, segments, seed=7, length=4_000, attack_bias=0.5):
        rng = random.Random(seed)
        return [
            (
                rng.randrange(segments),
                segments + rng.randrange(segments * 8),
                rng.random() < attack_bias,
            )
            for _ in range(length)
        ]

    @pytest.mark.parametrize("threshold,counter_bits", [(4, 8), (16, 8), (3, 2), (1, 1)])
    @pytest.mark.parametrize("attack_bias", [0.2, 0.8])
    def test_batch_equals_per_record(self, mode, threshold, counter_bits, attack_bias):
        accesses = self._accesses(32, attack_bias=attack_bias)
        reference = CompetingCounterArray(32, threshold=threshold, counter_bits=counter_bits)
        expected = _drive_scalar(reference, accesses)
        batched = CompetingCounterArray(32, threshold=threshold, counter_bits=counter_bits)
        actual = _drive_batched(batched, accesses, mode)
        assert actual == expected
        assert _competing_state(batched) == _competing_state(reference)

    def test_saturating_threshold_takes_exact_fallback(self, mode):
        # threshold > max_count: the counter saturates below the
        # threshold, so the batch can never trigger — and must still
        # leave exactly the per-record state.
        accesses = self._accesses(8, length=600)
        reference = CompetingCounterArray(8, threshold=300, counter_bits=4)
        expected = _drive_scalar(reference, accesses)
        batched = CompetingCounterArray(8, threshold=300, counter_bits=4)
        actual = _drive_batched(batched, accesses, mode)
        assert expected == actual == []
        assert _competing_state(batched) == _competing_state(reference)

    def test_empty_batch(self, mode):
        counters = CompetingCounterArray(4, threshold=2)
        assert counters.access_batch([], _column([], mode), []) is None
        assert _competing_state(counters) == ([0] * 4, [None] * 4, 0, [])


class TestHotPagesTieBreak:
    """Regression for the missing (-count, page) nomination order."""

    def test_orders_by_count_then_page(self):
        counters = CompetingCounterArray(4, threshold=4, counter_bits=8)
        # Segment 0: count 2, challenger 90; segment 1: count 3,
        # challenger 41; segment 2: count 2, challenger 17; segment 3
        # stays below threshold/2.
        for segment, page, pumps in ((0, 90, 2), (1, 41, 3), (2, 17, 2), (3, 55, 1)):
            for _ in range(pumps):
                counters.access_challenger(segment, page)
        assert counters.hot_pages() == [41, 17, 90]

    def test_matches_mea_and_full_counter_convention(self):
        # Equal counts tie-break on the lower page, exactly like
        # MeaTracker.hot_pages and FullCountersTracker.hot_pages.
        counters = CompetingCounterArray(3, threshold=4, counter_bits=8)
        for segment, page in ((1, 300), (2, 7), (0, 120)):
            counters.access_challenger(segment, page)
            counters.access_challenger(segment, page)
        assert counters.hot_pages() == [7, 120, 300]

        mea = MeaTracker(capacity=4)
        full = FullCountersTracker(1_024)
        for page in (300, 7, 120):
            mea.record(page)
            full.record(page)
        assert mea.hot_pages() == full.hot_pages() == [7, 120, 300]
