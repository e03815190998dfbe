"""PackedTrace, the Trace.packed() cache, sliced(), and page math."""

import pytest

from repro.common.errors import TraceError
from repro.common.rng import DeterministicRng
from repro.trace.packed import PackedTrace, _np
from repro.trace.record import Trace
from repro.trace.store import column_trace


RECORDS = [
    (0, 0, 0, 0),
    (10, 2048, 1, 1),
    (25, 4096 + 64, 0, 2),
    (25, 123_456, 1, 3),
    (90, 7 * 2048 + 100, 0, 0),
]


class TestPackedTrace:
    def test_columns_mirror_records(self):
        packed = PackedTrace(RECORDS)
        assert packed.length == len(RECORDS)
        assert packed.arrivals == [r[0] for r in RECORDS]
        assert packed.addresses == [r[1] for r in RECORDS]
        assert packed.is_writes == [r[2] for r in RECORDS]
        assert packed.cores == [r[3] for r in RECORDS]
        assert packed.max_address == max(r[1] for r in RECORDS)

    def test_empty(self):
        packed = PackedTrace([])
        assert packed.length == 0
        assert packed.arrivals == []
        assert packed.max_address == -1
        assert packed.pages(11) == []

    def test_pages_match_division(self):
        packed = PackedTrace(RECORDS)
        assert packed.pages(11) == [r[1] // 2048 for r in RECORDS]
        assert packed.pages(6) == [r[1] // 64 for r in RECORDS]

    def test_pages_cached_per_shift(self):
        packed = PackedTrace(RECORDS)
        assert packed.pages(11) is packed.pages(11)
        assert packed.pages(11) is not packed.pages(6)

    def test_planes_dict_is_writable_cache(self):
        packed = PackedTrace(RECORDS)
        packed.planes[("k",)] = ([1], [2], [3])
        assert packed.planes[("k",)] == ([1], [2], [3])


def _grouping_fixture(seed=4, count=1_000):
    """Records plus a synthetic decode plane spread over 6 controllers."""
    rng = DeterministicRng(seed)
    records = []
    at = 0
    for _ in range(count):
        at += rng.randrange(5_000)
        records.append((at, rng.randrange(1 << 22) & ~63, int(rng.random() < 0.3), 0))
    packed = PackedTrace(records)
    ctrls = [rng.randrange(6) for _ in range(count)]
    banks = [rng.randrange(16) for _ in range(count)]
    rows = [rng.randrange(64) for _ in range(count)]
    return packed, ctrls, banks, rows


class TestChunkGroups:
    def _reference_groups(self, packed, ctrls, banks, rows):
        """Obviously-correct regrouping: per 128-record chunk,
        stable-partition the record indices by controller."""
        total = packed.length
        step = 128
        chunks = []
        for begin in range(0, total, step):
            end = min(begin + step, total)
            by_ctrl = {}
            for i in range(begin, end):
                by_ctrl.setdefault(ctrls[i], []).append(i)
            # The chunk's records as columns in controller order, and
            # each controller's [lo, hi) span of them.
            order, spans = [], []
            for ci, members in sorted(by_ctrl.items()):
                spans.append((ci, len(order), len(order) + len(members)))
                order += members
            chunks.append((
                end - begin,
                [packed.arrivals[i] for i in order],
                [banks[i] for i in order],
                [rows[i] for i in order],
                [packed.is_writes[i] for i in order],
                tuple(spans),
            ))
        return chunks

    # Trace lengths around the 128-record chunk: none, one ragged, one
    # whole, and many chunks with a ragged tail.
    @pytest.mark.parametrize("count", [0, 100, 128, 1_000, 5_000])
    def test_matches_reference_partition(self, count):
        packed, ctrls, banks, rows = _grouping_fixture(count=count)
        chunks = packed.chunk_groups(ctrls, banks, rows)
        assert chunks == self._reference_groups(packed, ctrls, banks, rows)

    def test_empty_trace(self):
        packed = PackedTrace([])
        assert packed.chunk_groups([], [], []) == []

    def test_preserves_intra_controller_order(self):
        packed, ctrls, banks, rows = _grouping_fixture(seed=6, count=700)
        for count, arrivals, _, _, _, spans in packed.chunk_groups(ctrls, banks, rows):
            assert count == len(arrivals) == sum(hi - lo for _, lo, hi in spans)
            group_ids = [g[0] for g in spans]
            assert group_ids == sorted(group_ids)
            for _, lo, hi in spans:
                assert arrivals[lo:hi] == sorted(arrivals[lo:hi])


def _twelve_controller_decode(addresses):
    """A 12-controller decode of an int64 address window."""
    return (addresses >> 6) % 12, (addresses >> 10) & 15, addresses >> 14


def _streaming_fixture(count=1_037):
    """Records whose first chunk hits one controller of twelve, whose
    second hits all twelve, and whose last chunk is ragged."""
    rng = DeterministicRng(9)
    records = []
    at = 0
    for i in range(count):
        at += rng.randrange(3_000)
        if i < 128:
            address = (5 + 12 * rng.randrange(4_096)) << 6
        elif i < 256:
            address = (i % 12 + 12 * rng.randrange(4_096)) << 6
        else:
            address = rng.randrange(1 << 22) & ~63
        records.append((at, address, int(rng.random() < 0.3), rng.randrange(8)))
    return records


@pytest.mark.skipif(_np is None, reason="streamed grouping requires numpy")
class TestStreamedAgainstEager:
    """The windowed grouping (one stable sort per window) against the
    eager dict-accumulation grouping, chunk for chunk."""

    def _eager(self, records):
        packed = PackedTrace(records)
        planes = _twelve_controller_decode(_np.asarray(packed.addresses, dtype=_np.int64))
        return packed.chunk_groups(*(plane.tolist() for plane in planes))

    def _packed(self, records, backing):
        if backing == "list":
            return PackedTrace(records)
        columns = tuple(list(column) for column in zip(*records))
        return column_trace("t", 2048, columns).packed()

    def test_fixture_chunks(self):
        chunks = self._eager(_streaming_fixture())
        assert [len(chunk[-1]) for chunk in chunks[:2]] == [1, 12]
        assert chunks[-1][0] == 1_037 % 128

    # 1_280 is one chunk more than the trace, rounded up to whole chunks.
    @pytest.mark.parametrize("backing", ["list", "array"])
    @pytest.mark.parametrize("window", [128, 256, 4_096, 1_280])
    def test_streamed_matches_eager(self, backing, window):
        records = _streaming_fixture()
        packed = self._packed(records, backing)
        streamed = list(packed.chunk_groups_streamed(_twelve_controller_decode, window))
        assert streamed == self._eager(records)

    def test_regrouped_on_every_call(self):
        # Nothing is memoised: every call regroups, to equal chunks.
        records = _streaming_fixture(count=300)
        packed = self._packed(records, "array")
        planes = [plane.tolist() for plane in _twelve_controller_decode(
            packed.np_addresses()
        )]
        first = packed.chunk_groups(*planes)
        again = packed.chunk_groups(*planes)
        assert again == first and again is not first
        streamed = packed.chunk_groups_streamed(_twelve_controller_decode, 256)
        assert list(streamed) == first
        assert packed.planes == {}


class TestTracePackedAccessor:
    def test_packed_is_cached(self):
        trace = Trace(name="t", records=list(RECORDS))
        assert trace.packed() is trace.packed()

    def test_packed_rebuilds_after_resize(self):
        trace = Trace(name="t", records=list(RECORDS))
        first = trace.packed()
        trace.records.append((120, 2048, 0, 0))
        second = trace.packed()
        assert second is not first
        assert second.length == len(RECORDS) + 1

    def test_packed_rebuilds_after_same_length_replacement(self):
        trace = Trace(name="t", records=list(RECORDS))
        first = trace.packed()
        trace.records = [(t + 1, a, w, c) for t, a, w, c in RECORDS]
        second = trace.packed()
        assert second is not first
        assert second.arrivals == [r[0] + 1 for r in RECORDS]

    @pytest.mark.parametrize("columns", [False, True], ids=["eager", "columns"])
    def test_fast_replay_sees_replaced_records(self, columns):
        """Regression: a same-length ``records`` swap kept the old
        packed columns, so the fast kernel replayed the old records."""
        from dataclasses import asdict

        from repro.geometry import scaled_geometry
        from repro.system.simulator import build_manager, simulate
        from repro.trace import build_trace, get_workload

        geometry = scaled_geometry(32)

        def synth(workload):
            return build_trace(
                get_workload(workload), geometry, length=2_000, seed=5
            ).trace

        trace, other = synth("xalanc"), synth("mcf")
        if not columns:
            trace = Trace.from_records(trace.name, trace.records, trace.page_bytes)
        simulate(trace, build_manager("tlm", geometry), kernel="fast")
        trace.records = list(other.records)
        fast = simulate(trace, build_manager("tlm", geometry), kernel="fast")
        reference = simulate(
            trace, build_manager("tlm", geometry), kernel="reference"
        )
        assert asdict(fast) == asdict(reference)


class TestSliced:
    def test_sliced_preserves_contents(self):
        trace = Trace(name="t", records=list(RECORDS), page_bytes=1024)
        part = trace.sliced(1, 4)
        assert part.records == RECORDS[1:4]
        assert part.name == "t"
        assert part.page_bytes == 1024

    def test_sliced_skips_revalidation(self, monkeypatch):
        """Regression: sliced() used to re-run validate() per slice, an
        O(n) pass on the sweep-construction path."""
        trace = Trace(name="t", records=list(RECORDS))
        calls = []
        monkeypatch.setattr(
            Trace, "validate", lambda self: calls.append(1), raising=True
        )
        trace.sliced(0, 3)
        assert calls == []

    def test_construction_still_validates(self):
        with pytest.raises(TraceError):
            Trace(name="bad", records=[(10, 0, 0, 0), (5, 0, 0, 0)])


class TestPageMath:
    def test_shift_matches_division_for_power_of_two(self):
        trace = Trace(name="t", records=list(RECORDS), page_bytes=2048)
        assert trace.page_sequence() == [r[1] // 2048 for r in RECORDS]
        assert trace.pages_touched() == {r[1] // 2048 for r in RECORDS}

    def test_non_power_of_two_page_bytes_falls_back(self):
        trace = Trace(name="t", records=list(RECORDS), page_bytes=3000)
        assert trace.page_sequence() == [r[1] // 3000 for r in RECORDS]
        assert trace.pages_touched() == {r[1] // 3000 for r in RECORDS}
