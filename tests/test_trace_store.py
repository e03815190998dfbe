"""Columnar trace store: v2 format, store addressing, streamed replay.

Three layers of proof:

* the v2 file format round-trips (including hypothesis-random traces)
  and every corruption mode fails loudly at open;
* the content-addressed store serves bit-identical traces to what
  synthesis builds, under both the mapped (numpy) and eager (pure)
  representations;
* the streamed replay path — windowed ``chunk_groups_streamed`` and the
  mapped kernels — matches the in-memory path result-for-result while
  keeping peak memory bounded by the window, not the trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.common as common
import repro.trace.io
import repro.trace.packed
from repro.common.errors import ConfigError, TraceError
from repro.experiments.common import ExperimentConfig, clear_trace_cache, trace_for
from repro.geometry import scaled_geometry
from repro.system.simulator import (
    MANAGER_KINDS,
    build_manager,
    reference_simulate,
    simulate,
)
from repro.trace import Trace, build_trace, get_workload
from repro.trace.io import (
    CHUNK_RECORDS,
    columnar_size,
    read_columnar_header,
    save_columnar,
)
from repro.trace.store import (
    DEFAULT_TRACE_WINDOW,
    MappedTrace,
    TraceStore,
    import_tracehm_tsv,
    open_columnar,
    resolve_trace_window,
    store_enabled,
    synth_trace_key,
)

_np = repro.trace.packed._np


@pytest.fixture
def sample_trace():
    geometry = scaled_geometry(64)
    return build_trace(get_workload("mix5"), geometry, length=2000, seed=4).trace


def _records(trace):
    return [tuple(r) for r in trace.records]


def _file_backed(trace):
    """True when the trace's columns are memory-mapped planes of a file."""
    column = getattr(trace.packed().arrivals, "array", None)
    return _np is not None and isinstance(column, _np.memmap)


class TestColumnarFormat:
    def test_roundtrip(self, sample_trace, tmp_path):
        path = tmp_path / "t.mpt"
        save_columnar(sample_trace, path)
        assert path.stat().st_size == columnar_size(len(sample_trace))
        loaded = open_columnar(path, name=sample_trace.name)
        assert _records(loaded) == _records(sample_trace)
        assert loaded.page_bytes == sample_trace.page_bytes
        assert loaded.name == sample_trace.name
        assert len(loaded) == len(sample_trace)

    def test_mapped_when_numpy_available(self, sample_trace, tmp_path):
        path = tmp_path / "t.mpt"
        save_columnar(sample_trace, path)
        loaded = open_columnar(path)
        if _np is not None:
            assert isinstance(loaded, MappedTrace)
            assert loaded.packed().mapped
            assert loaded.name == "t"  # name defaults to the file stem
        else:
            assert not loaded.packed().mapped

    def test_header_info(self, sample_trace, tmp_path):
        path = tmp_path / "t.mpt"
        save_columnar(sample_trace, path)
        info = read_columnar_header(path)
        assert info.count == len(sample_trace)
        assert info.page_bytes == sample_trace.page_bytes
        assert info.max_address == sample_trace.packed().max_address
        assert info.stride % CHUNK_RECORDS == 0
        assert info.stride >= info.count

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "e.mpt"
        save_columnar(Trace(name="empty", records=[]), path)
        loaded = open_columnar(path)
        assert len(loaded) == 0
        assert list(loaded.records) == []

    def test_non_pow2_page_bytes(self, tmp_path):
        trace = Trace(
            name="odd",
            records=[(0, 0, 0, 0), (5, 3000, 1, 0)],
            page_bytes=1500,
        )
        path = tmp_path / "odd.mpt"
        save_columnar(trace, path)
        info = read_columnar_header(path)
        assert info.page_shift == -1
        loaded = open_columnar(path)
        assert _records(loaded) == trace.records
        assert loaded.page_bytes == 1500

    def test_truncated_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "trunc.mpt"
        save_columnar(sample_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mpt"
        path.write_bytes(b"NOTMPT00" + b"\0" * 2048)
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_v1_file_rejected_as_columnar(self, sample_trace, tmp_path):
        from repro.trace.io import save_binary

        path = tmp_path / "v1.mpt"
        save_binary(sample_trace, path)
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_bad_version_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "ver.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_corrupt_plane_name_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "plane.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        # First plane directory entry starts after the 40-byte header.
        data[40:47] = b"arrivel".ljust(7, b"\0")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_corrupt_dtype_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "dtype.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        data[48:52] = b"<f8\0"  # dtype code of the first plane entry
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_nonzero_reserved_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "resv.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        data[52] = 1  # reserved field of the first plane entry
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_pure_twin_reads_identical(self, sample_trace, tmp_path, monkeypatch):
        path = tmp_path / "pure.mpt"
        save_columnar(sample_trace, path)
        mapped_records = _records(open_columnar(path))
        monkeypatch.setattr(repro.trace.io, "_np", None)
        monkeypatch.setattr(repro.trace.packed, "_np", None)
        pure = open_columnar(path)
        assert not pure.packed().mapped
        assert _records(pure) == mapped_records == _records(sample_trace)

    def test_pure_twin_writes_identical(self, sample_trace, tmp_path, monkeypatch):
        numpy_path = tmp_path / "np.mpt"
        save_columnar(sample_trace, numpy_path)
        monkeypatch.setattr(repro.trace.io, "_np", None)
        pure_path = tmp_path / "pure.mpt"
        # A fresh packed() so the pure encoder sees plain lists.
        clone = Trace(
            name=sample_trace.name,
            records=list(sample_trace.records),
            page_bytes=sample_trace.page_bytes,
        )
        save_columnar(clone, pure_path)
        assert numpy_path.read_bytes() == pure_path.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=-1, max_value=7),
            ),
            max_size=300,
        )
    )
    def test_columnar_roundtrip_property(self, raw):
        import tempfile
        from pathlib import Path

        records = sorted(raw, key=lambda r: r[0])
        trace = Trace(name="prop", records=records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.mpt"
            save_columnar(trace, path)
            assert path.stat().st_size == columnar_size(len(records))
            assert _records(open_columnar(path)) == records


class TestMappedTraceView:
    def test_records_view(self, sample_trace, tmp_path):
        if _np is None:
            pytest.skip("mapped view requires numpy")
        path = tmp_path / "v.mpt"
        save_columnar(sample_trace, path)
        loaded = open_columnar(path)
        expected = sample_trace.records
        assert loaded.records[0] == expected[0]
        assert loaded.records[-1] == expected[-1]
        assert loaded.records[10:20] == expected[10:20]
        assert list(loaded.records) == expected
        with pytest.raises(IndexError):
            loaded.records[len(expected)]
        # Trace helpers work through the view.
        assert loaded.duration_ps == sample_trace.duration_ps
        assert loaded.sliced(5, 50).records == sample_trace.sliced(5, 50).records

    def test_view_compares_and_prints_as_its_list(self, sample_trace, tmp_path):
        if _np is None:
            pytest.skip("mapped view requires numpy")
        path = tmp_path / "v.mpt"
        save_columnar(sample_trace, path)
        view = open_columnar(path).records
        records = _records(sample_trace)
        assert view == records and records == view
        assert view == sample_trace.records  # a view against a view
        assert view != records[:-1]
        assert view != records[:-1] + [(0, 0, 0, 0)]
        assert view != tuple(records)
        assert repr(view) == repr(records)
        assert list(view) == records


class TestSynthesisedColumns:
    """Synthesis writes columns, valid by construction."""

    def test_build_skips_validation(self, monkeypatch):
        def refuse(self):
            raise AssertionError("synthesised columns were re-validated")

        monkeypatch.setattr(Trace, "validate", refuse)
        built = build_trace(get_workload("mix3"), scaled_geometry(64), length=700, seed=2)
        assert len(built.trace) == 700
        assert sum(built.per_core_requests) == 700
        if _np is not None:
            assert isinstance(built.trace, MappedTrace)
            assert built.trace.packed().mapped
            assert not _file_backed(built.trace)
        # Every other way in still validates.
        with pytest.raises(AssertionError):
            Trace.from_records("t", _records(built.trace))

    def test_column_trace_equals_its_eager_copy(self, sample_trace, tmp_path):
        eager = Trace.from_records(
            sample_trace.name, _records(sample_trace), sample_trace.page_bytes
        )
        assert sample_trace == eager and eager == sample_trace
        save_columnar(sample_trace, tmp_path / "s.mpt")
        assert open_columnar(tmp_path / "s.mpt", name=sample_trace.name) == eager
        assert eager != Trace.from_records("other", eager.records, eager.page_bytes)

    @pytest.mark.parametrize("workload", ["xalanc", "mcf", "libquantum", "mix3"])
    @pytest.mark.parametrize("length", [1, 127, 129, 50_000])
    def test_cold_store_bytes_match_eager_save(self, monkeypatch, tmp_path, workload, length):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "store"))
        clear_trace_cache()
        trace_for(ExperimentConfig(scale=64, length=length, seed=1), workload)
        stored, = (tmp_path / "store").rglob("*.mpt")
        built = build_trace(get_workload(workload), scaled_geometry(64), length=length, seed=1)
        eager = Trace.from_records(workload, list(built.trace.records), built.trace.page_bytes)
        save_columnar(eager, tmp_path / "eager.mpt")
        assert stored.read_bytes() == (tmp_path / "eager.mpt").read_bytes()
        clear_trace_cache()


class TestTraceStore:
    def test_save_open_roundtrip(self, sample_trace, tmp_path):
        store = TraceStore(tmp_path)
        key = "ab" + "c" * 62
        path = store.save(key, sample_trace)
        assert path == tmp_path / "ab" / (("c" * 62) + ".mpt")
        assert path.is_file()
        loaded = store.open(key, name=sample_trace.name)
        assert _records(loaded) == _records(sample_trace)
        assert not list(tmp_path.glob("**/*.tmp"))  # no temp droppings

    def test_open_missing_returns_none(self, tmp_path):
        assert TraceStore(tmp_path).open("00" + "f" * 62) is None

    def test_corrupt_entry_raises(self, sample_trace, tmp_path):
        store = TraceStore(tmp_path)
        key = "12" + "d" * 62
        path = store.save(key, sample_trace)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(TraceError):
            store.open(key)

    def test_synth_key_covers_spec(self):
        base = synth_trace_key("mcf", 32, 1000, 1)
        assert base == synth_trace_key("mcf", 32, 1000, 1)
        assert base != synth_trace_key("mcf", 32, 1000, 2)
        assert base != synth_trace_key("mcf", 32, 2000, 1)
        assert base != synth_trace_key("mcf", 64, 1000, 1)
        assert base != synth_trace_key("milc", 32, 1000, 1)


class TestTraceForIntegration:
    def test_store_and_memory_identical(self, monkeypatch):
        config = ExperimentConfig(scale=64, length=3000, seed=2)
        monkeypatch.setenv("REPRO_NO_TRACE_STORE", "1")
        assert not store_enabled()
        clear_trace_cache()
        eager = trace_for(config, "mcf")
        monkeypatch.delenv("REPRO_NO_TRACE_STORE")
        assert store_enabled()
        clear_trace_cache()
        stored = trace_for(config, "mcf")
        assert stored.name == eager.name
        assert stored.page_bytes == eager.page_bytes
        assert _records(stored) == _records(eager)
        if _np is not None:
            assert stored.packed().mapped
        clear_trace_cache()

    def test_warm_open_skips_synthesis(self, monkeypatch):
        config = ExperimentConfig(scale=64, length=1500, seed=9)
        clear_trace_cache()
        trace_for(config, "milc")  # populates the store
        clear_trace_cache()

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("warm path must not re-synthesise")

        monkeypatch.setattr(common, "build_trace", boom)
        warm = trace_for(config, "milc")
        assert len(warm) == 1500
        common._stored_trace.cache_clear()

    def test_cold_store_path_keeps_no_in_memory_build(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        clear_trace_cache()
        cold = trace_for(ExperimentConfig(scale=64, length=1200, seed=13), "lbm")
        assert len(cold) == 1200
        if _np is not None:
            assert _file_backed(cold)
        assert common._cached_trace.cache_info().currsize == 0
        clear_trace_cache()

    @pytest.mark.parametrize("failing", ["open", "save"])
    def test_store_failure_falls_back_to_in_memory_build(self, monkeypatch, tmp_path, failing):
        def unwritable(*args, **kwargs):
            raise OSError("store unavailable")

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setattr(TraceStore, failing, unwritable)
        clear_trace_cache()
        trace = trace_for(ExperimentConfig(scale=64, length=1200, seed=13), "lbm")
        eager = build_trace(get_workload("lbm"), scaled_geometry(64), length=1200, seed=13)
        assert _records(trace) == _records(eager.trace)
        assert not _file_backed(trace)
        clear_trace_cache()

    def test_window_env_validation(self, monkeypatch):
        assert resolve_trace_window() == DEFAULT_TRACE_WINDOW
        monkeypatch.setenv("REPRO_TRACE_WINDOW", "256")
        assert resolve_trace_window() == 256
        for bad in ("abc", "-128", "0", "100"):
            monkeypatch.setenv("REPRO_TRACE_WINDOW", bad)
            with pytest.raises(ConfigError):
                resolve_trace_window()


class TestTracehmImport:
    def test_import(self, tmp_path):
        path = tmp_path / "cap.tsv"
        path.write_text(
            "# capture header\n"
            "\n"
            "0\t0x1000\t0\n"
            "5\t8192\t1\n"
            "5\t0x1000\t0\n"
        )
        trace = import_tracehm_tsv(path, tick_ps=1000)
        assert trace.name == "cap"
        assert trace.records == [
            (0, 4096, 0, 0),
            (5000, 8192, 1, 0),
            (5000, 4096, 0, 0),
        ]

    def test_errors_name_the_line(self, tmp_path):
        cases = [
            ("0\t0\t0\n1\t2\n", "expected 3 fields", 2),
            ("0\t0\t0\nx\t2\t0\n", "invalid literal", 2),
            ("0\t0\t0\n5\t2\t0\n1\t2\t0\n", "precedes", 3),
            ("0\t0\t0\n1\t2\t7\n", "is_write", 2),
            ("-1\t2\t0\n", "negative cnt", 1),
            ("0\t0\t0\n1\t-2\t0\n", "negative address", 2),
        ]
        for body, fragment, line_no in cases:
            path = tmp_path / "bad.tsv"
            path.write_text(body)
            with pytest.raises(TraceError) as err:
                import_tracehm_tsv(path)
            assert f"bad.tsv:{line_no}" in str(err.value)
            assert fragment in str(err.value)

    def test_bad_tick_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0\t0\t0\n")
        with pytest.raises(ConfigError):
            import_tracehm_tsv(path, tick_ps=0)

    def test_import_replays(self, tmp_path):
        # An imported capture replays through the simulator end to end.
        path = tmp_path / "cap.tsv"
        lines = [f"{i}\t{(i * 4096) % (1 << 24)}\t{i % 2}" for i in range(600)]
        path.write_text("\n".join(lines) + "\n")
        trace = import_tracehm_tsv(path)
        out = tmp_path / "cap.mpt"
        save_columnar(trace, out)
        loaded = open_columnar(out)
        geometry = scaled_geometry(64)
        a = simulate(trace, build_manager("mempod", geometry))
        b = simulate(loaded, build_manager("mempod", geometry))
        assert a == b


@pytest.mark.skipif(_np is None, reason="streamed grouping requires numpy")
class TestStreamedChunkGroups:
    def _decode(self, addresses):
        a = _np.asarray(addresses, dtype=_np.int64)
        return (a >> 7) % 3, (a >> 9) % 4, a >> 13

    def _columns(self, packed):
        return self._decode(packed.np_addresses())

    def _eager(self, packed):
        ctrls, banks, rows = self._columns(packed)
        return packed.chunk_groups(ctrls, banks, rows)

    @pytest.mark.parametrize("window", [128, 256, 1024, 2048])
    def test_throttled_windows_match_eager(self, sample_trace, window):
        packed = sample_trace.packed()
        streamed = list(packed.chunk_groups_streamed(self._decode, window))
        assert streamed == self._eager(packed)

    def test_window_must_align_with_sample(self, sample_trace):
        packed = sample_trace.packed()
        with pytest.raises(ValueError):
            list(packed.chunk_groups_streamed(self._decode, 192))

    def test_mapped_trace_streams(self, sample_trace, tmp_path):
        path = tmp_path / "s.mpt"
        save_columnar(sample_trace, path)
        packed = open_columnar(path, window=256).packed()
        streamed = list(packed.chunk_groups_streamed(self._decode, 256))
        assert streamed == self._eager(sample_trace.packed())


class TestMappedReplayDifferential:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        geometry = scaled_geometry(64)
        trace = build_trace(
            get_workload("mix2"), geometry, length=4000, seed=7
        ).trace
        path = tmp_path_factory.mktemp("mapped") / "d.mpt"
        save_columnar(trace, path)
        return geometry, trace, path

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_fast_kernel_identical(self, pair, kind):
        geometry, trace, path = pair
        mapped = open_columnar(path, name=trace.name)
        expected = simulate(trace, build_manager(kind, geometry))
        actual = simulate(mapped, build_manager(kind, geometry))
        assert actual == expected

    @pytest.mark.parametrize("kind", ["tlm", "mempod", "thm", "hma", "cameo"])
    @pytest.mark.parametrize("window", [128, 512, 1920])
    def test_windows_identical(self, pair, kind, window):
        geometry, trace, path = pair
        mapped = open_columnar(path, name=trace.name, window=window)
        expected = simulate(trace, build_manager(kind, geometry))
        assert simulate(mapped, build_manager(kind, geometry)) == expected

    @pytest.mark.parametrize("kind", ["mempod", "cameo"])
    def test_reference_kernel_identical(self, pair, kind):
        geometry, trace, path = pair
        mapped = open_columnar(path, name=trace.name)
        short = trace.sliced(0, 1200)
        short_mapped = mapped.sliced(0, 1200)
        expected = reference_simulate(short, build_manager(kind, geometry))
        actual = reference_simulate(short_mapped, build_manager(kind, geometry))
        assert actual == expected


@pytest.mark.skipif(_np is None, reason="the RSS guard targets mapped replay")
class TestStreamingPeakMemory:
    """Replaying ≥16x the window must not materialise trace-length columns.

    tracemalloc tracks numpy's allocations, so a whole-trace decode
    shows up as a multi-plane-sized peak while the windowed replay stays
    near the window's working set.
    """

    @staticmethod
    def _mapped(tmp_path, length):
        geometry = scaled_geometry(64)
        trace = build_trace(get_workload("mcf"), geometry, length=length, seed=3).trace
        path = tmp_path / f"mcf-{length}.mpt"
        save_columnar(trace, path)
        return geometry, path

    @staticmethod
    def _measure(geometry, path, kind, window):
        """``(peak, retained)`` traced bytes of one mapped replay: the
        peak during it and what is still allocated right after (the
        mechanism's state, the result, anything memoised on the trace)."""
        import tracemalloc

        mapped = open_columnar(path, window=window)
        manager = build_manager(kind, geometry)
        tracemalloc.start()
        simulate(mapped, manager)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, retained

    def test_peak_bounded_by_window(self, tmp_path):
        length = 65_536
        window = 4_096
        geometry, path = self._mapped(tmp_path, length)
        whole = length + CHUNK_RECORDS  # one window spanning everything
        self._measure(geometry, path, "tlm", window)  # warm one-time caches
        windowed_peak, _ = self._measure(geometry, path, "tlm", window)
        whole_peak, _ = self._measure(geometry, path, "tlm", whole)
        plane_bytes = 5 * 8 * length
        assert windowed_peak < whole_peak / 2
        assert windowed_peak < plane_bytes / 2

    @pytest.mark.parametrize("kind", ["mempod", "thm", "cameo"])
    def test_per_record_kernels_bounded_by_window(self, tmp_path, kind):
        """The per-record loops' working set above the state they retain.

        THM and CAMEO keep remap state for everything they have swapped
        (the reference loop's state too; CAMEO's line-granularity tables
        are several planes' worth on mcf), so these replays are judged
        by what they allocate above it.  Trace-length columns memoised
        on the trace count as retained in both runs, so they leave the
        windowed excess no smaller than the whole-trace one.  CAMEO's
        excess also carries its tables' resize transients, so it is held
        to the ratio only.
        """
        length = 16_384
        window = 1_024
        geometry, path = self._mapped(tmp_path, length)
        peak, retained = self._measure(geometry, path, kind, window)
        whole_peak, whole_retained = self._measure(
            geometry, path, kind, length + CHUNK_RECORDS
        )
        excess = peak - retained
        assert excess < (whole_peak - whole_retained) / 2
        if kind != "cameo":
            assert excess < 5 * 8 * length / 2

    def test_hma_excess_flat_in_trace_length(self, tmp_path):
        """HMA's kernel defers full-counter updates to the next
        epoch, and the default 100 ms epoch spans any of these traces.
        Applying the deferred updates at least once per window keeps the
        working set above the retained state flat as the trace grows; one
        whole-trace ``record_batch`` would grow with it.
        """
        window = 512
        geometry, short = self._mapped(tmp_path, 8_192)
        _, long = self._mapped(tmp_path, 32_768)
        self._measure(geometry, short, "hma", window)  # warm one-time caches
        short_peak, short_retained = self._measure(geometry, short, "hma", window)
        long_peak, long_retained = self._measure(geometry, long, "hma", window)
        assert long_peak - long_retained < 1.5 * (short_peak - short_retained)
