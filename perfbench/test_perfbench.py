"""Tests of the benchmark itself (not part of the simulator's suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE, ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibrate  # noqa: E402
import cells  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from churn import churn_records, churn_trace  # noqa: E402
from repro.geometry import scaled_geometry  # noqa: E402
from spans import Tracer  # noqa: E402
from test_micro_hotpaths import churn_trace as fixture_churn_trace  # noqa: E402,F401
from test_micro_hotpaths import geometry  # noqa: E402,F401


@pytest.fixture(scope="module")
def small():
    geo = scaled_geometry(32)
    return churn_trace(geo, 5, 3_000), geo


class TestChurnGenerator:
    def test_seed_23_reproduces_the_micro_benchmark_fixture(self, fixture_churn_trace, geometry):
        assert churn_records(geometry, 23, 20_000) == fixture_churn_trace.records

    def test_same_seed_same_records_other_seed_other_records(self):
        geo = scaled_geometry(32)
        first = churn_records(geo, 7, 4_000)
        assert churn_records(geo, 7, 4_000) == first
        for seed in (8, 9, 1234):
            assert churn_records(geo, seed, 4_000) != first

    def test_prefix_is_stable_across_lengths(self):
        geo = scaled_geometry(32)
        assert churn_records(geo, 3, 5_000)[:2_000] == churn_records(geo, 3, 2_000)


class TestGate:
    def _replay(self, trace, geo, mechanism="mempod"):
        return cells._replay(f"churn/{mechanism}", mechanism, trace, geo, {})

    def test_identical_results_pass(self, small):
        trace, geo = small
        replay = self._replay(trace, geo)
        attempted, failures = gate.check([replay], {replay.label: replay.digest})
        assert (attempted, failures) == (1, [])

    def test_perturbed_result_is_counted(self, small):
        trace, geo = small
        replay = self._replay(trace, geo)
        reference = {replay.label: replay.digest}
        replay.result = dataclasses.replace(
            replay.result, ammat_ns=replay.result.ammat_ns * (1 + 1e-12)
        )
        attempted, failures = gate.check([replay], reference)
        assert attempted == 1 and len(failures) == 1
        assert "differs" in failures[0]

    def test_raising_replay_is_counted(self, small, monkeypatch):
        trace, geo = small
        good = self._replay(trace, geo, "tlm")

        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(cells.simulator, "simulate", broken)
        bad = self._replay(trace, geo, "tlm")
        assert bad.error == "RuntimeError: injected"
        attempted, failures = gate.check([good, bad], {good.label: good.digest})
        assert attempted == 2 and len(failures) == 1
        assert "raised" in failures[0]

    def test_digest_covers_every_field(self, small):
        trace, geo = small
        result = self._replay(trace, geo).result
        base = gate.digest(result)
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            if isinstance(value, str):
                changed = value + "x"
            elif isinstance(value, dict):
                changed = {**value, "extra": 1.0}
            else:
                changed = value + 1
            assert gate.digest(dataclasses.replace(result, **{f.name: changed})) != base


class TestTracer:
    def test_self_times_add_up_to_the_root(self):
        tracer = Tracer()

        def leaf():
            sum(range(20_000))

        wrapped_leaf = tracer.wrap("leaf", leaf)

        def middle():
            wrapped_leaf()
            wrapped_leaf()

        wrapped_middle = tracer.wrap("middle", middle)
        with tracer.span("root"):
            wrapped_middle()
            wrapped_leaf()
        assert tracer.calls("leaf") == 3 and tracer.calls("middle") == 1
        total = sum(agg.self_ns for agg in tracer.aggregates.values())
        assert total == tracer.aggregates["root"].total_ns
        parents = {span_id: parent for span_id, _, _, _, parent in tracer.spans}
        root_id = next(s[0] for s in tracer.spans if s[1] == "root")
        middle_id = next(s[0] for s in tracer.spans if s[1] == "middle")
        assert parents[middle_id] == root_id and parents[root_id] == 0

    def test_installed_restores_every_original(self, small):
        trace, geo = small
        originals = [
            owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            for owner, attr, _ in layers._WRAPPED
        ]
        before = (cells.simulator.simulate, cells.simulator.build_manager,
                  cells.kernel_replay.select_kernel)
        tracer = layers.new_tracer()
        with layers.installed(tracer):
            with tracer.span(layers.BODY):
                replay = cells._replay("churn/mempod", "mempod", trace, geo, {})
        assert replay.error is None
        assert tracer.calls("kernel.mempod.replay") == 1
        assert tracer.dispatch_reasons == ["specialised:mempod"]
        assert len(tracer.managers) == 1
        after = [
            owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            for owner, attr, _ in layers._WRAPPED
        ]
        assert after == originals
        assert (cells.simulator.simulate, cells.simulator.build_manager,
                cells.kernel_replay.select_kernel) == before


class TestCalibration:
    def test_sampler_samples_inside_a_span_and_leaves_its_time_out(self):
        handler = signal.getsignal(signal.SIGALRM)
        start = time.perf_counter()
        with calibrate.HostSampler(interval_s=0.005) as sampler:
            mark = sampler.mark()
            calibrate._work(300_000)
            seconds, factor = sampler.close(mark)
        wall = time.perf_counter() - start
        assert len(sampler.factors) >= 2 and factor > 0
        assert sampler.spent > 0 and seconds <= wall - sampler.spent
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_replay_carries_its_host_factor(self, small):
        trace, geo = small
        with calibrate.HostSampler(interval_s=0.005) as sampler:
            replay = cells._replay("churn/tlm", "tlm", trace, geo, {}, sampler)
        assert replay.host_factor > 0
        assert replay.calibrated_seconds == replay.seconds / replay.host_factor


class TestBenchmarkJson:
    def test_metric_names_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
        # mix8-steady stays runnable by hand; the driver's budget fits two
        assert [w["name"] for w in spec["workloads"]] == ["churn", "sweep-cold"]
        assert set(cells.WORKLOADS) == {"mix8-steady", "churn", "sweep-cold"}

    def test_recorded_digests_cover_every_cell(self):
        recorded = json.loads(run.DIGESTS.read_text())
        for name, workload in cells.WORKLOADS.items():
            digests = recorded[name][str(run.DEFAULT_SEED)]
            if name == "sweep-cold":
                expected = {f"{w}/{m}" for w, m in workload.cell_specs()}
            else:
                trace = "mix8" if name == "mix8-steady" else "churn"
                expected = {f"{trace}/{m}" for m in cells.MECHANISMS}
            assert set(digests) == expected
