"""SweepRunner: serial / parallel / cached runs must be interchangeable."""

import io

import pytest

from repro.experiments import ExperimentConfig, run_comparison
from repro.runner import (
    ProgressTracker,
    ResultCache,
    SweepRunner,
    get_default_runner,
    set_default_runner,
    sim_cell,
)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        scale=64, length=6000, seed=2, workloads=("xalanc", "cactus")
    )


def cells_for(config):
    return [
        sim_cell(config, name, kind)
        for name in config.workloads
        for kind in ("tlm", "mempod")
    ]


class TestEquivalence:
    def test_parallel_equals_serial(self, config):
        serial = SweepRunner(jobs=1, cache=None).map(cells_for(config))
        parallel = SweepRunner(jobs=2, cache=None).map(cells_for(config))
        assert serial == parallel  # result-for-result, in submission order

    def test_warm_cache_equals_cold_and_reports_hits(self, config, tmp_path):
        cold = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        first = cold.map(cells_for(config))
        assert (cold.tracker.hits, cold.tracker.misses) == (0, 4)

        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        second = warm.map(cells_for(config))
        assert (warm.tracker.hits, warm.tracker.misses) == (4, 0)
        assert warm.tracker.hit_rate() == 1.0
        assert first == second

    def test_param_change_misses_the_cache(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        runner.map([sim_cell(config, "xalanc", "mempod")])
        runner.map([sim_cell(config, "xalanc", "mempod", mea_counters=8)])
        assert runner.tracker.misses == 2

    def test_disabled_cache_writes_nothing(self, config, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner = SweepRunner.from_env()
        assert runner.cache is None
        runner.map(cells_for(config)[:1])
        assert list(tmp_path.iterdir()) == []


class TestDriverIntegration:
    def test_comparison_identical_across_execution_modes(self, config, tmp_path):
        serial = run_comparison(
            config, mechanisms=("mempod",),
            runner=SweepRunner(jobs=1, cache=None),
        )
        parallel = run_comparison(
            config, mechanisms=("mempod",),
            runner=SweepRunner(jobs=2, cache=ResultCache(tmp_path)),
        )
        warm_runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        warm = run_comparison(config, mechanisms=("mempod",), runner=warm_runner)

        assert warm_runner.tracker.hit_rate() == 1.0  # zero simulation work
        assert serial.normalized == parallel.normalized == warm.normalized
        assert serial.format_table() == parallel.format_table() == warm.format_table()

    def test_default_runner_is_serial_and_cache_free(self):
        runner = get_default_runner()
        assert runner.jobs >= 1
        assert runner.cache is None

    def test_set_default_runner_round_trips(self):
        replacement = SweepRunner(jobs=1, cache=None)
        previous = set_default_runner(replacement)
        try:
            assert get_default_runner() is replacement
        finally:
            set_default_runner(previous)


class TestProgressTracker:
    def test_counts_and_summary(self):
        tracker = ProgressTracker(stream=io.StringIO())
        tracker.begin(4)
        tracker.cell_done("a", hit=True, seconds=0.0)
        tracker.cell_done("b", hit=False, seconds=0.5)
        assert tracker.done == 2
        assert tracker.hit_rate() == 0.5
        assert "2/4 cells" in tracker.status_line()
        assert "hit rate 50%" in tracker.summary()

    def test_not_live_when_stream_is_not_a_tty(self):
        stream = io.StringIO()
        tracker = ProgressTracker(stream=stream)
        tracker.begin(1)
        tracker.cell_done("a", hit=False, seconds=0.1)
        tracker.finish()
        assert stream.getvalue() == ""  # piped output stays clean

    def test_spans_multiple_map_calls(self, config):
        tracker = ProgressTracker(stream=io.StringIO())
        runner = SweepRunner(jobs=1, cache=None, tracker=tracker)
        runner.map(cells_for(config)[:1])
        runner.map(cells_for(config)[:2])
        assert tracker.total == 3
        assert tracker.done == 3
