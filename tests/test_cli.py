"""CLI: argument plumbing and command output."""

import re

import pytest

from repro.cli import main
from repro.common import ConfigError


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep CLI tests hermetic: never touch the user's result cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


SMALL = ["--scale", "64", "--length", "8000", "--seed", "3"]


class TestList:
    def test_lists_workloads_and_mechanisms(self, capsys):
        out = run_cli(capsys, "list")
        assert "mix12" in out
        assert "mempod" in out
        assert "fig8" in out


class TestProfile:
    def test_profiles_named_workloads(self, capsys):
        out = run_cli(capsys, *SMALL, "profile", "cactus", "gems")
        assert "cactus" in out
        assert "gems" in out
        assert "churn" in out

    def test_replay_reports_identity_and_service_engines(self, capsys):
        kinds = ["tlm", "mempod", "thm", "hma", "cameo"]
        out = run_cli(
            capsys, *SMALL, "profile", "xalanc", "--replay", ",".join(kinds)
        )
        lines = out.splitlines()
        rows = [line.split() for line in lines]
        rows = [row for row in rows if row and row[0] in kinds]
        assert [row[0] for row in rows] == kinds
        assert all(row[-1] == "identical" for row in rows)
        engines = [
            line.split("batched services:", 1)[1]
            for line in lines
            if "batched services:" in line
        ]
        assert len(engines) == len(kinds)
        for engine_line in engines:
            names = re.findall(r"([a-z-]+) \d[\d,]*", engine_line)
            assert names == ["closed-form", "scan"]


class TestRun:
    def test_run_reports_all_mechanisms(self, capsys):
        out = run_cli(
            capsys, *SMALL, "run", "xalanc", "--mechanisms", "tlm,hbm-only"
        )
        assert "tlm" in out
        assert "hbm-only" in out
        assert "AMMAT" in out


class TestArtefacts:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "MemPod" in out
        assert "736 B" in out  # the MEA storage headline
        assert "Table 1" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2")
        assert "7-7-7-17" in out

    def test_table3(self, capsys):
        out = run_cli(capsys, "table3")
        assert "libquantum" in out

    def test_fig1_small(self, capsys):
        out = run_cli(capsys, *SMALL, "--workloads", "cactus", "fig1")
        assert "Figure 1" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_workload_subset_flag(self, capsys):
        out = run_cli(
            capsys, *SMALL, "--workloads", "cactus", "fig2"
        )
        assert "cactus" in out
        assert "mix1" not in out


class TestEnergy:
    def test_energy_table(self, capsys):
        out = run_cli(capsys, *SMALL, "energy", "xalanc")
        assert "mempod" in out
        assert "uJ" in out


class TestTrace:
    def test_synth_info_and_replay(self, capsys, tmp_path):
        out_file = tmp_path / "cactus.mpt"
        out = run_cli(capsys, *SMALL, "trace", "synth", "cactus",
                      "-o", str(out_file))
        assert "8,000 records" in out
        assert out_file.exists()
        info = run_cli(capsys, "trace", "info", str(out_file))
        assert "records:     8,000" in info
        assert "page_bytes:  2048" in info
        replay = run_cli(capsys, "run", "--trace", str(out_file),
                         "--mechanisms", "tlm,mempod")
        assert "mempod" in replay
        assert "AMMAT" in replay

    def test_synth_matches_trace_for(self, capsys, tmp_path):
        # The CLI synth writes exactly what trace_for would serve.
        from repro.experiments.common import ExperimentConfig, trace_for
        from repro.trace.store import open_columnar

        out_file = tmp_path / "t.mpt"
        run_cli(capsys, *SMALL, "trace", "synth", "xalanc", "-o", str(out_file))
        config = ExperimentConfig(scale=64, length=8000, seed=3)
        expected = trace_for(config, "xalanc")
        loaded = open_columnar(out_file)
        assert list(loaded.records) == [tuple(r) for r in expected.records]

    def test_import_export_roundtrip(self, capsys, tmp_path):
        tsv = tmp_path / "cap.tsv"
        tsv.write_text("0\t4096\t0\n3\t8192\t1\n9\t4096\t0\n")
        mpt = tmp_path / "cap.mpt"
        out = run_cli(capsys, "trace", "import", str(tsv), "-o", str(mpt),
                      "--tick-ps", "500")
        assert "3 records" in out
        txt = tmp_path / "cap.txt"
        run_cli(capsys, "trace", "export", str(mpt), "-o", str(txt))
        body = txt.read_text()
        assert "1500 0x2000 1 0" in body  # 3 ticks x 500 ps, write
        bin_file = tmp_path / "cap.bin"
        run_cli(capsys, "trace", "export", str(mpt), "-o", str(bin_file))
        from repro.trace.io import load_binary

        assert load_binary(bin_file).records == [
            (0, 4096, 0, 0), (1500, 8192, 1, 0), (4500, 4096, 0, 0),
        ]

    def test_unknown_extension_rejected(self, tmp_path):
        weird = tmp_path / "trace.dat"
        weird.write_text("")
        with pytest.raises(SystemExit):
            main(["trace", "import", str(weird), "-o", str(tmp_path / "o.mpt")])

    def test_run_requires_workload_or_trace(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestRunnerFlags:
    def test_flags_accepted_after_the_subcommand(self, capsys):
        out = run_cli(
            capsys, "fig2", "--scale", "64", "--length", "8000",
            "--seed", "3", "--workloads", "cactus",
        )
        assert "cactus" in out
        assert "mix1" not in out

    def test_warm_second_run_is_identical_and_fully_cached(self, capsys):
        argv = [*SMALL, "--workloads", "cactus", "--jobs", "1", "fig2"]
        assert main(list(argv)) == 0
        cold = capsys.readouterr()
        assert main(list(argv)) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical table
        assert "hit rate 0%" in cold.err
        assert "hit rate 100%" in warm.err

    def test_no_cache_bypasses_the_disk(self, capsys, isolated_cache):
        run_cli(capsys, *SMALL, "--workloads", "cactus", "--no-cache", "fig2")
        assert not isolated_cache.exists()

    def test_cache_dir_flag_wins(self, capsys, tmp_path):
        override = tmp_path / "elsewhere"
        run_cli(
            capsys, *SMALL, "--workloads", "cactus",
            "--cache-dir", str(override), "fig2",
        )
        assert any(override.rglob("*.json"))

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match="^jobs must be a positive integer"):
            main([*SMALL, "--jobs", jobs, "table1"])

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_env_jobs_below_one_rejected(self, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", jobs)
        with pytest.raises(ConfigError, match="^REPRO_JOBS must be a positive integer"):
            main([*SMALL, "table1"])


class TestSweep:
    def test_sweep_runs_selected_artefacts(self, capsys):
        out = run_cli(capsys, *SMALL, "--workloads", "cactus", "sweep",
                      "table1", "fig1")
        assert "== table1 ==" in out
        assert "== fig1 ==" in out
        assert "Table 1" in out
        assert "Figure 1" in out

    def test_sweep_shares_one_runner_summary(self, capsys):
        code = main([*SMALL, "--workloads", "cactus", "sweep", "fig1", "fig2"])
        captured = capsys.readouterr()
        assert code == 0
        # fig1 and fig2 share the oracle cells: one cold miss, one hit.
        assert "2/2 cells" in captured.err

    def test_sweep_rejects_unknown_artefact(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "transmogrify"])
        capsys.readouterr()
