"""Tests for the ``repro lint --deep`` checkers.

Every checker must fire on a seeded violation (proven-to-fire) and stay
silent on the shipped tree; the acceptance case deletes a real
``finally`` write-back from ``repro/kernel/replay.py`` and demands a
finding.
"""

import io
import json

import pytest

from repro.analysis import cachekey as cachekey_mod
from repro.analysis.cachekey import check_cache_keys
from repro.analysis.lint import (
    deep_findings,
    load_allowlist,
    package_root,
    run_lint,
)
from repro.analysis.writeback import check_writeback_source


def wb(source, path="repro/kernel/replay.py", **kwargs):
    return check_writeback_source(source, path, **kwargs)


class TestWritebackChecker:
    def test_fires_on_missing_writeback(self):
        findings = wb(
            "def f(mgr):\n"
            "    cur = mgr.pos\n"
            "    cur = cur + 1\n"
        )
        assert len(findings) == 1
        path, line, site, message = findings[0]
        assert site == "f"
        assert "never writes the value back" in message

    def test_fires_on_escaping_mutation(self):
        # The raising call between the mutation and the bare restore
        # opens an exceptional path that skips the write-back.
        findings = wb(
            "def f(mgr):\n"
            "    cur = mgr.pos\n"
            "    cur = cur + 1\n"
            "    check(mgr)\n"
            "    mgr.pos = cur\n"
        )
        assert len(findings) == 1
        assert "can reach the function exit" in findings[0][3]

    def test_clean_with_finally_restore(self):
        findings = wb(
            "def f(mgr):\n"
            "    cur = mgr.pos\n"
            "    try:\n"
            "        cur = cur + 1\n"
            "        check(mgr)\n"
            "    finally:\n"
            "        mgr.pos = cur\n"
        )
        assert findings == []

    def test_clean_on_readonly_hoist(self):
        findings = wb(
            "def f(mgr):\n"
            "    cur = mgr.pos\n"
            "    return cur + 1\n"
        )
        assert findings == []

    def test_loop_resave_is_not_a_hoist(self):
        # A per-iteration `local = obj.attr` read inside the loop body
        # tracks the attribute; it must not be treated as a hoist pair.
        findings = wb(
            "def f(mgr, items):\n"
            "    for item in items:\n"
            "        cur = mgr.pos\n"
            "        mgr.pos = step(cur, item)\n"
        )
        assert findings == []

    def test_inference_only_in_target_files(self):
        source = "def f(mgr):\n    cur = mgr.pos\n    cur = cur + 1\n"
        assert wb(source, path="repro/other/module.py") == []
        assert wb(source, path="repro/other/module.py", infer_pairs=True)

    def test_declared_contract_fires_on_escaping_set(self):
        findings = wb(
            "def f(engine, sink):\n"
            "    # hoists: engine.swap_sink\n"
            "    engine.swap_sink = sink\n"
            "    work(engine)\n",
            path="repro/other/module.py",
        )
        assert len(findings) == 1
        assert "can exit without a terminal restore" in findings[0][3]

    def test_declared_contract_clean_with_finally(self):
        findings = wb(
            "def f(engine, sink):\n"
            "    # hoists: engine.swap_sink\n"
            "    engine.swap_sink = sink\n"
            "    try:\n"
            "        work(engine)\n"
            "    finally:\n"
            "        engine.swap_sink = None\n",
            path="repro/other/module.py",
        )
        assert findings == []

    def test_stale_contract_fires(self):
        findings = wb(
            "def f(engine):\n"
            "    # hoists: engine.swap_sink\n"
            "    work(engine)\n",
            path="repro/other/module.py",
        )
        assert len(findings) == 1
        assert "stale" in findings[0][3]

    def test_shipped_targets_clean(self):
        base = package_root().parent
        for path in (
            "repro/kernel/replay.py",
            "repro/dram/controller.py",
        ):
            source = (base / path).read_text(encoding="utf-8")
            findings = wb(source, path)
            # the one allowlisted conservative case
            assert [
                (p, s) for p, _, s, _ in findings
            ] == (
                [("repro/dram/controller.py", "ChannelController._service_at")]
                if path.endswith("controller.py")
                else []
            )


class TestWritebackAcceptance:
    def test_deleting_finally_restore_fires(self):
        """The ISSUE acceptance case: drop the finally guard around
        ``manager._next_boundary_ps`` in replay.py -> lint must fail."""
        base = package_root().parent
        lines = (
            (base / "repro/kernel/replay.py")
            .read_text(encoding="utf-8")
            .splitlines(keepends=True)
        )
        deleted = False
        for i, line in enumerate(lines):
            if "finally:" not in line:
                continue
            for j in range(i + 1, min(i + 6, len(lines))):
                if "manager._next_boundary_ps = next_boundary" in lines[j]:
                    del lines[j]
                    deleted = True
                    break
            if deleted:
                break
        assert deleted, "expected a finally-resident boundary restore"
        findings = wb("".join(lines), "repro/kernel/replay.py")
        assert any("_next_boundary_ps" in f[3] for f in findings)


class TestCacheKey:
    def test_shipped_tree_clean(self):
        assert check_cache_keys() == []

    def test_unaccounted_env_read_fires(self, monkeypatch):
        monkeypatch.delitem(cachekey_mod.ACCOUNTED_ENV, "REPRO_KERNEL")
        findings = check_cache_keys()
        assert any(
            f[0] == "repro/system/simulator.py"
            and "REPRO_KERNEL" in f[3]
            for f in findings
        )

    def test_unaccounted_mutable_global_fires(self, monkeypatch):
        monkeypatch.delitem(
            cachekey_mod.ACCOUNTED_GLOBALS,
            "repro/mechanisms/registry.py::_REGISTRY",
        )
        findings = check_cache_keys()
        assert any("_REGISTRY" in f[3] for f in findings)


class TestDeepLintIntegration:
    def test_shipped_tree_clean(self):
        assert deep_findings() == []

    def test_allowlist_gates_service_at(self):
        # Without the allowlist the conservative _service_at finding
        # surfaces -- proving both the checker and the gate are wired.
        findings = deep_findings(allowlist={})
        assert [(f.rule, f.path) for f in findings] == [
            ("hoist-writeback", "repro/dram/controller.py")
        ]

    def test_allowlist_entries_carry_reasons(self):
        allow = load_allowlist()
        key = "repro/dram/controller.py::ChannelController._service_at"
        assert allow["hoist-writeback"][key]
        for rule, entries in allow.items():
            for path, reason in entries.items():
                assert reason, f"allowlist entry {rule}:{path} lacks a reason"

    def test_entries_map_path_to_reason(self, tmp_path):
        allow_file = tmp_path / "allow.json"
        allow_file.write_text(
            json.dumps(
                {
                    "wall-clock": [
                        {"path": "repro/old.py", "reason": "since"},
                        {"path": "repro/new.py", "reason": "because"},
                    ]
                }
            )
        )
        allow = load_allowlist(allow_file)
        assert allow == {
            "wall-clock": {"repro/old.py": "since", "repro/new.py": "because"}
        }

    def test_run_lint_deep_clean(self):
        buf = io.StringIO()
        code = run_lint(deep=True, skip_annotations=True, stream=buf)
        assert code == 0
        out = buf.getvalue()
        assert "repro lint: clean" in out
        for rule in ("hoist-writeback", "cache-key"):
            assert rule in out
        assert "twin-parity" not in out

    def test_run_lint_json_emits_json_lines(self, monkeypatch):
        # Seed a deep finding (un-account an env var) and demand pure
        # JSON-lines output: every line parses, no summary line.
        monkeypatch.delitem(cachekey_mod.ACCOUNTED_ENV, "REPRO_KERNEL")
        buf = io.StringIO()
        code = run_lint(deep=True, as_json=True, skip_annotations=True, stream=buf)
        assert code == 1
        lines = [l for l in buf.getvalue().splitlines() if l]
        assert lines
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == {"rule", "path", "line", "message"}
        assert any(json.loads(l)["rule"] == "cache-key" for l in lines)

    def test_run_lint_json_clean_is_silent(self):
        buf = io.StringIO()
        code = run_lint(deep=True, as_json=True, skip_annotations=True, stream=buf)
        assert code == 0
        assert buf.getvalue() == ""

    def test_cli_accepts_deep_and_json_flags(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["lint", "--deep", "--json"])
        assert args.deep and args.as_json
        args = _build_parser().parse_args(["lint"])
        assert not args.deep and not args.as_json
        with pytest.raises(SystemExit):  # the kernel manifest is gone
            _build_parser().parse_args(["lint", "--update-manifest"])
