"""Tests for the ``repro lint --deep`` cache-key checker.

The checker must fire on a seeded violation (proven-to-fire) and stay
silent on the shipped tree.
"""

import io
import json

import pytest

from repro.analysis import cachekey as cachekey_mod
from repro.analysis.cachekey import check_cache_keys
from repro.analysis.lint import (
    deep_findings,
    load_allowlist,
    run_lint,
)


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

    def test_allowlist_gates_deep_findings(self, monkeypatch):
        # An unaccounted env read surfaces as a finding, and an
        # allowlist entry for its function silences it -- proving both
        # the checker and the gate are wired.
        monkeypatch.delitem(cachekey_mod.ACCOUNTED_ENV, "REPRO_KERNEL")
        findings = deep_findings(allowlist={})
        assert [(f.rule, f.path) for f in findings] == [
            ("cache-key", "repro/system/simulator.py")
        ]
        site = "repro/system/simulator.py::resolve_kernel"
        assert deep_findings(allowlist={"cache-key": {site: "why"}}) == []

    def test_allowlist_entries_carry_reasons(self):
        allow = load_allowlist()
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
        assert "cache-key" in out
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
