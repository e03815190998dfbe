"""Tests for the project lint (``repro lint``).

Each rule class must fire on a seeded violation and stay silent on the
shipped tree; the kernel-drift detector must catch semantic edits to
fingerprinted functions while ignoring pure formatting changes.
"""

import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    KERNEL_FINGERPRINT_FUNCTIONS,
    Finding,
    check_kernel_manifest,
    kernel_fingerprints,
    lint_source,
    lint_tree,
    load_kernel_manifest,
    package_root,
    run_lint,
    write_kernel_manifest,
)


def rules_of(findings):
    return {f.rule for f in findings}


class TestDeterminismRule:
    def test_import_random(self):
        findings = lint_source("import random\nx = random.choice([1])\n", "repro/foo.py")
        assert rules_of(findings) == {"determinism"}

    def test_from_random_import(self):
        findings = lint_source(
            "from random import choice\nx = choice([1])\n", "repro/foo.py"
        )
        assert rules_of(findings) == {"determinism"}

    def test_numpy_random_attribute(self):
        findings = lint_source(
            "import numpy as np\nx = np.random.rand()\n", "repro/foo.py"
        )
        assert "determinism" in rules_of(findings)

    def test_from_numpy_import_random(self):
        findings = lint_source(
            "from numpy import random\nx = random.rand()\n", "repro/foo.py"
        )
        assert "determinism" in rules_of(findings)

    def test_allowlisted_in_rng_module(self):
        findings = lint_source(
            "import random\nx = random.Random(0)\n", "repro/common/rng.py"
        )
        assert findings == []

    def test_fix_it_message_names_the_rng_module(self):
        (finding,) = lint_source("import random\nrandom.seed(0)\n", "repro/foo.py")
        assert "repro.common.rng" in finding.message


class TestWallClockRule:
    def test_time_time(self):
        findings = lint_source(
            "import time\nt = time.time()\n", "repro/system/foo.py"
        )
        assert rules_of(findings) == {"wall-clock"}

    def test_perf_counter(self):
        findings = lint_source(
            "import time\nt = time.perf_counter()\n", "repro/system/foo.py"
        )
        assert rules_of(findings) == {"wall-clock"}

    def test_datetime_now(self):
        findings = lint_source(
            "import datetime\nt = datetime.datetime.now()\n", "repro/system/foo.py"
        )
        assert rules_of(findings) == {"wall-clock"}

    def test_allowlisted_in_cli_and_pool(self):
        source = "import time\nt = time.perf_counter()\n"
        assert lint_source(source, "repro/cli.py") == []
        assert lint_source(source, "repro/runner/pool.py") == []

    def test_simulated_time_attribute_is_fine(self):
        # arrival_ps-style attribute access must not be confused with a
        # wall-clock read: the root object is not the time module.
        findings = lint_source(
            "def f(ctrl):\n    return ctrl.now\n", "repro/system/foo.py"
        )
        assert findings == []


class TestMutableDefaultRule:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "defaultdict(int)"]
    )
    def test_fires(self, default):
        findings = lint_source(f"def f(x={default}):\n    return x\n", "repro/foo.py")
        assert "mutable-default" in rules_of(findings)

    def test_keyword_only_default(self):
        findings = lint_source("def f(*, x=[]):\n    return x\n", "repro/foo.py")
        assert rules_of(findings) == {"mutable-default"}

    def test_none_default_is_fine(self):
        assert lint_source("def f(x=None):\n    return x\n", "repro/foo.py") == []

    def test_tuple_default_is_fine(self):
        assert lint_source("def f(x=()):\n    return x\n", "repro/foo.py") == []


class TestBareExceptRule:
    def test_bare(self):
        findings = lint_source(
            "try:\n    pass\nexcept:\n    pass\n", "repro/foo.py"
        )
        assert rules_of(findings) == {"bare-except"}

    @pytest.mark.parametrize("broad", ["Exception", "BaseException"])
    def test_broad(self, broad):
        findings = lint_source(
            f"try:\n    pass\nexcept {broad}:\n    pass\n", "repro/foo.py"
        )
        assert rules_of(findings) == {"bare-except"}

    def test_specific_is_fine(self):
        source = "try:\n    pass\nexcept (OSError, ValueError):\n    pass\n"
        assert lint_source(source, "repro/foo.py") == []


class TestFloatEqRule:
    def test_eq_against_float_literal(self):
        findings = lint_source("def f(x):\n    return x == 1.0\n", "repro/foo.py")
        assert rules_of(findings) == {"float-eq"}

    def test_neq_against_float_literal(self):
        findings = lint_source("def f(x):\n    return 0.5 != x\n", "repro/foo.py")
        assert rules_of(findings) == {"float-eq"}

    def test_ordering_comparison_is_fine(self):
        assert lint_source("def f(x):\n    return x <= 0.0\n", "repro/foo.py") == []

    def test_int_literal_is_fine(self):
        assert lint_source("def f(x):\n    return x == 0\n", "repro/foo.py") == []


class TestUnusedImportRule:
    def test_fires(self):
        findings = lint_source("import os\n", "repro/foo.py")
        assert rules_of(findings) == {"unused-import"}

    def test_used_import_is_fine(self):
        assert lint_source("import os\np = os.sep\n", "repro/foo.py") == []

    def test_string_annotation_counts_as_use(self):
        source = (
            "from typing import Tuple\n"
            'def f(x) -> "Tuple[int, int]":\n'
            "    return x, x\n"
        )
        assert lint_source(source, "repro/foo.py") == []

    def test_init_reexports_exempt(self):
        assert lint_source("from os import sep\n", "repro/pkg/__init__.py") == []

    def test_tests_and_benchmarks_import_nothing_unused(self):
        # CI's ruff gate (pyflakes F401) covers tests/ and benchmarks/
        # too; this keeps a host without ruff honest about them.
        repo = Path(__file__).resolve().parent.parent
        findings = [
            finding.format()
            for root in ("tests", "benchmarks")
            for file in sorted((repo / root).rglob("*.py"))
            for finding in lint_source(
                file.read_text(), file.relative_to(repo).as_posix(), allowlist={}
            )
            if finding.rule == "unused-import"
        ]
        assert findings == [], "\n".join(findings)


class TestSuppression:
    def test_noqa_suppresses_the_line(self):
        findings = lint_source(
            "import time\nt = time.time()  # noqa: wall-clock is test scaffolding\n",
            "repro/system/foo.py",
        )
        assert findings == []

    def test_finding_format(self):
        finding = Finding("float-eq", "repro/foo.py", 7, "message text")
        assert finding.format() == "repro/foo.py:7: [float-eq] message text"


class TestShippedTree:
    def test_lint_tree_is_clean(self):
        findings = lint_tree()
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_kernel_manifest_matches(self):
        findings = check_kernel_manifest()
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_run_lint_exits_zero(self):
        out = io.StringIO()
        assert run_lint(stream=out) == 0
        assert "clean" in out.getvalue()


class TestSeededTreeExitCodes:
    """``repro lint`` must exit non-zero for each seeded rule class.

    Violations are seeded into a copy of the real package so the
    kernel-drift layer starts clean and only the seeded defect decides
    the exit code.
    """

    def _tree(self, tmp_path, source):
        root = tmp_path / "repro"
        shutil.copytree(package_root(), root)
        (root / "zz_seeded.py").write_text(source, encoding="utf-8")
        return root

    def _exit_code(self, tmp_path, source):
        root = self._tree(tmp_path, source)
        out = io.StringIO()
        code = run_lint(root=root, skip_annotations=True, stream=out)
        return code, out.getvalue()

    def test_clean_tree_exits_zero(self, tmp_path):
        code, _ = self._exit_code(tmp_path, "x = 1\n")
        assert code == 0

    def test_determinism_violation(self, tmp_path):
        code, output = self._exit_code(tmp_path, "import random\nrandom.seed(0)\n")
        assert code == 1
        assert "[determinism]" in output

    def test_wall_clock_violation(self, tmp_path):
        code, output = self._exit_code(tmp_path, "import time\nt = time.time()\n")
        assert code == 1
        assert "[wall-clock]" in output

    def test_mutable_default_violation(self, tmp_path):
        code, output = self._exit_code(
            tmp_path, "def f(x=[]):\n    return x\n"
        )
        assert code == 1
        assert "[mutable-default]" in output

    def test_kernel_drift_violation(self, tmp_path):
        root = self._tree(tmp_path, "x = 1\n")
        target = root / "system" / "simulator.py"
        source = target.read_text(encoding="utf-8")
        target.write_text(
            source.replace(
                "countdown = THROTTLE_SAMPLE_PERIOD",
                "countdown = THROTTLE_SAMPLE_PERIOD + 1",
                1,
            ),
            encoding="utf-8",
        )
        out = io.StringIO()
        code = run_lint(root=root, skip_annotations=True, stream=out)
        assert code == 1
        assert "[kernel-drift]" in out.getvalue()


class TestKernelDrift:
    """The drift detector over the *real* tree."""

    def test_every_tracked_function_exists(self):
        fingerprints = kernel_fingerprints()
        missing = [k for k, v in fingerprints.items() if v == "<missing>"]
        assert missing == []
        assert set(fingerprints) == set(KERNEL_FINGERPRINT_FUNCTIONS)

    def test_manifest_covers_every_tracked_function(self):
        manifest = load_kernel_manifest()
        assert set(manifest) == set(KERNEL_FINGERPRINT_FUNCTIONS)

    def test_missing_manifest_reported(self, tmp_path):
        findings = check_kernel_manifest(manifest_path=tmp_path / "absent.json")
        assert rules_of(findings) == {"kernel-drift"}
        assert "--update-manifest" in findings[0].message

    @pytest.fixture()
    def tree_copy(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(package_root(), copy)
        return copy

    def test_copy_matches_manifest(self, tree_copy):
        assert check_kernel_manifest(root=tree_copy) == []

    def test_semantic_edit_is_drift(self, tree_copy):
        # Change reference_simulate's initial countdown: a one-token
        # semantic change the fast kernel would no longer replicate.
        target = tree_copy / "system" / "simulator.py"
        source = target.read_text(encoding="utf-8")
        assert "countdown = THROTTLE_SAMPLE_PERIOD" in source
        target.write_text(
            source.replace(
                "countdown = THROTTLE_SAMPLE_PERIOD",
                "countdown = THROTTLE_SAMPLE_PERIOD + 1",
                1,
            ),
            encoding="utf-8",
        )
        findings = check_kernel_manifest(root=tree_copy)
        assert len(findings) == 1
        assert findings[0].rule == "kernel-drift"
        assert "reference_simulate" in findings[0].message
        assert "test_kernel_differential" in findings[0].message

    def test_formatting_edit_is_not_drift(self, tree_copy):
        # Comments and blank lines inside a fingerprinted function are
        # normalized away: formatting churn must not demand a re-proof.
        target = tree_copy / "system" / "simulator.py"
        source = target.read_text(encoding="utf-8")
        marker = "    handle = manager.handle\n"
        assert source.count(marker) >= 1
        target.write_text(
            source.replace(
                marker, "    # hoisted binding\n\n    handle = manager.handle\n", 1
            ),
            encoding="utf-8",
        )
        assert check_kernel_manifest(root=tree_copy) == []

    def test_deleted_function_reported(self, tree_copy):
        target = tree_copy / "managers" / "static.py"
        source = target.read_text(encoding="utf-8")
        target.write_text(
            source.replace("def handle(", "def handle_renamed(", 1),
            encoding="utf-8",
        )
        findings = check_kernel_manifest(root=tree_copy)
        assert findings and all(f.rule == "kernel-drift" for f in findings)
        assert any("no longer exists" in f.message for f in findings)

    def test_update_manifest_reacknowledges(self, tree_copy, tmp_path):
        target = tree_copy / "system" / "simulator.py"
        source = target.read_text(encoding="utf-8")
        target.write_text(
            source.replace(
                "countdown = THROTTLE_SAMPLE_PERIOD",
                "countdown = THROTTLE_SAMPLE_PERIOD + 1",
                1,
            ),
            encoding="utf-8",
        )
        manifest = tmp_path / "manifest.json"
        write_kernel_manifest(manifest_path=manifest, root=tree_copy)
        assert check_kernel_manifest(manifest_path=manifest, root=tree_copy) == []


class TestCli:
    def test_repro_lint_subcommand(self):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro lint: clean" in proc.stdout
