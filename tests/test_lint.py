"""Tests for the project lint (``repro lint``).

Each rule class must fire on a seeded violation and stay silent on the
shipped tree.
"""

import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    lint_source,
    lint_tree,
    package_root,
    run_lint,
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

    def test_run_lint_exits_zero(self):
        out = io.StringIO()
        assert run_lint(stream=out) == 0
        assert "clean" in out.getvalue()


class TestSeededTreeExitCodes:
    """``repro lint`` must exit non-zero for each seeded rule class.

    Violations are seeded into a copy of the real package so the tree
    starts clean and only the seeded defect decides the exit code.
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
