"""Project-invariant static analysis (``repro lint``).

Generic linters cannot know this project's contracts, so this module
encodes them as small AST rules over every module under ``src/``:

* ``determinism`` — no module-level ``random`` / ``numpy.random`` use
  outside :mod:`repro.common.rng`: every stochastic component must draw
  from a seeded, labelled :class:`~repro.common.rng.DeterministicRng`.
* ``wall-clock`` — no ``time.time`` / ``time.perf_counter`` /
  ``datetime.now`` (and friends) inside simulation, kernel, tracking,
  or DRAM paths.  Simulated time comes from trace timestamps and
  controller state; only the CLI and the sweep pool measure real time.
* ``mutable-default`` — no mutable default arguments.
* ``bare-except`` — no bare ``except:`` / ``except BaseException`` /
  ``except Exception``: the library's own errors derive from
  :class:`~repro.common.errors.ReproError`, so handlers can be precise.
* ``float-eq`` — no ``==`` / ``!=`` against float literals (stats and
  timing code must use integer picoseconds or ``math.isclose``).
* ``unused-import`` — imported names never referenced (pyflakes' F401,
  available even where ruff is not installed).
* ``annotations`` — every public annotation must resolve at runtime
  (the authority behind ``tests/test_annotations.py``).

``repro lint --deep`` adds the ``cache-key`` checker
(:mod:`repro.analysis.cachekey`; it parses the whole tree, so it is
opt-in for speed): it walks everything reachable from ``simulate()``
and flags environment, wall-clock, or mutable-global reads that are not
folded into the SimCell fingerprint.  The kernels' ``finally``
write-backs are held by tests instead: ``TestManagerState`` in
``tests/test_kernel_differential.py`` faults every kernel mid-replay
and compares the manager state it leaves with the reference loop's, and
``TestFaultMidBatch`` in ``tests/test_dram_controller_batch.py`` does
the same for ``ChannelController.enqueue_batch``.

Exemptions live in ``allowlist.json`` next to this module: each entry
is a ``{"path": ..., "reason": ...}`` object; deep-rule paths may carry
a ``::qualname`` suffix to exempt one function.  ``# noqa`` on a line
suppresses findings on that line.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pkgutil
import re
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Rule ids; ``repro lint``'s summary line names them.
RULES = (
    "determinism",
    "wall-clock",
    "mutable-default",
    "bare-except",
    "float-eq",
    "unused-import",
    "annotations",
)

#: Rule ids of the ``--deep`` checkers.
DEEP_RULES = ("cache-key",)

_ALLOWLIST_FILE = Path(__file__).resolve().parent / "allowlist.json"
_WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns",
    "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
    "process_time", "process_time_ns",
    "now", "utcnow", "today",
})
_WALL_CLOCK_ROOTS = frozenset({"time", "datetime"})

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"})

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def package_root() -> Path:
    """Directory of the installed ``repro`` package (``.../src/repro``)."""
    return Path(__file__).resolve().parent.parent


def load_allowlist(path: Optional[Path] = None) -> Dict[str, Dict[str, str]]:
    """Rule -> {exempt key: justification}.

    Entries are ``{"path": ..., "reason": ...}`` objects.  Keys are
    file paths relative to ``src/``, optionally with a ``::qualname``
    suffix for the deep rules.
    """
    allow_path = path if path is not None else _ALLOWLIST_FILE
    if not allow_path.exists():
        return {}
    with open(allow_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return {
        rule: {entry["path"]: entry["reason"] for entry in entries}
        for rule, entries in data.items()
    }


def _allowed(allowlist: Dict[str, Dict[str, str]], rule: str, path: str) -> bool:
    return path in allowlist.get(rule, ())


class _AstChecker(ast.NodeVisitor):
    """One-pass AST walk applying every syntactic rule to one module."""

    def __init__(self, path: str, source: str, allowlist: Dict[str, Dict[str, str]]) -> None:
        self.path = path
        self.allowlist = allowlist
        self.findings: List[Finding] = []
        self._noqa_lines = {
            number
            for number, line in enumerate(source.splitlines(), start=1)
            if "# noqa" in line
        }
        #: (binding name, line, display) for every import in the module.
        self._imports: List[Tuple[str, int, str]] = []
        #: every identifier referenced anywhere (incl. string annotations).
        self._used_names: set = set()
        self._is_init = path.endswith("__init__.py")

    # -- reporting ------------------------------------------------------

    def _report(self, rule: str, line: int, message: str) -> None:
        if line in self._noqa_lines:
            return
        if _allowed(self.allowlist, rule, self.path):
            return
        self.findings.append(Finding(rule, self.path, line, message))

    # -- determinism ----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top == "random" or alias.name.startswith("numpy.random"):
                self._report(
                    "determinism", node.lineno,
                    f"import of {alias.name!r}: draw from a seeded "
                    "repro.common.rng.DeterministicRng stream instead",
                )
            self._imports.append((alias.asname or top, node.lineno, alias.name))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "__future__":
            return
        if module == "random" or module == "numpy.random":
            self._report(
                "determinism", node.lineno,
                f"import from {module!r}: draw from a seeded "
                "repro.common.rng.DeterministicRng stream instead",
            )
        for alias in node.names:
            if alias.name == "*":
                continue
            if module == "numpy" and alias.name == "random":
                self._report(
                    "determinism", node.lineno,
                    "import of numpy.random: draw from a seeded "
                    "repro.common.rng.DeterministicRng stream instead",
                )
            self._imports.append((alias.asname or alias.name, node.lineno, f"{module}.{alias.name}"))
        self.generic_visit(node)

    # -- wall-clock ------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _WALL_CLOCK_ATTRS:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in _WALL_CLOCK_ROOTS:
                self._report(
                    "wall-clock", node.lineno,
                    f"wall-clock read {ast.unparse(node)}: simulated time must "
                    "come from trace timestamps and controller state "
                    "(real timing belongs in repro/cli.py or repro/runner/pool.py)",
                )
        elif node.attr == "random":
            root = node.value
            if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
                self._report(
                    "determinism", node.lineno,
                    "numpy.random access: draw from a seeded "
                    "repro.common.rng.DeterministicRng stream instead",
                )
        self.generic_visit(node)

    # -- mutable defaults -------------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            )
            if mutable:
                self._report(
                    "mutable-default", default.lineno,
                    "mutable default argument is shared across calls: "
                    "default to None and construct the object inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- bare / broad except ----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "bare-except", node.lineno,
                "bare except: name the exceptions "
                "(library errors derive from repro.common.errors.ReproError)",
            )
        elif isinstance(node.type, ast.Name) and node.type.id in ("BaseException", "Exception"):
            self._report(
                "bare-except", node.lineno,
                f"except {node.type.id} swallows unrelated bugs: catch the "
                "specific errors this block can actually handle",
            )
        self.generic_visit(node)

    # -- float equality ----------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for comparator in [node.left, *node.comparators]:
                if isinstance(comparator, ast.Constant) and isinstance(comparator.value, float):
                    self._report(
                        "float-eq", node.lineno,
                        f"equality against float literal {comparator.value!r}: "
                        "compare integer picoseconds, or use math.isclose for "
                        "derived floating-point statistics",
                    )
                    break
        self.generic_visit(node)

    # -- unused imports ----------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        self._used_names.add(node.id)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        # String constants may be deferred annotations ("tuple[int, int]",
        # TYPE_CHECKING-only names) or __all__ entries; count their
        # identifiers as uses so those imports are not flagged.
        if isinstance(node.value, str):
            self._used_names.update(_IDENTIFIER_RE.findall(node.value))

    def finalize(self) -> None:
        """Emit unused-import findings (``__init__.py`` re-exports exempt)."""
        if self._is_init:
            return
        for binding, line, display in self._imports:
            if binding not in self._used_names:
                self._report(
                    "unused-import", line,
                    f"{display!r} is imported but never used: remove the import",
                )


def lint_source(source: str, path: str, allowlist: Optional[Dict[str, Dict[str, str]]] = None) -> List[Finding]:
    """Run the syntactic rules over one module's source text."""
    allow = allowlist if allowlist is not None else load_allowlist()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding("annotations", path, error.lineno or 0, f"syntax error: {error.msg}")]
    checker = _AstChecker(path, source, allow)
    checker.visit(tree)
    checker.finalize()
    return checker.findings


def _python_files(root: Path) -> Iterable[Tuple[Path, str]]:
    """Yield ``(file, display_path)`` for every module under ``root``."""
    base = root.parent if root.name == "repro" else root
    for file in sorted(root.rglob("*.py")):
        yield file, file.relative_to(base).as_posix()


def lint_tree(
    root: Optional[Path] = None,
    allowlist: Optional[Dict[str, Dict[str, str]]] = None,
) -> List[Finding]:
    """Run the syntactic rules over every module under ``root``.

    ``root`` defaults to the installed ``repro`` package; display paths
    are relative to ``src/`` (e.g. ``repro/system/simulator.py``).
    """
    tree_root = root if root is not None else package_root()
    allow = allowlist if allowlist is not None else load_allowlist()
    findings: List[Finding] = []
    for file, display in _python_files(tree_root):
        findings.extend(lint_source(file.read_text(encoding="utf-8"), display, allow))
    return findings


# -- runtime annotation check ----------------------------------------------


def _annotation_targets(module) -> Iterable[Tuple[str, object]]:
    for name, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                if method.__module__ == module.__name__:
                    yield f"{name}.{method_name}", method
            for prop_name, prop in inspect.getmembers(
                obj, lambda o: isinstance(o, property)
            ):
                if prop.fget is not None and prop.fget.__module__ == module.__name__:
                    yield f"{name}.{prop_name}", prop.fget


def check_annotations() -> List[Finding]:
    """Evaluate every public annotation in the package at runtime.

    ``from __future__ import annotations`` makes a forgotten import a
    latent ``NameError``; this check (the authority behind
    ``tests/test_annotations.py``) forces the evaluation so the defect
    fails in lint/CI instead of in a downstream consumer.
    """
    import repro

    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        modules.append(importlib.import_module(info.name))

    # TYPE_CHECKING-only names (used to break import cycles) still have
    # to resolve; let them fall back to the real classes defined anywhere
    # in the package.  typing/builtin names are deliberately NOT added:
    # an annotation using them must import them.
    fallback: Dict[str, object] = {}
    for module in modules:
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and getattr(obj, "__module__", "").startswith("repro"):
                fallback.setdefault(name, obj)

    findings: List[Finding] = []
    for module in modules:
        display = module.__name__.replace(".", "/") + ".py"
        for label, target in _annotation_targets(module):
            try:
                typing.get_type_hints(target, localns=fallback)
            except (NameError, AttributeError, TypeError) as error:
                findings.append(
                    Finding(
                        "annotations", display,
                        getattr(target, "__code__", None).co_firstlineno
                        if getattr(target, "__code__", None) else 0,
                        f"annotation on {label!r} does not resolve at runtime: "
                        f"{error} (add the missing import)",
                    )
                )
    return findings


# -- external tools ----------------------------------------------------------


def _find_repo_root() -> Optional[Path]:
    """The checkout root (contains pyproject.toml), if we are in one."""
    for candidate in Path(__file__).resolve().parents:
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def deep_findings(
    root: Optional[Path] = None,
    allowlist: Optional[Dict[str, Dict[str, str]]] = None,
) -> List[Finding]:
    """Run the ``--deep`` checkers over the tree.

    Applies ``# noqa`` line suppression and the allowlist (a deep
    finding is exempt if either its file path or ``path::qualname`` is
    listed under the rule).
    """
    from .cachekey import check_cache_keys

    allow = allowlist if allowlist is not None else load_allowlist()
    base = root if root is not None else package_root()
    findings: List[Finding] = []
    rule = "cache-key"
    for path, line, site, message in check_cache_keys(base):
        if _allowed(allow, rule, path) or _allowed(
            allow, rule, f"{path}::{site}"
        ):
            continue
        file = base.parent / path
        lines = file.read_text(encoding="utf-8").splitlines() if file.exists() else []
        if 1 <= line <= len(lines) and "# noqa" in lines[line - 1]:
            continue
        findings.append(Finding(rule, path, line, message))
    return findings


def run_external_tools(stream) -> bool:
    """Run ruff and mypy when installed; returns False on any failure.

    Missing tools are skipped with a notice (the container may not ship
    them); CI installs both, making this a hard gate there.
    """
    import importlib.util
    import subprocess
    import sys

    repo_root = _find_repo_root()
    if repo_root is None:
        print("external tools skipped: not running from a checkout", file=stream)
        return True
    ok = True
    commands = []
    if importlib.util.find_spec("ruff") is not None:
        commands.append(("ruff", [sys.executable, "-m", "ruff", "check", "src", "tests", "benchmarks"]))
    else:
        print("ruff not installed; skipping (pip install ruff)", file=stream)
    if importlib.util.find_spec("mypy") is not None:
        commands.append(("mypy", [sys.executable, "-m", "mypy"]))
    else:
        print("mypy not installed; skipping (pip install mypy)", file=stream)
    for name, command in commands:
        proc = subprocess.run(command, cwd=repo_root, capture_output=True, text=True)
        output = (proc.stdout + proc.stderr).strip()
        if proc.returncode != 0:
            ok = False
            print(f"{name} failed:", file=stream)
            if output:
                print(output, file=stream)
        else:
            print(f"{name}: ok", file=stream)
    return ok


# -- entry point -------------------------------------------------------------


def run_lint(
    root: Optional[Path] = None,
    external: bool = False,
    skip_annotations: bool = False,
    deep: bool = False,
    as_json: bool = False,
    stream=None,
) -> int:
    """Run every lint layer; print findings; return a process exit code.

    ``deep`` adds the cache-key checker.
    ``as_json`` emits one JSON object per finding (keys
    ``rule``/``path``/``line``/``message``) and no summary line, for
    machine consumption in CI.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    findings = lint_tree(root)
    if not skip_annotations:
        findings.extend(check_annotations())
    if deep:
        findings.extend(deep_findings(root))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        if as_json:
            print(
                json.dumps(
                    {
                        "rule": finding.rule,
                        "path": finding.path,
                        "line": finding.line,
                        "message": finding.message,
                    }
                ),
                file=out,
            )
        else:
            print(finding.format(), file=out)

    external_ok = run_external_tools(out) if external else True

    if as_json:
        return 1 if findings or not external_ok else 0
    checked = ", ".join(sorted(RULES + DEEP_RULES if deep else RULES))
    if findings:
        print(f"repro lint: {len(findings)} finding(s) [{checked}]", file=out)
        return 1
    print(f"repro lint: clean [{checked}]", file=out)
    return 0 if external_ok else 1
