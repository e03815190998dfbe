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
* ``kernel-drift`` — the reference hot-loop functions specialised by
  :mod:`repro.kernel.replay` are fingerprinted in
  ``kernel_manifest.json``; editing one fails lint until the change is
  re-proven bit-identical (``tests/test_kernel_differential.py``) and
  re-acknowledged with ``repro lint --update-manifest``.
* ``annotations`` — every public annotation must resolve at runtime
  (the authority behind ``tests/test_annotations.py``).
* ``mechanism-registry`` — every spec registered in
  :mod:`repro.mechanisms.registry` still validates: legal
  trigger/flexibility, factory shape agreement, importable tracker
  path, unique and consistent names, canonical kinds present.

``repro lint --deep`` adds two CFG checkers (they import and analyse
the whole tree, so they are opt-in for speed):

* ``hoist-writeback`` — :mod:`repro.analysis.writeback` proves that
  every controller/manager attribute hoisted into a local is written
  back on *all* exits, including exceptional ones, and that declared
  ``# hoists:`` contracts hold.
* ``cache-key`` — :mod:`repro.analysis.cachekey` walks everything
  reachable from ``simulate()`` and flags environment, wall-clock, or
  mutable-global reads that are not folded into the SimCell
  fingerprint.

Exemptions live in ``allowlist.json`` next to this module: each entry
is either a bare path (legacy) or ``{"path": ..., "reason": ...}``;
deep-rule paths may carry a ``::qualname`` suffix to exempt one
function.  ``# noqa`` on a line suppresses findings on that line.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import re
import tokenize
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: rule id -> one-line description (shown by ``repro lint --rules``).
RULES: Dict[str, str] = {
    "determinism": "randomness must flow through repro.common.rng",
    "wall-clock": "no wall-clock reads inside simulation paths",
    "mutable-default": "no mutable default arguments",
    "bare-except": "no bare/broad except clauses",
    "float-eq": "no equality comparisons against float literals",
    "unused-import": "no imports that are never used",
    "kernel-drift": "reference hot-loop functions match the kernel manifest",
    "annotations": "every annotation resolves at runtime",
    "mechanism-registry": "every registered mechanism spec resolves",
}

#: rule id -> description for the ``--deep`` CFG checkers.
DEEP_RULES: Dict[str, str] = {
    "hoist-writeback": "hoisted state is written back on every exit path",
    "cache-key": "no unfingerprinted inputs reachable from simulate()",
}

_ALLOWLIST_FILE = Path(__file__).resolve().parent / "allowlist.json"
_MANIFEST_FILE = Path(__file__).resolve().parent / "kernel_manifest.json"

#: Reference hot-loop functions the fast kernel specialises; each is
#: fingerprinted so silent drift from the bit-identical contract is
#: impossible.  Keys are ``<path relative to src/>::<qualname>``.
KERNEL_FINGERPRINT_FUNCTIONS: Tuple[str, ...] = (
    # the replay loop itself (throttle sampling semantics)
    "repro/system/simulator.py::reference_simulate",
    # shared swap pacing / page blocking mechanics
    "repro/managers/base.py::MemoryManager._schedule_swaps",
    "repro/managers/base.py::MemoryManager._issue_due_swaps",
    "repro/managers/base.py::MemoryManager._apply_swap",
    "repro/managers/base.py::MemoryManager._block_page",
    "repro/managers/base.py::MemoryManager._block_penalty_ps",
    "repro/managers/base.py::MemoryManager.finish",
    # the composed execution skeleton every mechanism now runs on
    "repro/managers/base.py::ComposedManager._tick",
    "repro/managers/base.py::ComposedManager._swap_remap",
    "repro/managers/base.py::ComposedManager._apply_swap",
    "repro/core/remap.py::RemapTable.swap_frames",
    "repro/core/remap.py::RemapTable._set",
    # per-mechanism handle paths the kernels inline
    "repro/core/mempod.py::MemPodManager.handle",
    "repro/core/mempod.py::MemPodManager._run_boundary",
    "repro/core/mempod.py::MemPodManager._swap_remap",
    "repro/managers/hma.py::HmaManager.handle",
    "repro/managers/hma.py::HmaManager._run_boundary",
    "repro/managers/thm.py::ThmManager.handle",
    "repro/managers/thm.py::ThmManager._migrate",
    "repro/managers/cameo.py::CameoManager.handle",
    "repro/managers/cameo.py::CameoManager.group_of",
    "repro/managers/static.py::NoMigrationManager.handle",
    "repro/managers/static.py::SingleLevelManager.handle",
    # memory routing and the throttle's saturation probe (TieredMemory
    # serves every tier count; HybridMemory/SingleLevelMemory are thin
    # constructors over it)
    "repro/system/hybrid.py::TieredMemory.access",
    "repro/system/hybrid.py::TieredMemory.tier_of",
    "repro/system/hybrid.py::TieredMemory.locate",
    "repro/system/hybrid.py::TieredMemory.peak_bus_free_ps",
    # the spec-declared migration legality every swap passes through
    "repro/managers/base.py::MemoryManager._check_swap_tiers",
    # controller access accounting the kernels enqueue into directly,
    # and the scheduling internals enqueue_batch inlines
    "repro/dram/controller.py::ChannelController.enqueue",
    "repro/dram/controller.py::ChannelController.enqueue_batch",
    "repro/dram/controller.py::ChannelController._choose",
    "repro/dram/controller.py::ChannelController._service_at",
    "repro/dram/bank.py::Bank.access",
    # the address mapping the kernels inline at their remapped-decode
    # sites (shifts and masks hoisted into locals)
    "repro/dram/address.py::AddressMapper.fast_decode",
    # the migration datapath's batched transaction pattern (CAMEO's
    # kernel issues the line-swap pattern and its swap count inline),
    # and the kernels' swap sink that merges it into buffered demand
    # columns
    "repro/core/datapath.py::MigrationEngine.swap_pages",
    "repro/core/datapath.py::MigrationEngine.swap_lines",
    "repro/core/datapath.py::MigrationStats.note_swap",
    "repro/kernel/replay.py::_swap_merged_buffers",
    # the tracker updates the kernels drive: MEA per record, hma's
    # deferred full-counter batch once per epoch or window
    "repro/tracking/mea.py::MeaTracker.record",
    "repro/tracking/full_counters.py::FullCountersTracker.record_batch",
    # the streamed trace path: the windowed grouping and its one-sort
    # window helper, the windowed record source of the per-record loops,
    # and the decode helpers must keep matching the eager plane builders
    # bit for bit (windowed-vs-eager differential suites)
    "repro/trace/packed.py::PackedTrace.chunk_groups",
    "repro/trace/packed.py::PackedTrace.chunk_groups_streamed",
    "repro/trace/packed.py::_group_window",
    "repro/trace/packed.py::PackedTrace.from_planes",
    "repro/kernel/replay.py::_single_decode_np",
    "repro/kernel/replay.py::_hybrid_decode_np",
    "repro/kernel/replay.py::_hybrid_decode",
    "repro/kernel/replay.py::_record_stream",
    "repro/kernel/replay.py::_stream_window",
)

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

    Entries are bare path strings (legacy, empty justification) or
    ``{"path": ..., "reason": ...}`` objects.  Keys are file paths
    relative to ``src/``, optionally with a ``::qualname`` suffix for
    the deep rules.
    """
    allow_path = path if path is not None else _ALLOWLIST_FILE
    if not allow_path.exists():
        return {}
    with open(allow_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    out: Dict[str, Dict[str, str]] = {}
    for rule, entries in data.items():
        normalized: Dict[str, str] = {}
        for entry in entries:
            if isinstance(entry, str):
                normalized[entry] = ""
            else:
                normalized[entry["path"]] = entry.get("reason", "")
        out[rule] = normalized
    return out


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


# -- kernel-drift detection -------------------------------------------------


def _function_node(tree: ast.Module, qualname: str):
    """Locate a (possibly nested/method) function definition by qualname."""
    node: ast.AST = tree
    for part in qualname.split("."):
        children = getattr(node, "body", [])
        node = None  # type: ignore[assignment]
        for child in children:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name == part:
                    node = child
                    break
        if node is None:
            return None
    return node if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None


_FINGERPRINT_SKIP_TOKENS = frozenset({
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
})


def _normalized_fingerprint(source: str, node) -> str:
    """SHA-256 over the function's token stream, comments/docstring/layout
    stripped — stable across pure formatting changes and Python versions."""
    segment = ast.get_source_segment(source, node) or ""
    doc_lines: range = range(0)
    body = node.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        start = body[0].lineno - node.lineno + 1
        end = (body[0].end_lineno or body[0].lineno) - node.lineno + 1
        doc_lines = range(start, end + 1)
    parts: List[str] = []
    for tok in tokenize.generate_tokens(io.StringIO(segment).readline):
        if tok.type in _FINGERPRINT_SKIP_TOKENS:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in doc_lines:
            continue
        parts.append(f"{tok.type}:{tok.string}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def kernel_fingerprints(root: Optional[Path] = None) -> Dict[str, str]:
    """Current normalized fingerprints of every tracked hot-loop function.

    A function that cannot be found maps to ``"<missing>"`` so drift and
    deletion both surface in the manifest comparison.
    """
    tree_root = root if root is not None else package_root()
    base = tree_root.parent if tree_root.name == "repro" else tree_root
    fingerprints: Dict[str, str] = {}
    sources: Dict[str, Tuple[str, ast.Module]] = {}
    for key in KERNEL_FINGERPRINT_FUNCTIONS:
        rel_path, qualname = key.split("::", 1)
        if rel_path not in sources:
            file = base / rel_path
            text = file.read_text(encoding="utf-8") if file.exists() else ""
            sources[rel_path] = (text, ast.parse(text, filename=rel_path))
        text, module_tree = sources[rel_path]
        node = _function_node(module_tree, qualname)
        fingerprints[key] = (
            _normalized_fingerprint(text, node) if node is not None else "<missing>"
        )
    return fingerprints


def load_kernel_manifest(manifest_path: Optional[Path] = None) -> Dict[str, str]:
    """The acknowledged fingerprints (empty when no manifest exists)."""
    path = manifest_path if manifest_path is not None else _MANIFEST_FILE
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return dict(data.get("functions", {}))


def write_kernel_manifest(
    manifest_path: Optional[Path] = None, root: Optional[Path] = None
) -> Dict[str, str]:
    """Re-acknowledge the current reference-loop state; returns it."""
    path = manifest_path if manifest_path is not None else _MANIFEST_FILE
    fingerprints = kernel_fingerprints(root)
    payload = {
        "comment": (
            "Normalized-source fingerprints of the reference hot-loop "
            "functions that repro.kernel.replay specialises.  A mismatch "
            "means the bit-identical contract must be re-proven: run "
            "tests/test_kernel_differential.py, then `repro lint "
            "--update-manifest` to acknowledge the change."
        ),
        "functions": fingerprints,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return fingerprints


def check_kernel_manifest(
    manifest_path: Optional[Path] = None, root: Optional[Path] = None
) -> List[Finding]:
    """Compare the tree against the acknowledged manifest."""
    path = manifest_path if manifest_path is not None else _MANIFEST_FILE
    manifest = load_kernel_manifest(path)
    display = path.name
    if not manifest:
        return [
            Finding(
                "kernel-drift", display, 0,
                "kernel manifest missing or empty: run `repro lint "
                "--update-manifest` to create it",
            )
        ]
    current = kernel_fingerprints(root)
    findings: List[Finding] = []
    for key in KERNEL_FINGERPRINT_FUNCTIONS:
        acknowledged = manifest.get(key)
        actual = current[key]
        if acknowledged is None:
            findings.append(
                Finding(
                    "kernel-drift", key.split("::", 1)[0], 0,
                    f"{key} is fingerprinted but absent from the manifest: "
                    "run `repro lint --update-manifest`",
                )
            )
        elif actual == "<missing>":
            findings.append(
                Finding(
                    "kernel-drift", key.split("::", 1)[0], 0,
                    f"{key} no longer exists; the fast kernel in "
                    "repro/kernel/replay.py specialises it — restore it or "
                    "update the kernel and KERNEL_FINGERPRINT_FUNCTIONS together",
                )
            )
        elif actual != acknowledged:
            findings.append(
                Finding(
                    "kernel-drift", key.split("::", 1)[0], 0,
                    f"{key} changed since the manifest was acknowledged. "
                    "The fast kernel replays this function's exact semantics: "
                    "re-prove bit-identity (pytest tests/test_kernel_differential.py), "
                    "then `repro lint --update-manifest` to acknowledge",
                )
            )
    for key in manifest:
        if key not in current:
            findings.append(
                Finding(
                    "kernel-drift", display, 0,
                    f"manifest entry {key} is no longer tracked: "
                    "run `repro lint --update-manifest`",
                )
            )
    return findings


# -- mechanism registry check ------------------------------------------------


def check_mechanism_registry() -> List[Finding]:
    """Validate every registered :class:`~repro.mechanisms.spec.MechanismSpec`.

    Registration already validates, but specs can rot after the fact
    (a tracker module renamed, a factory's declared shape edited), and
    a sweep is a bad place to discover that.  Re-runs ``validate()`` on
    the live registry — trigger/flexibility legality, factory shape
    agreement, tracker importability — and checks the canonical kinds
    and name bindings are intact.
    """
    from ..common.errors import ConfigError
    from ..mechanisms.registry import MANAGER_KINDS, _REGISTRY

    display = "repro/mechanisms/registry.py"
    findings: List[Finding] = []
    for kind in MANAGER_KINDS:
        if kind not in _REGISTRY:
            findings.append(
                Finding(
                    "mechanism-registry", display, 0,
                    f"canonical mechanism {kind!r} is not registered",
                )
            )
    for name, spec in _REGISTRY.items():
        if name != spec.name:
            findings.append(
                Finding(
                    "mechanism-registry", display, 0,
                    f"registry name {name!r} is bound to spec named "
                    f"{spec.name!r}: names must be unique and consistent",
                )
            )
        try:
            spec.validate()
        except ConfigError as error:
            findings.append(
                Finding(
                    "mechanism-registry", display, 0,
                    f"registered spec {name!r} does not validate: {error}",
                )
            )
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
    """Run the ``--deep`` CFG checkers over the tree.

    Applies ``# noqa`` line suppression and the allowlist (a deep
    finding is exempt if either its file path or ``path::qualname`` is
    listed under the rule).
    """
    from .cachekey import check_cache_keys
    from .writeback import check_writeback_source

    allow = allowlist if allowlist is not None else load_allowlist()
    base = root if root is not None else package_root()

    sources: Dict[str, str] = {}

    def source_of(path: str) -> str:
        if path not in sources:
            file = base.parent / path
            sources[path] = (
                file.read_text(encoding="utf-8") if file.exists() else ""
            )
        return sources[path]

    raw: List[Tuple[str, str, int, str, str]] = []
    for file, display in _python_files(base):
        source = file.read_text(encoding="utf-8")
        sources[display] = source
        for path, line, site, message in check_writeback_source(
            source, display
        ):
            raw.append(("hoist-writeback", path, line, site, message))
    for path, line, site, message in check_cache_keys(base):
        raw.append(("cache-key", path, line, site, message))

    findings: List[Finding] = []
    for rule, path, line, site, message in raw:
        if _allowed(allow, rule, path) or _allowed(
            allow, rule, f"{path}::{site}"
        ):
            continue
        lines = source_of(path).splitlines()
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
    manifest_path: Optional[Path] = None,
    update_manifest: bool = False,
    external: bool = False,
    skip_annotations: bool = False,
    deep: bool = False,
    as_json: bool = False,
    stream=None,
) -> int:
    """Run every lint layer; print findings; return a process exit code.

    ``deep`` adds the CFG checkers (hoist-writeback, cache-key).
    ``as_json`` emits one JSON object per finding (keys
    ``rule``/``path``/``line``/``message``) and no summary line, for
    machine consumption in CI.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    if update_manifest:
        fingerprints = write_kernel_manifest(manifest_path, root)
        print(
            f"kernel manifest updated: {len(fingerprints)} functions acknowledged",
            file=out,
        )

    findings = lint_tree(root)
    findings.extend(check_kernel_manifest(manifest_path, root))
    findings.extend(check_mechanism_registry())
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
    checked = ", ".join(sorted({**RULES, **DEEP_RULES} if deep else RULES))
    if findings:
        print(f"repro lint: {len(findings)} finding(s) [{checked}]", file=out)
        return 1
    print(f"repro lint: clean [{checked}]", file=out)
    return 0 if external_ok else 1
