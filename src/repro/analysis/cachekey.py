"""Cache-key soundness checker (``repro lint --deep``).

The sweep runner's content-addressed cache replays a SimCell by
fingerprint alone — scale that to 10k cells across hosts and the cache
is only correct if **nothing reachable from** ``simulate()`` **reads
state outside the fingerprint**.  This pass builds a name-based
over-approximating call graph over the package, walks it from
``repro/system/simulator.py::simulate``, and flags three ambient-state
escapes in every reachable function:

* ``os.environ`` / ``os.getenv`` reads whose variable is not accounted
  for in the SimCell payload (:data:`ACCOUNTED_ENV` records the ones
  that are, with the payload field that covers them);
* wall-clock reads (``time.time`` and friends, ``datetime.now``) —
  simulated time comes from the trace, never the host;
* reads of module-level *mutable* globals (dict/list/set initialisers)
  not covered by the fingerprint (:data:`ACCOUNTED_GLOBALS`).

Call-graph edges are intentionally generous: direct calls and
function-as-value references resolve by bare name across the package,
method calls resolve to every package method of that name (a small
:data:`COMMON_METHOD_NAMES` set of ubiquitous builtin-collection names
is excluded to keep the sim-path graph from swallowing the whole
package), and a module whose top level routes dispatch through
name-string tables (``_SHAPE_KERNELS`` + ``globals()[...]``) marks the
functions those tables reference as reachable once any function of the
module is.  Over-approximation is the safe direction here: an extra
edge can only produce a finding to triage, never hide one.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

#: Entry point of the cached unit of work.
ENTRY_POINT = "repro/system/simulator.py::simulate"

#: Environment variables readable on the simulate() path because the
#: SimCell fingerprint already accounts for them; value = justification.
ACCOUNTED_ENV: Dict[str, str] = {
    "REPRO_KERNEL": (
        "resolved at sim_cell() construction into the payload 'kernel' "
        "field; cells always pass kernel= explicitly, so the in-cell "
        "read only serves uncached direct simulate() calls"
    ),
    "REPRO_SANITIZE": (
        "resolved at sim_cell() construction into the payload 'sanitize' "
        "field; cells always pass sanitize= explicitly, so the in-cell "
        "read only serves uncached direct simulate() calls"
    ),
    "REPRO_TRACE_DIR": (
        "relocates the columnar trace store; store files are "
        "content-addressed over (workload, scale, length, seed, "
        "code_version_token), all payload fields, so *where* a trace "
        "is cached can never change *which* trace a cell replays"
    ),
    "REPRO_NO_TRACE_STORE": (
        "switches trace_for() between the store and the in-memory "
        "build of the same deterministic synthesis; the differential "
        "suite pins the two representations byte-identical, so the "
        "flag changes residency, not results"
    ),
}

#: Module-level mutable globals readable on the simulate() path because
#: the fingerprint covers them; ``path::name`` -> justification.
ACCOUNTED_GLOBALS: Dict[str, str] = {
    "repro/kernel/replay.py::_SHAPE_KERNELS": (
        "static dispatch table, populated once at import and never "
        "mutated; the chosen kernel is the payload 'kernel' field and "
        "the table itself is code, covered by code_version_token()"
    ),
    "repro/mechanisms/registry.py::_REGISTRY": (
        "sim_cell() folds the resolved spec's fingerprint() into the "
        "payload 'spec' field (SCHEMA_VERSION 5), so re-registering a "
        "name with different semantics addresses different cells"
    ),
    "repro/dram/devices.py::TIMINGS": (
        "static name->DramTiming table, populated once at import from "
        "frozen module constants and never mutated; tier descriptors "
        "address timings by name and those names are part of the "
        "spec fingerprint, while the timing values themselves are "
        "code, covered by code_version_token()"
    ),
}

#: Method names too ubiquitous for name-based resolution: they are the
#: builtin collection/string protocol, and matching them would connect
#: the sim path to every container-shaped class in the package.
COMMON_METHOD_NAMES: Set[str] = {
    "add", "append", "clear", "copy", "count", "extend", "get", "index",
    "insert", "items", "join", "keys", "pop", "popitem", "popleft",
    "remove", "setdefault", "sort", "split", "startswith", "endswith",
    "strip", "update", "values", "write", "read",
}

_WALL_CLOCK_ATTRS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}
_WALL_CLOCK_NAMES = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "time_ns",
}

_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque"}


FunctionDefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def iter_function_scopes(
    tree: ast.AST, prefix: str = ""
) -> Iterator[Tuple[str, FunctionDefNode]]:
    """Yield ``(qualname, node)`` for every function in ``tree``,
    methods and nested functions included."""
    for child in getattr(tree, "body", []):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{child.name}"
            yield qual, child
            yield from iter_function_scopes(child, prefix=f"{qual}.")
        elif isinstance(child, ast.ClassDef):
            yield from iter_function_scopes(child, prefix=f"{prefix}{child.name}.")


def _is_mutable_initialiser(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        callee = value.func
        name = callee.id if isinstance(callee, ast.Name) else getattr(
            callee, "attr", None
        )
        return name in _MUTABLE_CALLS
    return False


class _Module:
    """Parsed module plus the indexes the reachability pass needs."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.functions: Dict[str, FunctionDefNode] = dict(
            iter_function_scopes(tree)
        )
        self.mutable_globals: Dict[str, int] = {}
        self.str_constants: Dict[str, str] = {}
        self.table_refs: Set[str] = set()
        top_names = {q.split(".", 1)[0] for q in self.functions}
        for stmt in tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    self.str_constants[target.id] = value.value
                if _is_mutable_initialiser(value):
                    self.mutable_globals[target.id] = stmt.lineno
                    # Dispatch tables: function references by Name or by
                    # name-string (resolved through globals() later).
                    for node in ast.walk(value):
                        if isinstance(node, ast.Name) and node.id in top_names:
                            self.table_refs.add(node.id)
                        elif isinstance(node, ast.Constant) and isinstance(
                            node.value, str
                        ) and node.value in top_names:
                            self.table_refs.add(node.value)


def _function_names_used(func: FunctionDefNode) -> Tuple[Set[str], Set[str]]:
    """(bare names loaded, attribute names accessed) in ``func``'s body.

    Nested functions are part of the enclosing function here: reaching
    the outer function reaches its closures.
    """
    names: Set[str] = set()
    attrs: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def _local_bindings(func: FunctionDefNode) -> Set[str]:
    bound = {a.arg for a in func.args.args}
    bound.update(a.arg for a in func.args.posonlyargs)
    bound.update(a.arg for a in func.args.kwonlyargs)
    if func.args.vararg:
        bound.add(func.args.vararg.arg)
    if func.args.kwarg:
        bound.add(func.args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
    return bound


def _load_modules(root: Optional[Path] = None) -> Dict[str, _Module]:
    from .lint import _python_files, package_root

    base = Path(root) if root is not None else package_root()
    modules: Dict[str, _Module] = {}
    for file, display in _python_files(base):
        try:
            tree = ast.parse(file.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        modules[display] = _Module(display, tree)
    return modules


def _reachable(
    modules: Dict[str, _Module], entry: str
) -> Dict[str, Optional[str]]:
    """BFS the name-based call graph; ``site -> parent site`` chain."""
    by_name: Dict[str, List[str]] = {}
    by_method: Dict[str, List[str]] = {}
    for module in modules.values():
        for qualname in module.functions:
            site = f"{module.path}::{qualname}"
            head, _, tail = qualname.rpartition(".")
            if head:
                by_method.setdefault(tail, []).append(site)
            else:
                by_name.setdefault(qualname, []).append(site)
    parents: Dict[str, Optional[str]] = {entry: None}
    module_seen: Set[str] = set()
    work = deque([entry])
    while work:
        site = work.popleft()
        path, _, qualname = site.partition("::")
        module = modules.get(path)
        func = module.functions.get(qualname) if module else None
        if func is None:
            continue
        names, attrs = _function_names_used(func)
        targets: List[str] = []
        for name in names:
            targets.extend(by_name.get(name, ()))
        for attr in attrs:
            if attr not in COMMON_METHOD_NAMES:
                targets.extend(by_method.get(attr, ()))
        if path not in module_seen:
            module_seen.add(path)
            targets.extend(
                f"{path}::{ref}" for ref in module.table_refs
            )
        for target in targets:
            if target not in parents:
                parents[target] = site
                work.append(target)
    return parents


def _chain(parents: Dict[str, Optional[str]], site: str) -> str:
    hops = []
    cursor: Optional[str] = site
    while cursor is not None and len(hops) < 6:
        hops.append(cursor.partition("::")[2] or cursor)
        cursor = parents.get(cursor)
    return " <- ".join(hops)


def _env_var_name(node: ast.AST, module: _Module) -> Optional[str]:
    """The env-var name read at an ``environ.get``/``getenv``/subscript."""
    arg: Optional[ast.expr] = None
    if isinstance(node, ast.Call) and node.args:
        arg = node.args[0]
    elif isinstance(node, ast.Subscript):
        arg = node.slice
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        return module.str_constants.get(arg.id)
    return None


def check_cache_keys(
    root: Optional[Path] = None, entry: str = ENTRY_POINT
) -> List[Tuple[str, int, str, str]]:
    """Ambient-state findings for every function reachable from entry.

    Returns ``(path, line, qualname, message)`` tuples; rule assignment
    and allowlisting happen in :mod:`repro.analysis.lint`.
    """
    modules = _load_modules(root)
    parents = _reachable(modules, entry)
    found: List[Tuple[str, int, str, str]] = []
    for site in sorted(parents):
        path, _, qualname = site.partition("::")
        module = modules.get(path)
        func = module.functions.get(qualname) if module else None
        if func is None:
            continue
        bound = _local_bindings(func)
        via = _chain(parents, site)
        for node in ast.walk(func):
            # -- os.environ / os.getenv ------------------------------
            env_read = None
            if isinstance(node, (ast.Call, ast.Subscript)):
                target = node.func if isinstance(node, ast.Call) else node.value
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in ("get", "getenv")
                    and isinstance(target.value, (ast.Attribute, ast.Name))
                ):
                    base = target.value
                    if (
                        isinstance(base, ast.Attribute)
                        and base.attr == "environ"
                    ) or (isinstance(base, ast.Name) and base.id == "environ"):
                        env_read = node
                    elif (
                        isinstance(base, ast.Name) and base.id == "os"
                        and target.attr == "getenv"
                    ):
                        env_read = node
                elif isinstance(target, ast.Attribute) and target.attr == "environ":
                    env_read = node
            if env_read is not None:
                var = _env_var_name(env_read, module)
                if var not in ACCOUNTED_ENV:
                    found.append(
                        (
                            path,
                            env_read.lineno,
                            qualname,
                            f"environment read ({var or 'dynamic name'}) is "
                            f"reachable from simulate() [{via}] but not part "
                            "of the SimCell fingerprint; resolve it at the "
                            "CLI boundary or fold it into the payload and "
                            "record it in ACCOUNTED_ENV",
                        )
                    )
                continue
            # -- wall clock ------------------------------------------
            if isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and (callee.value.id, callee.attr) in _WALL_CLOCK_ATTRS
                ) or (
                    isinstance(callee, ast.Name)
                    and callee.id in _WALL_CLOCK_NAMES
                ):
                    found.append(
                        (
                            path,
                            node.lineno,
                            qualname,
                            f"wall-clock read reachable from simulate() "
                            f"[{via}]; simulated time must come from the "
                            "trace and controller state only",
                        )
                    )
            # -- module-level mutable globals ------------------------
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in module.mutable_globals
                and node.id not in bound
                and f"{path}::{node.id}" not in ACCOUNTED_GLOBALS
            ):
                found.append(
                    (
                        path,
                        node.lineno,
                        qualname,
                        f"read of module-level mutable global `{node.id}` "
                        f"reachable from simulate() [{via}]; its state is "
                        "outside the SimCell fingerprint — make it "
                        "immutable, pass it explicitly, or justify it in "
                        "ACCOUNTED_GLOBALS",
                    )
                )
    return found
