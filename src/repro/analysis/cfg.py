"""Per-function control-flow graphs over the Python AST.

The write-back checker (:mod:`repro.analysis.writeback`) needs to
*prove* statements execute on every path out of a function — including
the paths an exception takes — so this module builds, per function, a
statement-level CFG with three edge kinds:

* ``normal`` — ordinary fall-through, branch, and loop edges;
* ``exception`` — from every statement that may raise to the innermost
  enclosing handler (``except`` entries and/or ``finally`` entry), or
  to the exceptional function exit when nothing encloses it;
* ``finally`` — edges that route control *through* a ``finally`` body:
  normal completion of a ``try`` region falling into the ``finally``,
  and the abrupt-completion paths (``return`` / ``break`` /
  ``continue``) that must run the ``finally`` before reaching their
  real target.

Handled statement forms: ``try/except/else/finally`` (including
``return`` inside ``try`` routed through the ``finally``, and ``raise``
re-raised from an ``except`` handler), ``with`` (no ``__exit__``
suppression is modelled: body exceptions propagate), ``while/else`` and
``for/else`` (the ``else`` runs only on normal loop exit; ``break``
bypasses it), early ``return`` / ``raise`` / ``break`` / ``continue``.
Comprehensions are expressions inside their statement's node, and
nested ``def`` / ``lambda`` / ``class`` bodies are *not* traversed —
each function is its own scope and callers recurse explicitly
(:func:`iter_function_scopes`).

Exactness posture: the graph **over-approximates** feasible paths.  A
``finally`` body is built once and its exit fans out to every
continuation that can enter it, and almost every statement is treated
as able to raise.  Extra paths can only make a must-pass query fail, so
the checkers built on top err toward findings, never toward silence.
The one deliberate refinement is :func:`stmt_may_raise`: assignments of
names/constants to names or single-level attributes (``obj.attr =
local``) cannot raise, which is what lets a ``finally`` body made of
such write-backs prove that *all* of them run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

#: Edge kinds (see module docstring).
NORMAL = "normal"
EXCEPTION = "exception"
FINALLY = "finally"

#: Synthetic node kinds; ``stmt`` nodes carry a real AST statement.
ENTRY = "entry"
EXIT = "exit"
JOIN = "join"
STMT = "stmt"

#: isinstance tuple for function-definition statements; use
#: :data:`FunctionDefNode` when annotating (tuples are not types).
FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)
FunctionDefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic entry/exit/join point."""

    id: int
    kind: str
    stmt: Optional[ast.stmt] = None
    #: True when the node sits inside some ``finally`` body.
    in_finally: bool = False

    @property
    def line(self) -> int:
        return self.stmt.lineno if self.stmt is not None else 0


@dataclass
class FunctionCFG:
    """CFG of one function body (``entry``/``exit`` are synthetic)."""

    func: ast.AST
    nodes: Dict[int, CFGNode] = field(default_factory=dict)
    succ: Dict[int, List[Tuple[int, str]]] = field(default_factory=dict)
    pred: Dict[int, List[Tuple[int, str]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 0

    def stmt_nodes(self) -> Iterator[CFGNode]:
        for node in self.nodes.values():
            if node.kind == STMT:
                yield node


def _is_simple_expr(node: ast.expr) -> bool:
    """True when evaluating ``node`` cannot raise (names and constants)."""
    if isinstance(node, (ast.Constant, ast.Name)):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_simple_expr(elt) for elt in node.elts)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return isinstance(node.operand, ast.Constant)
    return False


def _is_simple_store(target: ast.expr) -> bool:
    """Name stores and ``name.attr`` stores cannot raise in this model."""
    if isinstance(target, ast.Name):
        return True
    if isinstance(target, ast.Attribute):
        # Only a single attribute hop on a plain name: deeper chains
        # perform attribute *loads* first, which may raise.
        return isinstance(target.value, ast.Name)
    if isinstance(target, ast.Tuple):
        return all(_is_simple_store(elt) for elt in target.elts)
    return False


def stmt_may_raise(stmt: ast.stmt) -> bool:
    """Conservative may-raise test; False only for provably safe forms.

    The refinement that matters: ``obj.attr = local`` / ``x = CONST``
    cannot raise, so a ``finally`` body written as a run of such
    write-backs provably executes in full once entered.
    """
    if isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)):
        return False
    if isinstance(stmt, ast.Assign):
        return not (
            all(_is_simple_store(t) for t in stmt.targets)
            and _is_simple_expr(stmt.value)
        )
    if isinstance(stmt, ast.AnnAssign):
        return not (
            _is_simple_store(stmt.target)
            and (stmt.value is None or _is_simple_expr(stmt.value))
        )
    if isinstance(stmt, ast.Return):
        return not (stmt.value is None or _is_simple_expr(stmt.value))
    if isinstance(stmt, ast.Expr):
        return not _is_simple_expr(stmt.value)
    if isinstance(stmt, FunctionNode):
        # Binding a def is safe unless decorators/defaults run code.
        args = stmt.args
        return bool(
            stmt.decorator_list
            or args.defaults
            or [d for d in args.kw_defaults if d is not None]
        )
    return True


class _FinallyFrame:
    """One ``finally`` body, built once, fanning out per continuation."""

    __slots__ = ("entry", "router", "_used")

    def __init__(self, entry: int, router: int) -> None:
        self.entry = entry
        self.router = router
        self._used: Set[Tuple[int, str]] = set()

    def continue_to(self, builder: "_Builder", target: int, kind: str) -> None:
        if (target, kind) not in self._used:
            self._used.add((target, kind))
            builder._edge(self.router, target, kind)


class _LoopFrame:
    __slots__ = ("header", "exit_join")

    def __init__(self, header: int, exit_join: int) -> None:
        self.header = header
        self.exit_join = exit_join


class _Builder:
    def __init__(self, func: ast.AST) -> None:
        self.cfg = FunctionCFG(func=func)
        self._next_id = 0
        self._finally_depth = 0
        self.cfg.entry = self._new(ENTRY)
        self.cfg.exit = self._new(EXIT)

    # -- graph primitives ------------------------------------------------

    def _new(self, kind: str, stmt: Optional[ast.stmt] = None) -> int:
        nid = self._next_id
        self._next_id += 1
        self.cfg.nodes[nid] = CFGNode(
            nid, kind, stmt, in_finally=self._finally_depth > 0
        )
        self.cfg.succ[nid] = []
        self.cfg.pred[nid] = []
        return nid

    def _edge(self, src: int, dst: int, kind: str) -> None:
        if (dst, kind) not in self.cfg.succ[src]:
            self.cfg.succ[src].append((dst, kind))
            self.cfg.pred[dst].append((src, kind))

    def _connect(self, frontier: List[Tuple[int, str]], dst: int) -> None:
        for src, kind in frontier:
            self._edge(src, dst, kind)

    # -- abrupt-jump routing through enclosing finally bodies ------------

    def _route(
        self,
        src: int,
        frames: Tuple[object, ...],
        target_kind: str,
    ) -> None:
        """Edge from ``src`` to its return/break/continue target, running
        every ``finally`` between the statement and that target."""
        fins: List[_FinallyFrame] = []
        target: Optional[int] = None
        for frame in reversed(frames):
            if isinstance(frame, _LoopFrame) and target_kind in ("break", "continue"):
                target = frame.exit_join if target_kind == "break" else frame.header
                break
            if isinstance(frame, _FinallyFrame):
                fins.append(frame)
        if target is None:
            target = self.cfg.exit  # return (or stray break: grammar forbids)
        if not fins:
            self._edge(src, target, NORMAL)
            return
        self._edge(src, fins[0].entry, FINALLY)
        for inner, outer in zip(fins, fins[1:]):
            inner.continue_to(self, outer.entry, FINALLY)
        fins[-1].continue_to(self, target, FINALLY)

    # -- statement lists -------------------------------------------------

    def build_body(
        self,
        stmts: List[ast.stmt],
        frontier: List[Tuple[int, str]],
        exc: Tuple[int, ...],
        frames: Tuple[object, ...],
    ) -> Tuple[Optional[int], List[Tuple[int, str]]]:
        """Build ``stmts``; returns ``(entry_node, out_frontier)``.

        ``exc`` is the tuple of nodes a raising statement edges to;
        ``frames`` the stack of enclosing loop/finally frames.
        """
        entry: Optional[int] = None
        for stmt in stmts:
            node, frontier = self._build_stmt(stmt, frontier, exc, frames)
            if entry is None:
                entry = node
            if not frontier:
                break  # unreachable code after an abrupt statement
        return entry, frontier

    def _raise_edges(self, nid: int, stmt: ast.stmt, exc: Tuple[int, ...]) -> None:
        if stmt_may_raise(stmt):
            for target in exc:
                self._edge(nid, target, EXCEPTION)

    def _build_stmt(
        self,
        stmt: ast.stmt,
        frontier: List[Tuple[int, str]],
        exc: Tuple[int, ...],
        frames: Tuple[object, ...],
    ) -> Tuple[int, List[Tuple[int, str]]]:
        nid = self._new(STMT, stmt)
        self._connect(frontier, nid)
        if not isinstance(stmt, ast.Try):
            # Headers evaluate code before their body (if/while tests,
            # for iterators, with __enter__), so their raises go to the
            # *enclosing* context.  A try header executes nothing: its
            # body's statements own every exception edge.
            self._raise_edges(nid, stmt, exc)

        if isinstance(stmt, ast.Return):
            self._route(nid, frames, "return")
            return nid, []
        if isinstance(stmt, ast.Break):
            self._route(nid, frames, "break")
            return nid, []
        if isinstance(stmt, ast.Continue):
            self._route(nid, frames, "continue")
            return nid, []
        if isinstance(stmt, ast.Raise):
            # Covered by _raise_edges (Raise always may-raise); no
            # normal successor.
            return nid, []

        if isinstance(stmt, ast.If):
            _, then_out = self.build_body(stmt.body, [(nid, NORMAL)], exc, frames)
            if stmt.orelse:
                _, else_out = self.build_body(stmt.orelse, [(nid, NORMAL)], exc, frames)
            else:
                else_out = [(nid, NORMAL)]
            return nid, then_out + else_out

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return nid, self._build_loop(stmt, nid, exc, frames)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            # No __exit__ suppression modelled: body exceptions keep
            # propagating to ``exc``.
            _, body_out = self.build_body(stmt.body, [(nid, NORMAL)], exc, frames)
            return nid, body_out

        if isinstance(stmt, ast.Try):
            return nid, self._build_try(stmt, nid, exc, frames)

        return nid, [(nid, NORMAL)]

    def _build_loop(
        self,
        stmt: ast.stmt,
        header: int,
        exc: Tuple[int, ...],
        frames: Tuple[object, ...],
    ) -> List[Tuple[int, str]]:
        exit_join = self._new(JOIN)
        loop_frames = frames + (_LoopFrame(header, exit_join),)
        _, body_out = self.build_body(stmt.body, [(header, NORMAL)], exc, loop_frames)
        self._connect(body_out, header)
        # The no-more-iterations edge: a ``while`` over a truthy
        # constant never takes it; ``for`` always can.
        test = stmt.test if isinstance(stmt, ast.While) else None
        infinite = isinstance(test, ast.Constant) and bool(test.value)
        if not infinite:
            if stmt.orelse:
                _, else_out = self.build_body(
                    stmt.orelse, [(header, NORMAL)], exc, frames
                )
                self._connect(else_out, exit_join)
            else:
                self._edge(header, exit_join, NORMAL)
        if not self.cfg.pred[exit_join]:
            return []  # while True with no break: nothing follows
        return [(exit_join, NORMAL)]

    def _build_try(
        self,
        stmt: ast.Try,
        nid: int,
        exc: Tuple[int, ...],
        frames: Tuple[object, ...],
    ) -> List[Tuple[int, str]]:
        frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            # Build the finally body FIRST (its exception context is the
            # *outer* one), so inner regions can route edges into it.
            self._finally_depth += 1
            fin_entry, fin_out = self.build_body(stmt.finalbody, [], exc, frames)
            self._finally_depth -= 1
            router = self._new(JOIN)
            self._connect(fin_out, router)
            assert fin_entry is not None  # grammar: finalbody is non-empty
            frame = _FinallyFrame(fin_entry, router)
            # Completed-finally exception propagation continues outward.
            for target in exc:
                frame.continue_to(self, target, EXCEPTION)
            inner_frames = frames + (frame,)
            unmatched: Tuple[int, ...] = (fin_entry,)
        else:
            inner_frames = frames
            unmatched = exc

        handler_ids: List[int] = []
        handler_outs: List[Tuple[int, str]] = []
        for handler in stmt.handlers:
            hid = self._new(STMT, handler)  # type: ignore[arg-type]
            handler_ids.append(hid)
            # Evaluating the handler's type / binding may itself raise,
            # and a ``raise`` inside the handler propagates outward (or
            # into the finally), never to a sibling handler.
            for target in unmatched:
                self._edge(hid, target, EXCEPTION)
            _, h_out = self.build_body(
                handler.body, [(hid, NORMAL)], unmatched, inner_frames
            )
            handler_outs.extend(h_out)

        body_exc = tuple(handler_ids) + unmatched
        body_entry, body_out = self.build_body(
            stmt.body, [(nid, NORMAL)], body_exc, inner_frames
        )
        if body_entry is None:
            body_out = [(nid, NORMAL)]
        if stmt.orelse:
            _, body_out = self.build_body(stmt.orelse, body_out, unmatched, inner_frames)

        completed = body_out + handler_outs
        if frame is None:
            return completed
        for src, kind in completed:
            self._edge(src, frame.entry, FINALLY)
        return [(frame.router, FINALLY)]


def build_cfg(func: ast.AST) -> FunctionCFG:
    """Build the CFG of one ``FunctionDef`` / ``AsyncFunctionDef`` body."""
    builder = _Builder(func)
    cfg = builder.cfg
    _, out = builder.build_body(
        list(func.body), [(cfg.entry, NORMAL)], (cfg.exit,), ()
    )
    builder._connect(out, cfg.exit)
    return cfg


# -- scope walking -----------------------------------------------------------


def iter_function_scopes(
    tree: ast.AST, prefix: str = ""
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualname, node)`` for every function scope in ``tree``,
    including methods and nested functions (each is its own CFG scope)."""
    body = getattr(tree, "body", [])
    for child in body if isinstance(body, list) else []:
        if isinstance(child, FunctionNode):
            qual = f"{prefix}{child.name}"
            yield qual, child
            yield from iter_function_scopes(child, prefix=f"{qual}.")
        elif isinstance(child, ast.ClassDef):
            yield from iter_function_scopes(child, prefix=f"{prefix}{child.name}.")


# -- per-statement name extraction (scope-aware) -----------------------------


def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function scopes.

    Comprehension bodies ARE walked (their loads close over this
    scope); comprehension *targets* are excluded by the callers below
    because Python 3 gives them their own scope.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_NODES):
                # Defaults and decorators evaluate here; bodies do not.
                if isinstance(child, ast.Lambda):
                    stack.extend(
                        d for d in child.args.defaults
                    )
                    stack.extend(
                        d for d in child.args.kw_defaults if d is not None
                    )
                else:
                    stack.extend(child.decorator_list)
                    stack.extend(child.args.defaults)
                    stack.extend(d for d in child.args.kw_defaults if d is not None)
                continue
            stack.append(child)


def _comprehension_targets(nodes: List[ast.AST]) -> Set[str]:
    names: Set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, _COMPREHENSIONS):
                for gen in sub.generators:
                    for t in ast.walk(gen.target):
                        if isinstance(t, ast.Name):
                            names.add(t.id)
    return names


def _own_nodes(stmt: ast.stmt) -> List[ast.AST]:
    """The sub-expressions evaluated *by this CFG node itself* — compound
    statements contribute only their header (their bodies are separate
    nodes), and nested function/class bodies are separate scopes."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        parts: List[ast.AST] = []
        for item in stmt.items:
            parts.append(item.context_expr)
            if item.optional_vars is not None:
                parts.append(item.optional_vars)
        return parts
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, FunctionNode + (ast.ClassDef,)):
        parts = list(stmt.decorator_list)
        if isinstance(stmt, FunctionNode):
            parts.extend(stmt.args.defaults)
            parts.extend(d for d in stmt.args.kw_defaults if d is not None)
        return parts
    return [stmt]


def stmt_defs(stmt: ast.stmt) -> Set[str]:
    """Names (re)bound by this CFG node in the enclosing function scope."""
    defs: Set[str] = set()
    own = _own_nodes(stmt)
    comp_locals = _comprehension_targets(own)
    for part in own:
        for node in _walk_same_scope(part):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if node.id not in comp_locals:
                    defs.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    defs.add(alias.asname or alias.name.split(".")[0])
    if isinstance(stmt, FunctionNode + (ast.ClassDef,)):
        defs.add(stmt.name)
    if isinstance(stmt, ast.ExceptHandler) and stmt.name:
        defs.add(stmt.name)
    return defs


def stmt_uses(stmt: ast.stmt) -> Set[str]:
    """Names loaded by this CFG node (comprehension targets excluded)."""
    uses: Set[str] = set()
    own = _own_nodes(stmt)
    comp_locals = _comprehension_targets(own)
    for part in own:
        for node in _walk_same_scope(part):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in comp_locals:
                    uses.add(node.id)
    return uses
