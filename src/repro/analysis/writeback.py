"""Hoisted-state write-back checker (``repro lint --deep``).

The fast kernels buy their speed by hoisting controller/manager state
into locals::

    next_boundary = manager._next_boundary_ps   # save
    ...
    next_boundary += interval                   # mutate
    ...
    manager._next_boundary_ps = next_boundary   # restore (write-back)

The contract is that the restore *post-dominates* every mutation —
including exceptional exits, which is why the real restores live in
``finally`` blocks.  This module proves it on the
:mod:`repro.analysis.cfg` graph:

* **inferred pairs** — a ``local = obj.attr`` save whose function also
  contains an ``obj.attr = local`` restore forms a hoist pair.  Every
  mutation of the local (direct rebinds, plus calls to nested functions
  that ``nonlocal``-assign it) must be unable to reach the function
  exit without passing a restore node.
* **declared contracts** — attributes that are *set* and *restored*
  rather than hoisted through a local (``engine.batch_swaps``) carry an
  explicit ``# hoists: engine.batch_swaps, engine.swap_sink`` comment
  inside the function.  Every write to a declared attribute outside a
  ``finally`` body must have all exit paths pass through another write
  (the terminal restore); ``finally``-resident writes are the terminal
  restores and are exempt.  A declared attribute with no writes at all
  is a stale contract and is itself a finding.

Direct-rebind mutations drop their own exception edge (a statement that
raises never completed its store); closure-call mutations keep it (the
callee may have mutated before raising).  The CFG over-approximates
paths, so a clean pass is a proof and a finding is at worst a
conservative false positive to allowlist with a justification.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .cfg import (
    EXCEPTION,
    CFGNode,
    FunctionCFG,
    FunctionDefNode,
    FunctionNode,
    build_cfg,
    iter_function_scopes,
    stmt_defs,
    stmt_uses,
)

#: Files the hoist idiom is load-bearing in; the inferred-pair pass
#: only runs here (declared ``# hoists:`` contracts work everywhere).
WRITEBACK_TARGET_FILES: Tuple[str, ...] = (
    "repro/kernel/replay.py",
    "repro/dram/controller.py",
)

_HOISTS_RE = re.compile(r"#\s*hoists:\s*([A-Za-z0-9_.,\s]+)")


def reaches_exit_avoiding(
    cfg: FunctionCFG,
    starts: Iterable[int],
    avoid: Iterable[int],
    *,
    drop_start_exception_edges: bool = False,
) -> bool:
    """Can flow reach the exit from ``starts`` without entering ``avoid``?

    This is the post-dominance question the checker asks of a restore
    site, phrased as a plain reachability search.  ``avoid`` nodes are
    walls: the search never enters them, so a ``False`` proves every
    exit path passes through one of them.  With
    ``drop_start_exception_edges`` the *first* hop out of a start node
    ignores its own exception edges — the phrasing a mutation check
    needs, because a statement that raises mid-flight never completed
    its own mutation.
    """
    walls = set(avoid)
    seen: Set[int] = set()
    work: deque = deque()
    for start in starts:
        if start in walls:
            continue
        for dst, kind in cfg.succ.get(start, ()):
            if drop_start_exception_edges and kind == EXCEPTION:
                continue
            if dst not in walls:
                work.append(dst)
    while work:
        nid = work.popleft()
        if nid in seen:
            continue
        seen.add(nid)
        if nid == cfg.exit:
            return True
        for dst, _kind in cfg.succ.get(nid, ()):
            if dst not in walls and dst not in seen:
                work.append(dst)
    return False


def _attr_key(node: ast.AST) -> Optional[str]:
    """``obj.attr`` for a one-hop attribute on a plain name, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _save_site(stmt: Optional[ast.stmt]) -> Optional[Tuple[str, str]]:
    """``(local, obj.attr)`` when stmt is the hoist save ``local = obj.attr``."""
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        attr = _attr_key(stmt.value)
        if attr is not None:
            return stmt.targets[0].id, attr
    return None


def _attr_write(stmt: Optional[ast.stmt]) -> Optional[str]:
    """``obj.attr`` when stmt assigns to it (any right-hand side)."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        return _attr_key(stmt.targets[0])
    return None


def _loop_spans(func: FunctionDefNode) -> List[Tuple[int, int]]:
    """Line spans of loop bodies in this scope (nested scopes excluded).

    A ``local = obj.attr`` save *inside* a loop body is a per-iteration
    scratch read that tracks the attribute, not a hoist — the hoist
    idiom saves once up front so the local can replace the attribute
    across iterations.  Only saves outside every loop span form pairs.
    """
    spans: List[Tuple[int, int]] = []
    stack: List[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            spans.append(
                (stmt.body[0].lineno, getattr(stmt, "end_lineno", stmt.lineno))
            )
        if isinstance(stmt, FunctionNode):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            stack.extend(handler.body)
    return spans


def _nested_closures(func: ast.AST) -> Dict[str, Set[str]]:
    """``nested function name -> outer locals it nonlocal-assigns``."""
    out: Dict[str, Set[str]] = {}
    for stmt in func.body if isinstance(func, FunctionNode) else []:
        for node in ast.walk(stmt):
            if isinstance(node, FunctionNode):
                declared: Set[str] = set()
                assigned: Set[str] = set()
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Nonlocal):
                        declared.update(inner.names)
                    elif isinstance(inner, ast.Name) and isinstance(
                        inner.ctx, ast.Store
                    ):
                        assigned.add(inner.id)
                    elif isinstance(inner, ast.AugAssign) and isinstance(
                        inner.target, ast.Name
                    ):
                        assigned.add(inner.target.id)
                mutated = declared & assigned
                if mutated:
                    out[node.name] = mutated
    return out


def _declared_attrs(
    func: FunctionDefNode, source_lines: List[str], nested_spans: List[Tuple[int, int]]
) -> Dict[str, int]:
    """``obj.attr -> declaration line`` from ``# hoists:`` comments.

    Only comments inside this function's own span (excluding directly
    nested function spans, which own their comments) count.
    """
    out: Dict[str, int] = {}
    end = getattr(func, "end_lineno", func.lineno)
    for lineno in range(func.lineno, min(end, len(source_lines)) + 1):
        if any(lo <= lineno <= hi for lo, hi in nested_spans):
            continue
        match = _HOISTS_RE.search(source_lines[lineno - 1])
        if match is None:
            continue
        for item in match.group(1).split(","):
            attr = item.strip()
            if attr and "." in attr:
                out.setdefault(attr, lineno)
    return out


def _check_inferred_pairs(cfg, qualname: str, path: str, report) -> None:
    saves: Dict[Tuple[str, str], List[CFGNode]] = {}
    resaves: Dict[Tuple[str, str], List[CFGNode]] = {}
    attr_writes: Dict[str, List[CFGNode]] = {}
    loop_spans = _loop_spans(cfg.func)
    for node in cfg.stmt_nodes():
        pair = _save_site(node.stmt)
        if pair is not None:
            line = node.line or 0
            if any(lo <= line <= hi for lo, hi in loop_spans):
                resaves.setdefault(pair, []).append(node)
            else:
                saves.setdefault(pair, []).append(node)
        written = _attr_write(node.stmt)
        if written is not None:
            attr_writes.setdefault(written, []).append(node)

    closures = _nested_closures(cfg.func)
    for pair in sorted(saves):
        local, attr = pair
        save_ids = {n.id for n in saves[pair]}
        save_ids.update(n.id for n in resaves.get(pair, ()))
        # Walls: any write re-establishing the attribute counts as the
        # write-back, whether or not it copies from the hoist local.
        wall_ids = {n.id for n in attr_writes.get(attr, ())}
        mutator_names = {
            name for name, locals_ in closures.items() if local in locals_
        }
        rebinds: List[CFGNode] = []
        closure_calls: List[CFGNode] = []
        for node in cfg.stmt_nodes():
            if node.id in save_ids or node.id in wall_ids:
                continue
            if local in stmt_defs(node.stmt):
                rebinds.append(node)
            elif mutator_names & stmt_uses(node.stmt):
                closure_calls.append(node)
        if not rebinds and not closure_calls:
            continue  # read-only hoist: aliasing, nothing to restore
        first = min(rebinds + closure_calls, key=lambda n: n.line or 0)
        if not wall_ids:
            report(
                path,
                first.line or cfg.func.lineno,
                qualname,
                f"{qualname} hoists {attr} into `{local}` and mutates it "
                f"(line {first.line}) but never writes the value back; add "
                f"`{attr} = {local}` in a finally block, or allowlist "
                f"'{path}::{qualname}' with a justification",
            )
            continue
        escaped = (
            rebinds
            and reaches_exit_avoiding(
                cfg,
                [n.id for n in rebinds],
                wall_ids,
                drop_start_exception_edges=True,
            )
        ) or (
            closure_calls
            and reaches_exit_avoiding(
                cfg, [n.id for n in closure_calls], wall_ids
            )
        )
        if escaped:
            report(
                path,
                first.line or cfg.func.lineno,
                qualname,
                f"{qualname} hoists {attr} into `{local}` but a mutation "
                f"(line {first.line}) can reach the function exit without "
                f"the `{attr} = {local}` write-back; guard the mutation "
                "region with try/finally restoring it, or allowlist "
                f"'{path}::{qualname}' with a justification",
            )


def _check_declared(
    cfg, declared: Dict[str, int], qualname: str, path: str, report
) -> None:
    for attr, decl_line in sorted(declared.items(), key=lambda kv: kv[1]):
        writes = [n for n in cfg.stmt_nodes() if _attr_write(n.stmt) == attr]
        if not writes:
            report(
                path,
                decl_line,
                qualname,
                f"stale `# hoists:` contract in {qualname}: no writes to "
                f"{attr}; update or remove the declaration",
            )
            continue
        write_ids = {n.id for n in writes}
        for node in sorted(writes, key=lambda n: n.line or 0):
            if node.in_finally:
                continue  # terminal restore
            if reaches_exit_avoiding(
                cfg,
                [node.id],
                write_ids - {node.id},
                drop_start_exception_edges=True,
            ):
                report(
                    path,
                    node.line or decl_line,
                    qualname,
                    f"{qualname} sets {attr} (line {node.line}) on a path "
                    "that can exit without a terminal restore; move the "
                    f"restoring `{attr} = ...` into a finally block "
                    "covering this write",
                )
                break  # one finding per attribute is enough signal


def check_writeback_source(
    source: str, path: str, *, infer_pairs: Optional[bool] = None
) -> List[Tuple[str, int, str, str]]:
    """Run the write-back checks on one module's source.

    Returns ``(path, line, qualname, message)`` tuples (rule assignment
    and allowlist/# noqa filtering happen in :mod:`repro.analysis.lint`).
    ``infer_pairs`` defaults to whether ``path`` is one of
    :data:`WRITEBACK_TARGET_FILES`.
    """
    if infer_pairs is None:
        infer_pairs = path in WRITEBACK_TARGET_FILES
    tree = ast.parse(source)
    source_lines = source.splitlines()
    has_contract = bool(_HOISTS_RE.search(source))
    if not infer_pairs and not has_contract:
        return []
    found: List[Tuple[str, int, str, str]] = []

    def report(fpath: str, line: int, site: str, message: str) -> None:
        found.append((fpath, line, site, message))

    scopes = list(iter_function_scopes(tree))
    spans = {
        id(func): (func.lineno, getattr(func, "end_lineno", func.lineno))
        for _, func in scopes
    }
    for qualname, func in scopes:
        cfg = build_cfg(func)
        if infer_pairs:
            _check_inferred_pairs(cfg, qualname, path, report)
        if has_contract:
            nested_spans = [
                spans[id(inner)]
                for _, inner in scopes
                if inner is not func
                and func.lineno < inner.lineno
                and spans[id(inner)][1] <= spans[id(func)][1]
            ]
            declared = _declared_attrs(func, source_lines, nested_spans)
            if declared:
                _check_declared(cfg, declared, qualname, path, report)
    return found
