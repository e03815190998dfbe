"""Tests for the per-function CFG builder and the write-back query.

These pin the edge semantics the deep lint checkers rely on: abrupt
jumps route through ``finally`` bodies, ``while/else`` runs only on
normal loop exit, handler re-raises propagate outward, comprehension
targets stay out of the enclosing scope, and nested functions are
separate scopes.
"""

import ast
import textwrap

from repro.analysis.cfg import (
    EXCEPTION,
    FINALLY,
    NORMAL,
    build_cfg,
    iter_function_scopes,
    stmt_defs,
    stmt_may_raise,
    stmt_uses,
)
from repro.analysis.writeback import reaches_exit_avoiding


def cfg_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    scopes = dict(iter_function_scopes(tree))
    func = scopes[name] if name is not None else next(iter(scopes.values()))
    return build_cfg(func)


def node_at(cfg, line):
    """Node id of the statement starting on ``line`` (1-based in source)."""
    for node in cfg.stmt_nodes():
        if node.line == line:
            return node.id
    raise AssertionError(f"no statement node on line {line}")


def edge_kinds(cfg, src, dst):
    return {kind for d, kind in cfg.succ[src] if d == dst}


class TestTryFinally:
    SOURCE = """\
    def f(obj, cond):
        local = obj.attr
        try:
            if cond:
                return 1
            local = work(local)
        finally:
            obj.attr = local
        return local
    """

    def test_return_in_try_routes_through_finally(self):
        cfg = cfg_of(self.SOURCE)
        ret = node_at(cfg, 5)
        restore = node_at(cfg, 8)
        # The early return must not edge straight to the exit: its only
        # way out is a FINALLY edge into the finally body.
        assert edge_kinds(cfg, ret, restore) == {FINALLY}
        assert not edge_kinds(cfg, ret, cfg.exit)

    def test_restore_postdominates_every_path(self):
        cfg = cfg_of(self.SOURCE)
        restore = node_at(cfg, 8)
        # The checker's must-pass query: neither the branch, the early
        # return nor the mutation can reach the exit avoiding the restore.
        for line in (4, 5, 6):
            assert not reaches_exit_avoiding(cfg, [node_at(cfg, line)], {restore})
        # The hoist save before the try is not covered by it.
        assert reaches_exit_avoiding(cfg, [node_at(cfg, 2)], {restore})

    def test_body_exception_enters_finally(self):
        cfg = cfg_of(self.SOURCE)
        work = node_at(cfg, 6)
        restore = node_at(cfg, 8)
        assert EXCEPTION in edge_kinds(cfg, work, restore)

    def test_simple_writeback_finally_cannot_raise(self):
        # The refinement that makes the proof work: `obj.attr = local`
        # is a provably non-raising statement.
        stmt = ast.parse("obj.attr = local").body[0]
        assert not stmt_may_raise(stmt)
        assert stmt_may_raise(ast.parse("obj.a.b = local").body[0])


class TestWhileElse:
    SOURCE = """\
    def f(xs):
        while xs:
            if bad(xs):
                break
            xs = step(xs)
        else:
            finish()
        return xs
    """

    def test_else_runs_only_on_normal_exit(self):
        cfg = cfg_of(self.SOURCE)
        header = node_at(cfg, 2)
        brk = node_at(cfg, 4)
        fin = node_at(cfg, 7)
        # Normal loop exit goes through the else body...
        assert NORMAL in edge_kinds(cfg, header, fin)
        # ...but break bypasses it entirely.
        assert reaches_exit_avoiding(cfg, [brk], {fin})
        assert not edge_kinds(cfg, brk, fin)

    def test_loop_back_edge(self):
        cfg = cfg_of(self.SOURCE)
        step = node_at(cfg, 5)
        header = node_at(cfg, 2)
        assert NORMAL in edge_kinds(cfg, step, header)


class TestNestedWith:
    SOURCE = """\
    def f(a, b):
        out = None
        with open(a) as fa:
            with open(b) as fb:
                out = fb.read()
        return out
    """

    def test_body_exceptions_propagate(self):
        # No __exit__ suppression is modelled: a raise in the inner
        # body reaches the function's exceptional exit.
        cfg = cfg_of(self.SOURCE)
        read = node_at(cfg, 5)
        assert EXCEPTION in edge_kinds(cfg, read, cfg.exit)

    def test_inner_header_raises_to_enclosing_context(self):
        # `open(b)` / __enter__ evaluate before the inner body: their
        # exception edge belongs to the enclosing (here: function) level.
        cfg = cfg_of(self.SOURCE)
        inner = node_at(cfg, 4)
        assert EXCEPTION in edge_kinds(cfg, inner, cfg.exit)

    def test_normal_flow_reaches_return(self):
        cfg = cfg_of(self.SOURCE)
        assert NORMAL in edge_kinds(cfg, node_at(cfg, 5), node_at(cfg, 6))


class TestExceptReraise:
    SOURCE = """\
    def f(obj):
        try:
            risky(obj)
        except ValueError:
            cleanup(obj)
            raise
        return True
    """

    def test_raising_statement_enters_handler(self):
        cfg = cfg_of(self.SOURCE)
        risky = node_at(cfg, 3)
        handler = node_at(cfg, 4)  # the ExceptHandler node
        assert EXCEPTION in edge_kinds(cfg, risky, handler)

    def test_reraise_propagates_outward_not_to_sibling(self):
        cfg = cfg_of(self.SOURCE)
        reraise = node_at(cfg, 6)
        # The bare raise leaves through the exceptional exit, never back
        # into the try or to another handler.
        assert edge_kinds(cfg, reraise, cfg.exit) == {EXCEPTION}
        assert not reaches_exit_avoiding(cfg, [reraise], {cfg.exit})

    def test_reraise_with_finally_enters_finally(self):
        cfg = cfg_of(
            """\
            def f(obj):
                try:
                    risky(obj)
                except ValueError:
                    raise
                finally:
                    obj.flag = False
            """
        )
        reraise = node_at(cfg, 5)
        restore = node_at(cfg, 7)
        assert EXCEPTION in edge_kinds(cfg, reraise, restore)
        assert not reaches_exit_avoiding(cfg, [reraise], {restore})


class TestComprehensionScoping:
    def test_targets_are_not_uses_or_defs(self):
        stmt = ast.parse("ys = [x * scale for x in xs]").body[0]
        assert stmt_uses(stmt) == {"xs", "scale"}
        assert stmt_defs(stmt) == {"ys"}

    def test_dict_comprehension(self):
        stmt = ast.parse("m = {k: v + off for k, v in pairs}").body[0]
        assert stmt_uses(stmt) == {"pairs", "off"}
        assert stmt_defs(stmt) == {"m"}


class TestNestedFunctionBoundaries:
    SOURCE = """\
    def outer(ctrl):
        total = 0
        def inner(x=total):
            nonlocal total
            total += ctrl.step(x)
            return total
        inner(1)
        return total
    """

    def test_scopes_enumerated_with_qualnames(self):
        tree = ast.parse(textwrap.dedent(self.SOURCE))
        names = [qual for qual, _ in iter_function_scopes(tree)]
        assert names == ["outer", "outer.inner"]

    def test_inner_statements_not_in_outer_cfg(self):
        cfg = cfg_of(self.SOURCE, "outer")
        lines = {node.line for node in cfg.stmt_nodes()}
        assert {2, 3, 7, 8} <= lines
        assert not {4, 5, 6} & lines  # inner body is its own scope

    def test_def_statement_uses_only_defaults(self):
        # The def node evaluates its defaults here; its body does not
        # contribute loads to the enclosing scope's CFG node.
        tree = ast.parse(textwrap.dedent(self.SOURCE))
        inner_def = dict(iter_function_scopes(tree))["outer.inner"]
        assert stmt_uses(inner_def) == {"total"}
        assert stmt_defs(inner_def) == {"inner"}

    def test_method_qualnames_include_class(self):
        tree = ast.parse("class C:\n    def m(self):\n        pass\n")
        assert [qual for qual, _ in iter_function_scopes(tree)] == ["C.m"]


class TestUnreachableCode:
    def test_code_after_infinite_loop_has_no_node(self):
        source = """\
        def f():
            while True:
                pass
            x = 1
        """
        tree = ast.parse(textwrap.dedent(source))
        func = next(iter(dict(iter_function_scopes(tree)).values()))
        cfg = build_cfg(func)
        assert all(node.stmt is not func.body[1] for node in cfg.nodes.values())

    def test_code_after_return_has_no_node(self):
        source = """\
        def f():
            return 1
            x = 2
        """
        tree = ast.parse(textwrap.dedent(source))
        func = next(iter(dict(iter_function_scopes(tree)).values()))
        cfg = build_cfg(func)
        assert all(node.stmt is not func.body[1] for node in cfg.nodes.values())


class TestPostdominators:
    def test_diamond_join(self):
        cfg = cfg_of(
            """\
            def f(cond):
                if cond:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        ret = node_at(cfg, 6)
        # The simple assignments cannot raise, so every path out of them
        # passes the return; the if header CAN raise (its test evaluates
        # code), so it has an exit path around the return, and either
        # branch alone does not cover it.
        for line in (3, 5):
            assert not reaches_exit_avoiding(cfg, [node_at(cfg, line)], {ret})
        header = node_at(cfg, 2)
        assert reaches_exit_avoiding(cfg, [header], {ret})
        assert reaches_exit_avoiding(cfg, [header], {node_at(cfg, 3)})
        assert reaches_exit_avoiding(cfg, [header], {node_at(cfg, 5)})
