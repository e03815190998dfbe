"""Tests for the function-scope enumeration the deep lint walks.

``iter_function_scopes`` yields every function in a module under its
dotted qualname, so nested functions and methods are separate scopes.
"""

import ast
import textwrap

from repro.analysis.cachekey import iter_function_scopes


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

    def test_method_qualnames_include_class(self):
        tree = ast.parse("class C:\n    def m(self):\n        pass\n")
        assert [qual for qual, _ in iter_function_scopes(tree)] == ["C.m"]
