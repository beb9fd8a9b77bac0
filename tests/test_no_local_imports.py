"""Imports sit at the top of their module.

An import inside a function hides a dependency from the module header and
runs again on every call.  The only ones allowed break the real import
cycle between fields and poly: poly is built on fields, and two fields
functions need a Polynomial.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invforge"
ALLOWED = {("invforge/fields.py", "cyclotomic_polynomial"),
           ("invforge/fields.py", "_univariate_coeffs")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _function_imports(tree):
    """(innermost enclosing function, line) of every import inside a function."""
    found = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and function:
                found.append((function, child.lineno))
            walk(child, child.name if isinstance(child, FUNCTIONS) else function)

    walk(tree, None)
    return found


def test_library_imports_only_at_module_top():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        label = path.relative_to(SRC.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(label, function, line) for function, line in _function_imports(tree)]
    assert [f"{label}:{line} {function}" for label, function, line in found
            if (label, function) not in ALLOWED] == []
    # the exceptions name imports that still exist
    assert {(label, function) for label, function, _ in found} >= ALLOWED


@pytest.mark.parametrize("source, found", [
    ("import os\nfrom .x import y\n\n\ndef f():\n    return os\n", []),
    ("if True:\n    import os\n", []),
    ("def f():\n    import os\n", [("f", 2)]),
    ("def f():\n    x = 1\n    from .x import y\n", [("f", 3)]),
    ("class C:\n    def m(self):\n        import os\n", [("m", 3)]),
    ("def f():\n    def g():\n        import os\n    import sys\n",
     [("g", 3), ("f", 4)]),
    ("async def f():\n    import os\n", [("f", 2)]),
])
def test_local_import_detector(source, found):
    assert sorted(_function_imports(ast.parse(source))) == sorted(found)
