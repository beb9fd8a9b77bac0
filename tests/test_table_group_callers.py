"""Every caller of the |G|^2 multiplication table is named, with its reason.

`FiniteMatrixGroup.table_group()` fills |G|^2 entries that `mult` reads
from then on, and returns the group itself; orders, inverses, conjugacy
classes, cosets and subgroups need only `mult` along the closure's Cayley
graph.  A `.table_group()` call under src/invforge may appear only in the
functions listed below, where the table is a cache for products that are
read many times over.  No code there reads a `.table` attribute outside
`TableGroup`, so every group query goes through `mult`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invforge"

# function name -> reason it fills the table before reading products
ALLOWED = {
    "automorphism_group": "one column per candidate image and |G|^2 conjugates, "
                          "under the automorphism bound",
    "elementary_abelian_rank": "the rank search's products, refused past the "
                               "enumeration bound",
    "rank_obstruction": "the rank search's products modulo the scalars, refused "
                        "past the enumeration bound",
    "parse_action_text": "the coefficient module's products in the cocycle search",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _table_callers(label, text):
    """'label:line name' for each `.table_group()` call, name being its
    innermost enclosing function ('<module>' at top level)."""
    out = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "table_group"):
                out.append(f"{label}:{child.lineno} {name}")
            visit(child, name)

    visit(ast.parse(text, filename=label), "<module>")
    return out


def _table_readers(label, text):
    """'label:line' for each `.table` attribute outside class TableGroup."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "TableGroup":
                continue
            if isinstance(child, ast.Attribute) and child.attr == "table":
                out.append(f"{label}:{child.lineno}")
            visit(child)

    visit(ast.parse(text, filename=label))
    return out


def _all_found(find):
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        found += find(str(path.relative_to(SRC.parent)),
                      path.read_text(encoding="utf-8"))
    return found


def test_only_named_functions_build_the_table():
    assert [c for c in _all_found(_table_callers)
            if c.split()[-1] not in ALLOWED] == []


def test_every_named_function_still_builds_the_table():
    # an allowance for a function that no longer needs the table is stale
    assert {c.split()[-1] for c in _all_found(_table_callers)} == set(ALLOWED)


def test_no_table_read_outside_table_group():
    assert _all_found(_table_readers) == []


@pytest.mark.parametrize("source, found", [
    ("def f(g):\n    return g.table_group()\n", ["lib.py:2 f"]),
    ("def f(g):\n    def h():\n        return g.table_group().order\n    return h\n",
     ["lib.py:3 h"]),
    ("class A:\n    def classes(self):\n        return self.table_group().classes()\n",
     ["lib.py:3 classes"]),
    ("T = G.table_group()\n", ["lib.py:1 <module>"]),
    ("def table_group(self):\n    return self._table\n", []),
    ("def f(g):\n    return g.mult(1, 2)\n", []),
])
def test_table_caller_detector(source, found):
    assert _table_callers("lib.py", source) == found


@pytest.mark.parametrize("source, found", [
    ("def f(g):\n    return g.table[1][2]\n", ["lib.py:2"]),
    ("def f(g):\n    return g.table_group().table\n", ["lib.py:2"]),
    ("class FiniteMatrixGroup:\n    def mult(self, i, j):\n"
     "        return self.table[i][j]\n", ["lib.py:3"]),
    ("class TableGroup:\n    def mult(self, a, b):\n"
     "        return self.table[a][b]\n", []),
    ("def f(g):\n    return g._table[1][2]\n", []),
    ("def f(g):\n    return g.table_group()\n", []),
])
def test_table_reader_detector(source, found):
    assert _table_readers("lib.py", source) == found
