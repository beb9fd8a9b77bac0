"""Every caller of the |G|^2 multiplication table is named, with its reason.

`FiniteMatrixGroup.table_group()` fills |G|^2 entries; orders, inverses,
conjugacy classes and subgroups need only `mult` along the closure's
Cayley graph.  A `.table_group()` call under src/invforge may appear only
in the functions listed below.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invforge"

# function name -> reason it still needs the full table
ALLOWED = {
    "automorphism_group": "backtracking on the table, under the automorphism bound",
    "elementary_abelian_rank": "commuting pairs on the table (ROADMAP item 16)",
    "rank_obstruction": "the quotient by the scalars (ROADMAP item 16)",
    "cst_quotient_action": "cosets of the reflection subgroup from the quotient",
    "parse_action_text": "the coefficient module's table",
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


def _all_callers():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        found += _table_callers(str(path.relative_to(SRC.parent)),
                                path.read_text(encoding="utf-8"))
    return found


def test_only_named_functions_build_the_table():
    assert [c for c in _all_callers() if c.split()[-1] not in ALLOWED] == []


def test_every_named_function_still_builds_the_table():
    # an allowance for a function that no longer needs the table is stale
    assert {c.split()[-1] for c in _all_callers()} == set(ALLOWED)


@pytest.mark.parametrize("source, found", [
    ("def f(g):\n    return g.table_group()\n", ["lib.py:2 f"]),
    ("def f(g):\n    def h():\n        return g.table_group().n\n    return h\n",
     ["lib.py:3 h"]),
    ("class A:\n    def classes(self):\n        return self.table_group().classes()\n",
     ["lib.py:3 classes"]),
    ("T = G.table_group()\n", ["lib.py:1 <module>"]),
    ("def table_group(self):\n    return self._table\n", []),
    ("def f(g):\n    return g.mult(1, 2)\n", []),
])
def test_table_caller_detector(source, found):
    assert _table_callers("lib.py", source) == found
