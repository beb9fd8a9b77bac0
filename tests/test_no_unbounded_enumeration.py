"""Every exhaustive enumeration is bounded before it starts.

A function under src/invforge that walks `itertools.product` (a Cartesian
power: field points, cocycle assignments, grid points), `combinations`,
`permutations` or `combinations_with_replacement` (subsets and
arrangements, such as the hsop candidates of the generator search) must
also call `check_enumeration_bound`, which refuses with BoundExceededError
when the walk would exceed ENUMERATION_BOUND.  The only exception is
listed below with its reason.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invforge"

# function name -> reason it may enumerate without the helper
EXCEPTIONS = {
    # its grid walk is replaced, not bounded, by ROADMAP item 2 (the
    # lex-first witness found coordinate by coordinate)
    "_invertible_combination": "ROADMAP item 2",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
ENUMERATORS = ("product", "combinations", "permutations",
               "combinations_with_replacement")


def _called_names(fn):
    """(dotted) names called anywhere inside fn: 'itertools.product', 'f'."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                names.add(f"{func.value.id}.{func.attr}")
    return names


def _unbounded(label, text):
    """'label:line name' for each function that calls one of the
    ENUMERATORS as itertools.<name> (or bare, imported from itertools)
    without the helper."""
    tree = ast.parse(text, filename=label)
    products = {f"itertools.{name}" for name in ENUMERATORS}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            products |= {a.asname or a.name for a in node.names
                         if a.name in ENUMERATORS}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS) or fn.name in EXCEPTIONS:
            continue
        called = _called_names(fn)
        if called & products and "check_enumeration_bound" not in called:
            out.append(f"{label}:{fn.lineno} {fn.name}")
    return out


def test_every_product_enumeration_is_bounded():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        found += _unbounded(str(path.relative_to(SRC.parent)),
                            path.read_text(encoding="utf-8"))
    assert found == []


def test_exceptions_still_exist():
    # an exception for a function that is gone or bounded is stale
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py")))
    for name in EXCEPTIONS:
        assert f"def {name}(" in text


@pytest.mark.parametrize("source, flagged", [
    ("import itertools\ndef f(s):\n    return list(itertools.product(s, repeat=3))\n",
     ["lib.py:2 f"]),
    ("import itertools\ndef f(s):\n    check_enumeration_bound(len(s) ** 3, 'x')\n"
     "    return list(itertools.product(s, repeat=3))\n", []),
    ("from itertools import product as p\ndef f(s):\n    return list(p(s, s))\n",
     ["lib.py:2 f"]),
    ("import itertools\ndef f(s):\n    def g():\n        return itertools.product(s)\n"
     "    return g\n", ["lib.py:2 f", "lib.py:3 g"]),
    ("import itertools\ndef _invertible_combination(s):\n"
     "    return itertools.product(s)\n", []),
    ("def f(s):\n    return [(a, b) for a in s for b in s]\n", []),
    ("import itertools\ndef f(s):\n    return list(itertools.combinations(s, 3))\n",
     ["lib.py:2 f"]),
    ("import itertools\ndef f(s):\n    return itertools.permutations(s)\n",
     ["lib.py:2 f"]),
    ("import itertools\ndef f(s):\n"
     "    return itertools.combinations_with_replacement(s, 2)\n", ["lib.py:2 f"]),
    ("from itertools import combinations, permutations as perms\n"
     "def f(s):\n    return combinations(s, 2)\n"
     "def g(s):\n    return perms(s)\n", ["lib.py:2 f", "lib.py:4 g"]),
    ("import itertools, math\ndef f(s, n):\n"
     "    check_enumeration_bound(math.comb(len(s), n), 'x')\n"
     "    return itertools.combinations(s, n)\n", []),
    ("import itertools\ndef f(s):\n    return itertools.chain(s, s)\n", []),
])
def test_unbounded_detector(source, flagged):
    assert _unbounded("lib.py", source) == flagged
