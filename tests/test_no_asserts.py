"""Certificates must not be `assert` statements, and errors must not be
swallowed wholesale.

`python -O` strips asserts: every check of a computed answer in the library
raises a typed InvForgeError (CertificateError for failed certificates)
instead.  An `except Exception` or bare `except:` would also catch those
typed errors and internal bugs alike, so every handler names the error
types it expects.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invforge"


def _library_nodes(matches):
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                  for node in ast.walk(tree) if matches(node)]
    return found


def _catches_everything(node):
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in types)


def test_library_has_no_assert_statements():
    assert _library_nodes(lambda node: isinstance(node, ast.Assert)) == []


def test_library_has_no_catch_all_handlers():
    assert _library_nodes(_catches_everything) == []


@pytest.mark.parametrize("source, caught", [
    ("try:\n    f()\nexcept Exception:\n    pass\n", True),
    ("try:\n    f()\nexcept:\n    pass\n", True),
    ("try:\n    f()\nexcept (KeyError, Exception) as exc:\n    pass\n", True),
    ("try:\n    f()\nexcept FieldError:\n    pass\n", False),
])
def test_catch_all_detector(source, caught):
    handlers = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ExceptHandler)]
    assert [_catches_everything(n) for n in handlers] == [caught]
