"""Certificates must not be `assert` statements: `python -O` strips them.

Every check of a computed answer in the library raises a typed
InvForgeError (CertificateError for failed certificates) instead.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invforge"


def test_library_has_no_assert_statements():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
