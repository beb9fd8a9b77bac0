"""Every function and class the library defines is used somewhere.

A definition under src/invforge whose name appears nowhere in src/ or
tests/ as a name, an attribute or an imported name is dead code: it costs
reading and upkeep and nothing checks it.  Dunder methods are called by the
interpreter and are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "invforge"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced(library, others):
    """'label:line name' for each definition in the library sources that no
    source mentions; both arguments are lists of (label, text)."""
    defined, used = [], set()
    library_labels = {label for label, _ in library}
    for label, text in library + others:
        for node in ast.walk(ast.parse(text, filename=label)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif (isinstance(node, DEFINITIONS) and label in library_labels
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((label, node.lineno, node.name))
    return [f"{label}:{line} {name}" for label, line, name in defined
            if name not in used]


def _sources(directory):
    return [(str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
            for path in sorted(directory.rglob("*.py"))]


def test_library_has_no_unreferenced_definitions():
    library = _sources(SRC)
    assert library
    assert _unreferenced(library, _sources(ROOT / "tests")) == []


def test_unreferenced_detector():
    library = [("lib.py", "def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
                          "class C:\n    def __eq__(self, other):\n        return True\n\n"
                          "    def method(self):\n        pass\n")]
    assert _unreferenced(library, []) == ["lib.py:5 unused", "lib.py:9 C",
                                          "lib.py:13 method"]
    assert _unreferenced(library, [("test.py", "from lib import C\nC().method()\n")]) \
        == ["lib.py:5 unused"]
