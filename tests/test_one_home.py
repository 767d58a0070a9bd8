"""Each rule on a motion's integer pairs has one home, in ``core``.

The cut (``_cut``) and the lookup of the segment under way
(``_segment_at``) are defined in ``core`` and nowhere else; the text
``must be rational`` occurs once in ``src/linetrp``, in the one check that a
location is rational (``core._rational_ints``); and no module imports
``bisect``, since every motion is read through ``_segment_at``.  An AST scan
finds the definitions and the imports.
"""

import ast
from pathlib import Path

import linetrp

HOMED = {"_cut", "_segment_at"}


def _definitions(tree, names):
    """(name, line) of every function defined in ``tree`` under one of ``names``."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    ]


def _imports(tree, module):
    """Lines of every ``import module`` or ``from module import ...`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if alias.name.split(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == module:
                found.append(node.lineno)
    return found


def _sources():
    src = Path(linetrp.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert files
    return {path.name: path.read_text() for path in files}


def test_scans_see_definitions_and_imports():
    tree = ast.parse(
        "import bisect\n"
        "from bisect import bisect_right\n"
        "import os, bisect as b\n"
        "from .bisect import x\n"
        "def _cut(pts, time): pass\n"
        "class T:\n"
        "    def _segment_at(self): pass\n"
        "def _cut_at(): pass\n"
    )
    assert _imports(tree, "bisect") == [1, 2, 3]
    assert sorted(_definitions(tree, HOMED)) == [("_cut", 5), ("_segment_at", 7)]


def test_the_cut_and_the_lookup_are_defined_only_in_core():
    found = sorted(
        (name, module)
        for module, text in _sources().items()
        for name, _ in _definitions(ast.parse(text), HOMED)
    )
    assert found == [("_cut", "core.py"), ("_segment_at", "core.py")]


def test_the_rational_check_is_written_once():
    counts = {module: text.count("must be rational") for module, text in _sources().items()}
    assert sum(counts.values()) == 1 and counts["core.py"] == 1, counts


def test_no_module_imports_bisect():
    offenders = [
        f"{module}:{line}"
        for module, text in _sources().items()
        for line in _imports(ast.parse(text), "bisect")
    ]
    assert offenders == []
