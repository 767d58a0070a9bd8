"""Every module-level private name in ``src/linetrp`` is read in ``src/linetrp``.

A private function, class or constant that nothing in the package reads is
either test-only code or the twin a merge left behind.  An import does not
count as a read: the name has to be used, in its own module or another.
"""

import ast
from pathlib import Path

import linetrp


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined_privates(tree):
    """(line, name) of every private name a module defines at its top level:
    a function, a class or an assigned name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if _private(name)]
    return found


def _read_names(tree):
    """Every name a module reads, bare (``_f``) or as an attribute
    (``core._f``)."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_scan_sees_an_unread_private_name():
    tree = ast.parse(
        "from .core import _imported\n"
        "import re\n"
        "_USED = re.compile('x')\n"
        "_UNUSED: int = 3\n"
        "__all__ = []\n"
        "def _helper(): return _USED\n"
        "class _Twin: pass\n"
        "def public(): return other._attr_read\n"
        "def _attr_read(): pass\n"
    )
    defined = _defined_privates(tree)
    assert defined == [(3, "_USED"), (4, "_UNUSED"), (6, "_helper"), (7, "_Twin"), (9, "_attr_read")]
    reads = _read_names(tree)
    assert [name for _, name in defined if name not in reads] == ["_UNUSED", "_helper", "_Twin"]


def test_every_private_name_is_read_in_the_package():
    src = Path(linetrp.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert trees
    reads = set().union(*[_read_names(tree) for tree in trees.values()])
    defined = [(f"{name}:{line}", private) for name, tree in trees.items()
               for line, private in _defined_privates(tree)]
    assert defined
    assert [f"{where} {private}" for where, private in defined if private not in reads] == []
