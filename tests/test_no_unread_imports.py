"""Every name a module of ``src/linetrp`` imports is read in that module.

An import nothing reads is left over from code that moved or went.  The
package's ``__init__.py`` imports to re-export, so it is not scanned;
``from __future__`` imports are directives, not names.  An import may stay
unread when its line carries a comment saying why (a re-export, or a name
another tool looks up in the module).
"""

import ast
from pathlib import Path

import linetrp


def _unread_imports(source):
    """(line, name) of every name ``source`` binds by an import and never
    reads, bare (``name``) or as the base of an attribute (``name.attr``),
    skipping ``from __future__`` and any import line with a comment."""
    tree = ast.parse(source)
    lines = source.splitlines()
    reads = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in reads and "#" not in lines[alias.lineno - 1]:
                unread.append((alias.lineno, name))
    return unread


def test_scan_sees_every_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import re as regex\n"
        "from typing import (\n"
        "    List,\n"
        "    Optional,\n"
        "    Tuple,  # re-exported for callers\n"
        ")\n"
        "from .core import _parts, parse_scalar\n"
        "def f(x: List) -> int:\n"
        "    return regex.compile(x) and parse_scalar(x)\n"
    )
    assert _unread_imports(source) == [(2, "os"), (3, "os"), (7, "Optional"), (10, "_parts")]


def test_every_import_is_read_in_its_module():
    src = Path(linetrp.__file__).resolve().parent
    files = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    assert files
    offenders = [
        f"{path.name}:{line} {name}"
        for path in files
        for line, name in _unread_imports(path.read_text())
    ]
    assert offenders == []
