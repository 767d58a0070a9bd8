"""No module of ``src/linetrp`` reads a scalar's rational parts ``.p`` or ``.q``.

``QuadraticScalar`` keeps one integer triple ``(a + b*sqrt(3))/d``; its
parts ``p`` and ``q`` are properties that build a ``Fraction`` on each
read.  The engine reads values as triples (``core._triples``) and pairs
(``core._scaled_pairs``); an AST scan allows ``.p`` and ``.q`` only inside
``QuadraticScalar`` itself, for the conversions that print or hash the parts.
"""

import ast
from pathlib import Path

import linetrp

PARTS = {"p", "q"}
ALLOWED = {"QuadraticScalar"}


def _part_reads(tree):
    """(enclosing class, line) of every ``.p`` or ``.q`` attribute read."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Attribute) and node.attr in PARTS and isinstance(node.ctx, ast.Load):
            found.append((cls, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_scan_sees_every_part_read():
    tree = ast.parse(
        "class QuadraticScalar:\n"
        "    def __str__(self): return str(self.p) + str(self.q)\n"
        "def f(x): return x.p, x.q, x.pq\n"
        "class Other:\n"
        "    def g(self, x): x.q = 1; return x.p\n"
    )
    assert _part_reads(tree) == [("QuadraticScalar", 2)] * 2 + [(None, 3)] * 2 + [("Other", 5)]


def test_no_module_reads_a_scalar_part():
    src = Path(linetrp.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert files
    offenders = [
        f"{path.name}:{line} in {cls}"
        for path in files
        for cls, line in _part_reads(ast.parse(path.read_text()))
        if cls not in ALLOWED
    ]
    assert offenders == []
