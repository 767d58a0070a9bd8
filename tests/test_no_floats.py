"""The engine is exact: no float arithmetic anywhere in ``src/linetrp``.

An AST scan allows ``float(...)`` and ``math.sqrt(...)`` calls and float
literals only inside ``QuadraticScalar.__float__``, the explicit conversion
for callers that ask for a float.  A float shortcut anywhere else (a
prefilter, a floor estimate) overflows or misses by whole units once times
grow large.
"""

import ast
from pathlib import Path

import linetrp

ALLOWED = {("QuadraticScalar", "__float__")}


def _floats(tree):
    """(enclosing class, enclosing function, line) of every ``float`` or
    ``sqrt`` call and every float literal."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            by_name = isinstance(f, ast.Name) and f.id in ("float", "sqrt")
            by_attr = isinstance(f, ast.Attribute) and f.attr == "sqrt"
            if by_name or by_attr:
                found.append((cls, fn, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_scan_sees_every_float():
    tree = ast.parse(
        "class QuadraticScalar:\n"
        "    def __float__(self): return float(self.p) + math.sqrt(3.0)\n"
        "    def __floor__(self): return float(self)\n"
        "def f(x): return x.sqrt() + sqrt(2) + 1e-9\n"
    )
    assert _floats(tree) == [("QuadraticScalar", "__float__", 2)] * 3 + [
        ("QuadraticScalar", "__floor__", 3)
    ] + [(None, "f", 4)] * 3


def test_no_float_outside_the_explicit_conversion():
    src = Path(linetrp.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert files
    offenders = [
        f"{path.name}:{line} in {cls}.{fn}"
        for path in files
        for cls, fn, line in _floats(ast.parse(path.read_text()))
        if (cls, fn) not in ALLOWED
    ]
    assert offenders == []
