"""No ``tuple(<generator expression>)`` anywhere in ``src/linetrp``.

CPython 3.11 builds ``tuple(x for x in ...)`` by allocating a tuple of the
generator's default length hint (10) and resizing it to its final length.  The
freed tuple then goes onto the free list for its final size, while the next
build takes a fresh size-10 tuple again, so the free lists of the small sizes
fill towards their 2000-entry cap pass after pass and hold their blocks until a
full collection clears them.  A long-running caller (the benchmark, a sweep)
sees its live blocks, and so its peak RSS, creep up with the number of passes.
Building the tuple from a list (``tuple([x for x in ...])``) allocates it at
its exact size and reuses the free list it returns to.
"""

import ast
from pathlib import Path

import linetrp


def _tuple_genexprs(tree):
    """Line of every ``tuple(...)`` call whose only argument is a generator
    expression."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.GeneratorExp)
    ]


def test_scan_sees_a_tuple_of_a_generator():
    tree = ast.parse(
        "a = tuple(x for x in y)\n"
        "b = tuple([x for x in y])\n"
        "c = tuple(\n    (x, x)\n    for x in y\n)\n"
        "d = tuple(reversed(y)) + tuple(y)\n"
    )
    assert sorted(_tuple_genexprs(tree)) == [1, 3]


def test_no_tuple_built_from_a_generator():
    src = Path(linetrp.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert files
    offenders = [
        f"{path.name}:{line}"
        for path in files
        for line in _tuple_genexprs(ast.parse(path.read_text()))
    ]
    assert offenders == []
