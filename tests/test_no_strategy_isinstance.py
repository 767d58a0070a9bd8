"""No module of ``src/linetrp`` checks whether an object is a strategy class.

``run`` and the release game serve every strategy through one session
protocol (``Strategy.start``).  An ``isinstance`` or ``issubclass`` check
against ``Strategy`` or a class derived from it would grow a second path
beside that one.
"""

import ast
from pathlib import Path

import linetrp


def _strategy_classes(trees):
    """``Strategy`` and every class the ``trees`` derive from it, directly or
    through another, by bare or dotted base name."""
    bases = {
        node.name: {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    names, grown = {"Strategy"}, True
    while grown:
        new = {name for name, parents in bases.items() if parents & names} - names
        names, grown = names | new, bool(new)
    return names


def _strategy_checks(tree, classes):
    """(line, class) of every ``isinstance``/``issubclass`` call that names a
    class of ``classes``, bare, dotted or in a tuple."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
        ):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            name = kind.id if isinstance(kind, ast.Name) else getattr(kind, "attr", None)
            if name in classes:
                found.append((node.lineno, name))
    return found


def test_scan_sees_every_strategy_check():
    tree = ast.parse(
        "class Strategy: pass\n"
        "class Fixed(Strategy): pass\n"
        "class Sweep(online.Fixed): pass\n"
        "isinstance(s, Fixed)\n"
        "isinstance(s, (int, online.Sweep))\n"
        "issubclass(type(s), Strategy)\n"
        "isinstance(v, QuadraticScalar)\n"
    )
    classes = _strategy_classes([tree])
    assert classes == {"Strategy", "Fixed", "Sweep"}
    assert _strategy_checks(tree, classes) == [(4, "Fixed"), (5, "Sweep"), (6, "Strategy")]


def test_no_module_checks_a_strategy_kind():
    src = Path(linetrp.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    classes = _strategy_classes(trees.values())
    assert {"FixedPathStrategy", "GreedyReplan", "HalflineRoundTrips"} <= classes
    offenders = [
        f"{name}:{line} checks {cls}"
        for name, tree in trees.items()
        for line, cls in _strategy_checks(tree, classes)
    ]
    assert offenders == []
