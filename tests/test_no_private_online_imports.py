"""No module of ``src/linetrp`` imports an underscore name from ``.online``.

``online`` holds the strategies; the exact Q[sqrt(3)] scalar and its integer
kernel (``_pair_sign``, ``_surd_floor``, ``_scaled_pairs``) live in ``core``,
where every module can import them.  A private name reached for across the
strategies module means a helper sits in the wrong layer.
"""

import ast
from pathlib import Path

import linetrp


def _private_online_imports(tree):
    """(line, name) of every underscore name imported from ``.online`` or
    ``linetrp.online``."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("online", 1), ("linetrp.online", 0))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scan_sees_every_private_online_import():
    tree = ast.parse(
        "from .online import Strategy, _pair_sign\n"
        "from linetrp.online import _surd_floor\n"
        "from .core import _parts\n"
        "from ..online import _far\n"
    )
    assert _private_online_imports(tree) == [(1, "_pair_sign"), (2, "_surd_floor")]


def test_no_module_imports_a_private_name_from_online():
    src = Path(linetrp.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert files
    offenders = [
        f"{path.name}:{line} imports {name}"
        for path in files
        for line, name in _private_online_imports(ast.parse(path.read_text()))
    ]
    assert offenders == []
