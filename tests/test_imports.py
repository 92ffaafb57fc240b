"""Every name a module imports is read somewhere in that module.

Covers the modules of ``src/ksystems`` (except ``__init__.py``, whose
imports are the package's exports), ``tests``, ``tools`` and, at any
depth, ``perfbench``.  A module is
parsed with ``ast``; a name bound by an import and never loaded as a
name is reported with its line.  ``from __future__`` imports and star
imports bind nothing to read.  The exports themselves are checked
against ``ksystems.__all__``, and the package's modules import one
another in one order, :data:`LAYERS`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [
        *(ROOT / "src" / "ksystems").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "tools").glob("*.py"),
        *(ROOT / "perfbench").glob("**/*.py"),
    ]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each imported name never read in ``source``."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_import_goes_unread(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_reported():
    source = "import os\nimport os.path as osp\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["os (line 1)", "osp (line 2)", "dumps (line 3)"]


def test_the_package_exports_exactly_the_names_it_imports():
    # __init__.py keeps both lists by hand
    import ksystems

    tree = ast.parse((ROOT / "src" / "ksystems" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    assert sorted(ksystems.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)


#: The package's modules by layer: a module imports its siblings from
#: lower layers only.  ``chromatic`` imports none; ``__init__.py``, the
#: package's exports, imports from every layer.
LAYERS = {
    "errors": 0,
    "chromatic": 0,
    "graphs": 1,
    "systems": 2,
    "oracle": 3,
    "certificates": 3,
    "search": 4,
    "fileio": 5,
    "cli": 6,
    "__main__": 7,
}


def sibling_imports(source: str) -> set[str]:
    """The sibling modules ``source`` imports, as ``from .x import ...``
    or ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.partition(".")[0])
    return found


def test_the_package_modules_import_down_the_layers():
    package = ROOT / "src" / "ksystems"
    modules = {p.stem: p for p in package.glob("*.py") if p.name != "__init__.py"}
    assert set(modules) == set(LAYERS)
    upward = sorted(
        f"{name} -> {sibling}"
        for name, path in modules.items()
        for sibling in sibling_imports(path.read_text())
        if LAYERS[sibling] >= LAYERS[name]
    )
    assert upward == []


def test_a_sibling_import_is_found_in_either_form():
    source = "from . import cli, search\nfrom .graphs import ALL\nfrom json import dumps\n"
    assert sibling_imports(source) == {"cli", "search", "graphs"}
