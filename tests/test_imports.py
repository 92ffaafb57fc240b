"""Every name a module imports is read somewhere in that module.

Covers the modules of ``src/ksystems`` (except ``__init__.py``, whose
imports are the package's exports), ``tests``, ``tools`` and, at any
depth, ``perfbench``.  A module is
parsed with ``ast``; a name bound by an import and never loaded as a
name is reported with its line.  ``from __future__`` imports and star
imports bind nothing to read.  The exports themselves are checked
against ``ksystems.__all__``.
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
