"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "zncomplex").glob("*.py"))


def absolute_imports(tree):
    """Top-level module names of the absolute imports in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert any(path.name == "intlinalg.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_zncomplex(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted({name for name in absolute_imports(tree)
                      if name not in sys.stdlib_module_names and name != "zncomplex"})
    assert not foreign, f"{path.name} imports {foreign}"
