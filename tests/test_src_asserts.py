"""Every assert in the library is listed here, with why no input reaches it.

Under python -O an assert vanishes, so an assert may only state a fact that
the code around it already guarantees.  A check that a caller's input can
fail must raise an error with a witness instead.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "zncomplex").glob("*.py"))

# (file, enclosing function) -> why no input can make the assert fail.
ALLOWED = {
    ("presentation.py", "normalize"):
        "_clean_word merges equal adjacent generators and the rotation loop "
        "merges equal first and last ones, so at most three syllables are "
        "left with distinct generators",
}


def asserts_by_function(tree, enclosing=None):
    """(innermost enclosing function name, line) of every assert in a tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Assert):
            yield enclosing, node.lineno
        inner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else enclosing
        yield from asserts_by_function(node, inner)


def test_only_the_listed_asserts_remain():
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, line in asserts_by_function(tree):
            found.setdefault((path.name, function), []).append(line)
    unexpected = {key: lines for key, lines in found.items() if key not in ALLOWED}
    assert not unexpected, f"asserts outside the inventory: {unexpected}"
    assert {key: len(lines) for key, lines in found.items()} == dict.fromkeys(ALLOWED, 1)
