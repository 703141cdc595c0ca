"""Every public function and class of the library has a caller in the library.

The library's surface is what the command line and the two pipelines read.
A public top-level function or class counts as used when library code
outside its own definition names it, as a Name or an Attribute node.
Docstring mentions and the re-exports in __init__ do not count, and neither
do the tests.  A name nothing calls is either deleted or listed here, with
why it stays.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted(path for path in
                 (Path(__file__).parent.parent / "src" / "zncomplex").glob("*.py")
                 if path.name != "__init__.py")

# (file, name) -> why the name stays although no library code calls it.
INVENTORY = {
    ("pipeline.py", "run_upper"):
        "the upper-bound pipeline itself: W_m, the spur collapses, X_m and "
        "its homology certificate",
    ("presentation.py", "is_sparse"):
        "the benchmark's sparsity workload and tracer call it",
    ("presentation.py", "replace1"):
        "the benchmark's tracer spans it",
    ("presentation.py", "replace2"):
        "the benchmark's tracer spans it",
    ("simplicial.py", "boundary_matrix"):
        "the benchmark's tracer spans it",
    ("simplicial.py", "collapse_spur"):
        "the benchmark's tracer spans it",
    ("presentation.py", "standard_zn"):
        "the paper's standard presentations of Z^n, which wait for a caller",
    ("presentation.py", "deficiency_bounds"):
        "the size constraints of a presentation of Z^n, which wait for a "
        "caller in the bounds report",
}


def public_definitions(tree):
    """The public top-level function and class nodes of a module."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_used(tree) -> Counter:
    """How often each name occurs in the tree as a Name id or Attribute attr."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def test_every_public_name_has_a_library_caller_or_a_reason():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    everywhere = sum(map(names_used, trees.values()), Counter())
    unused = {(name, node.name)
              for name, tree in trees.items()
              for node in public_definitions(tree)
              if everywhere[node.name] == names_used(node)[node.name]}
    assert not unused - set(INVENTORY), \
        f"public names no library code calls: {sorted(unused - set(INVENTORY))}"
    assert not set(INVENTORY) - unused, \
        f"listed names that have a caller or are gone: {sorted(set(INVENTORY) - unused)}"
