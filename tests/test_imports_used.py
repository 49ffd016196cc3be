"""Every name a runtime module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sumperfect"

# Bindings kept only so that perfbench/tracing.py can wrap them. None is
# ever called, so they feed nothing: the enumeration ones would feed
# canon.*.enumeration, canon.keys_per_child and graphs.calls.enumeration
# (which read 0), and mining's children_of the enumeration span (which
# enumeration's binding feeds).
KEPT_FOR_TRACER = {
    "enumeration.py: canonical_key",
    "enumeration.py: induced_subgraph",
    "mining.py: children_of",
}


def unused_imports(path: Path) -> set[str]:
    """Names bound by an import in the file and never loaded in it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return {f"{path.name}: {name}" for name in bound - used}


def test_every_imported_name_is_used():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    unused = set().union(*map(unused_imports, sources))
    assert unused == KEPT_FOR_TRACER
