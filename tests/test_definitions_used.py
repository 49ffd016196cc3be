"""Every definition in the package is named somewhere besides itself."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sumperfect"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the non-dunder methods of the
    top-level classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
    return names


def references(tree: ast.Module) -> Counter:
    """How often each name is used as a name or as an attribute. An import
    alone does not count, so a re-export does not keep a definition alive."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def test_every_definition_is_named_elsewhere():
    found: Counter = Counter()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            found += references(ast.parse(path.read_text(), filename=str(path)))
    defined = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in definitions(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert defined
    assert [d for d in defined if not found[d[1]]] == []
