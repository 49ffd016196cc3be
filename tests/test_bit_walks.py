"""The set-bit walk `x & -x` is written out only in `graphs.vertices_of` and
in the hot loops listed here; every other function iterates a vertex set
through `vertices_of`.

These loops keep the inline walk because they run inside the timed sweeps
and scans, where a tuple per set costs: `induced_subgraph` through
`vertices_of` was 1.45-1.9x slower on 9,872 one-vertex deletions of level-8
graphs (Python 3.11, 2 vCPUs). Moving a function off this list, or onto it,
needs a `perfbench/pairs.py` run that shows no regression.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sumperfect"

# module.qualified.name of the innermost def around each walk.
INLINE_WALKS = {
    "canon._refine",
    "enumeration._subset_images",
    "enumeration.children_of.profile",
    "graphs.induced_subgraph",
    "graphs.vertices_of",
    "induced._closers",
    "induced._shaped_subsets.grow",
    "invariants._clique_bb.expand",
    "invariants._shape",
    "recognition.is_threshold",
}


def _is_lowest_bit(node: ast.AST) -> bool:
    """True for `x & -x` (either way round), x a plain name."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    for a, b in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(a, ast.Name) and isinstance(b, ast.UnaryOp)
                and isinstance(b.op, ast.USub) and isinstance(b.operand, ast.Name)
                and b.operand.id == a.id):
            return True
    return False


def walking_functions(path: Path) -> set[str]:
    """Qualified names of the innermost functions holding an `x & -x`."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                if _is_lowest_bit(child):
                    found.add(scope)
                visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_inline_bit_walks_are_the_listed_hot_loops():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert set().union(*map(walking_functions, sources)) == INLINE_WALKS
