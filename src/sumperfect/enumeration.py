"""Exhaustive enumeration of graphs, exactly one per isomorphism class, by
canonical augmentation (McKay 1998, "Isomorph-free exhaustive generation").

Each n-vertex class is produced by extending an (n-1)-vertex representative
with one new vertex. The parent is labelled once, and its automorphism group
decides which neighbourhoods to try: one per orbit of the group on vertex
subsets, the smallest of each (every subset when the group is trivial).

A child survives only when its new vertex is a canonical deletion: among the
vertices of least (degree, sorted neighbour-degree profile), the first in
the child's canonical order is w, and the new vertex must lie in w's orbit
under the child's automorphisms. When the new vertex is the only vertex of
least (degree, profile), the degree arithmetic decides and no labelling is
made; otherwise the child is labelled once. Both sides need the whole
automorphism group, which `canon` guarantees.
"""

from __future__ import annotations

from typing import Iterator

# canonical_key and induced_subgraph stay bound for perfbench/tracing.py,
# which wraps them for canon.calls.enumeration, canon.s.enumeration,
# canon.keys_per_child and graphs.calls.enumeration. They feed nothing:
# children_of labels through canonical_form and calls neither, so those read 0.
from .canon import canonical_form, canonical_key, orbit_mins
from .graphs import Graph, induced_subgraph

ENUM_MAX = 10
# Changes whenever a level is listed in another order; checkpoint journals
# record it, since their records follow the graphs of one level by position.
ENUMERATOR_VERSION = 2
# Children are memoised for parents of order below this, so every level up
# to order 8 is built once per process. One sweep expands each parent once,
# but mining four classes to n = 8 in one process (or tests calling
# graphs_of_order repeatedly) re-walks the levels, 2.3 times as slowly without it.
_CACHE_MAX = 8

_ROOT = Graph(0, ())  # the root of the generation tree
_memo: dict[Graph, list[Graph]] = {}


def _subset_images(perm: tuple[int, ...]) -> list[int]:
    """images[s] is the image of vertex subset s under perm."""
    images = [0] * (1 << len(perm))
    for s in range(1, len(images)):
        low = s & -s
        images[s] = images[s ^ low] | (1 << perm[low.bit_length() - 1])
    return images


def children_of(parent: Graph) -> list[Graph]:
    """Accepted one-vertex extensions of a canonical representative."""
    pn = parent.n
    padj = parent.adj
    pdeg = [a.bit_count() for a in padj]
    vbit = 1 << pn
    min_pdeg = min(pdeg) if pn else 0
    min_verts = 0
    for u in range(pn):
        if pdeg[u] == min_pdeg:
            min_verts |= 1 << u

    auts = canonical_form(parent)[2]
    mins = orbit_mins(1 << pn, [_subset_images(a) for a in auts])
    neighbourhoods = [nb for nb, m in enumerate(mins) if nb == m]

    def profile(rows: tuple[int, ...], cd: list[int], u: int) -> tuple[int, ...]:
        row = rows[u]
        acc = []
        while row:
            b = row & -row
            acc.append(cd[b.bit_length() - 1])
            row ^= b
        acc.sort()
        return tuple(acc)

    out: list[Graph] = []
    for nb in neighbourhoods:
        dv = nb.bit_count()
        # The new vertex must be degree-minimal in the child. Past these two
        # tests every child degree pdeg[u] + [u in nb] is at least dv.
        if dv > min_pdeg + 1:
            continue
        if dv == min_pdeg + 1 and (min_verts & ~nb):
            continue
        cd = [0] * (pn + 1)
        tied: list[int] = []
        for u in range(pn):
            c = pdeg[u] + ((nb >> u) & 1)
            cd[u] = c
            if c == dv:
                tied.append(u)
        cd[pn] = dv

        rows = tuple(
            (padj[u] | vbit) if (nb >> u) & 1 else padj[u] for u in range(pn)
        ) + (nb,)
        child = Graph(pn + 1, rows)

        if tied:
            # Neighbour-degree profiles break most remaining ties.
            pv = profile(rows, cd, pn)
            hard: list[int] = []
            reject = False
            for u in tied:
                pu = profile(rows, cd, u)
                if pu < pv:
                    reject = True
                    break
                if pu == pv:
                    hard.append(u)
            if reject:
                continue
            if hard:
                # Accept iff the new vertex is in the orbit of the first
                # tied vertex of the child's canonical order.
                order, _, child_auts = canonical_form(child)
                w = next(x for x in order if x == pn or x in hard)
                if w != pn:
                    mins = orbit_mins(pn + 1, child_auts)
                    if mins[w] != mins[pn]:
                        continue
        out.append(child)

    return out


def _children(parent: Graph) -> list[Graph]:
    """children_of(parent), memoised for parents of order < _CACHE_MAX."""
    if parent.n >= _CACHE_MAX:
        return children_of(parent)
    out = _memo.get(parent)
    if out is None:
        out = _memo[parent] = children_of(parent)
    return out


def check_order(n: int) -> None:
    """Raise ValueError unless the built-in enumerator reaches order n."""
    if not 0 <= n <= ENUM_MAX:
        raise ValueError(f"built-in enumeration supports n <= {ENUM_MAX}, got {n}")


def graphs_of_order(n: int) -> list[Graph]:
    """All non-isomorphic graphs on n vertices, in the order stream_graphs
    lists them."""
    return list(stream_graphs(n))


def stream_graphs(n: int) -> Iterator[Graph]:
    """Stream the order-n representatives: the order-n graphs of the
    depth-first walk from the root, without materialising the level (n = 0
    yields the root). A depth-first walk meets each level in level order."""
    if n == 0:
        yield _ROOT
    for g in descendants(_ROOT, n):
        if g.n == n:
            yield g


def descendants(root: Graph, max_n: int) -> Iterator[Graph]:
    """Every graph below root in the generation tree, down to order max_n,
    depth-first: each child is followed by its own descendants. max_n is
    checked here, once per walk."""
    check_order(max_n)

    def walk(parent: Graph) -> Iterator[Graph]:
        if parent.n < max_n:
            for child in _children(parent):
                yield child
                yield from walk(child)

    return walk(root)
