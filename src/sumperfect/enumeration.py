"""Exhaustive enumeration of graphs, exactly one per isomorphism class, by
canonical augmentation (McKay 1998, "Isomorph-free exhaustive generation").

Each n-vertex class is produced by extending an (n-1)-vertex representative
with one new vertex. The parent's automorphism group decides which
neighbourhoods to try: one per orbit of the group on vertex subsets, the
smallest of each (every subset when the group is trivial), among those of
at most min degree + 1 vertices, as the new vertex must be degree-minimal.
The parent's root colouring (canon's `_root`) is computed once and read
only through canon's `_cells`, which are Aut-invariant: if each cell is a
class of mutual twins, Aut is the product of the cells' symmetric groups
and the least subset of an orbit holds the lowest k vertices of each cell,
listed directly with no search. Any other parent is searched from that
root, and the orbits come from orbit_mins over the subset images. To
level 8, 824 of the 1,253 parents need no search.

A child is kept iff its new vertex is a canonical deletion: it shares an
orbit of the child's automorphism group with the child's first canonical
vertex. `canon` always takes that vertex from the root refinement's first
cell, inside the vertices of least (degree, sorted neighbour-degree
profile), so a new vertex outside those is rejected, and one alone among
them accepted, by the degree and profile tests with no labelling. A new
vertex that ties there (a hard tie) is decided, in this order: accepted if
it is a twin of every tie (swapping twins is an automorphism); rejected if
it is outside the first of the root's `_cells`; accepted if it is a twin
of every other vertex of that cell; otherwise the child is labelled once,
from that root. To level 8 that labels 1,458 of the 4,223 hard ties. Both
sides need the whole automorphism group, which `canon` guarantees.
"""

from __future__ import annotations

from typing import Iterator

# canonical_key and induced_subgraph stay bound for perfbench/tracing.py,
# which wraps them for canon.calls.enumeration, canon.s.enumeration,
# canon.keys_per_child and graphs.calls.enumeration. They feed nothing:
# children_of labels through _search and calls neither, so those read 0.
from .canon import _cells, _root, _search, canonical_key, orbit_mins
from .graphs import Graph, induced_subgraph, mask_of

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


def _twins(rows: tuple[int, ...], a: int, b: int) -> bool:
    """True iff swapping vertices a and b is an automorphism."""
    return rows[a] & ~(1 << b) == rows[b] & ~(1 << a)


def _new_vertex_is_canonical(child: Graph, ties: list[int]) -> bool:
    """Whether the child's new (last) vertex v shares an orbit with its first
    canonical vertex, where ties are the other vertices of v's (degree,
    profile). A twin of v shares its orbit. That vertex lies in the first of
    the root colouring's `_cells`, which lies in {v} + ties and, v being the
    highest vertex, ends with v if it holds v. Only a child left open is
    labelled: searched from that root, exactly as canonical_form searches it."""
    n, rows = child.n, child.adj
    v = n - 1
    if all(_twins(rows, v, u) for u in ties):
        return True
    root = _root(child)
    first = _cells(n, root)[0]
    if v not in first:
        return False
    if all(_twins(rows, v, u) for u in first[:-1]):
        return True
    order, _, auts = _search(child, root)
    mins = orbit_mins(n, auts)
    return mins[order[0]] == mins[v]


def _least_subsets(cells: list[list[int]], most: int) -> list[int]:
    """Ascending, the subsets of at most `most` vertices that hold the
    lowest k vertices of each cell, for every k: the least subset of each
    orbit of the product of the cells' symmetric groups."""
    masks = [0]
    for c in cells:
        grown = []
        for m in masks:
            grown.append(m)
            for v in c[:most - m.bit_count()]:
                m |= 1 << v
                grown.append(m)
        masks = grown
    masks.sort()
    return masks


def _neighbourhoods(g: Graph, most: int) -> list[int]:
    """Ascending, the least subset of each orbit of Aut(g) on the vertex
    subsets of at most `most` vertices. The root colouring's `_cells` are
    Aut-invariant, so if each holds only twins of its first vertex (one twin
    class, as being twins is an equivalence relation), Aut is the product of
    their symmetric groups and no search is run; otherwise g is searched
    from that root, as canonical_form searches it."""
    n, rows = g.n, g.adj
    root = _root(g)
    cells = _cells(n, root)
    if all(_twins(rows, c[0], u) for c in cells for u in c[1:]):
        return _least_subsets(cells, most)
    auts = _search(g, root)[2]
    mins = orbit_mins(1 << n, [_subset_images(a) for a in auts])
    return [s for s, m in enumerate(mins) if s == m and s.bit_count() <= most]


def children_of(parent: Graph) -> list[Graph]:
    """Accepted one-vertex extensions of a canonical representative."""
    pn = parent.n
    padj = parent.adj
    pdeg = [a.bit_count() for a in padj]
    vbit = 1 << pn
    min_pdeg = min(pdeg) if pn else 0
    min_verts = mask_of(u for u in range(pn) if pdeg[u] == min_pdeg)

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
    # The new vertex must be degree-minimal in the child, so it has at most
    # min_pdeg + 1 neighbours. Past the test below every child degree
    # pdeg[u] + [u in nb] is at least dv.
    for nb in _neighbourhoods(parent, min_pdeg + 1):
        dv = nb.bit_count()
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
            ties: list[int] = []
            reject = False
            for u in tied:
                pu = profile(rows, cd, u)
                if pu < pv:
                    reject = True
                    break
                if pu == pv:
                    ties.append(u)
            if reject or (ties and not _new_vertex_is_canonical(child, ties)):
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
