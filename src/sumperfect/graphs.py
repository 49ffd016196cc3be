"""Immutable bitmask graphs and the basic construction/transformation operations.

Vertices are 0..n-1 with n <= 64. Adjacency is one machine-word bitmask per
vertex (bit u of adj[v] set iff uv is an edge), which keeps neighbourhood
intersections, subset tests and degree counts branch-free. Vertex sets are
plain ints used as bitmasks throughout the package, and `vertices_of` is the
one walk over a set's vertices; only the hot loops that
tests/test_bit_walks.py lists keep an inline `x & -x` walk.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VERTICES = 64


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Ascending tuple of the vertex indices set in a bitmask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


class Graph:
    """A simple undirected graph, immutable and hashable."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj

    # Queries --------------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.adj):
            for w in vertices_of(row >> (u + 1)):
                yield (u, u + 1 + w)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    # Dunders ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse silently.

    Raises ValueError on loops, out-of-range endpoints, or n > 64.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complement(g: Graph) -> Graph:
    """Edge uv present in the result iff absent in g (u != v)."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ a ^ (1 << v)) for v, a in enumerate(g.adj)))


def induced_subgraph(g: Graph, s: int | Iterable[int]) -> Graph:
    """Induced subgraph on vertex set s, relabelled 0..|s|-1 in ascending order."""
    mask = s if isinstance(s, int) else mask_of(s)
    if mask & ~g.vertex_mask():
        raise ValueError("vertex set contains out-of-range vertices")
    verts = vertices_of(mask)
    pos = {v: i for i, v in enumerate(verts)}
    adj = []
    for v in verts:
        row = g.adj[v] & mask
        new = 0
        while row:
            b = row & -row
            new |= 1 << pos[b.bit_length() - 1]
            row ^= b
        adj.append(new)
    return Graph(len(verts), tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    """Induced subgraph on all vertices except v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, g.vertex_mask() ^ (1 << v))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Block union; b's vertices are shifted by a.n."""
    if a.n + b.n > MAX_VERTICES:
        raise ValueError(f"union exceeds {MAX_VERTICES} vertices")
    adj = list(a.adj) + [row << a.n for row in b.adj]
    return Graph(a.n + b.n, tuple(adj))


def _layers(g: Graph, start: int, left: int) -> Iterator[int]:
    """Masks of the breadth-first layers of start's component inside left."""
    layer = 1 << start
    while layer:
        yield layer
        left &= ~layer
        nxt = 0
        for v in vertices_of(layer):
            nxt |= g.adj[v]
        layer = nxt & left


def is_connected(g: Graph) -> bool:
    """True iff the (disjoint) layers from vertex 0 add up to every vertex."""
    full = g.vertex_mask()
    return g.n == 0 or sum(_layers(g, 0, full)) == full


def bipartition(g: Graph) -> tuple[int, int] | None:
    """A 2-colouring (maskA, maskB) if g is bipartite, else None. The layers
    of each component, from its lowest vertex, alternate sides starting with
    maskA; g is bipartite iff neither side then holds an edge."""
    sides = [0, 0]
    left = g.vertex_mask()
    for start in range(g.n):
        if (left >> start) & 1:
            for i, layer in enumerate(_layers(g, start, left)):
                sides[i & 1] |= layer
                left ^= layer
    if any(g.adj[v] & side for side in sides for v in vertices_of(side)):
        return None
    return sides[0], sides[1]


# Small named builders used by the family constants and the test corpus.

def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    return from_edge_list(leaves + 1, [(0, i + 1) for i in range(leaves)])
