"""Exact stability/clique/cover/matching invariants and the class checks
built on them (sum-perfect by definition, Lovász perfection, bounded
deficiency).

Stability and clique numbers run a branch-and-bound maximum-clique search
with greedy-colouring upper bounds; subgraph-quantified checks use a
subset-indexed dynamic program that tabulates alpha and omega for all 2^n
induced subgraphs at once, short-circuiting as soon as a deficient subgraph
appears.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graphs import Graph, complement, vertices_of

DEFICIENCY_MAX = 20
LOVASZ_MAX = 16


# Maximum clique branch-and-bound ------------------------------------------

def _clique_bb(adj: tuple[int, ...], sub: int) -> int:
    """Size of a maximum clique inside the vertex subset `sub`."""
    best = 0

    def expand(rsize: int, cand: int):
        nonlocal best
        # Greedy colouring of the candidates: vertices sharing a colour class
        # are pairwise non-adjacent, so rsize + colour is an upper bound.
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        left = cand
        while left:
            color += 1
            cls = left
            while cls:
                b = cls & -cls
                v = b.bit_length() - 1
                cls &= ~adj[v]
                cls ^= b
                order.append(v)
                bounds.append(color)
                left ^= b
        for i in range(len(order) - 1, -1, -1):
            if rsize + bounds[i] <= best:
                return
            v = order[i]
            bit = 1 << v
            newcand = cand & adj[v]
            if newcand:
                expand(rsize + 1, newcand)
            elif rsize + 1 > best:
                best = rsize + 1
            cand ^= bit

    expand(0, sub)
    return best


def stability_number(g: Graph) -> int:
    """alpha: the maximum size of a stable set (= omega of the complement)."""
    return clique_number(complement(g))


def clique_number(g: Graph) -> int:
    """omega: the maximum size of a clique (= alpha of the complement)."""
    return _clique_bb(g.adj, g.vertex_mask())


def _lex_min_optimum(n: int, rows: tuple[int, ...], total: int) -> int:
    """Lexicographically smallest maximum clique w.r.t. `rows` adjacency."""
    avail = (1 << n) - 1
    chosen = 0
    remaining = total
    for v in range(n):
        bit = 1 << v
        if not avail & bit:
            continue
        shrunk = avail & rows[v]
        if _clique_bb(rows, shrunk) == remaining - 1:
            chosen |= bit
            avail = shrunk
            remaining -= 1
    return chosen


def max_stable_set(g: Graph) -> int:
    """Lexicographically smallest maximum stable set, as a bitmask."""
    return max_clique(complement(g))


def max_clique(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bitmask."""
    total = _clique_bb(g.adj, g.vertex_mask())
    return _lex_min_optimum(g.n, g.adj, total)


def vertex_cover_number(g: Graph) -> int:
    """tau = n - alpha (complement of a stable set meets every edge)."""
    return g.n - stability_number(g)


# Matching -------------------------------------------------------------------

def matching_number(g: Graph) -> int:
    """nu: exact maximum matching size, by Edmonds' blossom algorithm.

    From each exposed vertex in turn, grow an alternating tree breadth-first,
    contracting each odd cycle (blossom) into its base, until an augmenting
    path is found and flipped or the tree is exhausted. An exposed vertex
    with no augmenting path never gets one later, so one search per vertex
    suffices: O(n^3) on any graph.
    """
    n, adj = g.n, g.adj
    mate = [-1] * n
    size = 0
    for root in range(n):
        if mate[root] >= 0:
            continue
        parent = [-1] * n
        base = list(range(n))
        outer = [False] * n
        outer[root] = True
        queue = [root]

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            while True:
                a = base[a]
                seen[a] = True
                if mate[a] < 0:
                    break
                a = parent[mate[a]]
            while not seen[base[b]]:
                b = parent[mate[base[b]]]
            return base[b]

        def mark(v: int, b: int, child: int, blossom: list[bool]) -> None:
            while base[v] != b:
                blossom[base[v]] = blossom[base[mate[v]]] = True
                parent[v] = child
                child = mate[v]
                v = parent[child]

        end = -1
        for v in queue:
            for to in vertices_of(adj[v]):
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                    b = lca(v, to)
                    blossom = [False] * n
                    mark(v, b, to, blossom)
                    mark(to, b, v, blossom)
                    for u in range(n):
                        if blossom[base[u]]:
                            base[u] = b
                            if not outer[u]:
                                outer[u] = True
                                queue.append(u)
                elif parent[to] < 0:
                    parent[to] = v
                    if mate[to] < 0:
                        end = to
                        break
                    outer[mate[to]] = True
                    queue.append(mate[to])
            if end >= 0:
                break
        while end >= 0:
            v = parent[end]
            nxt = mate[v]
            mate[end], mate[v] = v, end
            end = nxt
        if mate[root] >= 0:
            size += 1
    return size


def _shape(adj: tuple[int, ...], mask: int) -> tuple:
    """(edges, sorted degrees, triangles) of the subgraph induced on mask."""
    degrees = []
    triangles = 0
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        row = adj[b.bit_length() - 1] & mask
        degrees.append(row.bit_count())
        # Count each triangle once, from its lowest vertex and middle vertex.
        later = row & rest
        while later:
            c = later & -later
            later ^= c
            triangles += (adj[c.bit_length() - 1] & later).bit_count()
    degrees.sort()
    return sum(degrees) // 2, tuple(degrees), triangles


def triangle_count(g: Graph) -> int:
    """Number of 3-subsets inducing a triangle (each counted once)."""
    return _shape(g.adj, g.vertex_mask())[2]


# Deficiency -----------------------------------------------------------------

def deficit(g: Graph) -> int:
    """n - alpha - omega for the whole graph; always >= -1."""
    return g.n - stability_number(g) - clique_number(g)


# Bounds that the subset DP compares |S| against, indexed [alpha(S)][omega(S)];
# a table with rows 0..N serves graphs of up to N vertices.
_SUM_BOUND = [[a + w for w in range(DEFICIENCY_MAX + 1)]
              for a in range(DEFICIENCY_MAX + 1)]
_PRODUCT_BOUND = [[a * w for w in range(LOVASZ_MAX + 1)]
                  for a in range(LOVASZ_MAX + 1)]


def _subset_dp(g: Graph, bound: list[list[int]], stop: int | None,
               tables: dict | None = None) -> tuple[int, int | None]:
    """Max of |S| - bound[alpha(S)][omega(S)] over non-empty induced subgraphs.

    Tabulates alpha and omega for every vertex subset bottom-up, growing each
    subset S from S - v for its highest vertex v: alpha(S) is the larger of
    alpha(S - v) and 1 + alpha(S minus v's neighbours), omega(S) of
    omega(S - v) and 1 + omega(S among v's neighbours).

    Returns (value, mask). Subsets are visited in ascending mask order, and
    the mask kept is the first whose value exceeds both -1 and every earlier
    value. So with `stop` None the scan covers every subset and reports the
    smallest mask attaining the maximum (None if the maximum is -1). With
    `stop` >= -1 it returns at the first, i.e. smallest, mask whose value
    exceeds `stop`, and if none does it ends as with None. Mining relies on
    this first hit: the full vertex set, the largest mask, is the first hit
    iff no other subset exceeds `stop`.

    `tables`, a caller-owned dict passed only with one bound and stop, keeps
    the last scan of each order. If g's vertices 0..n-2 induce the order n - 1
    entry's graph, the scan resumes from it and returns a fresh scan's result:
    the masks below 2^(n-1), that prefix's subsets, come first in the same
    order, so only those holding vertex n - 1 are new (none if it hit `stop`).

    Raises ValueError unless n < len(bound): the one envelope check of
    every subset scan.
    """
    n = g.n
    if n == 0:
        return 0, None
    if n >= len(bound):
        raise ValueError(f"subgraph scan supports n <= {len(bound) - 1}, got {n}")
    half = 1 << (n - 1)
    prev = tables.get(n - 1) if tables is not None else None
    if prev is not None and prev[0] == tuple(row & (half - 1) for row in g.adj[:-1]):
        _, at, wt, best, best_mask = prev
        at, wt, first = at + [0] * half, wt + [0] * half, n - 1
    else:
        at, wt = [0] * (2 * half), [0] * (2 * half)
        best, best_mask, first = -1, None, 0
    for v, row in enumerate(g.adj[first:], first):
        if stop is not None and best > stop:
            break
        bit = 1 << v
        away = ~row
        for rest in range(bit):
            s = rest | bit
            a1 = at[rest]
            a2 = at[rest & away] + 1
            a = a1 if a1 >= a2 else a2
            at[s] = a
            w1 = wt[rest]
            w2 = wt[rest & row] + 1
            w = w1 if w1 >= w2 else w2
            wt[s] = w
            d = s.bit_count() - bound[a][w]
            if d > best:
                best = d
                best_mask = s
                if stop is not None and d > stop:
                    break
    if tables is not None:
        tables[n] = (g.adj, at, wt, best, best_mask)
    return best, best_mask


def max_deficiency(g: Graph) -> int:
    """Largest deficit over all non-empty induced subgraphs (0 for n = 0)."""
    return _subset_dp(g, _SUM_BOUND, None)[0]


def has_deficiency_above(g: Graph, c: int) -> bool:
    """True iff some induced subgraph has deficit > c (early-exit scan)."""
    return _subset_dp(g, _SUM_BOUND, c)[0] > c


def is_sum_perfect_definitional(g: Graph) -> bool:
    """Every induced subgraph H satisfies alpha(H) + omega(H) >= |V(H)|."""
    return not has_deficiency_above(g, 0)


def is_perfect_lovasz(g: Graph) -> bool:
    """Every non-empty induced subgraph H satisfies alpha(H)*omega(H) >= |V(H)|."""
    return _subset_dp(g, _PRODUCT_BOUND, 0)[0] <= 0


# Witness records -------------------------------------------------------------

@dataclass(frozen=True)
class StableCliquePair:
    """A stable set and a clique; they can share at most one vertex."""

    stable: int
    clique: int


def validate_pair(g: Graph, pair: StableCliquePair) -> bool:
    """Check stability, cliqueness, range, and |stable & clique| <= 1."""
    full = g.vertex_mask()
    s, m = pair.stable, pair.clique
    if (s | m) & ~full or (s & m).bit_count() > 1:
        return False
    if any(g.adj[v] & s for v in vertices_of(s)):
        return False
    return all((g.adj[v] & m) == (m ^ (1 << v)) for v in vertices_of(m))


@dataclass(frozen=True)
class InvariantReport:
    n: int
    alpha: int
    omega: int
    tau: int
    nu: int
    triangles: int
    deficit: int

    def to_dict(self) -> dict:
        return asdict(self)


def compute_report(g: Graph) -> InvariantReport:
    alpha = stability_number(g)
    omega = clique_number(g)
    return InvariantReport(
        n=g.n,
        alpha=alpha,
        omega=omega,
        tau=g.n - alpha,
        nu=matching_number(g),
        triangles=triangle_count(g),
        deficit=g.n - alpha - omega,
    )
