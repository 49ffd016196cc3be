"""Exact stability/clique/cover/matching invariants and the class checks
built on them (sum-perfect by definition, Lovász perfection, bounded
deficiency).

Stability and clique numbers run a branch-and-bound maximum-clique search
with greedy-colouring upper bounds; subgraph-quantified checks use a
subset-indexed dynamic program that tabulates alpha and omega for all 2^n
induced subgraphs at once, short-circuiting as soon as a deficient subgraph
appears.

The DP keeps each of its alpha and omega tables as one int with one byte
lane per vertex mask: lane i, bits 8i..8i+7, holds the value of the subset
i. Vertex v adds the new half of a table, the 2^v masks S = R + v with R
below v, in a few whole-int steps and no step per mask:
- gather: the lanes of R minus v's neighbours (for alpha) and of R among
  them (for omega), by copying the lower half of every block of 2^(u+1)
  lanes over its upper half, once for each vertex u below v left out;
- grow: alpha(S) = alpha(R) + [alpha(R minus v's neighbours) == alpha(R)],
  a zero-lane test on the guard bit 7 of each lane, and omega likewise;
- bound: 128 + |S| - bound(alpha(S), omega(S)) in each lane, from lanes
  holding 128 + |S| and a lane-wise sum or shift-and-mask product;
- first hit: the lowest lane that beats the best value so far keeps its
  guard bit after subtracting best + 1 from every lane; repeated until one
  beats the scan's stop or no lane is left.
No lane carries into its guard bit or the next lane: a stable set and a
clique share at most one vertex, so alpha(S) + omega(S) <= |S| + 1 <= 21,
and alpha, omega, their sum and their product (at most 110) all stay below
128, while 128 + |S| - bound stays between 38 and 148.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable

from .graphs import Graph, complement, vertices_of

SUBSET_MAX = 20


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


def max_stable_set(g: Graph) -> int:
    """Lexicographically smallest maximum stable set, as a bitmask."""
    return max_clique(complement(g))


def max_clique(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bitmask: each vertex
    in turn is taken iff a maximum clique remains among its neighbours."""
    adj = g.adj
    avail = g.vertex_mask()
    remaining = _clique_bb(adj, avail)
    chosen = 0
    for v in range(g.n):
        if (avail >> v) & 1 and _clique_bb(adj, avail & adj[v]) == remaining - 1:
            chosen |= 1 << v
            avail &= adj[v]
            remaining -= 1
    return chosen


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


# Lane constants: the tables of up to _CACHED_LANES lanes (all of mining's)
# keep theirs; a larger scan rebuilds each one where it is used, so a
# 20-vertex scan holds no more than a few 2^19-lane ints at once.
_CACHED_LANES = 1 << 10
_NEXT = bytes(range(1, 256)) + b"\x00"  # bytes.translate table: b -> b + 1


def _low_lanes(lanes: int, u: int) -> int:
    """0xFF in each of `lanes` byte lanes whose index has bit u clear, else 0."""
    half = 1 << u
    return int.from_bytes((b"\xff" * half + bytes(half)) * (lanes >> u >> 1), "little")


def _lanes(lanes: int) -> tuple[int, int, int]:
    """(ones, guard, top) over `lanes` byte lanes: 1, 128, and 129 + |i| in
    lane i, i.e. 128 + |S| for S = i plus the vertex v of lanes = 2^v."""
    top = b"\x81"
    while len(top) < lanes:
        top += top.translate(_NEXT)
    ones = int.from_bytes(b"\x01" * lanes, "little")
    return ones, ones << 7, int.from_bytes(top, "little")


@lru_cache(maxsize=None)
def _cached_lanes(lanes: int) -> tuple[int, int, int, tuple[int, ...]]:
    """_lanes(lanes) and every _low_lanes(lanes, u), kept for small tables."""
    return (*_lanes(lanes), tuple(_low_lanes(lanes, u) for u in range(lanes.bit_length() - 1)))


def _sum_bound(at: int, wt: int, ones: int) -> int:
    """alpha + omega in every lane (at most |S| + 1 <= 21)."""
    return at + wt


def _product_bound(at: int, wt: int, ones: int) -> int:
    """alpha * omega in every lane, one shifted omega per bit of alpha (< 32):
    each term omega * 2^k, k a bit of alpha, and their sum stay <= 110."""
    product = 0
    for k in range(SUBSET_MAX.bit_length()):
        product += (wt & (((at >> k) & ones) * 255)) << k
    return product


def _stored_prefix(tables: dict, g: Graph) -> tuple | None:
    """tables[n - 1] if it holds g's prefix, else None. Each order's entry is
    the last record a walk kept for that order, its n - 1 adjacency rows
    first; it holds g's prefix iff g's vertices 0..n-2 induce those rows, as
    a child's induce its parent's when the child directly follows it in an
    enumerated walk."""
    prev = tables.get(g.n - 1)
    if not prev:
        return None
    low = (1 << g.n >> 1) - 1
    for row, kept in zip(g.adj, prev[0]):
        if row & low != kept:
            return None
    return prev


def _full_set(record: tuple) -> tuple[int, int]:
    """(alpha, omega) of the graph whose scan stored `record` (see _subset_dp),
    read off the lane of its full vertex set; the scan must have reached it,
    as every scan with stop None does."""
    shift = 8 * ((1 << len(record[0])) - 1)
    return (record[1] >> shift) & 255, (record[2] >> shift) & 255


def _subset_dp(g: Graph, bound: Callable[[int, int, int], int], stop: int | None,
               tables: dict | None = None) -> tuple[int, int | None]:
    """Max of |S| - bound(alpha(S), omega(S)) over non-empty induced subgraphs.

    Tabulates alpha and omega for every vertex subset in byte lanes, one
    vertex v at a time (module docstring): a subset S = R + v, R below v,
    has alpha(S) the larger of alpha(R) and 1 + alpha(R minus v's
    neighbours), i.e. alpha(R) + 1 iff the two are equal, since the second
    is never larger; omega(S) likewise from omega(R among v's neighbours).
    `bound(at, wt, ones)` returns the bound's lanes from the alpha and omega
    lanes (_sum_bound, _product_bound).

    Returns (value, mask). Subsets are taken in ascending mask order, and
    the mask kept is the first whose value exceeds both -1 and every earlier
    value, found per new half as the module docstring's first hit. So with
    `stop` None the scan covers every subset and reports the smallest mask
    attaining the maximum (None if the maximum is -1). With `stop` >= -1 it
    returns at the first, i.e. smallest, mask whose value exceeds `stop`,
    and if none does it ends as with None. Mining relies on this first hit:
    the full vertex set, the largest mask, is the first hit iff no other
    subset exceeds `stop`.

    `tables`, a caller-owned dict passed only with one bound and stop, keeps
    the last scan of each order as (rows, alpha lanes, omega lanes, value,
    mask); _full_set reads that graph's own alpha and omega off it. Where it
    holds g's prefix (_stored_prefix), the scan resumes from it and returns
    a fresh scan's result: the masks below 2^(n-1), that prefix's subsets,
    come first in the same order, so only those holding vertex n - 1 are
    new (none if it hit `stop`).

    Raises ValueError if n > SUBSET_MAX: the one envelope check of every
    subset scan.
    """
    n = g.n
    if n == 0:
        return 0, None
    if n > SUBSET_MAX:
        raise ValueError(f"subgraph scan supports n <= {SUBSET_MAX}, got {n}")
    prev = _stored_prefix(tables, g) if tables is not None else None
    _, at, wt, best, best_mask = prev or ((), 0, 0, -1, None)  # else the empty set's lane
    first = n - 1 if prev else 0
    for v, row in enumerate(g.adj[first:], first):
        if stop is not None and best > stop:
            break
        lanes = 1 << v
        if lanes <= _CACHED_LANES:
            ones, guard, top, lows = _cached_lanes(lanes)
        else:
            (ones, guard, top), lows = _lanes(lanes), None
        # Gather: a[R] = at[R minus v's neighbours], w[R] = wt[R among them].
        a, w = at, wt
        for u in range(v):
            low = lows[u] if lows is not None else _low_lanes(lanes, u)
            if row >> u & 1:
                a &= low
                a |= a << (8 << u)
            else:
                w &= low
                w |= w << (8 << u)
        # Grow: the guard bit of 128 - (at - a) survives iff that lane is 0.
        a = at + (((guard - (at - a)) & guard) >> 7)
        w = wt + (((guard - (wt - w)) & guard) >> 7)
        at |= a << (8 << v)
        wt |= w << (8 << v)
        base = top - bound(a, w, ones)  # 128 + |S| - bound: 38..148 per lane
        while True:
            hits = (base - (best + 1) * ones) & guard
            if not hits:
                break
            i = ((hits ^ (hits - 1)).bit_length() >> 3) - 1  # the lowest lane hit
            best = ((base >> (i << 3)) & 255) - 128
            best_mask = lanes | i
            if stop is not None and best > stop:
                break
    if tables is not None:
        tables[n] = (g.adj, at, wt, best, best_mask)
    return best, best_mask


def max_deficiency(g: Graph) -> int:
    """Largest deficit over all non-empty induced subgraphs (0 for n = 0)."""
    return _subset_dp(g, _sum_bound, None)[0]


def has_deficiency_above(g: Graph, c: int) -> bool:
    """True iff some induced subgraph has deficit > c (early-exit scan)."""
    return _subset_dp(g, _sum_bound, c)[0] > c


def is_sum_perfect_definitional(g: Graph) -> bool:
    """Every induced subgraph H satisfies alpha(H) + omega(H) >= |V(H)|."""
    return not has_deficiency_above(g, 0)


def is_perfect_lovasz(g: Graph) -> bool:
    """Every non-empty induced subgraph H satisfies alpha(H)*omega(H) >= |V(H)|."""
    return _subset_dp(g, _product_bound, 0)[0] <= 0


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
