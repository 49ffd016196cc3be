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

from dataclasses import dataclass

from .graphs import Graph

DEFICIENCY_MAX = 20
LOVASZ_MAX = 16


# Maximum clique branch-and-bound ------------------------------------------

def _clique_bb(n: int, adj: tuple[int, ...], sub: int) -> tuple[int, int]:
    """(size, mask) of some maximum clique inside the vertex subset `sub`."""
    best = 0
    best_mask = 0

    def expand(rmask: int, rsize: int, cand: int):
        nonlocal best, best_mask
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
                expand(rmask | bit, rsize + 1, newcand)
            elif rsize + 1 > best:
                best = rsize + 1
                best_mask = rmask | bit
            cand ^= bit

    if sub:
        expand(0, 0, sub)
    return best, best_mask


def _comp_rows(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full ^ a ^ (1 << v) for v, a in enumerate(adj))


def stability_number(g: Graph) -> int:
    """alpha: the maximum size of a stable set."""
    return _clique_bb(g.n, _comp_rows(g.n, g.adj), g.vertex_mask())[0]


def clique_number(g: Graph) -> int:
    """omega: the maximum size of a clique (= alpha of the complement)."""
    return _clique_bb(g.n, g.adj, g.vertex_mask())[0]


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
        if _clique_bb(n, rows, shrunk)[0] == remaining - 1:
            chosen |= bit
            avail = shrunk
            remaining -= 1
            if remaining == 0:
                break
    return chosen


def max_stable_set(g: Graph) -> int:
    """Lexicographically smallest maximum stable set, as a bitmask."""
    rows = _comp_rows(g.n, g.adj)
    total = _clique_bb(g.n, rows, g.vertex_mask())[0]
    return _lex_min_optimum(g.n, rows, total)


def max_clique(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bitmask."""
    total = _clique_bb(g.n, g.adj, g.vertex_mask())[0]
    return _lex_min_optimum(g.n, g.adj, total)


def vertex_cover_number(g: Graph) -> int:
    """tau = n - alpha (complement of a stable set meets every edge)."""
    return g.n - stability_number(g)


# Matching -------------------------------------------------------------------

def _bipartite_nu(g: Graph, left: int) -> int:
    match_of = [-1] * g.n

    def augment(v: int, seen: int) -> tuple[bool, int]:
        row = g.adj[v]
        while row:
            b = row & -row
            u = b.bit_length() - 1
            row ^= b
            if seen & b:
                continue
            seen |= b
            if match_of[u] < 0:
                match_of[u] = v
                return True, seen
            ok, seen = augment(match_of[u], seen)
            if ok:
                match_of[u] = v
                return True, seen
        return False, seen

    size = 0
    rest = left
    while rest:
        b = rest & -rest
        rest ^= b
        ok, _ = augment(b.bit_length() - 1, 0)
        if ok:
            size += 1
    return size


def matching_number(g: Graph) -> int:
    """nu: exact maximum matching size.

    Bipartite graphs use augmenting paths; general graphs branch on the
    lowest non-isolated vertex with verdicts memoized per vertex mask.
    """
    from .graphs import bipartition

    parts = bipartition(g)
    if parts is not None:
        return _bipartite_nu(g, parts[0])

    adj = g.adj
    memo: dict[int, int] = {}

    def go(mask: int) -> int:
        while mask:
            b = mask & -mask
            if adj[b.bit_length() - 1] & mask:
                break
            mask ^= b
        else:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = b.bit_length() - 1
        best = go(mask ^ b)
        nbrs = adj[v] & mask
        while nbrs:
            ub = nbrs & -nbrs
            nbrs ^= ub
            r = 1 + go(mask ^ b ^ ub)
            if r > best:
                best = r
        memo[mask] = best
        return best

    return go(g.vertex_mask())


def triangle_count(g: Graph) -> int:
    """Number of 3-subsets inducing a triangle (each counted once)."""
    total = 0
    for u in range(g.n):
        row = g.adj[u] >> (u + 1)
        while row:
            b = row & -row
            v = u + 1 + b.bit_length() - 1
            row ^= b
            total += (g.adj[u] & g.adj[v] & ~((1 << (v + 1)) - 1)).bit_count()
    return total


# Deficiency -----------------------------------------------------------------

def deficit(g: Graph) -> int:
    """n - alpha - omega for the whole graph; always >= -1."""
    return g.n - stability_number(g) - clique_number(g)


# Bounds that the subset DP compares |S| against, indexed [alpha(S)][omega(S)].
_SUM_BOUND = [[a + w for w in range(DEFICIENCY_MAX + 1)]
              for a in range(DEFICIENCY_MAX + 1)]
_PRODUCT_BOUND = [[a * w for w in range(DEFICIENCY_MAX + 1)]
                  for a in range(DEFICIENCY_MAX + 1)]


def _subset_dp(g: Graph, bound: list[list[int]],
               stop: int | None) -> tuple[int, int | None]:
    """Max of |S| - bound[alpha(S)][omega(S)] over non-empty induced subgraphs.

    Tabulates alpha and omega for every vertex subset bottom-up. When `stop`
    is given, returns as soon as some subset exceeds it, together with that
    subset; otherwise scans everything and reports the maximizing subset.
    """
    n = g.n
    if n == 0:
        return 0, None
    if n > DEFICIENCY_MAX:
        raise ValueError(f"subgraph scan supports n <= {DEFICIENCY_MAX}, got {n}")
    adj = g.adj
    cadj = _comp_rows(n, adj)
    aclosed = [adj[v] | (1 << v) for v in range(n)]
    wclosed = [cadj[v] | (1 << v) for v in range(n)]
    size = 1 << n
    at = [0] * size
    wt = [0] * size
    pc = [0] * size
    best = -1
    best_mask: int | None = None
    for s in range(1, size):
        b = s & -s
        v = b.bit_length() - 1
        rest = s ^ b
        a1 = at[rest]
        a2 = at[s & ~aclosed[v]] + 1
        a = a1 if a1 >= a2 else a2
        at[s] = a
        w1 = wt[rest]
        w2 = wt[s & ~wclosed[v]] + 1
        w = w1 if w1 >= w2 else w2
        wt[s] = w
        p = pc[rest] + 1
        pc[s] = p
        d = p - bound[a][w]
        if d > best:
            best = d
            best_mask = s
            if stop is not None and d > stop:
                return best, best_mask
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


def find_deficient_subgraph(g: Graph) -> int | None:
    """A vertex mask with positive deficit, or None if g is sum-perfect."""
    value, mask = _subset_dp(g, _SUM_BOUND, 0)
    return mask if value > 0 else None


def is_perfect_lovasz(g: Graph) -> bool:
    """Every non-empty induced subgraph H satisfies alpha(H)*omega(H) >= |V(H)|."""
    if g.n > LOVASZ_MAX:
        raise ValueError(f"perfection scan supports n <= {LOVASZ_MAX}, got {g.n}")
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
    if (s & ~full) or (m & ~full):
        return False
    if (s & m).bit_count() > 1:
        return False
    rest = s
    while rest:
        b = rest & -rest
        rest ^= b
        if g.adj[b.bit_length() - 1] & s:
            return False
    rest = m
    while rest:
        b = rest & -rest
        v = b.bit_length() - 1
        rest ^= b
        if (g.adj[v] & m) != (m ^ b):
            return False
    return True


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
        return {
            "n": self.n,
            "alpha": self.alpha,
            "omega": self.omega,
            "tau": self.tau,
            "nu": self.nu,
            "triangles": self.triangles,
            "deficit": self.deficit,
        }


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
