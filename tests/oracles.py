"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (subset/permutation enumeration) and
shares no code with the implementation under test beyond the Graph container.
"""

from __future__ import annotations

from itertools import combinations, permutations

from sumperfect.graphs import Graph, from_edge_list, induced_subgraph


def labeled_graphs(n: int):
    """Every labeled graph on n vertices, all 2^C(n,2) of them."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield from_edge_list(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


def brute_alpha(g: Graph) -> int:
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return k
    return 0


def brute_omega(g: Graph) -> int:
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return k
    return 0


def brute_vertex_cover(g: Graph) -> int:
    """Size of a smallest vertex set meeting every edge, by increasing size."""
    edges = list(g.edges())
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            if all(u in sub or v in sub for u, v in edges):
                return k


def brute_matching(g: Graph) -> int:
    edges = list(g.edges())
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for sub in combinations(edges, k):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = k
                break
    return best


def branching_matching(g: Graph) -> int:
    """Maximum matching by branching on the lowest non-isolated vertex
    (left unmatched, or matched to each neighbour), memoised per vertex set."""
    memo: dict[int, int] = {}

    def go(mask: int) -> int:
        live = [v for v in range(g.n) if (mask >> v) & 1 and g.adj[v] & mask]
        if not live:
            return 0
        if mask not in memo:
            v = live[0]
            rest = mask & ~(1 << v)
            memo[mask] = max([go(rest)] + [
                1 + go(rest & ~(1 << u)) for u in range(g.n) if (g.adj[v] & rest) >> u & 1
            ])
        return memo[mask]

    return go(g.vertex_mask())


def brute_triangles(g: Graph) -> int:
    return sum(
        1
        for sub in combinations(range(g.n), 3)
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2))
    )


def brute_max_deficiency(g: Graph) -> int:
    if g.n == 0:
        return 0
    best = -1
    for k in range(1, g.n + 1):
        for sub in combinations(range(g.n), k):
            h = induced_subgraph(g, sub)
            best = max(best, k - brute_alpha(h) - brute_omega(h))
    return best


def brute_is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n:
        return False
    for perm in permutations(range(a.n)):
        if all(
            a.has_edge(u, v) == b.has_edge(perm[u], perm[v])
            for u, v in combinations(range(a.n), 2)
        ):
            return True
    return False


def brute_canonical_edges(g: Graph) -> tuple:
    """Minimum relabelled edge tuple over all n! permutations."""
    best = None
    for perm in permutations(range(g.n)):
        rel = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges())
        )
        if best is None or rel < best:
            best = rel
    return (g.n, best)


def brute_contains_induced(host: Graph, pattern: Graph) -> bool:
    if pattern.n > host.n:
        return False
    for sub in combinations(range(host.n), pattern.n):
        if brute_is_isomorphic(induced_subgraph(host, sub), pattern):
            return True
    return False


def brute_scan(host: Graph, patterns: list[tuple[object, Graph]]) -> list[tuple]:
    """Every (label, subset) with subset inducing a copy of that pattern,
    sizes ascending and subsets lexicographic, by trying every subset."""
    out = []
    for k in sorted({p.n for _, p in patterns}):
        for sub in combinations(range(host.n), k):
            h = induced_subgraph(host, sub)
            degrees = sorted(h.degree(v) for v in range(k))
            for label, p in patterns:
                if p.n != k or sorted(p.degree(v) for v in range(k)) != degrees:
                    continue
                if brute_is_isomorphic(h, p):
                    out.append((label, sub))
    return out


def brute_is_split(g: Graph) -> bool:
    full = (1 << g.n) - 1
    for mask in range(1 << g.n):
        clique = [v for v in range(g.n) if (mask >> v) & 1]
        stable = [v for v in range(g.n) if ((full ^ mask) >> v) & 1]
        if all(g.has_edge(u, v) for u, v in combinations(clique, 2)) and all(
            not g.has_edge(u, v) for u, v in combinations(stable, 2)
        ):
            return True
    return False


def brute_subset_alpha_omega(g: Graph) -> list[tuple[int, int, int]]:
    """(|S|, alpha(S), omega(S)) for every vertex mask S, alpha and omega by
    trying every sub-mask of S."""
    size = 1 << g.n
    stable = [True] * size
    clique = [True] * size
    for t in range(1, size):
        low = t & -t
        rest = t ^ low
        row = g.adj[low.bit_length() - 1]
        stable[t] = stable[rest] and not row & rest
        clique[t] = clique[rest] and row & rest == rest
    out = []
    for s in range(size):
        alpha = omega = 0
        t = s
        while t:
            k = t.bit_count()
            if stable[t] and k > alpha:
                alpha = k
            if clique[t] and k > omega:
                omega = k
            t = (t - 1) & s
        out.append((s.bit_count(), alpha, omega))
    return out


# Bounds of the per-mask subset DP, indexed [alpha(S)][omega(S)] for graphs of
# up to 20 vertices.
SUM_BOUND = [[a + w for w in range(21)] for a in range(21)]
PRODUCT_BOUND = [[a * w for w in range(21)] for a in range(21)]


def loop_subset_dp(g: Graph, bound: list[list[int]], stop: int | None) -> tuple[int, int | None]:
    """The subset DP one mask at a time: (value, mask) of the max of
    |S| - bound[alpha(S)][omega(S)] over non-empty masks S, by the first-hit
    rule of invariants._subset_dp. Each mask S grows from S - v, v its
    highest vertex: alpha(S) is the larger of alpha(S - v) and
    1 + alpha(S minus v's neighbours), omega(S) of omega(S - v) and
    1 + omega(S among v's neighbours)."""
    n = g.n
    if n == 0:
        return 0, None
    at, wt = [0] * (1 << n), [0] * (1 << n)
    best, best_mask = -1, None
    for v, row in enumerate(g.adj):
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
    return best, best_mask
