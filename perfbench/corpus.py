"""Seeded graph6 corpus for the recognize-mix workload.

The corpus has a fixed shape (how many graphs of each kind and order) and
the seed only draws the edges, so every seed costs about the same to
recognize. It mixes three populations:

- small G(n, p) graphs, n 5..12, p in [0.25, 0.75]: most contain an
  obstruction among their first subsets, so the scan exits early;
- G(n, 0.5) hosts, n 20..40: an obstruction turns up in the first few
  hundred subsets of a big host;
- sum-perfect hosts, n 14..20, alternately split and apex-threshold: no
  obstruction exists, so every subset of sizes 5..7 is scanned and the
  positive witness is found by clique branch-and-bound.

Verdicts are known independently of the obstruction scan. Split and
apex-threshold graphs are sum-perfect by construction (a split partition
gives alpha + omega >= |V| on every induced subgraph; a threshold graph has
alpha + omega = |V| + 1, so adding an apex keeps the sum at least |V|). Each
graph is still checked by the definitional subset DP, on the graph itself
for n <= 20 and on its first 20 vertices for the bigger hosts, which is
enough because sum-perfection is hereditary.
"""

from __future__ import annotations

import random

SMALL_ORDERS = range(5, 13)
SMALL_PER_ORDER = 375
BIG_ORDERS = range(20, 41)
BIG_COUNT = 100
# More small hosts than big ones, and more than 1% of the corpus, so the
# 99th-percentile latency falls inside the full-scan population.
HOST_ORDERS = (14,) * 24 + (15,) * 8 + (16,) * 3 + (17,) * 2 + (18, 20)
DP_MAX = 20


def _shuffled(rng: random.Random, n: int, edges: list[tuple[int, int]]):
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _gnp(rng: random.Random, n: int, p: float):
    return n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]


def _split(rng: random.Random, n: int):
    k = n // 2
    edges = [(u, v) for v in range(k) for u in range(v)]
    edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.5]
    return _shuffled(rng, n, edges)


def _apex_threshold(rng: random.Random, n: int):
    # Threshold graph on n - 1 vertices: each new vertex is isolated or
    # dominating (half of them dominating); vertex n - 1 is the apex with a
    # random neighbourhood.
    dominating = rng.sample(range(1, n - 1), (n - 2) // 2)
    edges = [(u, v) for v in dominating for u in range(v)]
    edges += [(u, n - 1) for u in range(n - 1) if rng.random() < 0.5]
    return _shuffled(rng, n, edges)


def build(seed: int) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(kind, n, edges) for every corpus graph, in corpus order."""
    rng = random.Random(seed)
    out = []
    for n in SMALL_ORDERS:
        for _ in range(SMALL_PER_ORDER):
            out.append(("small", *_gnp(rng, n, rng.uniform(0.25, 0.75))))
    for i in range(BIG_COUNT):
        out.append(("big", *_gnp(rng, BIG_ORDERS[i % len(BIG_ORDERS)], 0.5)))
    for i, n in enumerate(HOST_ORDERS):
        make = _split if i % 2 == 0 else _apex_threshold
        out.append(("host", *make(rng, n)))
    # Interleave the populations so slow hosts do not bunch at the end.
    rng.shuffle(out)
    return out


def to_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """Short-form graph6 (n <= 62), written here rather than by the package."""
    bits = set(edges)
    flat = [1 if (i, j) in bits else 0 for j in range(1, n) for i in range(j)]
    flat += [0] * (-len(flat) % 6)
    chunks = (int("".join(map(str, flat[k:k + 6])), 2) for k in range(0, len(flat), 6))
    return chr(n + 63) + "".join(chr(c + 63) for c in chunks)


def expected_verdicts(graphs) -> list[bool]:
    """Sum-perfect verdicts from the definitional subset DP."""
    from sumperfect.graphs import from_edge_list, induced_subgraph
    from sumperfect.invariants import is_sum_perfect_definitional

    out = []
    for _, n, edges in graphs:
        g = from_edge_list(n, edges)
        if n <= DP_MAX:
            out.append(is_sum_perfect_definitional(g))
        elif not is_sum_perfect_definitional(induced_subgraph(g, range(DP_MAX))):
            out.append(False)
        else:
            raise ValueError(f"cannot decide a corpus graph of order {n} by the DP")
    return out


def properties(graphs, verdicts: list[bool]) -> dict:
    """Corpus shape: counts by order, sum-perfect share, full-scan share.

    Every sum-perfect graph is scanned in full (no obstruction stops the
    scan); the full-scan share counts those with n >= 14, which carry the
    O(n^7) subset scans and the witness branch-and-bound."""
    by_n: dict[int, int] = {}
    for _, n, _ in graphs:
        by_n[n] = by_n.get(n, 0) + 1
    total = len(graphs)
    full = sum(1 for (_, n, _), v in zip(graphs, verdicts) if v and n >= 14)
    return {
        "graphs": total,
        "count_by_n": dict(sorted(by_n.items())),
        "sum_perfect_share": sum(verdicts) / total,
        "full_scan_share": full / total,
    }
