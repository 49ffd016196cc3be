"""Independent oracles from networkx, checked on every graph with n <= 7 and
on seeded random graphs.

networkx is only a test dependency; these tests skip when it is missing, so
the package itself stays stdlib-only.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

nx = pytest.importorskip("networkx")

from sumperfect.canon import canonical_key
from sumperfect.enumeration import graphs_of_order
from sumperfect.graph6 import emit_graph6, parse_graph6
from sumperfect.graphs import Graph, bipartition, from_edge_list, is_connected
from sumperfect.invariants import (
    StableCliquePair,
    clique_number,
    matching_number,
    stability_number,
    triangle_count,
    validate_pair,
)


@pytest.fixture(scope="module")
def atlas() -> list[tuple[object, Graph]]:
    """Every graph of the networkx atlas (1,253 graphs, n <= 7) with ours."""
    pairs = []
    for G in nx.graph_atlas_g():
        assert list(G.nodes) == list(range(G.number_of_nodes()))
        pairs.append((G, from_edge_list(G.number_of_nodes(), G.edges)))
    return pairs


@pytest.fixture(scope="module")
def random_graphs() -> list[tuple[object, Graph]]:
    """Seeded G(n, p) graphs for every n <= 64, edgeless and sparse
    (mostly disconnected) ones included, and seeded bipartite graphs on
    random sides, each with ours."""
    rng = random.Random(41)
    pairs = []
    for n in range(65):
        side = rng.getrandbits(n)
        for p, bipartite in ((0.0, False), (0.03, False), (0.1, False), (0.5, False),
                             (0.03, True), (0.1, True), (0.3, True)):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if (not bipartite or ((side >> i) ^ (side >> j)) & 1)
                     and rng.random() < p]
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(edges)
            pairs.append((G, from_edge_list(n, edges)))
    return pairs


def test_atlas_matches_enumeration(atlas):
    assert len(atlas) == 1253
    for n in range(8):
        theirs = [canonical_key(g) for G, g in atlas if g.n == n]
        ours = {canonical_key(g) for g in graphs_of_order(n)}
        assert len(theirs) == len(set(theirs)) == len(ours)
        assert set(theirs) == ours


def test_graph6_codec_matches_networkx(atlas):
    for G, g in atlas:
        text = emit_graph6(g)
        assert nx.to_graph6_bytes(G, header=False) == text.encode("ascii") + b"\n"
        H = nx.from_graph6_bytes(text.encode("ascii"))
        assert from_edge_list(H.number_of_nodes(), H.edges) == g
        assert parse_graph6(nx.to_graph6_bytes(G, header=False).decode("ascii")) == g


def test_clique_and_stability_numbers_match_networkx(atlas):
    for G, g in atlas:
        assert nx.max_weight_clique(G, weight=None)[1] == clique_number(g)
        co = nx.complement(G)
        assert nx.max_weight_clique(co, weight=None)[1] == stability_number(g)


def test_triangle_count_matches_networkx(atlas):
    for G, g in atlas:
        assert triangle_count(g) == sum(nx.triangles(G).values()) // 3


def test_matching_number_matches_networkx():
    rng = random.Random(40)
    for n in range(0, 65):
        for p in (0.1, 0.3, 0.5, 0.8):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(edges)
            expect = len(nx.max_weight_matching(G, maxcardinality=True))
            assert matching_number(from_edge_list(n, edges)) == expect


def test_edges_connectivity_and_bipartition_match_networkx(atlas, random_graphs):
    for G, g in atlas + random_graphs:
        assert list(g.edges()) == sorted(tuple(sorted(e)) for e in G.edges)
        if g.n:  # networkx leaves the null graph's connectivity undefined
            assert is_connected(g) == nx.is_connected(G)
        expect = None
        if nx.is_bipartite(G):
            # networkx's colouring, flipped so each component's lowest vertex is in A
            colour, a = nx.bipartite.color(G), 0
            for comp in nx.connected_components(G):
                a |= sum(1 << v for v in comp if colour[v] == colour[min(comp)])
            expect = (a, g.vertex_mask() ^ a)
        assert bipartition(g) == expect


def test_bipartition_matches_brute_force_colouring(atlas):
    # Every 2-colouring with each component's lowest vertex in maskA; a
    # bipartite graph has exactly one.
    for G, g in atlas:
        lows = sum(1 << min(comp) for comp in nx.connected_components(G))
        full = (1 << g.n) - 1
        found = [(a, full ^ a) for a in range(1 << g.n) if a & lows == lows
                 and all((a >> u) & 1 != (a >> v) & 1 for u, v in G.edges)]
        assert len(found) <= 1
        assert bipartition(g) == (found[0] if found else None)


def _greedy(G, order, adjacent: bool) -> int:
    """A maximal clique (adjacent) or stable set of G, grown along order."""
    chosen: list[int] = []
    for v in order:
        if all(G.has_edge(u, v) == adjacent for u in chosen):
            chosen.append(v)
    return sum(1 << v for v in chosen)


def test_validate_pair_matches_brute_force(atlas, random_graphs):
    rng = random.Random(43)
    for G, g in atlas + random_graphs:
        n = g.n
        for _ in range(3):
            order = rng.sample(range(n), n)
            stable, clique = _greedy(G, order, False), _greedy(G, order[::-1], True)
            # Toggle a vertex (possibly out of range) of either set.
            if rng.random() < 0.5:
                stable ^= 1 << rng.randrange(n + 2)
            if rng.random() < 0.5:
                clique ^= 1 << rng.randrange(n + 2)
            s = [v for v in range(n + 2) if (stable >> v) & 1]
            m = [v for v in range(n + 2) if (clique >> v) & 1]
            expect = (max(s + m, default=-1) < n and len(set(s) & set(m)) <= 1
                      and not any(G.has_edge(u, v) for u, v in combinations(s, 2))
                      and all(G.has_edge(u, v) for u, v in combinations(m, 2)))
            assert validate_pair(g, StableCliquePair(stable, clique)) == expect
