"""Independent oracles from networkx, checked on every graph with n <= 7 and
on seeded random graphs.

networkx is only a test dependency; these tests skip when it is missing, so
the package itself stays stdlib-only.
"""

from __future__ import annotations

import random

import pytest

nx = pytest.importorskip("networkx")

from sumperfect.canon import canonical_key
from sumperfect.enumeration import graphs_of_order
from sumperfect.graph6 import emit_graph6, parse_graph6
from sumperfect.graphs import Graph, from_edge_list
from sumperfect.invariants import (
    clique_number,
    matching_number,
    stability_number,
    triangle_count,
)


@pytest.fixture(scope="module")
def atlas() -> list[tuple[object, Graph]]:
    """Every graph of the networkx atlas (1,253 graphs, n <= 7) with ours."""
    pairs = []
    for G in nx.graph_atlas_g():
        assert list(G.nodes) == list(range(G.number_of_nodes()))
        pairs.append((G, from_edge_list(G.number_of_nodes(), G.edges)))
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
    for n in range(0, 41):
        for p in (0.1, 0.3, 0.5, 0.8):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(edges)
            expect = len(nx.max_weight_matching(G, maxcardinality=True))
            assert matching_number(from_edge_list(n, edges)) == expect
