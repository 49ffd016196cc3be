from __future__ import annotations

import hashlib
import random
from itertools import permutations
from math import comb, factorial

import pytest

from oracles import brute_is_isomorphic, labeled_graphs
from sumperfect import canon
from sumperfect.canon import (
    canonical_form,
    canonical_key,
    canonical_labeling,
    is_isomorphic,
    orbit_mins,
)
from sumperfect.enumeration import descendants, graphs_of_order
from sumperfect.graph6 import pack_upper_triangle
from sumperfect.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_edge_list,
    path_graph,
)


def _relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_c5_relabellings_share_key(c5):
    k = canonical_key(c5)
    for perm in permutations(range(5)):
        assert canonical_key(_relabel(c5, perm)) == k


def test_random_relabelling_invariance():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = from_edge_list(n, edges)
        k = canonical_key(g)
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(_relabel(g, tuple(perm))) == k


def test_labeled_4_vertex_graphs_have_11_keys():
    keys = {canonical_key(g) for g in labeled_graphs(4)}
    assert len(keys) == 11


def test_keys_of_bipartite_layer_distinct():
    from sumperfect.family import build_family

    fam = build_family()
    keys = {fam.member(i).key for i in range(2, 14)}
    assert len(keys) == 12


def test_key_equality_matches_brute_isomorphism():
    graphs = list(labeled_graphs(4))
    keys = [canonical_key(g) for g in graphs]
    rng = random.Random(7)
    idx = range(len(graphs))
    for _ in range(3000):
        i, j = rng.choice(idx), rng.choice(idx)
        assert (keys[i] == keys[j]) == brute_is_isomorphic(graphs[i], graphs[j])


def test_is_isomorphic_examples(c5, k33, two_k3):
    assert is_isomorphic(c5, _relabel(c5, (3, 1, 4, 0, 2)))
    assert not is_isomorphic(k33, two_k3)


def test_complement_pairing_in_family():
    from sumperfect.family import build_family

    fam = build_family()
    assert is_isomorphic(fam.member(7).graph, complement(fam.member(19).graph))


def test_symmetric_worst_cases_terminate_quickly():
    cases = [
        Graph(10, (0,) * 10),
        complete_graph(10),
        Graph(12, (0,) * 12),  # the most automorphisms stored within CANON_MAX
        complete_graph(12),
        complete_bipartite(5, 5),
        cycle_graph(10),
        disjoint_union(cycle_graph(5), cycle_graph(5)),
    ]
    for g in cases:
        k = canonical_key(g)
        perm = tuple(reversed(range(g.n)))
        assert canonical_key(_relabel(g, perm)) == k


def test_canonical_labeling_is_a_permutation(c5):
    order, key = canonical_labeling(c5)
    assert sorted(order) == list(range(5))
    assert key == canonical_key(c5)
    assert key[0] == 5


def test_key_is_the_graph6_bit_order_of_the_canonical_relabelling():
    rng = random.Random(11)
    for n in range(0, 10):
        g = from_edge_list(n, [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ])
        order, key = canonical_labeling(g)
        canon = _relabel(g, tuple(order.index(v) for v in range(n)))
        assert key == bytes([n, *pack_upper_triangle(canon.adj, 8)])


def _group_order(n: int, gens) -> int:
    """Order of the permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for a in gens:
                q = tuple(a[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("n", range(1, 8))
def test_automorphisms_generate_the_whole_group(n):
    # Orbit counting: the labelled graphs on n vertices split into classes of
    # size n!/|Aut(G)|. Each found group is a subgroup of Aut(G), so each term
    # is at least the true one, and the sum matches only if every found list
    # generates the whole group (and enumeration lists each class once).
    total = 0
    for g in graphs_of_order(n):
        order = _group_order(n, canonical_form(g)[2])
        assert factorial(n) % order == 0
        total += factorial(n) // order
    assert total == 2 ** comb(n, 2)


def test_canonical_form_automorphisms_preserve_edges(small_corpus):
    for g in small_corpus[6] + small_corpus[7]:
        order, key, auts = canonical_form(g)
        assert (order, key) == canonical_labeling(g)
        for a in auts:
            assert a != tuple(range(g.n))
            assert all(g.has_edge(a[u], a[v]) for u, v in g.edges())


def test_orbit_mins():
    assert orbit_mins(0, []) == []
    assert orbit_mins(4, []) == [0, 1, 2, 3]
    assert orbit_mins(6, [(1, 0, 2, 3, 4, 5), (0, 1, 2, 5, 3, 4)]) == [0, 0, 2, 3, 3, 3]
    c5 = cycle_graph(5)
    assert orbit_mins(5, canonical_form(c5)[2]) == [0] * 5


def test_empty_graph_canonical_form():
    assert canonical_form(Graph(0, ())) == ((), b"\x00", [])


def test_envelope_error():
    with pytest.raises(ValueError):
        canonical_key(Graph(13, (0,) * 13))


def test_is_isomorphic_refuses_past_the_canon_limit():
    # The answer comes from the canonical keys alone, so it does not depend
    # on whether the two graphs could be told apart by cheaper invariants.
    c13 = cycle_graph(13)
    for other in (path_graph(13), cycle_graph(13)):
        with pytest.raises(ValueError, match="n <= 12"):
            is_isomorphic(c13, other)


def test_key_prefix_is_order(small_corpus):
    for n in (0, 1, 5):
        for g in small_corpus[n][:5]:
            assert canonical_key(g)[0] == n


def _random_regular(rng: random.Random, n: int, d: int) -> Graph:
    """A d-regular graph on n vertices: random stub pairings, redrawn until simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return from_edge_list(n, sorted(edges))


def _pin_corpus():
    yield from descendants(Graph(0, ()), 7)
    rng = random.Random(19)
    for n in range(9, 13):
        for _ in range(60):
            p = rng.random()
            yield from_edge_list(n, [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            ])
    # Refinement leaves a regular graph's vertices in one cell.
    for d in (3, 4):
        for _ in range(10):
            yield _random_regular(rng, 12, d)
    k4 = complete_graph(4)
    for g in (
        complete_graph(12),
        complete_bipartite(6, 6),
        disjoint_union(disjoint_union(k4, k4), k4),
        cycle_graph(12),
    ):
        yield g
        yield complement(g)


def test_canonical_forms_are_pinned():
    # Orders and automorphism lists, not only keys: a change to the search
    # that keeps every key can still reorder either, and enumeration reads
    # both. Re-pin only with a deliberate change of the search's output.
    h = hashlib.sha256()
    count = 0
    for g in _pin_corpus():
        h.update(repr(canonical_form(g)).encode())
        count += 1
    assert count == 1520
    assert h.hexdigest() == (
        "bb1bf87c901516945bd07a7f410a93f2dee77bf5d77abd8d9ab589bad5ff2339"
    )


def test_canonical_order_starts_in_the_least_degree_profile_cell():
    # Enumeration's acceptance rule reads the child's first canonical vertex
    # as one of least (degree, sorted neighbour degrees); its profile test
    # rejects every other child. The root colouring, built from the degree
    # ranks, is the refined unit partition on every graph pinned; `first`
    # is the cell enumeration's hard-tie gate reads.
    for g in _pin_corpus():
        deg = [a.bit_count() for a in g.adj]
        colors = canon._refine(g.n, g.adj, [0] * g.n)
        assert canon._root(g) == colors
        if g.n == 0:
            continue
        profile = [
            (deg[v], sorted(deg[u] for u in range(g.n) if g.has_edge(u, v)))
            for v in range(g.n)
        ]
        first = canon._cells(g.n, colors)[0]
        assert canonical_form(g)[0][0] in first
        assert all(profile[v] == min(profile) for v in first)
