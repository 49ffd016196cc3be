from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

import sumperfect.enumeration as enumeration
from oracles import labeled_graphs
from sumperfect.canon import _cells, _refine, _root, canonical_form, canonical_key, orbit_mins
from sumperfect.enumeration import (
    ENUMERATOR_VERSION,
    children_of,
    descendants,
    graphs_of_order,
    stream_graphs,
)
from sumperfect.graph6 import emit_graph6
from sumperfect.graphs import Graph, from_edge_list

# Non-isomorphic simple graph counts; the n <= 6 entries are re-derived from
# the labeled brute force below, the rest are the published sequence values.
COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_counts_small():
    for n, expect in COUNTS.items():
        assert len(graphs_of_order(n)) == expect


def test_matches_brute_force_up_to_6():
    for n in range(0, 7):
        brute = {canonical_key(g) for g in labeled_graphs(n)}
        mine = [canonical_key(g) for g in graphs_of_order(n)]
        assert len(mine) == len(set(mine))  # no duplicates
        assert set(mine) == brute


def test_no_duplicate_keys_at_7():
    keys = [canonical_key(g) for g in graphs_of_order(7)]
    assert len(keys) == len(set(keys)) == 1044


def test_children_are_deterministic():
    for parent in graphs_of_order(5)[:10]:
        assert children_of(parent) == children_of(parent)


def test_children_extend_parent():
    for parent in graphs_of_order(4):
        for child in children_of(parent):
            assert child.n == parent.n + 1
            # Ignoring the new vertex's bit, old rows must match the parent.
            assert all(
                (child.adj[u] & ((1 << parent.n) - 1)) == parent.adj[u]
                for u in range(parent.n)
            )


def test_children_follow_the_plain_acceptance_rule():
    # One child per orbit of the parent's group on neighbourhoods (the least
    # of each), kept iff its new vertex shares an orbit with the child's
    # first canonical vertex. children_of's degree and profile shortcuts
    # must never change that decision.
    for pn in range(7):
        for parent in graphs_of_order(pn):
            auts = canonical_form(parent)[2]
            images = [
                [sum(1 << a[u] for u in range(pn) if nb >> u & 1) for nb in range(1 << pn)]
                for a in auts
            ]
            kept = []
            for nb, m in enumerate(orbit_mins(1 << pn, images)):
                if nb != m:
                    continue
                rows = tuple(
                    parent.adj[u] | (nb >> u & 1) << pn for u in range(pn)
                ) + (nb,)
                child = Graph(pn + 1, rows)
                order, _, child_auts = canonical_form(child)
                mins = orbit_mins(pn + 1, child_auts)
                if mins[order[0]] == mins[pn]:
                    kept.append(child)
            assert children_of(parent) == kept


def test_twins_are_exactly_the_transpositions_that_are_automorphisms():
    for n in range(7):
        for g in graphs_of_order(n):
            for a in range(n):
                for b in range(n):
                    swap = list(range(n))
                    swap[a], swap[b] = b, a
                    aut = all(
                        g.has_edge(x, y) == g.has_edge(swap[x], swap[y])
                        for x, y in combinations(range(n), 2)
                    )
                    assert enumeration._twins(g.adj, a, b) == aut, (g, a, b)


def test_hard_tie_children_are_labelled_only_when_twins_and_the_root_leave_them_open(
    monkeypatch,
):
    # Generating levels <= 8 meets 4,223 children whose new vertex ties in
    # (degree, profile). Twin swaps settle 1,396 of them and the root
    # refinement 1,369 more; the other 1,458 are searched from that root.
    # Each of the 1,253 parents gets its root colouring once, and only the
    # 429 whose root cells are not all twin classes are searched.
    parents = [g for n in range(8) for g in graphs_of_order(n)]
    calls = {site: {"_root": 0, "_search": 0} for site in ("parent", "tie")}
    site = ["parent"]

    def counted(name):
        real = getattr(enumeration, name)

        def wrapper(*args):
            calls[site[-1]][name] += 1
            return real(*args)

        return wrapper

    def in_tie(real):
        def wrapper(*args):
            site.append("tie")
            try:
                return real(*args)
            finally:
                site.pop()

        return wrapper

    for name in calls["parent"]:
        monkeypatch.setattr(enumeration, name, counted(name))
    monkeypatch.setattr(enumeration, "_new_vertex_is_canonical",
                        in_tie(enumeration._new_vertex_is_canonical))
    assert sum(len(children_of(p)) for p in parents) == 13598  # orders 1..8
    assert calls == {"parent": {"_root": 1253, "_search": 429},
                     "tie": {"_root": 2827, "_search": 1458}}


def _twin_rich_hosts(seed: int, count: int, max_n: int) -> list[Graph]:
    """Seeded threshold graphs (each vertex added isolated or dominating)
    and blow-ups (each vertex of a random graph on 3..6 vertices replaced by
    a clique or a stable set, all alike in half of them) of at most max_n
    vertices, randomly relabelled."""
    rng = random.Random(seed)
    hosts = []
    for i in range(count):
        if i % 2:
            n = rng.randint(2, max_n)
            dominating = [v for v in range(n) if rng.random() < 0.5]
            edges = [(u, v) for v in dominating for u in range(v)]
        else:
            k = rng.randint(3, 6)
            base = {(u, v) for v in range(k) for u in range(v) if rng.random() < 0.5}
            uniform = rng.random() < 0.5  # then the blow-up keeps base's group
            size, clique = rng.randint(1, max_n // k), rng.random() < 0.5
            parts, n = [], 0
            for _ in range(k):
                if not uniform:
                    size = rng.randint(1, min(3, max_n - n - (k - 1 - len(parts))))
                    clique = rng.random() < 0.5
                parts.append((range(n, n + size), clique))
                n += size
            edges = [(a, b) for block, clique in parts if clique
                     for a, b in combinations(block, 2)]
            edges += [(a, b) for u, v in base for a in parts[u][0] for b in parts[v][0]]
        perm = list(range(n))
        rng.shuffle(perm)
        hosts.append(from_edge_list(n, [(perm[a], perm[b]) for a, b in edges]))
    return hosts


def _orbit_least_subsets(g: Graph, most: int) -> list[int]:
    """The least subset of each orbit of canonical_form's group on the vertex
    subsets of at most `most` vertices, through orbit_mins, ascending."""
    auts = canonical_form(g)[2]
    mins = orbit_mins(1 << g.n, [enumeration._subset_images(a) for a in auts])
    return [s for s, m in enumerate(mins) if s == m and s.bit_count() <= most]


def test_twin_class_neighbourhoods_equal_the_orbit_path():
    # Where every root cell is one twin class, the neighbourhoods are listed
    # from the classes with no search; elsewhere the parent is searched
    # from its root. Both must give the orbit_mins path's subsets, at every
    # size cap, on every parent of order <= 7 and on twin-rich hosts.
    parents = [g for n in range(8) for g in graphs_of_order(n)]
    hosts = _twin_rich_hosts(32, 120, 10)
    assert max(g.n for g in hosts) == 10
    symmetric = []
    for g in parents + hosts:
        root = _root(g)
        assert root == _refine(g.n, g.adj, [0] * g.n)
        cells = _cells(g.n, root)
        symmetric.append(all(enumeration._twins(g.adj, c[0], u) for c in cells for u in c[1:]))
        for most in sorted({g.n, min((r.bit_count() for r in g.adj), default=0) + 1}):
            assert enumeration._neighbourhoods(g, most) == _orbit_least_subsets(g, most)
    assert sum(symmetric[:len(parents)]) == 824  # 162 discrete roots, 662 others
    assert 0 < sum(symmetric[len(parents):]) < len(hosts)


def test_stream_agrees_with_list():
    for n in (6, 7):
        assert list(stream_graphs(n)) == graphs_of_order(n)


# sha256 over the graph6 lines ("<graph6>\n") of graphs_of_order(n) for
# n = 0..8, in order, by enumerator version. Checkpoint journals follow the
# listed order by position, so another order needs another version.
LEVEL_ORDER_SHA256 = {
    2: "0dfc277f8a8e23f655a23081d3e6fa262152142a69321504fce88884297db2b8",
}


def test_level_order_is_pinned_to_the_enumerator_version():
    h = hashlib.sha256()
    for n in range(9):
        for g in graphs_of_order(n):
            h.update(emit_graph6(g).encode() + b"\n")
    assert h.hexdigest() == LEVEL_ORDER_SHA256[ENUMERATOR_VERSION]


def test_subtrees_list_each_level_in_order():
    # Walking the subtrees of the roots in order, depth-first, meets the
    # graphs of each lower order in exactly their level order.
    roots = graphs_of_order(4)
    walked = [g for root in roots for g in descendants(root, 7)]
    assert [g.n for g in walked[:3]] == [5, 6, 7]  # a child before its subtree
    for n in (5, 6, 7):
        assert [g for g in walked if g.n == n] == graphs_of_order(n)
    assert len(walked) == 34 + 156 + 1044
    assert list(descendants(roots[0], 4)) == []
    with pytest.raises(ValueError):
        list(descendants(roots[0], 11))


def test_walk_checks_its_order_once(monkeypatch):
    import sumperfect.enumeration as enumeration

    calls = []
    real_check = enumeration.check_order
    monkeypatch.setattr(enumeration, "check_order", lambda n: calls.append(n) or real_check(n))
    assert len(list(descendants(Graph(0, ()), 8))) == sum(COUNTS[n] for n in range(1, 9))
    assert calls == [8]


def test_envelope_errors():
    with pytest.raises(ValueError):
        graphs_of_order(11)
    with pytest.raises(ValueError):
        list(stream_graphs(-1))


def test_level_zero_and_one():
    assert graphs_of_order(0) == [Graph(0, ())]
    assert graphs_of_order(1) == [Graph(1, (0,))]
