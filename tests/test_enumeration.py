from __future__ import annotations

import hashlib

import pytest

from oracles import labeled_graphs
from sumperfect.canon import canonical_key
from sumperfect.enumeration import (
    ENUMERATOR_VERSION,
    children_of,
    descendants,
    graphs_of_order,
    stream_graphs,
)
from sumperfect.graph6 import emit_graph6
from sumperfect.graphs import Graph

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


def test_stream_agrees_with_list():
    for n in (6, 7):
        assert list(stream_graphs(n)) == graphs_of_order(n)


# sha256 over the graph6 lines ("<graph6>\n") of graphs_of_order(n) for
# n = 0..7, in order, by enumerator version. Checkpoint journals follow the
# listed order by position, so another order needs another version.
LEVEL_ORDER_SHA256 = {
    2: "d120e3a3c2631c5c84eff894ad1a470b770b3da504e6997f9c15457a1122de65",
}


def test_level_order_is_pinned_to_the_enumerator_version():
    h = hashlib.sha256()
    for n in range(8):
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


def test_envelope_errors():
    with pytest.raises(ValueError):
        graphs_of_order(11)
    with pytest.raises(ValueError):
        list(stream_graphs(-1))


def test_level_zero_and_one():
    assert graphs_of_order(0) == [Graph(0, ())]
    assert graphs_of_order(1) == [Graph(1, (0,))]
