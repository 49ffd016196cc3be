from __future__ import annotations

import pickle

import pytest

from sumperfect.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    is_connected,
    mask_of,
    path_graph,
    vertices_of,
)
from sumperfect.canon import is_isomorphic


def test_from_edge_list_c5(c5):
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g == c5
    assert g.edge_count() == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_graph_value_semantics(c5):
    # Compared and hashed by (n, adj), equal only to Graphs, picklable for
    # the worker pool, and slotted.
    twin = Graph(5, tuple(c5.adj))
    assert twin == c5 and hash(twin) == hash(c5)
    assert {c5: "c5"}[twin] == "c5"
    assert twin != Graph(5, (0,) * 5) and twin != Graph(6, c5.adj + (0,))
    assert c5 != (c5.n, c5.adj) and (c5.n, c5.adj) != c5
    assert pickle.loads(pickle.dumps(c5)) == c5
    assert repr(path_graph(3)) == "Graph(n=3, edges=[(0, 1), (1, 2)])"
    assert not hasattr(c5, "__dict__")


def test_from_edge_list_empty():
    g = from_edge_list(3, [])
    assert g.n == 3 and g.edge_count() == 0


def test_from_edge_list_h26(h26):
    assert h26.n == 7
    assert h26.edge_count() == 10
    assert set(h26.edges()) == {
        (0, 3), (0, 5), (0, 6), (1, 4), (1, 5),
        (2, 4), (2, 6), (4, 5), (4, 6), (5, 6),
    }


def test_from_edge_list_duplicates_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize(
    "n,edges",
    [(3, [(0, 0)]), (3, [(0, 3)]), (3, [(-1, 1)]), (65, [])],
)
def test_from_edge_list_errors(n, edges):
    with pytest.raises(ValueError):
        from_edge_list(n, edges)


def test_complement_involution(c5):
    assert complement(complement(c5)) == c5


def test_complement_k33_is_2k3(k33, two_k3):
    assert is_isomorphic(complement(k33), two_k3)


def test_complement_h26_is_h27(h26):
    from sumperfect.family import build_family

    fam = build_family()
    assert is_isomorphic(complement(h26), fam.member(27).graph)


def test_induced_subgraph_full(c5):
    assert induced_subgraph(c5, c5.vertex_mask()) == c5


def test_induced_subgraph_c6_gives_2k2(two_k2):
    c6 = cycle_graph(6)
    sub = induced_subgraph(c6, mask_of([0, 1, 3, 4]))
    assert set(sub.edges()) == {(0, 1), (2, 3)}
    assert is_isomorphic(sub, two_k2)


def test_induced_subgraph_k4_gives_k3():
    k4 = complete_graph(4)
    for drop in range(4):
        sub = induced_subgraph(k4, k4.vertex_mask() ^ (1 << drop))
        assert is_isomorphic(sub, complete_graph(3))


def test_induced_subgraph_range_error(c5):
    with pytest.raises(ValueError):
        induced_subgraph(c5, 1 << 5)


def test_delete_vertex_c5_gives_p4(c5):
    assert is_isomorphic(delete_vertex(c5, 0), path_graph(4))


def test_delete_vertex_k1():
    g = delete_vertex(complete_graph(1), 0)
    assert g.n == 0


def test_delete_vertex_out_of_range(c5):
    with pytest.raises(ValueError):
        delete_vertex(c5, 5)


def test_disjoint_union_3k2(three_k2):
    k2 = complete_graph(2)
    assert is_isomorphic(disjoint_union(disjoint_union(k2, k2), k2), three_k2)


def test_disjoint_union_p4_k2():
    from sumperfect.family import build_family

    g = disjoint_union(path_graph(4), complete_graph(2))
    assert is_isomorphic(g, build_family().member(3).graph)


def test_disjoint_union_identity(c5):
    assert disjoint_union(c5, Graph(0, ())) == c5


def test_disjoint_union_capacity():
    g = complete_graph(40)
    with pytest.raises(ValueError):
        disjoint_union(g, g)


def test_delete_complement_commute(small_corpus):
    for g in small_corpus[5] + small_corpus[6]:
        for v in range(g.n):
            assert delete_vertex(complement(g), v) == complement(delete_vertex(g, v))


def test_complement_involution_corpus(small_corpus):
    for n in range(0, 8):
        for g in small_corpus[n]:
            assert complement(complement(g)) == g


def test_is_connected():
    assert is_connected(cycle_graph(5))
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(0, ()))
    assert is_connected(Graph(1, (0,)))


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == (0, 2, 5)
