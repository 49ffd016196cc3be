from __future__ import annotations

import random

import pytest

from oracles import brute_is_split
from sumperfect.graphs import (
    complete_graph,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    from_edge_list,
    mask_of,
    path_graph,
    star_graph,
)
from sumperfect.family import build_family
from sumperfect.induced import PatternHit, embedding_is_valid
from sumperfect.invariants import (
    SUBSET_MAX,
    StableCliquePair,
    is_sum_perfect_definitional,
    validate_pair,
)
from sumperfect.recognition import (
    check_threshold_theorem,
    find_forbidden_copies,
    is_apex_threshold,
    is_split,
    is_sum_perfect,
    is_threshold,
    is_threshold_by_obstructions,
)


def test_c5_rejected_with_identity_copy(c5):
    verdict, ev = is_sum_perfect(c5)
    assert not verdict
    assert isinstance(ev, PatternHit)
    assert ev.label.index == 1 and ev.label.name == "C5"
    assert ev.embedding.mapping == (0, 1, 2, 3, 4)


def test_threshold_graphs_are_sum_perfect():
    g = star_graph(4)
    for _ in range(3):
        verdict, pair = is_sum_perfect(g)
        assert verdict
        assert isinstance(pair, StableCliquePair)
        assert validate_pair(g, pair)
        assert pair.stable.bit_count() + pair.clique.bit_count() >= g.n
        g = disjoint_union(g, complete_graph(1))


def test_split_graph_20_vertices_cross_check():
    rng = random.Random(7)
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    for s in range(10, 20):
        for c in range(10):
            if rng.random() < 0.4:
                edges.append((c, s))
    g = from_edge_list(20, edges)
    assert is_split(g) is not None
    verdict, _ = is_sum_perfect(g)
    assert verdict
    sub = mask_of(sorted(rng.sample(range(20), 16)))
    from sumperfect.graphs import induced_subgraph

    assert is_sum_perfect_definitional(induced_subgraph(g, sub))


def test_forbidden_copy_revalidates(small_corpus):
    fam = build_family()
    for g in small_corpus[6][:80] + small_corpus[7][:80]:
        copies = find_forbidden_copies(g, limit=1)
        if copies:
            c = copies[0]
            assert embedding_is_valid(g, fam.member(c.label.index).graph, c.embedding)


def test_every_copy_is_labelled_by_its_family_member(small_corpus):
    fam = build_family()
    found = 0
    for g in [g for order in sorted(small_corpus) for g in small_corpus[order]]:
        for c in find_forbidden_copies(g, limit=None):
            assert c.label is fam.member(c.label.index)
            assert embedding_is_valid(g, c.label.graph, c.embedding)
            found += 1
    assert found


def test_all_witnesses_listing(c5):
    c6 = cycle_graph(6)
    copies = find_forbidden_copies(c6, limit=None)
    # C6 is itself forbidden (one copy) and contains no smaller member.
    assert len(copies) == 1 and copies[0].label.index == 8
    assert find_forbidden_copies(c5, limit=None)[0].label.index == 1
    # A host smaller than every member holds no copy.
    assert find_forbidden_copies(path_graph(4), limit=None) == []


def test_is_threshold_examples():
    assert is_threshold(complete_graph(6))
    assert not is_threshold(path_graph(4))
    assert is_threshold(star_graph(3))
    assert is_threshold(from_edge_list(0, []))


def test_threshold_obstruction_agreement(small_corpus):
    for n in range(0, 7):
        for g in small_corpus[n]:
            assert is_threshold(g) == is_threshold_by_obstructions(g)


def test_is_split_examples(c5):
    assert is_split(complete_graph(3)) == (0b111, 0)
    assert is_split(c5) is None
    assert is_split(cycle_graph(4)) is None
    assert is_split(from_edge_list(0, [])) == (0, 0)


def test_is_split_partitions_validate(small_corpus):
    for n in range(0, 7):
        for g in small_corpus[n]:
            got = is_split(g)
            assert (got is not None) == brute_is_split(g)
            if got is not None:
                clique, stable = got
                assert clique | stable == g.vertex_mask()
                assert clique & stable == 0
                assert validate_pair(g, StableCliquePair(stable, clique))


def test_is_split_random_larger():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = from_edge_list(n, edges)
        got = is_split(g)
        assert (got is not None) == brute_is_split(g)


def test_is_apex_threshold_examples(two_k3):
    assert is_apex_threshold(cycle_graph(4)) is not None
    assert is_apex_threshold(two_k3) is None
    for g in (complete_graph(4), star_graph(3), path_graph(3)):
        assert is_threshold(g)
        assert is_apex_threshold(g) is not None


def test_check_threshold_theorem_examples():
    assert check_threshold_theorem(complete_graph(1))
    assert not check_threshold_theorem(path_graph(4))
    # The bound is the subset scan's.
    assert check_threshold_theorem(from_edge_list(SUBSET_MAX, []))
    with pytest.raises(ValueError, match=f"n <= {SUBSET_MAX}"):
        check_threshold_theorem(from_edge_list(SUBSET_MAX + 1, []))


def test_threshold_theorem_agreement(small_corpus):
    for n in range(0, 7):
        for g in small_corpus[n]:
            assert check_threshold_theorem(g) == is_threshold(g)


def test_recognizer_complement_closure(small_corpus):
    from sumperfect.graphs import complement

    for g in small_corpus[6]:
        assert is_sum_perfect(g)[0] == is_sum_perfect(complement(g))[0]


def test_hereditary_spot_check(small_corpus):
    for g in small_corpus[7][:120]:
        if is_sum_perfect(g)[0]:
            for v in range(g.n):
                assert is_sum_perfect(delete_vertex(g, v))[0]

