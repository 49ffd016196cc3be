from __future__ import annotations

import random

import pytest
from oracles import brute_contains_induced, brute_scan
from sumperfect.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    from_edge_list,
    induced_subgraph,
    mask_of,
    path_graph,
    star_graph,
)
from sumperfect.induced import Embedding, PatternSet, contains_induced, embedding_is_valid


def test_c5_contains_p4(c5):
    emb = contains_induced(c5, path_graph(4))
    assert emb is not None
    assert embedding_is_valid(c5, path_graph(4), emb)


@pytest.mark.parametrize("mapping", [
    (0, 1),        # wrong length
    (0, 1, 1),     # repeated vertex
    (0, 1, 5),     # out of range
    (-1, 0, 1),    # negative
    (0, 1, 3),     # pattern edge 12 lands on the non-edge 13 of C5
])
def test_embedding_is_valid_rejects_a_bad_map(c5, mapping):
    assert not embedding_is_valid(c5, path_graph(3), Embedding(mapping))


def test_c6_contains_no_3k2(three_k2):
    assert contains_induced(cycle_graph(6), three_k2) is None


def test_h26_contains_triangle(h26):
    emb = contains_induced(h26, complete_graph(3))
    assert emb is not None
    assert embedding_is_valid(h26, complete_graph(3), emb)


def test_pattern_larger_than_host(c5):
    assert contains_induced(c5, cycle_graph(6)) is None


def test_empty_pattern(c5):
    emb = contains_induced(c5, from_edge_list(0, []))
    assert emb is not None and emb.mapping == ()


def test_first_embedding_is_lexicographic(c5):
    # {0,1,2,3} is the first 4-subset of C5 and already induces a path.
    emb = contains_induced(c5, path_graph(4))
    assert emb.image() == (0, 1, 2, 3)


def test_oracle_equality_small(small_corpus):
    patterns = [g for k in range(1, 5) for g in small_corpus[k]]
    hosts = [g for k in range(1, 7) for g in small_corpus[k]]
    for host in hosts:
        for pat in patterns:
            if pat.n > host.n:
                continue
            emb = contains_induced(host, pat)
            expected = brute_contains_induced(host, pat)
            assert (emb is not None) == expected
            if emb is not None:
                assert embedding_is_valid(host, pat, emb)


def test_embedding_image_induces_pattern(small_corpus):
    pat = cycle_graph(4)
    for host in small_corpus[6]:
        emb = contains_induced(host, pat)
        if emb is None:
            continue
        from sumperfect.canon import is_isomorphic

        assert is_isomorphic(induced_subgraph(host, mask_of(emb.image())), pat)


def test_pattern_set_scans_sizes_ascending(c5):
    patterns = {"p3": path_graph(3), "p4": path_graph(4)}
    hits = list(PatternSet(list(patterns.items())).scan(c5))
    assert hits[0].label == "p3"
    for h in hits:
        assert embedding_is_valid(c5, patterns[h.label], h.embedding)


def test_pattern_set_rejects_isomorphic_duplicates():
    with pytest.raises(ValueError):
        PatternSet([("a", path_graph(3)), ("b", from_edge_list(3, [(0, 2), (2, 1)]))])


def _random_graph(rng, n, p):
    return from_edge_list(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def _pattern_sets():
    from sumperfect.family import build_conjecture_family, build_family

    empty, k1, four_k1 = from_edge_list(0, []), from_edge_list(1, []), from_edge_list(4, [])
    k4, c5 = complete_graph(4), cycle_graph(5)
    fam = build_family()
    return {
        "family": [(m.index, m.graph) for m in fam],
        "threshold": [("P4", path_graph(4)), ("C4", cycle_graph(4)),
                      ("2K2", from_edge_list(4, [(0, 1), (2, 3)]))],
        "B": [(m.index, m.graph) for m in build_conjecture_family()],
        "K4": [("K4", k4)],
        "4K1": [("4K1", four_k1)],
        "K1": [("K1", k1)],
        "empty": [("K0", empty)],
        # Sizes whose clique and stability bounds differ, so a
        # search that prunes one size by another's bounds loses hits.
        "mixed": [("K0", empty), ("K1", k1), ("K4", k4), ("C5", c5)],
        "mixed-co": [("4K1", four_k1), ("C5", c5), ("K3,3", complete_bipartite(3, 3))],
        # Sets whose edge range is narrower than their clique and stability
        # bounds allow.
        "H26": [(26, fam.member(26).graph)],
        "H26-H27": [(i, fam.member(i).graph) for i in (26, 27)],
        "P5": [("P5", path_graph(5))],
        "K1,4": [("K1,4", star_graph(4))],
    }


def _assert_listing_matches(ps, patterns, host):
    hits = list(ps.scan(host))
    assert [(h.label, h.embedding.image()) for h in hits] == brute_scan(host, patterns)
    by_label = dict(patterns)
    for h in hits:
        assert embedding_is_valid(host, by_label[h.label], h.embedding)


@pytest.mark.parametrize("name", sorted(_pattern_sets()))
def test_scan_listing_matches_brute_force(name):
    patterns = _pattern_sets()[name]
    ps = PatternSet(patterns)
    rng = random.Random(name)
    for _ in range(25):
        n = rng.randint(0, 10)
        _assert_listing_matches(ps, patterns, _random_graph(rng, n, rng.random()))


def _planted_host(rng, pattern, n):
    """A random graph on n vertices whose vertices at a random pattern.n-subset
    induce pattern."""
    pos = {v: i for i, v in enumerate(sorted(rng.sample(range(n), pattern.n)))}
    return from_edge_list(n, [
        (u, v) for v in range(n) for u in range(v)
        if (pattern.has_edge(pos[u], pos[v]) if u in pos and v in pos else rng.random() < 0.5)
    ])


@pytest.mark.parametrize("name", sorted(_pattern_sets()))
def test_scan_listing_matches_brute_force_on_planted_hosts(name):
    # Random hosts rarely hold a large pattern (the 25 above hold no H26), so
    # each pattern is planted in hosts of up to three more vertices.
    patterns = _pattern_sets()[name]
    ps = PatternSet(patterns)
    rng = random.Random(name)
    for _, pattern in patterns:
        for _ in range(3):
            host = _planted_host(rng, pattern, pattern.n + rng.randint(0, 3))
            _assert_listing_matches(ps, patterns, host)


def test_full_scan_of_split_host_builds_few_graphs(monkeypatch):
    # A split graph is sum-perfect, so the scan finds nothing; the search
    # should rule out nearly every subset before building a Graph for it.
    from sumperfect import induced
    from sumperfect.family import _family_patterns

    rng = random.Random(20)
    n = 20
    edges = [(u, v) for v in range(10) for u in range(v)]
    edges += [(u, v) for u in range(10) for v in range(10, n) if rng.random() < 0.5]
    perm = list(range(n))
    rng.shuffle(perm)
    host = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
    built = []
    real = induced.induced_subgraph

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(induced, "induced_subgraph", counting)
    assert list(_family_patterns().scan(host)) == []
    assert len(built) < 100
