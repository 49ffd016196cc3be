from __future__ import annotations

import random
import tracemalloc

import pytest

from oracles import (
    PRODUCT_BOUND,
    SUM_BOUND,
    branching_matching,
    brute_alpha,
    brute_matching,
    brute_max_deficiency,
    brute_omega,
    brute_subset_alpha_omega,
    brute_triangles,
    labeled_graphs,
    loop_subset_dp,
)
from sumperfect.enumeration import descendants
from sumperfect.graphs import (
    Graph,
    bipartition,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    mask_of,
    star_graph,
)
from sumperfect.invariants import (
    SUBSET_MAX,
    InvariantReport,
    StableCliquePair,
    _product_bound,
    _subset_dp,
    _sum_bound,
    clique_number,
    compute_report,
    deficit,
    is_perfect_lovasz,
    is_sum_perfect_definitional,
    matching_number,
    max_clique,
    max_deficiency,
    max_stable_set,
    stability_number,
    triangle_count,
    validate_pair,
    vertex_cover_number,
)


def test_stability_examples(c5, h26):
    assert stability_number(c5) == 2
    assert stability_number(complete_graph(6)) == 1
    assert stability_number(h26) == 3


def test_clique_examples(c5, k33, h26):
    assert clique_number(k33) == 2
    assert clique_number(c5) == 2
    assert clique_number(h26) == 3


def test_vertex_cover_examples(c5, k33):
    assert vertex_cover_number(k33) == 3
    assert vertex_cover_number(Graph(5, (0,) * 5)) == 0
    assert vertex_cover_number(c5) == 3


def test_matching_examples(c5, k33, three_k2):
    assert matching_number(three_k2) == 3
    assert matching_number(k33) == 3
    assert matching_number(c5) == 2


def test_matching_nonbipartite_path():
    # Odd wheels exercise the general (memoized branching) path.
    w5 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                            (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert bipartition(w5) is None
    assert matching_number(w5) == brute_matching(w5) == 3


def test_triangle_examples(h26):
    assert triangle_count(h26) == 4
    assert triangle_count(complete_graph(4)) == 4
    assert triangle_count(cycle_graph(6)) == 0


def test_deficit_examples(c5):
    assert deficit(c5) == 1
    assert deficit(star_graph(3)) == -1  # threshold
    from sumperfect.family import build_family

    assert all(deficit(m.graph) == 1 for m in build_family())


def test_max_deficiency_examples(c5):
    assert max_deficiency(c5) == 1
    assert max_deficiency(star_graph(3)) == -1
    # Value pinned by the brute-force oracle: the union itself has
    # 10 - alpha - omega = 10 - 4 - 2 = 4 (omega does not add across parts).
    two_c5 = disjoint_union(cycle_graph(5), cycle_graph(5))
    assert brute_max_deficiency(two_c5) == 4
    assert max_deficiency(two_c5) == 4


def test_max_deficiency_oracle_small(small_corpus):
    for n in range(0, 6):
        for g in small_corpus[n]:
            assert max_deficiency(g) == brute_max_deficiency(g)


def test_max_deficiency_envelope():
    with pytest.raises(ValueError):
        max_deficiency(Graph(21, (0,) * 21))


def test_sum_perfect_definitional(c5):
    assert not is_sum_perfect_definitional(c5)
    assert is_sum_perfect_definitional(complete_graph(5))
    split = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    assert is_sum_perfect_definitional(split)
    assert is_sum_perfect_definitional(Graph(0, ()))


def test_perfect_lovasz(c5):
    assert not is_perfect_lovasz(c5)
    assert is_perfect_lovasz(cycle_graph(6))
    assert is_perfect_lovasz(Graph(0, ()))
    # The product bound shares the sum bound's envelope.
    assert not is_perfect_lovasz(cycle_graph(17))
    assert is_perfect_lovasz(complete_bipartite(10, 10))
    with pytest.raises(ValueError):
        is_perfect_lovasz(Graph(SUBSET_MAX + 1, (0,) * (SUBSET_MAX + 1)))


def test_validate_pair(c5):
    k3 = complete_graph(3)
    assert validate_pair(k3, StableCliquePair(0b001, 0b111))
    assert validate_pair(c5, StableCliquePair(mask_of([0, 2]), mask_of([0, 1])))
    assert not validate_pair(c5, StableCliquePair(mask_of([0, 1]), mask_of([0, 1])))
    assert not validate_pair(k3, StableCliquePair(0b011, 0b111))  # not stable
    assert not validate_pair(k3, StableCliquePair(0b001, 0b1000))  # out of range


def test_validate_pair_rejects_a_bad_side(c5):
    # Disjoint sides, so only the stability or the clique test can refuse.
    assert not validate_pair(c5, StableCliquePair(mask_of([0, 1]), 0))  # edge 01
    assert not validate_pair(c5, StableCliquePair(mask_of([2]), mask_of([0, 1, 4])))  # no 14
    assert not validate_pair(c5, StableCliquePair(0, mask_of([0, 2])))  # no edge 02
    assert validate_pair(c5, StableCliquePair(mask_of([1, 3]), mask_of([4])))


def _brute_lex_min_stable(g):
    from itertools import combinations

    alpha = brute_alpha(g)
    for sub in combinations(range(g.n), alpha):
        if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
            return mask_of(sub)
    return 0


def test_witnesses_are_lex_min_and_sound(small_corpus):
    for g in small_corpus[0] + small_corpus[5] + small_corpus[6][:60]:
        s = max_stable_set(g)
        m = max_clique(g)
        assert s.bit_count() == stability_number(g)
        assert m.bit_count() == clique_number(g)
        assert validate_pair(g, StableCliquePair(s, 0))
        assert validate_pair(g, StableCliquePair(0, m))
        assert s == _brute_lex_min_stable(g)
        assert m == _brute_lex_min_stable(complement(g))


def test_alpha_omega_vs_oracle(small_corpus):
    for n in range(0, 7):
        for g in small_corpus[n]:
            assert stability_number(g) == brute_alpha(g)
            assert clique_number(g) == brute_omega(g)


def test_matching_triangles_vs_oracle(small_corpus):
    for n in range(0, 6):
        for g in small_corpus[n]:
            assert matching_number(g) == brute_matching(g)
            assert triangle_count(g) == brute_triangles(g)


def test_triangles_vs_oracle_on_random_graphs():
    rng = random.Random(3)
    for n in range(0, 21):
        for p in (0.2, 0.5, 0.8):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = from_edge_list(n, edges)
            assert triangle_count(g) == brute_triangles(g)


def test_matching_matches_branching_oracle(small_corpus):
    for n in range(0, 8):
        for g in small_corpus[n]:
            assert matching_number(g) == branching_matching(g)


def test_gallai_and_duality(small_corpus):
    for n in range(0, 8):
        for g in small_corpus[n]:
            alpha = stability_number(g)
            assert alpha + vertex_cover_number(g) == g.n
            assert alpha == clique_number(complement(g))


def test_konig_on_bipartite(small_corpus):
    for n in range(1, 8):
        for g in small_corpus[n]:
            if bipartition(g) is not None:
                assert matching_number(g) == vertex_cover_number(g)


def test_deletion_monotonicity(small_corpus):
    for g in small_corpus[6]:
        a, w = stability_number(g), clique_number(g)
        for v in range(g.n):
            h = delete_vertex(g, v)
            assert a - 1 <= stability_number(h) <= a
            assert w - 1 <= clique_number(h) <= w


def test_report_fields(c5):
    rep = compute_report(c5)
    assert rep == InvariantReport(n=5, alpha=2, omega=2, tau=3, nu=2, triangles=0, deficit=1)
    assert rep.to_dict() == {
        "n": 5, "alpha": 2, "omega": 2, "tau": 3, "nu": 2, "triangles": 0, "deficit": 1,
    }


def test_threshold_vs_deficiency_equivalence(small_corpus):
    from sumperfect.recognition import is_threshold

    for n in range(1, 8):
        for g in small_corpus[n]:
            assert (max_deficiency(g) == -1) == is_threshold(g)
            assert (max_deficiency(g) <= 0) == is_sum_perfect_definitional(g)


# The DP's lane-wise bounds, each with its per-mask table [alpha][omega].
BOUNDS = ((_sum_bound, SUM_BOUND), (_product_bound, PRODUCT_BOUND))


def _first_hit(values: list[int], stop: int | None) -> tuple[int, int | None]:
    """What _subset_dp must return, read off the values of all masks."""
    if len(values) == 1:
        return 0, None
    if stop is not None:
        for mask in range(1, len(values)):
            if values[mask] > stop:
                return values[mask], mask
    top = max(values[1:])
    return top, (values.index(top, 1) if top > -1 else None)


def test_subset_dp_returns_the_first_mask_in_ascending_order(small_corpus):
    # Mining decides minimality from which mask the DP stops at, so pin it:
    # the smallest mask exceeding stop, else the smallest maximiser.
    graphs = [g for n in range(8) for g in small_corpus[n]]
    graphs += [g for n in range(7) for g in labeled_graphs(n)]
    for g in graphs:
        table = brute_subset_alpha_omega(g)
        for bound, per_mask in BOUNDS:
            values = [k - per_mask[a][w] for k, a, w in table]
            for stop in (None, -1, 0, 1):
                assert _subset_dp(g, bound, stop) == _first_hit(values, stop), (g, stop)


def _labeled_walk(g: Graph, max_n: int):
    """g, then depth-first every labelled one-vertex extension of g (new
    vertex last) down to order max_n: each graph follows its own prefix."""
    yield g
    if g.n < max_n:
        for row in range(1 << g.n):
            adj = tuple(a | ((row >> v) & 1) << g.n for v, a in enumerate(g.adj))
            yield from _labeled_walk(Graph(g.n + 1, adj + (row,)), max_n)


def test_resumed_subset_dp_equals_a_fresh_one():
    # Mining hands _subset_dp the tables of the previous scan of each order;
    # a graph whose first n - 1 vertices induce that order's last graph
    # resumes from it. In both walks every graph of order >= 2 does.
    walks = [list(descendants(Graph(0, ()), 7)), list(_labeled_walk(Graph(1, (0,)), 5))]
    for graphs in walks:
        last: dict[int, Graph] = {}
        for g in graphs:
            if g.n >= 2:
                assert induced_subgraph(g, range(g.n - 1)) == last[g.n - 1]
            last[g.n] = g
    assert len(walks[1]) == sum(1 << (n * (n - 1) // 2) for n in range(1, 6))
    for graphs in walks:
        for bound, _ in BOUNDS:
            for stop in (None, -1, 0, 1):
                tables: dict = {}
                for g in graphs:
                    fresh = _subset_dp(g, bound, stop)
                    assert _subset_dp(g, bound, stop, tables) == fresh, (g, stop)


def _lane_limit_graphs() -> list[Graph]:
    """SUBSET_MAX-vertex graphs at the lanes' largest values (omega = 20,
    alpha = 20, alpha * omega = 110 with alpha + omega = 21), their
    complements, and seeded G(n, 1/2) for n = 17..20."""
    n = SUBSET_MAX
    rng = random.Random(31)
    graphs = [complete_graph(n)]
    for k in (11, 10):  # a clique of k beside n - k isolated vertices
        graphs.append(disjoint_union(complete_graph(k), complement(complete_graph(n - k))))
    graphs += [complement(g) for g in graphs]
    graphs += [from_edge_list(m, [(u, v) for v in range(m) for u in range(v)
                                  if rng.random() < 0.5]) for m in range(17, n + 1)]
    return graphs


def test_subset_dp_equals_the_per_mask_loop_at_the_lane_limits():
    graphs = _lane_limit_graphs()
    assert sorted(g.n for g in graphs) == [17, 18, 19] + [SUBSET_MAX] * 7
    products = [stability_number(g) * clique_number(g) for g in graphs[1:3] + graphs[4:6]]
    assert products == [110] * 4
    for g in graphs:
        prefix = induced_subgraph(g, range(g.n - 1))
        for bound, per_mask in BOUNDS:
            full = loop_subset_dp(g, per_mask, None)
            for stop in (None, -1, 0, 1, 5):
                # A stop no mask exceeds leaves the loop as it runs with None.
                want = full if stop is None or full[0] <= stop else loop_subset_dp(g, per_mask, stop)
                assert _subset_dp(g, bound, stop) == want, (g, stop)
                tables: dict = {}
                _subset_dp(prefix, bound, stop, tables)
                assert _subset_dp(g, bound, stop, tables) == want, (g, stop)


def test_a_twenty_vertex_scan_stays_small():
    # The table is two ints of 2^20 byte lanes, plus a few 2^19-lane
    # temporaries: about 7 MB at the peak, against 24 MB for lists of ints.
    rng = random.Random(7)
    edges = [(u, v) for v in range(10) for u in range(v)]
    edges += [(u, v) for v in range(10, SUBSET_MAX) for u in range(10) if rng.random() < 0.5]
    host = from_edge_list(SUBSET_MAX, edges)
    tracemalloc.start()
    try:
        assert max_deficiency(host) == 0  # a split graph is sum-perfect
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak
