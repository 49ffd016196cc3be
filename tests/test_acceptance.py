"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavy sweeps (criteria 1, 2, 4, 5) share the enumeration cache and
use two workers where parallelism is deterministic.
"""

from __future__ import annotations

import os
import random

from oracles import brute_vertex_cover
from sumperfect.canon import canonical_key
from sumperfect.enumeration import graphs_of_order
from sumperfect.family import build_family, enumerate_bipartite_pm6, verify_family
from sumperfect.graphs import (
    bipartition,
    complement,
    delete_vertex,
    from_edge_list,
)
from sumperfect.invariants import (
    StableCliquePair,
    clique_number,
    is_perfect_lovasz,
    is_sum_perfect_definitional,
    matching_number,
    max_clique,
    max_stable_set,
    stability_number,
    triangle_count,
    validate_pair,
    vertex_cover_number,
)
from sumperfect.mining import (
    count_hc_forbidden,
    mine_forbidden,
    verify_conjecture,
    verify_theorem_27,
    verify_threshold_equivalence,
)
from sumperfect.recognition import (
    check_threshold_theorem,
    is_apex_threshold,
    is_split,
    is_sum_perfect,
    is_threshold,
    is_threshold_by_obstructions,
)

JOBS = min(2, os.cpu_count() or 1)

# Non-isomorphic graph counts for n = 1..8; the n <= 6 values are re-derived
# from labeled brute force in test_enumeration, the rest are the published
# sequence values.
EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_acceptance_1_theorem1_equivalence():
    """Definitional and obstruction-based verdicts agree on every graph n <= 8."""
    disagreements = 0
    total = 0
    for n in range(1, 9):
        level = graphs_of_order(n)
        assert len(level) == EXPECTED_COUNTS[n]
        for g in level:
            total += 1
            if is_sum_perfect_definitional(g) != is_sum_perfect(g)[0]:
                disagreements += 1
    assert total == sum(EXPECTED_COUNTS.values()) == 13598
    assert disagreements == 0
    print(f"ACCEPTANCE 1: PASS - {total} graphs, 0 disagreements")


def test_acceptance_2_exact_family_recovery():
    """Mining recovers exactly the 27 obstructions; none exist at order 8."""
    res = mine_forbidden("sum-perfect", 7, jobs=JOBS)
    fam = build_family()
    assert {k for k, _ in res.certificates} == set(fam.keys())
    assert res.total == 27
    assert res.counts_by_order == {5: 1, 6: 24, 7: 2}
    rep = verify_theorem_27(8, jobs=JOBS)
    assert rep.passed
    assert rep.mine.counts_by_order.get(8, 0) == 0
    print("ACCEPTANCE 2: PASS - 27 certificates, counts {5:1, 6:24, 7:2}, none at n=8")


def test_acceptance_3_bipartite_family_count():
    """Exactly 12 bipartite 6-vertex graphs with a perfect matching."""
    got = enumerate_bipartite_pm6()
    keys = {canonical_key(g) for g in got}
    assert len(got) == len(keys) == 12
    fam = build_family()
    assert keys == {fam.member(i).key for i in range(2, 14)}
    print("ACCEPTANCE 3: PASS - 12 graphs, matching members 2..13")


def test_acceptance_4_conjecture_to_9():
    """No obstruction-free graph with deficit above 1 exists up to n = 9."""
    rep = verify_conjecture(9, jobs=JOBS)
    assert rep.visited_by_order[9] == 274668
    assert rep.passed
    print(
        "ACCEPTANCE 4: PASS - "
        f"{sum(rep.visited_by_order.values())} graphs, 0 counterexamples"
    )


def test_acceptance_5_deficiency_one_count():
    """The deficiency-1 class has >1000 minimal obstructions within n <= 8."""
    # Reading A: the subtraction definition, class parameter c = 1.
    count_sub = count_hc_forbidden(1, 8, jobs=JOBS)
    # Reading B: "class 1" naming the sum-perfect class itself.
    count_alt = mine_forbidden("sum-perfect", 8, jobs=JOBS).total
    assert count_alt == 27
    assert count_sub == 1795  # regression baseline, first computed 2026-08
    assert max(count_sub, count_alt) > 1000
    print(f"ACCEPTANCE 5: PASS - {count_sub} obstructions (alt reading: {count_alt})")


def test_acceptance_6_threshold_theorem():
    """Elimination, obstruction, and deficit characterizations agree, n <= 7."""
    rep = verify_threshold_equivalence(7)
    assert rep.passed
    # The sweep visits orders 1..7; the empty graph is checked here.
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    for g in (from_edge_list(0, []), from_edge_list(1, []), p4):
        assert (
            is_threshold(g)
            == is_threshold_by_obstructions(g)
            == check_threshold_theorem(g)
        )
    print(f"ACCEPTANCE 6: PASS - {rep.checked} graphs, three-way agreement")


def test_acceptance_7_family_validity():
    """Deficit 1, deletion behaviour, bounds, closure, disconnected members."""
    rep = verify_family()
    assert rep.passed
    for checks in rep.member_checks:
        assert checks.deficit_is_one
        assert checks.deletions_sum_perfect
        assert checks.alpha_omega_deletion_invariant
        assert checks.max_alpha_omega_le_3
    assert rep.complement_closed
    assert rep.minimal_as_set
    assert rep.disconnected_match
    print("ACCEPTANCE 7: PASS - all 27 members pass every structural check")


def test_acceptance_8_invariant_properties(h26):
    """Gallai, duality, Koenig, deficit bound, deletion steps, witnesses."""
    checked = 0
    for n in range(1, 8):
        for g in graphs_of_order(n):
            checked += 1
            alpha = stability_number(g)
            omega = clique_number(g)
            assert alpha + vertex_cover_number(g) == g.n
            assert vertex_cover_number(g) == brute_vertex_cover(g)
            assert alpha == clique_number(complement(g))
            assert g.n - alpha - omega >= -1
            if bipartition(g) is not None:
                assert matching_number(g) == vertex_cover_number(g)

    rng = random.Random(20260810)
    for _ in range(10000):
        n = rng.randint(1, 10)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = from_edge_list(n, edges)
        checked += 1
        alpha = stability_number(g)
        omega = clique_number(g)
        assert alpha + vertex_cover_number(g) == g.n
        assert alpha == clique_number(complement(g))
        assert g.n - alpha - omega >= -1
        if bipartition(g) is not None:
            assert matching_number(g) == vertex_cover_number(g)
        pair = StableCliquePair(max_stable_set(g), max_clique(g))
        assert validate_pair(g, pair)
        assert pair.stable.bit_count() == alpha
        assert pair.clique.bit_count() == omega
        v = rng.randrange(n)
        h = delete_vertex(g, v)
        assert alpha - 1 <= stability_number(h) <= alpha
        assert omega - 1 <= clique_number(h) <= omega

    assert triangle_count(h26) == 4
    assert stability_number(h26) == 3 and clique_number(h26) == 3
    print(f"ACCEPTANCE 8: PASS - {checked} graphs checked")


def test_acceptance_9_containments():
    """split and apex-threshold imply sum-perfect; sum-perfect implies perfect."""
    split_n = apex_n = sp_n = 0
    for n in range(1, 8):
        for g in graphs_of_order(n):
            sp = is_sum_perfect_definitional(g)
            if is_split(g) is not None:
                split_n += 1
                assert sp
            if is_apex_threshold(g) is not None:
                apex_n += 1
                assert sp
            if sp:
                sp_n += 1
                assert is_perfect_lovasz(g)
    print(
        "ACCEPTANCE 9: PASS - "
        f"{split_n} split, {apex_n} apex-threshold, {sp_n} sum-perfect graphs contained"
    )
