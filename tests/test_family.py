from __future__ import annotations

import random

import sumperfect.family as family
from sumperfect.canon import canonical_key, is_isomorphic
from sumperfect.enumeration import graphs_of_order
from sumperfect.family import (
    DISCONNECTED_INDICES,
    FamilyMember,
    ForbiddenFamily,
    build_conjecture_family,
    build_family,
    enumerate_bipartite_pm6,
    has_b_copy,
    verify_family,
)
from sumperfect.graphs import (
    bipartition,
    complement,
    cycle_graph,
    disjoint_union,
    from_edge_list,
    is_connected,
)
from sumperfect.induced import PatternSet
from sumperfect.invariants import (
    clique_number,
    matching_number,
    stability_number,
    triangle_count,
)


def test_member_1_is_c5(c5):
    assert is_isomorphic(build_family().member(1).graph, c5)


def test_member_13_is_k33(k33):
    m = build_family().member(13)
    assert m.graph.edge_count() == 9
    assert is_isomorphic(m.graph, k33)


def test_member_26_edge_set(h26):
    assert build_family().member(26).graph == h26


def test_family_shape():
    fam = build_family()
    assert len(fam) == 27
    assert len(fam.keys()) == 27
    assert [m.index for m in fam] == list(range(1, 28))
    assert fam.member(1).name == "C5"
    assert fam.member(2).name == "3K2"
    assert fam.member(7).name == "H7"
    assert fam.member(13).name == "K3,3"


def test_complement_structure():
    fam = build_family()
    for i in range(14, 26):
        assert fam.member(i).key == canonical_key(complement(fam.member(i - 12).graph))
    assert fam.member(27).key == canonical_key(complement(fam.member(26).graph))


def test_bipartite_layer_properties():
    fam = build_family()
    for i in range(2, 14):
        g = fam.member(i).graph
        assert g.n == 6
        assert bipartition(g) is not None
        assert matching_number(g) == 3
        assert triangle_count(g) == 0
    for i in range(14, 26):
        assert stability_number(fam.member(i).graph) == 2


def test_conjecture_family():
    b = build_conjecture_family()
    assert len(b) == 24
    keys = {m.key for m in b}
    fam = build_family()
    assert fam.member(1).key not in keys
    assert fam.member(26).key not in keys
    assert fam.member(27).key not in keys
    assert canonical_key(cycle_graph(5)) not in keys


def test_enumerate_bipartite_pm6():
    got = enumerate_bipartite_pm6()
    assert len(got) == 12
    fam = build_family()
    assert {canonical_key(g) for g in got} == {fam.member(i).key for i in range(2, 14)}
    for g in got:
        assert bipartition(g) is not None
        assert matching_number(g) == 3
        assert clique_number(g) == 2


def test_has_b_copy_agrees_with_the_pattern_index():
    # PatternSet over members 2..25 is the reference: every graph with
    # n <= 8, then seeded G(n, p) graphs with n = 9..16 (both verdicts occur).
    reference = PatternSet([(m.index, m.graph) for m in build_conjecture_family()])
    rng = random.Random(26)
    hosts = [g for n in range(1, 9) for g in graphs_of_order(n)]
    for _ in range(600):
        n, p = rng.randint(9, 16), rng.random()
        hosts.append(from_edge_list(
            n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        ))
    assert [g for g in hosts if has_b_copy(g) != reference.contains_any(g)] == []


def test_matched_triples_finds_each_half_of_b_on_its_own_side():
    # Members 2..13 are found in the graph, 14..25 only in its complement, so
    # a check that drops either half misses twelve members.
    fam = build_family()
    for i in range(2, 26):
        g = fam.member(i).graph
        assert family._matched_triples(g.adj) == (i <= 13)
        assert family._matched_triples(complement(g).adj) == (i >= 14)


def test_disconnected_members(three_k2, two_k3):
    fam = build_family()
    disconnected = {m.index for m in fam if not is_connected(m.graph)}
    assert disconnected == set(DISCONNECTED_INDICES)
    assert is_isomorphic(fam.member(2).graph, three_k2)
    assert is_isomorphic(fam.member(25).graph, two_k3)


def test_verify_family_passes():
    report = verify_family()
    assert report.passed
    assert len(report.member_checks) == 27
    assert all(c.passed for c in report.member_checks)
    assert report.pairwise_distinct
    assert report.complement_closed
    assert report.minimal_as_set
    assert report.disconnected_match


def test_verify_family_detects_a_non_minimal_member(monkeypatch, c5):
    # C5 plus two isolated vertices holds member 1, so the set is not minimal.
    fam = build_family()
    g = disjoint_union(c5, from_edge_list(2, []))
    fake = FamilyMember(26, "C5+2K1", g, canonical_key(g))
    members = fam.members[:25] + (fake,) + fam.members[26:]
    monkeypatch.setattr(family, "build_family", lambda: ForbiddenFamily(members))
    assert not verify_family().minimal_as_set


def test_verify_family_reports_an_isomorphic_twin(monkeypatch):
    # Member 27 replaced by a copy of member 26: the members are not pairwise
    # distinct, which the report says instead of raising.
    fam = build_family()
    m26 = fam.member(26)
    twin = FamilyMember(27, "twin of 26", m26.graph, m26.key)
    members = fam.members[:26] + (twin,)
    monkeypatch.setattr(family, "build_family", lambda: ForbiddenFamily(members))
    report = verify_family()
    assert not report.pairwise_distinct
    assert not report.minimal_as_set
    assert not report.passed


def test_h26_deletion_invariance(h26):
    from sumperfect.graphs import delete_vertex

    a, w = stability_number(h26), clique_number(h26)
    assert (a, w) == (3, 3)
    for v in range(7):
        h = delete_vertex(h26, v)
        assert stability_number(h) == 3 and clique_number(h) == 3
