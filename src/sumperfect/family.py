"""The 27-graph obstruction family for sum-perfect graphs.

Members 1..13 and 26 are fixed edge lists (member 1 on 5 vertices, members
2..13 the bipartite 6-vertex graphs with a perfect matching, member 26 on 7
vertices); members 14..25 are the complements of 2..13 and member 27 is the
complement of 26. enumerate_bipartite_pm6 regenerates the 6-vertex layer by
has_b_copy's structural test, apart from the edge lists, so a transcription
slip and a generation slip would have to coincide to go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .canon import canonical_key
from .enumeration import graphs_of_order
from .graphs import (
    Graph,
    complement,
    delete_vertex,
    from_edge_list,
    is_connected,
    vertices_of,
)
from .induced import PatternSet
from .invariants import (
    clique_number,
    is_sum_perfect_definitional,
    stability_number,
)

# Vertex labels as printed: 5-cycle 0..4; bipartite members on parts
# {0,1,2} / {3,4,5}; member 26 on 0..6.
_BASE_EDGES: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {
    1: (5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))),
    2: (6, ((0, 3), (1, 4), (2, 5))),
    3: (6, ((0, 3), (0, 5), (1, 4), (2, 5))),
    4: (6, ((0, 3), (0, 5), (1, 4), (1, 5), (2, 5))),
    5: (6, ((0, 3), (1, 4), (1, 5), (2, 4), (2, 5))),
    6: (6, ((0, 3), (0, 5), (1, 4), (1, 5), (2, 4))),
    7: (6, ((0, 3), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5))),
    8: (6, ((0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5))),
    9: (6, ((0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5))),
    10: (6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4), (2, 5))),
    11: (6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 5))),
    12: (6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5))),
    13: (6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))),
    26: (7, ((0, 3), (0, 5), (0, 6), (1, 4), (1, 5), (2, 4), (2, 6), (4, 5), (4, 6), (5, 6))),
}

_ALIASES = {
    1: "C5",
    2: "3K2",
    3: "P4+K2",
    4: "S_{1,2,2}",
    5: "C4+K2",
    6: "P6",
    8: "C6",
    12: "K3,3-e",
    13: "K3,3",
}

# Indices of the disconnected members: 3K2, P4+K2, C4+K2, and the complement
# of K3,3 (= 2K3).
DISCONNECTED_INDICES = frozenset({2, 3, 5, 25})


@dataclass(frozen=True)
class FamilyMember:
    index: int
    name: str
    graph: Graph
    key: bytes


@dataclass(frozen=True)
class ForbiddenFamily:
    members: tuple[FamilyMember, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def member(self, index: int) -> FamilyMember:
        return self.members[index - 1]

    def keys(self) -> frozenset[bytes]:
        return frozenset(m.key for m in self.members)


def _member(index: int) -> Graph:
    if index in _BASE_EDGES:
        n, edges = _BASE_EDGES[index]
        return from_edge_list(n, edges)
    if 14 <= index <= 25:
        return complement(_member(index - 12))
    return complement(_member(26))  # member 27


@lru_cache(maxsize=1)
def build_family() -> ForbiddenFamily:
    """All 27 forbidden graphs, indexed 1..27."""
    members = []
    for i in range(1, 28):
        g = _member(i)
        members.append(FamilyMember(i, _ALIASES.get(i, f"H{i}"), g, canonical_key(g)))
    return ForbiddenFamily(tuple(members))


@lru_cache(maxsize=1)
def _family_patterns() -> PatternSet:
    return PatternSet([(m, m.graph) for m in build_family()])


def build_conjecture_family() -> tuple[FamilyMember, ...]:
    """Members 2..25: the family minus the 5-cycle and the two 7-vertex graphs."""
    return build_family().members[1:25]


def _matched_triples(adj: tuple[int, ...]) -> bool:
    """True iff rows adj hold stable triples {s1, s2, s3} and {t1, t2, t3} with
    each s_i ~ t_i, i.e. an induced bipartite 6-vertex graph with a perfect
    matching: s3 is off N[s1] | N[s2] (the set A), t3 a neighbour of A off
    N[t1] | N[t2], and the six are then distinct. O(n^2 d^2) mask steps."""
    n = len(adj)
    for s1 in range(n):
        for s2 in range(s1 + 1, n):
            if adj[s1] >> s2 & 1:
                continue
            reach = 0  # the neighbours of A
            for a in vertices_of((1 << n) - 1 & ~(adj[s1] | adj[s2] | 1 << s1 | 1 << s2)):
                reach |= adj[a]
            for t1 in vertices_of(adj[s1]):
                near = adj[t1] | 1 << t1
                for t2 in vertices_of(adj[s2] & ~near):
                    if reach & ~(near | adj[t2] | 1 << t2):
                        return True
    return False


def has_b_copy(g: Graph) -> bool:
    """True iff g holds an induced copy of a member 2..25: matched triples in g
    (members 2..13) or in its complement (members 14..25)."""
    return _matched_triples(g.adj) or _matched_triples(complement(g).adj)


def enumerate_bipartite_pm6() -> list[Graph]:
    """All bipartite 6-vertex graphs with a perfect matching, up to isomorphism:
    the level-6 graphs with matched triples, in level order and labelling."""
    return [g for g in graphs_of_order(6) if _matched_triples(g.adj)]


@dataclass(frozen=True)
class MemberChecks:
    index: int
    name: str
    deficit_is_one: bool
    deletions_sum_perfect: bool
    alpha_omega_deletion_invariant: bool
    max_alpha_omega_le_3: bool

    @property
    def passed(self) -> bool:
        return (
            self.deficit_is_one
            and self.deletions_sum_perfect
            and self.alpha_omega_deletion_invariant
            and self.max_alpha_omega_le_3
        )


@dataclass(frozen=True)
class FamilyReport:
    member_checks: tuple[MemberChecks, ...]
    pairwise_distinct: bool
    complement_closed: bool
    minimal_as_set: bool
    disconnected_match: bool

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for c in self.member_checks)
            and self.pairwise_distinct
            and self.complement_closed
            and self.minimal_as_set
            and self.disconnected_match
        )


def verify_family() -> FamilyReport:
    """Re-derive every structural claim the family is supposed to satisfy."""
    fam = build_family()
    checks = []
    for m in fam:
        g = m.graph
        a, w = stability_number(g), clique_number(g)
        deletions = [delete_vertex(g, v) for v in range(g.n)]
        checks.append(
            MemberChecks(
                index=m.index,
                name=m.name,
                deficit_is_one=g.n - a - w == 1,
                deletions_sum_perfect=all(map(is_sum_perfect_definitional, deletions)),
                alpha_omega_deletion_invariant=all(
                    stability_number(h) == a and clique_number(h) == w for h in deletions
                ),
                max_alpha_omega_le_3=max(a, w) <= 3,
            )
        )

    keys = [m.key for m in fam]
    distinct = len(set(keys)) == len(fam)
    closed = {canonical_key(complement(m.graph)) for m in fam} == set(keys)
    disconnected = {
        m.index for m in fam if not is_connected(m.graph)
    } == set(DISCONNECTED_INDICES)

    # A same-order copy of a member is the member itself, and larger members
    # cannot embed, so minimal iff each member holds only its own copy. An
    # isomorphic twin holds its twin's copy, and the index refuses twins.
    minimal = distinct and all(
        [h.label.index for h in _family_patterns().scan(m.graph)] == [m.index] for m in fam
    )

    return FamilyReport(
        member_checks=tuple(checks),
        pairwise_distinct=distinct,
        complement_closed=closed,
        minimal_as_set=minimal,
        disconnected_match=disconnected,
    )
