"""Recognizers with independently re-checkable witnesses.

Sum-perfection is decided by searching for any of the 27 forbidden graphs as
an induced subgraph. The members have 5 to 7 vertices, so the search ranges
over the O(n^7) vertex subsets of those sizes (each size searched once for
all its members together, with pruning that skips subsets no member can
match), not over all 2^n induced subgraphs. The witness of a negative
verdict is the scan's own PatternHit, whose label is the FamilyMember
copied. Threshold, split, and apex-threshold recognition are polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .family import _family_patterns
from .graphs import (
    Graph,
    cycle_graph,
    delete_vertex,
    from_edge_list,
    mask_of,
    path_graph,
)
from .induced import PatternHit, PatternSet
from .invariants import (
    StableCliquePair,
    has_deficiency_above,
    max_clique,
    max_stable_set,
    validate_pair,
)


def find_forbidden_copies(g: Graph, limit: int | None = 1) -> list[PatternHit]:
    """Induced copies of family members, smallest patterns first; each hit's
    label is the FamilyMember it copies.

    limit=1 stops at the first copy; limit=None lists every copy.
    """
    return list(islice(_family_patterns().scan(g), limit))


def is_sum_perfect(g: Graph) -> tuple[bool, PatternHit | StableCliquePair]:
    """(verdict, evidence): a forbidden copy, or a stable set/clique pair
    certifying alpha + omega >= n for the whole graph."""
    copies = find_forbidden_copies(g, limit=1)
    if copies:
        return False, copies[0]
    return True, StableCliquePair(max_stable_set(g), max_clique(g))


def is_threshold(g: Graph) -> bool:
    """True iff repeatedly removing a dominating or isolated vertex empties g."""
    mask = g.vertex_mask()
    adj = g.adj
    while mask:
        rest = mask
        found = 0
        while rest:
            b = rest & -rest
            rest ^= b
            row = adj[b.bit_length() - 1] & mask
            if row == 0 or row == mask ^ b:
                found = b
                break
        if not found:
            return False
        mask ^= found
    return True


@lru_cache(maxsize=1)
def _threshold_obstructions() -> PatternSet:
    two_k2 = from_edge_list(4, [(0, 1), (2, 3)])
    return PatternSet([("P4", path_graph(4)), ("C4", cycle_graph(4)), ("2K2", two_k2)])


def is_threshold_by_obstructions(g: Graph) -> bool:
    """True iff g contains none of P4, C4, 2K2 as an induced subgraph."""
    return not _threshold_obstructions().contains_any(g)


def is_split(g: Graph) -> tuple[int, int] | None:
    """A (clique mask, stable mask) partition, or None.

    Uses the degree-sequence splittance test: with degrees d_1 >= ... >= d_n
    and m = max{i : d_i >= i-1}, the graph is split iff
    sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i, and then the m highest-degree
    vertices form the clique side.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.adj[v].bit_count(), v))
    degs = [g.adj[v].bit_count() for v in order]
    m = 0
    for i in range(n):
        if degs[i] >= i:
            m = i + 1
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    clique = mask_of(order[:m])
    stable = mask_of(order[m:])
    if not validate_pair(g, StableCliquePair(stable, clique)):
        raise AssertionError("splittance equality without a valid partition")
    return clique, stable


def is_apex_threshold(g: Graph) -> int | None:
    """Some vertex whose deletion leaves a threshold graph, or None."""
    for v in range(g.n):
        if is_threshold(delete_vertex(g, v)):
            return v
    return None


def check_threshold_theorem(g: Graph) -> bool:
    """True iff every non-empty induced subgraph has alpha + omega = |V| + 1.

    Deficit is never below -1, so this is equivalent to no induced subgraph
    having deficit above -1; the subset scan refuses n > SUBSET_MAX (20).
    """
    if g.n == 0:
        return True
    return not has_deficiency_above(g, -1)
