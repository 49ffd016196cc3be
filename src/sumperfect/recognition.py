"""Recognizers with independently re-checkable witnesses.

Sum-perfection is decided by searching for any of the 27 forbidden graphs as
an induced subgraph (subsets of one size are scanned once and matched against
all same-size patterns together), so no exponential subgraph sweep is needed.
Threshold, split, and apex-threshold recognition are polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .family import build_family
from .graphs import Graph, delete_vertex, mask_of, vertices_of
from .induced import Embedding, PatternSet
from .invariants import (
    LOVASZ_MAX,
    StableCliquePair,
    has_deficiency_above,
    max_clique,
    max_stable_set,
)


@dataclass(frozen=True)
class ForbiddenCopy:
    """An induced copy of family member `index` inside the examined graph."""

    index: int
    name: str
    embedding: Embedding


@dataclass(frozen=True)
class Witness:
    verdict: bool
    evidence: ForbiddenCopy | StableCliquePair


@lru_cache(maxsize=1)
def _family_patterns() -> PatternSet:
    return PatternSet([(m.index, m.graph) for m in build_family()])


def find_forbidden_copies(g: Graph, limit: int | None = 1) -> list[ForbiddenCopy]:
    """Induced copies of family members, smallest patterns first.

    limit=1 stops at the first copy; limit=None lists every copy.
    """
    fam = build_family()
    out = []
    for hit in _family_patterns().scan(g):
        out.append(ForbiddenCopy(hit.label, fam.member(hit.label).name, hit.embedding))
        if limit is not None and len(out) >= limit:
            break
    return out


def is_sum_perfect(g: Graph) -> tuple[bool, Witness]:
    """Verdict plus witness: a forbidden copy, or a stable set/clique pair
    certifying alpha + omega >= n for the whole graph."""
    copies = find_forbidden_copies(g, limit=1)
    if copies:
        return False, Witness(False, copies[0])
    pair = StableCliquePair(max_stable_set(g), max_clique(g))
    return True, Witness(True, pair)


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
    from .graphs import cycle_graph, from_edge_list, path_graph

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
    if n == 0:
        return 0, 0
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
    for v in order[:m]:
        if (g.adj[v] & clique) != clique ^ (1 << v):
            raise AssertionError("splittance equality without a valid partition")
    for v in order[m:]:
        if g.adj[v] & stable:
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
    having deficit above -1.
    """
    if g.n == 0:
        return True
    if g.n > LOVASZ_MAX:
        raise ValueError(f"subgraph scan supports n <= {LOVASZ_MAX}, got {g.n}")
    return not has_deficiency_above(g, -1)


def witness_vertices(w: Witness) -> dict:
    """JSON-ready view of a witness's vertex content."""
    ev = w.evidence
    if isinstance(ev, ForbiddenCopy):
        return {"kind": "forbidden_copy", "vertices": list(ev.embedding.mapping)}
    return {
        "kind": "stable_clique_pair",
        "stable": list(vertices_of(ev.stable)),
        "clique": list(vertices_of(ev.clique)),
    }
