"""Induced-subgraph search: embeddings of a pattern into a host graph.

Subsets of host vertices are scanned in lexicographic order with cheap
isomorphism-invariant fingerprints filtering before an exact canonical-key
comparison, so the common miss path never canonicalizes. PatternSet indexes a
whole obstruction family so one subset scan tests all same-size patterns at
once via a key lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .canon import canonical_labeling
from .graphs import Graph, induced_subgraph
from .invariants import triangle_count


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern -> host; mapping[p] is the host image of p."""

    mapping: tuple[int, ...]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))


def fingerprint(g: Graph) -> tuple:
    """Cheap isomorphism invariant: (n, edges, degree sequence, triangles)."""
    return (g.n, g.edge_count(), g.degree_sequence(), triangle_count(g))


def embedding_is_valid(host: Graph, pattern: Graph, emb: Embedding) -> bool:
    """Check that emb maps pattern onto an induced copy (edges and non-edges)."""
    m = emb.mapping
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in m):
        return False
    for p in range(pattern.n):
        for q in range(p + 1, pattern.n):
            if pattern.has_edge(p, q) != host.has_edge(m[p], m[q]):
                return False
    return True


def _embedding_from_orders(
    subset: tuple[int, ...],
    sub_order: tuple[int, ...],
    pat_order: tuple[int, ...],
) -> Embedding:
    # Both orders map canonical position -> vertex; composing them aligns the
    # pattern with the induced copy position by position.
    mapping = [0] * len(subset)
    for pos, p in enumerate(pat_order):
        mapping[p] = subset[sub_order[pos]]
    return Embedding(tuple(mapping))


@dataclass(frozen=True)
class PatternHit:
    label: object
    pattern: Graph
    subset: tuple[int, ...]
    embedding: Embedding


class PatternSet:
    """An indexed set of forbidden patterns searched smallest-size first."""

    def __init__(self, patterns: list[tuple[object, Graph]]):
        self._by_size: dict[int, tuple[set, dict]] = {}
        for label, g in patterns:
            fps, keys = self._by_size.setdefault(g.n, (set(), {}))
            fps.add(fingerprint(g))
            order, key = canonical_labeling(g)
            if key in keys:
                raise ValueError(f"duplicate pattern {label!r} (isomorphic twin)")
            keys[key] = (label, g, order)
        self.sizes = tuple(sorted(self._by_size))

    def scan(self, host: Graph) -> Iterator[PatternHit]:
        """All pattern copies in host: sizes ascending, subsets lexicographic."""
        for k in self.sizes:
            if k > host.n:
                break
            fps, keys = self._by_size[k]
            for subset in combinations(range(host.n), k):
                sub = induced_subgraph(host, subset)
                if fingerprint(sub) not in fps:
                    continue
                sub_order, sub_key = canonical_labeling(sub)
                hit = keys.get(sub_key)
                if hit is None:
                    continue
                label, pat, pat_order = hit
                yield PatternHit(
                    label, pat, subset, _embedding_from_orders(subset, sub_order, pat_order)
                )

    def find_first(self, host: Graph) -> PatternHit | None:
        return next(self.scan(host), None)

    def contains_any(self, host: Graph) -> bool:
        return self.find_first(host) is not None


def contains_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """First embedding of pattern into host in lexicographic subset order."""
    hit = PatternSet([(None, pattern)]).find_first(host)
    return hit.embedding if hit is not None else None
