"""Induced-subgraph search: embeddings of a pattern into a host graph.

PatternSet indexes a set of patterns by size and searches, size by size in
ascending order, the host's vertex subsets of that size depth-first in
lexicographic order. A prefix of a subset is kept as bitmask state (its
vertex mask and the vertices still allowed to extend it), and no Graph is
built while the search runs.

From the patterns of each size the index derives two bounds: the largest
clique number and the largest stability number. Induced cliques and stable
sets only grow as vertices are added, so a vertex that would close a clique
or stable set above those bounds is never added. For the sum-perfect family
this rules out every subset holding a K4 or a stable 4-set, and at size 5
(C5 alone) every triangle and stable triple.

A full subset that survives is filtered by its shape (edge count, sorted
degrees, triangle count), computed from masks by invariants._shape, the
helper that indexes the patterns and also gives triangle_count. Only a
subset whose shape matches some pattern is built as a Graph and canonically
labelled, and its key is looked up among the pattern keys. The pruning only
skips subsets that no pattern can match, so hits come out in exactly the
order of a plain lexicographic scan. A hit is only the caller's label for
the pattern and an embedding, whose image is the copy's vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .canon import canonical_labeling
from .graphs import Graph, complement, induced_subgraph, vertices_of
from .invariants import _shape, clique_number, stability_number


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern -> host; mapping[p] is the host image of p."""

    mapping: tuple[int, ...]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))


def _closers(adj: tuple[int, ...], s: int, t: int, common: int) -> int:
    """The vertices of common adjacent to every member of some t-clique in s."""
    if t == 0:
        return common
    out = 0
    while s:
        b = s & -s
        s ^= b
        row = adj[b.bit_length() - 1]
        if t == 1:
            out |= common & row
        elif common & row:
            out |= _closers(adj, s & row, t - 1, common & row)
    return out


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
    """A copy of the pattern labelled `label`, on the vertices embedding.image()."""

    label: object
    embedding: Embedding


class _Size:
    """The patterns of one order: their shapes and canonical keys, and the
    bounds the search prunes by (largest clique and stability numbers)."""

    def __init__(self, patterns: list[tuple[object, Graph]]):
        self.shapes = {_shape(g.adj, g.vertex_mask()) for _, g in patterns}
        self.omega = max(clique_number(g) for _, g in patterns)
        self.alpha = max(stability_number(g) for _, g in patterns)
        self.keys: dict[bytes, tuple[object, tuple[int, ...]]] = {}
        for label, g in patterns:
            order, key = canonical_labeling(g)
            if key in self.keys:
                raise ValueError(f"duplicate pattern {label!r} (isomorphic twin)")
            self.keys[key] = (label, order)


def _shaped_subsets(
    adj: tuple[int, ...], co: tuple[int, ...], k: int, level: _Size
) -> Iterator[int]:
    """Masks of the k-subsets whose shape is some pattern's, lexicographically.

    co is the complement's adjacency. A subset is skipped only if it holds a
    clique or stable set larger than every pattern's of order k.
    """
    shapes = level.shapes
    if k == 0:
        if _shape(adj, 0) in shapes:
            yield 0
        return
    omega, alpha = level.omega, level.alpha

    def grow(prefix: int, avail: int, size: int) -> Iterator[int]:
        # avail: the vertices above the prefix's last one that close no
        # clique or stable set beyond the bounds.
        left = k - size - 1
        while avail.bit_count() > left:
            b = avail & -avail
            avail ^= b
            v = b.bit_length() - 1
            mask = prefix | b
            if not left:
                if _shape(adj, mask) in shapes:
                    yield mask
                continue
            nxt = avail & ~_closers(adj, prefix & adj[v], omega - 1, adj[v])
            nxt &= ~_closers(co, prefix & co[v], alpha - 1, co[v])
            if nxt.bit_count() >= left:
                yield from grow(mask, nxt, size + 1)

    yield from grow(0, (1 << len(adj)) - 1, 0)


class PatternSet:
    """An indexed set of forbidden patterns searched smallest-size first."""

    def __init__(self, patterns: list[tuple[object, Graph]]):
        by_size: dict[int, list] = {}
        for label, g in patterns:
            by_size.setdefault(g.n, []).append((label, g))
        self._by_size = {k: _Size(group) for k, group in by_size.items()}
        self.sizes = tuple(sorted(self._by_size))

    def scan(self, host: Graph) -> Iterator[PatternHit]:
        """All pattern copies in host: sizes ascending, subsets lexicographic."""
        co = complement(host).adj
        for k in self.sizes:
            level = self._by_size[k]
            for mask in _shaped_subsets(host.adj, co, k, level):
                sub_order, sub_key = canonical_labeling(induced_subgraph(host, mask))
                hit = level.keys.get(sub_key)
                if hit is None:
                    continue
                label, pat_order = hit
                yield PatternHit(
                    label, _embedding_from_orders(vertices_of(mask), sub_order, pat_order)
                )

    def contains_any(self, host: Graph) -> bool:
        return next(self.scan(host), None) is not None


def contains_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """First embedding of pattern into host in lexicographic subset order."""
    hit = next(PatternSet([(None, pattern)]).scan(host), None)
    return hit.embedding if hit is not None else None
