"""Exhaustive enumeration of graphs, exactly one per isomorphism class.

Each n-vertex class is produced by extending an (n-1)-vertex representative
with one new vertex over all neighbourhoods, and a child survives only when
the new vertex is a canonical deletion: it must minimize the invariant triple
(degree, sorted neighbour-degree profile, canonical key of the deleted graph)
over all vertices. Only inv-tied candidates ever reach a key comparison, so
the common case runs on degree arithmetic alone. Children of one parent that
are isomorphic to each other (possible when the parent has symmetries) are
removed by a per-parent canonical-key check, bucketed by fingerprint so keys
are only computed on collisions.
"""

from __future__ import annotations

from typing import Iterator

from .canon import canonical_key
from .graphs import Graph, induced_subgraph
from .invariants import triangle_count

ENUM_MAX = 10
_CACHE_MAX = 8

_cache: dict[int, list[Graph]] = {}


def children_of(parent: Graph) -> list[Graph]:
    """Accepted one-vertex extensions of a canonical representative."""
    pn = parent.n
    padj = parent.adj
    pdeg = [a.bit_count() for a in padj]
    vbit = 1 << pn
    full_child = (1 << (pn + 1)) - 1
    min_pdeg = min(pdeg) if pn else 0
    min_verts = 0
    for u in range(pn):
        if pdeg[u] == min_pdeg:
            min_verts |= 1 << u

    parent_key: bytes | None = None
    parent_tri = triangle_count(parent) if pn >= 3 else 0

    def profile(rows: tuple[int, ...], cd: list[int], u: int) -> tuple[int, ...]:
        row = rows[u]
        acc = []
        while row:
            b = row & -row
            acc.append(cd[b.bit_length() - 1])
            row ^= b
        acc.sort()
        return tuple(acc)

    out: list[Graph] = []
    buckets: dict[tuple, list[list]] = {}

    for nb in range(1 << pn):
        dv = nb.bit_count()
        # The new vertex must be degree-minimal in the child.
        if dv > min_pdeg + 1:
            continue
        if dv == min_pdeg + 1 and (min_verts & ~nb):
            continue
        cd = [0] * (pn + 1)
        tied: list[int] = []
        reject = False
        for u in range(pn):
            c = pdeg[u] + ((nb >> u) & 1)
            if c < dv:
                reject = True
                break
            cd[u] = c
            if c == dv:
                tied.append(u)
        if reject:
            continue
        cd[pn] = dv

        rows = tuple(
            (padj[u] | vbit) if (nb >> u) & 1 else padj[u] for u in range(pn)
        ) + (nb,)
        child = Graph(pn + 1, rows)

        if tied:
            # Neighbour-degree profiles break most remaining ties.
            pv = profile(rows, cd, pn)
            hard: list[int] = []
            for u in tied:
                pu = profile(rows, cd, u)
                if pu < pv:
                    reject = True
                    break
                if pu == pv:
                    hard.append(u)
            if reject:
                continue
            if hard:
                if parent_key is None:
                    parent_key = canonical_key(parent)
                for u in hard:
                    ku = canonical_key(induced_subgraph(child, full_child ^ (1 << u)))
                    if ku < parent_key:
                        reject = True
                        break
                if reject:
                    continue

        # Per-parent isomorph rejection: children sharing a fingerprint are
        # disambiguated by canonical key, computed lazily.
        extra = 0
        rest = nb
        while rest:
            b = rest & -rest
            extra += (padj[b.bit_length() - 1] & nb).bit_count()
            rest ^= b
        fp = (tuple(sorted(cd)), parent_tri + extra // 2)
        bucket = buckets.get(fp)
        if bucket is None:
            buckets[fp] = [[None, child]]
            out.append(child)
            continue
        ck = canonical_key(child)
        dup = False
        for entry in bucket:
            if entry[0] is None:
                entry[0] = canonical_key(entry[1])
            if entry[0] == ck:
                dup = True
                break
        if not dup:
            bucket.append([ck, child])
            out.append(child)

    return out


def graphs_of_order(n: int) -> list[Graph]:
    """All non-isomorphic graphs on n vertices (cached up to n = 8)."""
    if not 0 <= n <= ENUM_MAX:
        raise ValueError(f"built-in enumeration supports n <= {ENUM_MAX}, got {n}")
    cached = _cache.get(n)
    if cached is not None:
        return cached
    if n == 0:
        out = [Graph(0, ())]
    else:
        out = []
        for parent in graphs_of_order(n - 1):
            out.extend(children_of(parent))
    if n <= _CACHE_MAX:
        _cache[n] = out
    return out


def stream_graphs(n: int) -> Iterator[Graph]:
    """Stream the order-n representatives without materializing the level."""
    if not 0 <= n <= ENUM_MAX:
        raise ValueError(f"built-in enumeration supports n <= {ENUM_MAX}, got {n}")
    if n <= _CACHE_MAX:
        yield from graphs_of_order(n)
        return
    for parent in stream_graphs(n - 1):
        yield from children_of(parent)
