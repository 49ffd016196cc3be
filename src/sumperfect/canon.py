"""Exact canonical forms and isomorphism testing for graphs up to 12 vertices.

The canonical key of a graph is n followed by the upper-triangle bits
(column-major, matching graph6 bit order) of one relabelling: the one whose
column tuple (column j being the bitmask of the neighbours of position j
among positions < j) is smallest among the leaves of the search tree
described below. It is not, in general, the smallest over all n!
relabellings (it differs on 144 of the 156 graphs of order 6), because most
relabellings are not leaves of that tree. The tree is built from
labelling-independent refinement steps, so its set of leaves, and hence the
key, is an isomorphism invariant: equal keys hold exactly for isomorphic
graphs. The key bytes depend on `_refine` (which cell comes first), so
changing the refinement changes the keys, though not which graphs share one.

The search never considers all n! permutations: vertices are first partitioned
by iterated degree refinement, the branch tree individualizes one vertex of
the first non-singleton cell at a time (re-refining after each choice), string
prefixes are compared against the incumbent to prune, and automorphisms
discovered at equal leaves collapse equivalent siblings. That keeps even the
fully symmetric worst cases (empty/complete graphs, unions of cliques) small
at this scale while staying exact.
"""

from __future__ import annotations

from .graphs import Graph

CANON_MAX = 12

_AUT_CAP = 200


def _refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """Stabilize colors under (own color, sorted neighbour colors); ids normalized."""
    ncls = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            row = adj[v]
            acc = []
            while row:
                b = row & -row
                acc.append(colors[b.bit_length() - 1])
                row ^= b
            acc.sort()
            sigs.append((colors[v], tuple(acc)))
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ids[s] for s in sigs]
        if len(ids) == ncls:
            return colors
        ncls = len(ids)


def _canonicalize(n: int, adj: tuple[int, ...]):
    """Return (cols, order, auts): minimal column tuple, the permutation
    achieving it (order[i] = original vertex at canonical position i), and the
    automorphisms discovered along the way (not necessarily a full generating
    set; used only for pruning and available to callers as a bonus)."""
    if n == 0:
        return (), (), []
    if n == 1:
        return (), (0,), []

    best_cols: list[int] | None = None
    best_order: tuple[int, ...] | None = None
    auts: list[tuple[int, ...]] = []

    def prefix_cols(order: list[int], upto: int) -> list[int]:
        cols = []
        for j in range(1, upto):
            row = adj[order[j]]
            c = 0
            for i in range(j):
                if (row >> order[i]) & 1:
                    c |= 1 << i
            cols.append(c)
        return cols

    def rec(colors: list[int], path: tuple[int, ...]):
        nonlocal best_cols, best_order
        ncells = max(colors) + 1
        cells: list[list[int]] = [[] for _ in range(ncells)]
        for v in range(n):
            cells[colors[v]].append(v)

        prefix: list[int] = []
        target = None
        for cell in cells:
            if len(cell) == 1:
                prefix.append(cell[0])
            else:
                target = cell
                break

        if best_cols is not None and len(prefix) > 1:
            part = prefix_cols(prefix, len(prefix))
            head = best_cols[: len(part)]
            if part > head:
                return

        if target is None:
            cols = prefix_cols(prefix, n)
            if best_cols is None or cols < best_cols:
                best_cols = cols
                best_order = tuple(prefix)
            elif cols == best_cols and len(auts) < _AUT_CAP:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_order[i]] = prefix[i]
                tau = tuple(sigma)
                if any(tau[i] != i for i in range(n)) and tau not in auts:
                    auts.append(tau)
                    inv = [0] * n
                    for i, x in enumerate(tau):
                        inv[x] = i
                    auts.append(tuple(inv))
            return

        done: list[int] = []
        for v in target:
            if done and auts:
                fixing = [a for a in auts if all(a[p] == p for p in path)]
                if fixing:
                    seen = {v}
                    stack = [v]
                    hit = False
                    while stack and not hit:
                        x = stack.pop()
                        for a in fixing:
                            y = a[x]
                            if y in done:
                                hit = True
                                break
                            if y not in seen:
                                seen.add(y)
                                stack.append(y)
                    if hit:
                        continue
            split = [2 * c + 1 for c in colors]
            split[v] = 2 * colors[v]
            rec(_refine(n, adj, split), path + (v,))
            done.append(v)

    rec(_refine(n, adj, [0] * n), ())
    assert best_cols is not None and best_order is not None
    return tuple(best_cols), best_order, auts


def _pack_key(n: int, cols: tuple[int, ...]) -> bytes:
    out = bytearray([n])
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = cols[j - 1]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def _check_envelope(g: Graph):
    if g.n > CANON_MAX:
        raise ValueError(f"canonicalization supports n <= {CANON_MAX}, got {g.n}")


def canonical_key(g: Graph) -> bytes:
    """Isomorphism-invariant byte string; equal keys iff isomorphic graphs."""
    _check_envelope(g)
    cols, _, _ = _canonicalize(g.n, g.adj)
    return _pack_key(g.n, cols)


def canonical_labeling(g: Graph) -> tuple[tuple[int, ...], bytes]:
    """(order, key) where order[i] is the original vertex at canonical position i."""
    _check_envelope(g)
    cols, order, _ = _canonicalize(g.n, g.adj)
    return order, _pack_key(g.n, cols)


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    return canonical_key(a) == canonical_key(b)
