"""Exact canonical forms, automorphism groups and isomorphism testing for
graphs up to 12 vertices.

The canonical key of a graph is n followed by the upper-triangle bits of one
relabelling, packed 8 to a byte by graph6's `pack_upper_triangle` (so in
graph6 bit order): the one whose column tuple (column j being the bitmask of
the neighbours of position j among positions < j) is smallest among the
leaves of the search tree described below. It is not, in general, the
smallest over all n! relabellings (it differs on 144 of the 156 graphs of
order 6), because most relabellings are not leaves of that tree. The tree is
built from labelling-independent refinement steps, so its set of leaves, and
hence the key, is an isomorphism invariant: equal keys hold exactly for
isomorphic graphs. The key bytes depend on `_refine` (which cell comes
first), so changing the refinement changes the keys, though not which graphs
share one.

The search never considers all n! permutations: vertices are first partitioned
by iterated degree refinement, the branch tree individualizes one vertex of
the first non-singleton cell at a time (re-refining after each choice), and
automorphisms discovered at equal leaves collapse equivalent siblings. That
keeps even the fully symmetric worst cases (empty/complete graphs, unions of
cliques) small at this scale while staying exact.

The automorphisms found generate the whole group Aut(G), for every n:

- A leaf is a discrete ordered partition, and distinct leaves have distinct
  orders. Refinement and the choice of target cell are labelling-invariant,
  so Aut(G) maps leaves to leaves, and two leaves have equal column tuples
  exactly when one automorphism maps one to the other. Hence the leaves with
  the minimal column tuple form one Aut(G)-orbit L*, and the action on it is
  regular: an automorphism fixing a discrete order is the identity.
- Each visited L* leaf yields the automorphism from the first L* leaf
  visited to it.
- A sibling is skipped only when a product of found automorphisms that fix
  the path maps an explored sibling onto it, so its subtree is that
  product's image of an explored subtree, which the search reached earlier.
- By induction over the search order, every L* leaf is then the image of
  the first one under the group H the found automorphisms generate: H is
  transitive on L*, and since Aut(G) acts regularly there, |H| = |L*| =
  |Aut(G)|, so H = Aut(G).

Enumeration relies on this on both sides of its acceptance rule.

There is one labelling path: `canonical_form` checks the n <= CANON_MAX
envelope (with `check_canon_order`, which mining also calls before it
keeps a certificate), runs the search, packs the key and returns the
automorphisms; `canonical_labeling` and `canonical_key` are views of its result, and
`is_isomorphic` compares two keys, so it too refuses n > CANON_MAX.
`orbit_mins` turns a list of permutations into orbits, for the search's
sibling pruning and for enumeration.
"""

from __future__ import annotations

from .graph6 import pack_upper_triangle
from .graphs import Graph

CANON_MAX = 12


def check_canon_order(n: int) -> None:
    """Raise ValueError unless canonical labelling reaches order n."""
    if n > CANON_MAX:
        raise ValueError(f"canonicalization supports n <= {CANON_MAX}, got {n}")


def orbit_mins(size: int, perms) -> list[int]:
    """For each point of range(size), the smallest point of its orbit under
    the group the permutations generate (perm[x] is the image of x)."""
    root = list(range(size))
    for p in perms:
        for x in range(size):
            a = x
            while root[a] != a:
                a = root[a]
            b = p[x]
            while root[b] != b:
                b = root[b]
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
    # Every root pointer goes down, so one ascending pass flattens them.
    for x in range(size):
        root[x] = root[root[x]]
    return root


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
    achieving it (order[i] = original vertex at canonical position i), and
    non-identity automorphisms that generate the automorphism group."""
    best_cols: tuple[int, ...] | None = None
    best_order: tuple[int, ...] | None = None
    auts: list[tuple[int, ...]] = []

    def columns(order: tuple[int, ...]) -> tuple[int, ...]:
        cols = []
        for j in range(1, n):
            row = adj[order[j]]
            c = 0
            for i in range(j):
                if (row >> order[i]) & 1:
                    c |= 1 << i
            cols.append(c)
        return tuple(cols)

    def rec(colors: list[int], path: tuple[int, ...]):
        nonlocal best_cols, best_order
        ncells = max(colors, default=-1) + 1
        cells: list[list[int]] = [[] for _ in range(ncells)]
        for v in range(n):
            cells[colors[v]].append(v)
        target = next((cell for cell in cells if len(cell) > 1), None)

        if target is None:
            order = tuple(cell[0] for cell in cells)
            cols = columns(order)
            if best_cols is None or cols < best_cols:
                best_cols = cols
                best_order = order
            elif cols == best_cols:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_order[i]] = order[i]
                tau = tuple(sigma)
                # Never the identity (distinct leaves); may recur after a new incumbent.
                if tau not in auts:
                    auts.append(tau)
            return

        done: list[int] = []
        for v in target:
            # Nothing is explored yet at the first child, so skip the filtering.
            if done:
                mins = orbit_mins(n, [a for a in auts if all(a[p] == p for p in path)])
                if any(mins[u] == mins[v] for u in done):
                    continue
            split = [2 * c + 1 for c in colors]
            split[v] = 2 * colors[v]
            rec(_refine(n, adj, split), path + (v,))
            done.append(v)

    rec(_refine(n, adj, [0] * n), ())
    assert best_cols is not None and best_order is not None
    return best_cols, best_order, auts


def canonical_form(g: Graph) -> tuple[tuple[int, ...], bytes, list[tuple[int, ...]]]:
    """(order, key, auts): order[i] is the original vertex at canonical
    position i, key the canonical key, and auts non-identity automorphisms
    (aut[v] is the image of v) that generate the whole automorphism group."""
    check_canon_order(g.n)
    cols, order, auts = _canonicalize(g.n, g.adj)
    return order, bytes([g.n, *pack_upper_triangle((0, *cols), 8)]), auts


def canonical_labeling(g: Graph) -> tuple[tuple[int, ...], bytes]:
    """(order, key) where order[i] is the original vertex at canonical position i."""
    return canonical_form(g)[:2]


def canonical_key(g: Graph) -> bytes:
    """Isomorphism-invariant byte string; equal keys iff isomorphic graphs."""
    return canonical_form(g)[1]


def is_isomorphic(a: Graph, b: Graph) -> bool:
    return canonical_key(a) == canonical_key(b)
