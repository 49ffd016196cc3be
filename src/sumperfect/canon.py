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
isomorphic graphs. The key bytes depend on `_root` and `_refine` (which
cell comes first), so changing the refinement changes the keys, though not
which graphs share one.

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
- A sibling is explored iff it is the least vertex of its orbit under the
  found automorphisms that fix the path. These keep the path's colouring,
  so a skipped sibling's orbit lies in the ascending target cell and holds
  an earlier sibling, hence (by induction, as orbits only grow) an explored
  one. A product of them maps that one's subtree, reached earlier, onto it.
- By induction over the search order, every L* leaf is then the image of
  the first one under the group H the found automorphisms generate: H is
  transitive on L*, and since Aut(G) acts regularly there, |H| = |L*| =
  |Aut(G)|, so H = Aut(G).

Enumeration relies on this on both sides of its acceptance rule, and on the
first canonical vertex lying in the root refinement's first cell, which holds
vertices of least (degree, sorted neighbour degrees): refinement ranks cells
by degree, then by that profile, and individualisation keeps their order.

`_refine` returns a partition as soon as it is discrete: one more pass
would only confirm it.

There is one labelling path: `canonical_form` checks the n <= CANON_MAX
envelope (with `check_canon_order`, which mining also calls before it
keeps a certificate) and hands `_root(g)` to `_search`, which packs the
key and returns the automorphisms. `_cells` turns a colouring into ordered
cells, for `_search` and for enumeration, which reads a root colouring
only through it and hands it to `_search` unchanged: how that colouring is
formed and encoded is decided here alone. `canonical_labeling` and
`canonical_key` are views of `canonical_form`'s result, and `is_isomorphic`
compares two keys, so it too refuses n > CANON_MAX. `orbit_mins` turns a
list of permutations into orbits, for the search's sibling pruning and for
enumeration.
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
    """Stabilize colors under (own color, sorted neighbour colors); ids
    normalized. A discrete partition is returned as soon as a pass makes
    it, since the next would rank every vertex by its own colour alone."""
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
        if len(ids) == ncls or len(ids) == n:
            return colors
        ncls = len(ids)


def _root(g: Graph) -> list[int]:
    """g's root colouring, the unit partition refined. The first pass over
    the unit partition gives each vertex the signature (0, (0,) * degree),
    so its colours are the degree ranks; refining those ranks reaches the
    same partition with that pass skipped (where the pass ends the
    refinement, one cell or discrete, one more confirms it)."""
    degrees = [a.bit_count() for a in g.adj]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    return _refine(g.n, g.adj, [rank[d] for d in degrees])


def _cells(n: int, colors: list[int]) -> list[list[int]]:
    """The cells of a colouring of range(n), in colour order, each ascending."""
    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v in range(n):
        cells[colors[v]].append(v)
    return cells


def canonical_form(g: Graph) -> tuple[tuple[int, ...], bytes, list[tuple[int, ...]]]:
    """(order, key, auts): order[i] is the original vertex at canonical
    position i, key the canonical key, and auts non-identity automorphisms
    (aut[v] is the image of v) that generate the whole automorphism group."""
    check_canon_order(g.n)
    return _search(g, _root(g))


def _search(g: Graph, root: list[int]) -> tuple[tuple[int, ...], bytes, list[tuple[int, ...]]]:
    """canonical_form(g) searched from root, g's root colouring (`_root`);
    g must be within the envelope."""
    n, adj = g.n, g.adj
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
        cells = _cells(n, colors)
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

        # Explore each orbit at its least vertex; the orbits change only when a
        # leaf below adds an automorphism. target[0] is always explored, as the
        # automorphisms fixing the path keep every cell and it is its cell's
        # least, so the orbits are first computed for the second sibling.
        known = -1
        for i, v in enumerate(target):
            if i:
                if known != len(auts):
                    known = len(auts)
                    mins = orbit_mins(n, [a for a in auts if all(a[p] == p for p in path)])
                if mins[v] != v:
                    continue
            split = [2 * c + 1 for c in colors]
            split[v] = 2 * colors[v]
            rec(_refine(n, adj, split), path + (v,))

    rec(root, ())
    assert best_cols is not None and best_order is not None
    return best_order, bytes([n, *pack_upper_triangle((0, *best_cols), 8)]), auts


def canonical_labeling(g: Graph) -> tuple[tuple[int, ...], bytes]:
    """(order, key) where order[i] is the original vertex at canonical position i."""
    return canonical_form(g)[:2]


def canonical_key(g: Graph) -> bytes:
    """Isomorphism-invariant byte string; equal keys iff isomorphic graphs."""
    return canonical_form(g)[1]


def is_isomorphic(a: Graph, b: Graph) -> bool:
    return canonical_key(a) == canonical_key(b)
