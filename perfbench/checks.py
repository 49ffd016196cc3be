"""Output checks for every workload.

Checks compare counts and isomorphism classes, never canonical-key or graph6
bytes, so a change of key encoding does not fail them. Each check function
returns a list of (description, passed) pairs; every pair is one check
attempted, and every False one a failed check.

The expected counts are the paper's and the acceptance suite's: level sizes
up to n = 8 (OEIS A000088), the 27-member family split {5: 1, 6: 24, 7: 2},
1,795 deficiency-1 obstructions, the three threshold obstructions
P4, C4 and 2K2, and the perfect-graph obstructions C5, C7 and its
complement. The 2,449 graphs with n <= 8 and n - alpha - omega >= 2 (the
conjecture's B-scans) were counted once by brute force over all vertex
subsets; networkx's graph atlas agrees on the 18 of them with n <= 7.
"""

from __future__ import annotations

CONJECTURE_LEVELS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONJECTURE_SCANNED = 2449
MINE_COUNTS = {
    "sum-perfect": {5: 1, 6: 24, 7: 2},
    "perfect": {5: 1, 7: 2},
    "threshold": {4: 3},
}
MINE_TOTALS = {"deficiency:1": 1795}
MINE_CLASSES = ("sum-perfect", "deficiency:1", "perfect", "threshold")


def _int_keys(d: dict) -> dict[int, int]:
    return {int(k): v for k, v in d.items()}


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def isomorphic(a: tuple[int, list], b: tuple[int, list]) -> bool:
    """Backtracking isomorphism test on (n, edges), independent of the
    package's canonical labelling; meant for the small family graphs."""
    (n, ea), (m, eb) = a, b
    if n != m or len(ea) != len(eb):
        return False
    aa, ab = _adjacency(n, ea), _adjacency(n, eb)
    da = [x.bit_count() for x in aa]
    db = [x.bit_count() for x in ab]
    if sorted(da) != sorted(db):
        return False
    order = sorted(range(n), key=lambda v: -da[v])
    image = [-1] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or db[w] != da[v]:
                continue
            if all((aa[v] >> order[j] & 1) == (ab[w] >> image[order[j]] & 1)
                   for j in range(i)):
                image[v] = w
                if extend(i + 1, used | 1 << w):
                    return True
        image[v] = -1
        return False

    return extend(0, 0)


def check_conjecture(result: dict, expected_levels=CONJECTURE_LEVELS) -> list:
    levels = _int_keys(result["visited_by_order"])
    out = [(f"level {n} has {size} graphs", levels.get(n) == size)
           for n, size in expected_levels.items()]
    out.append(("no graphs above the expected levels", set(levels) <= set(expected_levels)))
    out.append((f"{CONJECTURE_SCANNED} graphs need the obstruction scan",
                result["deficient_scanned"] == CONJECTURE_SCANNED))
    out.append(("no counterexamples", result["counterexamples"] == 0))
    return out


def check_mine(result: dict, totals=MINE_TOTALS) -> list:
    out = []
    for cls in MINE_CLASSES:
        got = result["classes"][cls]
        counts = _int_keys(got["counts_by_order"])
        if cls in MINE_COUNTS:
            out.append((f"{cls} counts {MINE_COUNTS[cls]}", counts == MINE_COUNTS[cls]))
        else:
            want = totals[cls]
            out.append((f"{cls} total {want}",
                        got["total"] == want == sum(counts.values())))
    # The mined sum-perfect obstructions must be the family, member by member.
    certs = [tuple(c) for c in result["classes"]["sum-perfect"]["certificates"]]
    family = [tuple(m) for m in result["family"]]
    unmatched = list(family)
    matched = True
    for cert in certs:
        hit = next((m for m in unmatched if isomorphic(cert, m)), None)
        if hit is None:
            matched = False
            break
        unmatched.remove(hit)
    out.append(("sum-perfect certificates are the 27-member family",
                matched and not unmatched and len(family) == 27))
    return out


def check_recognize(result: dict, corpus: list, expected: list[bool]) -> list:
    """One verdict check and one witness check per corpus graph."""
    from sumperfect import build_family
    from sumperfect.graphs import Graph, from_edge_list, mask_of
    from sumperfect.induced import Embedding, embedding_is_valid
    from sumperfect.invariants import StableCliquePair, validate_pair

    lines = result["lines"]
    out = [("recognize exits 0", result["exit_code"] == 0),
           ("one output line per corpus graph", len(lines) == len(corpus))]
    family = build_family()

    def witness_ok(host: Graph, rec: dict) -> bool:
        ev = rec["witness_vertices"]
        if rec["verdict"] is False:
            idx = rec["forbidden_index"]
            return (rec["witness_kind"] == "forbidden_copy"
                    and isinstance(idx, int) and 1 <= idx <= len(family)
                    and embedding_is_valid(host, family.member(idx).graph,
                                           Embedding(tuple(ev))))
        pair = StableCliquePair(mask_of(ev["stable"]), mask_of(ev["clique"]))
        return (rec["witness_kind"] == "stable_clique_pair"
                and len(ev["stable"]) + len(ev["clique"]) >= host.n
                and validate_pair(host, pair))

    for i, ((kind, n, edges), want, rec) in enumerate(zip(corpus, expected, lines)):
        host = from_edge_list(n, edges)
        # Split and apex-threshold hosts are sum-perfect by construction.
        sound = want or kind != "host"
        out.append((f"graph {i}: verdict", sound and rec.get("verdict") is want))
        try:
            ok = witness_ok(host, rec)
        except (KeyError, TypeError, ValueError, IndexError):
            ok = False
        out.append((f"graph {i}: witness", bool(ok)))
    return out
