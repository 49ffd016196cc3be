"""Minimal forbidden induced subgraph mining and the verification harnesses.

A hereditary class predicate is mined by visiting every isomorphism class up
to a target order and keeping the graphs that fail the predicate while all
one-vertex deletions satisfy it (heredity makes single deletions sufficient).
Sweeps can run across worker processes: parents are split into chunks, each
worker expands and evaluates its chunk, and results are merged in submission
order, so output is identical for every worker count. Long final levels can
checkpoint per chunk into a plain file of graph6 lines plus a cursor line.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterable, Iterator

from .canon import canonical_key
from .enumeration import _CACHE_MAX, children_of, graphs_of_order, stream_graphs
from .family import build_conjecture_family, build_family
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, delete_vertex
from .invariants import (
    clique_number,
    has_deficiency_above,
    is_perfect_lovasz,
    is_sum_perfect_definitional,
    stability_number,
)

_DEFAULT_CHUNK = 512
HC_MINE_MAX = 9


# Class predicates ------------------------------------------------------------

@dataclass(frozen=True)
class ClassPredicate:
    """A named hereditary property; fn decides membership of one graph."""

    name: str
    fn: Callable[[Graph], bool]


def get_predicate(name: str) -> ClassPredicate:
    """Resolve a predicate name: sum-perfect, threshold, perfect, deficiency:C."""
    from .recognition import is_threshold

    if name == "sum-perfect":
        return ClassPredicate(name, is_sum_perfect_definitional)
    if name == "threshold":
        return ClassPredicate(name, is_threshold)
    if name == "perfect":
        return ClassPredicate(name, is_perfect_lovasz)
    if name.startswith("deficiency:"):
        c = int(name.split(":", 1)[1])
        if c < 0:
            raise ValueError("deficiency parameter must be >= 0")
        return ClassPredicate(name, lambda g: not has_deficiency_above(g, c))
    raise ValueError(f"unknown class predicate {name!r}")


def is_minimal_forbidden(pred: ClassPredicate, g: Graph) -> bool:
    """True iff g fails the class but every one-vertex deletion satisfies it."""
    return not pred.fn(g) and _deletions_satisfy(pred.fn, g)


def _deletions_satisfy(fn, g: Graph) -> bool:
    return all(fn(delete_vertex(g, v)) for v in range(g.n))


# Conjecture machinery ---------------------------------------------------------

@lru_cache(maxsize=1)
def _b_patterns():
    from .induced import PatternSet

    return PatternSet([(m.index, m.graph) for m in build_conjecture_family()])


def _conjecture_visit(g: Graph) -> tuple[bool, str | None]:
    """(needed B-scan, counterexample graph6 or None) for one graph."""
    d = g.n - stability_number(g) - clique_number(g)
    if d <= 1:
        return False, None
    if _b_patterns().contains_any(g):
        return True, None
    return True, emit_graph6(g)


# Worker plumbing ---------------------------------------------------------------

def _work(args) -> tuple[int, list[str], int]:
    """Chunk task: expand parents if asked, then evaluate each graph.

    Returns (visited, lines, bscans): the number of graphs evaluated, the
    graph6 lines found in visit order (certificates for mine, counterexamples
    for conjecture) and the number of B-scans run (always 0 for mine).
    """
    task, pred_name, mode, graphs = args
    if mode == "expand":
        expanded: list[Graph] = []
        for parent in graphs:
            expanded.extend(children_of(parent))
        graphs = expanded
    lines: list[str] = []
    bscans = 0
    if task == "mine":
        fn = get_predicate(pred_name).fn
        sampled = False
        for i, g in enumerate(graphs):
            if fn(g):
                # sampled heredity check: members stay members under deletion
                if g.n and (not sampled or (i & 127) == 0):
                    sampled = True
                    if not fn(delete_vertex(g, 0)):
                        raise AssertionError(
                            f"predicate {pred_name!r} is not hereditary"
                        )
                continue
            if _deletions_satisfy(fn, g):
                lines.append(emit_graph6(g))
    elif task == "conjecture":
        for g in graphs:
            scanned, cex = _conjecture_visit(g)
            bscans += scanned
            if cex is not None:
                lines.append(cex)
    else:  # pragma: no cover
        raise ValueError(f"unknown task {task!r}")
    return len(graphs), lines, bscans


def _chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _map_tasks(tasks: list, jobs: int) -> Iterator:
    if jobs <= 1 or len(tasks) <= 1:
        for t in tasks:
            yield _work(t)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=jobs) as pool:
        yield from pool.imap(_work, tasks, chunksize=1)


# Checkpointing -----------------------------------------------------------------

@dataclass
class _Checkpoint:
    """Cursor of a checkpointed final level: the sweep it belongs to, the
    chunks done so far and their summed (visited, lines, bscans)."""

    task: str
    class_name: str
    level: int
    chunk_size: int
    next_chunk: int = 0
    visited: int = 0
    bscans: int = 0
    lines: list[str] = field(default_factory=list)

    def add(self, result: tuple[int, list[str], int]) -> None:
        visited, lines, bscans = result
        self.next_chunk += 1
        self.visited += visited
        self.lines.extend(lines)
        self.bscans += bscans


def _load_checkpoint(path: str) -> _Checkpoint | None:
    if not path or not os.path.exists(path):
        return None
    lines = []
    cursor = None
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#cursor "):
                cursor = json.loads(line[len("#cursor "):])
            else:
                lines.append(line)
    if cursor is None:
        return None
    try:
        return _Checkpoint(**cursor, lines=lines)
    except TypeError:
        raise ValueError(
            f"checkpoint {path!r} has an unrecognised cursor"
        ) from None


def _write_checkpoint(path: str, cp: _Checkpoint) -> None:
    tmp = path + ".tmp"
    cursor = {k: v for k, v in vars(cp).items() if k != "lines"}
    with open(tmp, "w", encoding="ascii") as fh:
        for line in cp.lines:
            fh.write(line + "\n")
        fh.write("#cursor " + json.dumps(cursor, sort_keys=True) + "\n")
    os.replace(tmp, path)


# Level sweeps -------------------------------------------------------------------

def _level_tasks(task: str, pred_name: str, n: int, chunk_size: int) -> list[tuple]:
    """Chunk tasks covering every graph of order n exactly once."""
    if n <= _CACHE_MAX:
        chunks = _chunked(graphs_of_order(n), chunk_size)
        mode = "flat"
    else:
        if n - 1 <= _CACHE_MAX:
            parents = graphs_of_order(n - 1)
        else:
            parents = list(stream_graphs(n - 1))
        chunks = _chunked(parents, max(1, chunk_size // 8))
        mode = "expand"
    return [(task, pred_name, mode, chunk) for chunk in chunks]


def _sweep(task: str, pred_name: str, max_n: int, jobs: int,
           checkpoint: str | None, chunk_size: int,
           source: Iterable[Graph] | None):
    """Visit every graph of order 1..max_n (or an external stream) once.

    Returns (visited_by_order, lines, bscans): the chunk results summed in
    submission order, so lines keep the order in which graphs were visited.
    """
    visited_by_order: dict[int, int] = {}
    lines: list[str] = []
    bscans = 0

    def add(n: int, result: tuple[int, list[str], int]) -> None:
        nonlocal bscans
        visited, found, scanned = result
        visited_by_order[n] = visited_by_order.get(n, 0) + visited
        lines.extend(found)
        bscans += scanned

    if source is not None:
        for n, run in groupby(source, key=lambda g: g.n):
            for chunk in _chunked(list(run), chunk_size):
                add(n, _work((task, pred_name, "flat", chunk)))
        return visited_by_order, lines, bscans

    cp = None
    if checkpoint:
        cp = _load_checkpoint(checkpoint)
        want = (task, pred_name, max_n, chunk_size)
        if cp is None:
            cp = _Checkpoint(*want)
        elif (cp.task, cp.class_name, cp.level, cp.chunk_size) != want:
            raise ValueError(
                f"checkpoint {checkpoint!r} was written for {cp.task} "
                f"{cp.class_name} level {cp.level} / chunk size {cp.chunk_size}, "
                f"not {task} {pred_name} level {max_n} / {chunk_size}"
            )

    for n in range(1, max_n + 1):
        tasks = _level_tasks(task, pred_name, n, chunk_size)
        if n == max_n and cp is not None:
            for result in _map_tasks(tasks[cp.next_chunk:], jobs):
                cp.add(result)
                _write_checkpoint(checkpoint, cp)
            add(n, (cp.visited, cp.lines, cp.bscans))
        else:
            for result in _map_tasks(tasks, jobs):
                add(n, result)
    return visited_by_order, lines, bscans


# Results ---------------------------------------------------------------------

@dataclass
class MineResult:
    class_name: str
    max_n: int
    counts_by_order: dict[int, int]
    certificates: list[tuple[bytes, Graph]]
    visited: int
    elapsed: float

    @property
    def total(self) -> int:
        return len(self.certificates)

    def summary(self) -> dict:
        return {
            "class": self.class_name,
            "max_n": self.max_n,
            "counts_by_order": {str(k): v for k, v in sorted(self.counts_by_order.items())},
            "total": self.total,
        }


def mine_forbidden(class_name: str, max_n: int, *, jobs: int = 1,
                   checkpoint: str | None = None,
                   source: Iterable[Graph] | None = None,
                   chunk_size: int = _DEFAULT_CHUNK) -> MineResult:
    """All minimal forbidden graphs for the class, up to order max_n.

    Certificates are deduplicated by canonical key and ordered by
    (order, key), making the output independent of worker count.
    """
    get_predicate(class_name)  # validate the name before sweeping
    start = time.monotonic()
    visited_by_order, lines, _ = _sweep(
        "mine", class_name, max_n, jobs, checkpoint, chunk_size, source
    )
    by_key: dict[bytes, Graph] = {}
    for line in lines:
        g = parse_graph6(line)
        by_key.setdefault(canonical_key(g), g)
    certificates = sorted(by_key.items(), key=lambda kv: (kv[1].n, kv[0]))
    counts: dict[int, int] = {}
    for _, g in certificates:
        counts[g.n] = counts.get(g.n, 0) + 1
    return MineResult(
        class_name=class_name,
        max_n=max_n,
        counts_by_order=counts,
        certificates=certificates,
        visited=sum(visited_by_order.values()),
        elapsed=time.monotonic() - start,
    )


@dataclass
class ConjectureReport:
    max_n: int
    visited_by_order: dict[int, int]
    deficient_scanned: int
    counterexamples: list[str]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_conjecture(max_n: int, *, jobs: int = 1,
                      checkpoint: str | None = None,
                      source: Iterable[Graph] | None = None,
                      chunk_size: int = _DEFAULT_CHUNK) -> ConjectureReport:
    """Check that every scanned graph avoiding all 24 six-vertex obstructions
    has alpha + omega >= n - 1; reports any counterexamples (expected none)."""
    start = time.monotonic()
    visited_by_order, bad, scanned = _sweep(
        "conjecture", "sum-perfect", max_n, jobs, checkpoint, chunk_size, source
    )
    return ConjectureReport(
        max_n=max_n,
        visited_by_order=visited_by_order,
        deficient_scanned=scanned,
        counterexamples=sorted(set(bad)),
        elapsed=time.monotonic() - start,
    )


@dataclass
class Theorem27Report:
    mine: MineResult
    keys_match_family: bool
    counts_by_order_ok: bool
    none_above_seven: bool
    alpha_omega_bounded: bool

    @property
    def passed(self) -> bool:
        return (
            self.keys_match_family
            and self.counts_by_order_ok
            and self.none_above_seven
            and self.alpha_omega_bounded
        )


def verify_theorem_27(max_n: int = 8, *, jobs: int = 1,
                      chunk_size: int = _DEFAULT_CHUNK) -> Theorem27Report:
    """Mine the sum-perfect obstructions and compare them with the built family."""
    result = mine_forbidden("sum-perfect", max_n, jobs=jobs, chunk_size=chunk_size)
    fam = build_family()
    mined_small = {k for k, g in result.certificates if g.n <= 7}
    counts = result.counts_by_order
    return Theorem27Report(
        mine=result,
        keys_match_family=mined_small == set(fam.keys()),
        counts_by_order_ok=(
            counts.get(5, 0) == 1 and counts.get(6, 0) == 24 and counts.get(7, 0) == 2
            and all(counts.get(k, 0) == 0 for k in range(1, 5))
        ),
        none_above_seven=all(g.n <= 7 for _, g in result.certificates),
        alpha_omega_bounded=all(
            max(stability_number(g), clique_number(g)) <= 3
            for _, g in result.certificates
        ),
    )


@dataclass
class ThresholdReport:
    max_n: int
    checked: int
    disagreements: list[str]

    @property
    def passed(self) -> bool:
        return not self.disagreements


def verify_threshold_equivalence(max_n: int = 7) -> ThresholdReport:
    """Elimination ordering, {P4,C4,2K2}-freeness, and the all-subgraphs
    alpha + omega = |V| + 1 test must agree on every graph up to max_n."""
    from .recognition import check_threshold_theorem, is_threshold, is_threshold_by_obstructions

    checked = 0
    bad: list[str] = []
    for n in range(0, max_n + 1):
        for g in graphs_of_order(n):
            checked += 1
            a = is_threshold(g)
            b = is_threshold_by_obstructions(g)
            c = check_threshold_theorem(g)
            if not (a == b == c):
                bad.append(emit_graph6(g))
    return ThresholdReport(max_n=max_n, checked=checked, disagreements=bad)


def count_hc_forbidden(c: int, max_n: int, *, jobs: int = 1) -> int:
    """Number of minimal forbidden graphs for the deficiency-c class."""
    if max_n > HC_MINE_MAX:
        raise ValueError(f"deficiency mining supports max_n <= {HC_MINE_MAX}")
    return mine_forbidden(f"deficiency:{c}", max_n, jobs=jobs).total
