"""Minimal forbidden induced subgraph mining and the verification harnesses.

A hereditary class predicate is mined by visiting every isomorphism class up
to a target order and keeping the graphs that fail the predicate while every
proper induced subgraph satisfies it. For the classes the subset DP decides
(sum-perfect, perfect, deficiency:C) one DP pass per graph settles both: the
DP visits vertex subsets in ascending mask order and stops at the first that
breaks the class, so g is a member iff there is none, and minimal forbidden
iff it is the full vertex set, the largest mask, since any other lies inside
some g - v. Threshold has no DP form; by heredity it is enough that each
one-vertex deletion satisfies it, and each is tested.
A sweep to max_n cuts the generation tree at the split order
s = min(_SPLIT, max_n - 1), as geng's res/mod splitting does: the main
process visits orders 1..s itself, and each graph of order s is the root of
one task that walks its subtree depth-first down to max_n, so workers
enumerate as well as evaluate. A task returns (visited by order, lines,
bscans); results are merged in root order, and the graph6 lines are only
read as a set, so output is identical for every worker count. An external
source stream is cut into chunk tasks by runs of equal order instead.
An enumerated sweep can checkpoint into an append-only journal: a JSON
header line naming the sweep (task, class, level = max_n, split, the number
of subtree tasks, and the enumerator version, since records follow the
roots by position), then one JSON line [visited by order, lines, bscans]
per completed subtree, covering every order above the split. A rerun
revisits orders up to the split, adds the journaled results like fresh
ones and runs only the subtrees after them; a journal for another sweep, in
an older format, with more records than tasks, or with a malformed line
other than a torn last one is refused with ValueError.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterable, Iterator, NamedTuple

from .canon import canonical_key
# children_of stays bound for perfbench/tracing.py; the walks call it
# through enumeration's memo.
from .enumeration import (
    ENUMERATOR_VERSION,
    check_order,
    children_of,
    descendants,
    graphs_of_order,
)
from .family import build_conjecture_family, build_family
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, delete_vertex
from .induced import PatternSet
from .invariants import (
    _PRODUCT_BOUND,
    _SUM_BOUND,
    DEFICIENCY_MAX,
    LOVASZ_MAX,
    _subset_dp,
    clique_number,
    has_deficiency_above,
    is_perfect_lovasz,
    is_sum_perfect_definitional,
    stability_number,
)
from .recognition import check_threshold_theorem, is_threshold, is_threshold_by_obstructions

_DEFAULT_CHUNK = 512
_SPLIT = 6
HC_MINE_MAX = 9


# Class predicates ------------------------------------------------------------

@dataclass(frozen=True)
class ClassPredicate:
    """A named hereditary property; fn decides membership of one graph."""

    name: str
    fn: Callable[[Graph], bool]


class _SubsetForm(NamedTuple):
    """g is a member iff every non-empty induced subgraph S has
    |S| - bound[alpha(S)][omega(S)] <= stop; the scan takes n <= max_n."""

    bound: list[list[int]]
    stop: int
    max_n: int


def _resolve(name: str) -> tuple[Callable[[Graph], bool] | None, _SubsetForm | None]:
    """(membership fn, subset-DP form or None) of a class; (None, None) if unknown."""
    if name == "threshold":
        return is_threshold, None
    if name == "sum-perfect":
        return is_sum_perfect_definitional, _SubsetForm(_SUM_BOUND, 0, DEFICIENCY_MAX)
    if name == "perfect":
        return is_perfect_lovasz, _SubsetForm(_PRODUCT_BOUND, 0, LOVASZ_MAX)
    if name.startswith("deficiency:"):
        c = int(name.split(":", 1)[1])
        if c < 0:
            raise ValueError("deficiency parameter must be >= 0")
        form = _SubsetForm(_SUM_BOUND, c, DEFICIENCY_MAX)
        return (lambda g: not has_deficiency_above(g, c)), form
    return None, None


def get_predicate(name: str) -> ClassPredicate:
    """Resolve a predicate name: sum-perfect, threshold, perfect, deficiency:C."""
    fn = _resolve(name)[0]
    if fn is None:
        raise ValueError(f"unknown class predicate {name!r}")
    return ClassPredicate(name, fn)


def is_minimal_forbidden(pred: ClassPredicate, g: Graph) -> bool:
    """True iff g fails the class but every one-vertex deletion satisfies it."""
    return _verdict(_resolve(pred.name)[1], pred.fn, g)[1]


def _verdict(form: _SubsetForm | None, fn: Callable[[Graph], bool],
             g: Graph) -> tuple[bool, bool]:
    """(member, minimal forbidden) of g: one subset-DP pass if the class has
    a form (see the module docstring), else fn on g and its deletions."""
    if form is None:
        if fn(g):
            return True, False
        return False, all(fn(delete_vertex(g, v)) for v in range(g.n))
    if g.n > form.max_n:
        raise ValueError(f"subgraph scan supports n <= {form.max_n}, got {g.n}")
    value, mask = _subset_dp(g, form.bound, form.stop)
    if value <= form.stop:
        return True, False
    return False, mask == g.vertex_mask()


# Conjecture machinery ---------------------------------------------------------

@lru_cache(maxsize=1)
def _b_patterns():
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

def _mine_chunk(class_name: str, graphs: Iterable[Graph]) -> tuple[list[str], int]:
    """Minimal forbidden graphs among graphs, with a sampled heredity check."""
    # fn comes through get_predicate, where a predicate can be substituted;
    # a substitute without a known class name gets no DP form.
    fn = get_predicate(class_name).fn
    form = _resolve(class_name)[1]
    lines: list[str] = []
    sampled = False
    for i, g in enumerate(graphs):
        member, minimal = _verdict(form, fn, g)
        if member:
            # sampled heredity check: members stay members under deletion
            if g.n and (not sampled or (i & 127) == 0):
                sampled = True
                if not fn(delete_vertex(g, 0)):
                    raise AssertionError(f"predicate {class_name!r} is not hereditary")
        elif minimal:
            lines.append(emit_graph6(g))
    return lines, 0


def _conjecture_chunk(class_name: str, graphs: Iterable[Graph]) -> tuple[list[str], int]:
    """Counterexamples among graphs and the B-scans run; class_name is unused."""
    lines: list[str] = []
    bscans = 0
    for g in graphs:
        scanned, cex = _conjecture_visit(g)
        bscans += scanned
        if cex is not None:
            lines.append(cex)
    return lines, bscans


def _work(task) -> tuple[dict[int, int], list[str], int]:
    """Run one task through its chunk function (_mine_chunk or
    _conjecture_chunk, which return the graph6 lines found in visit order and
    the B-scans run). A task (chunk, class, root, max_n) visits the subtree
    below root down to order max_n; (chunk, class, graphs, None) visits the
    listed graphs. Returns (visited by order, lines, bscans).
    """
    chunk, class_name, graphs, max_n = task
    if max_n is not None:
        graphs = descendants(graphs, max_n)
    visited: dict[int, int] = {}

    def counted() -> Iterator[Graph]:
        for g in graphs:
            visited[g.n] = visited.get(g.n, 0) + 1
            yield g

    return (visited, *chunk(class_name, counted()))


def _chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _map_tasks(tasks: list, jobs: int) -> Iterator:
    """Results of the tasks in order, from at most min(jobs, len(tasks))
    worker processes (none for one task or one job)."""
    if jobs <= 1 or len(tasks) <= 1:
        for t in tasks:
            yield _work(t)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        yield from pool.imap(_work, tasks, chunksize=1)


# Checkpoint journal ------------------------------------------------------------

@dataclass
class _Checkpoint:
    """A checkpoint journal as read back: its header, the results of the
    subtree tasks it records, in order, and the byte length of its complete
    lines."""

    header: dict
    results: list[tuple[dict[int, int], list[str], int]]
    end: int

    @property
    def level(self) -> int:
        return self.header["level"]

    @property
    def next_chunk(self) -> int:
        return len(self.results)


def _is_record(rec) -> bool:
    return (isinstance(rec, list) and len(rec) == 3 and type(rec[2]) is int
            and isinstance(rec[0], dict)
            and all(k.isdecimal() and type(v) is int for k, v in rec[0].items())
            and isinstance(rec[1], list) and all(isinstance(x, str) for x in rec[1]))


def _load_checkpoint(path: str, expected: dict | None = None) -> _Checkpoint | None:
    """Read a journal; None if the file is missing or empty. A header other
    than expected (when given) is refused, even over records of an older
    format. A last line without its newline is a torn write: it is dropped,
    and end stops before it so that appending cuts it off. Any other
    unreadable line is an error.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        return None
    end = data.rfind(b"\n") + 1
    rows = data[:end].splitlines()
    try:
        header = json.loads(rows[0]) if rows else None
        records = [json.loads(row) for row in rows[1:]]
    except ValueError:
        header = records = None
    if isinstance(header, dict) and expected is not None and header != expected:
        raise ValueError(
            f"checkpoint {path!r} was written for {json.dumps(header, sort_keys=True)}, "
            f"not {json.dumps(expected, sort_keys=True)}"
        )
    if not isinstance(header, dict) or not all(map(_is_record, records)):
        raise ValueError(
            f"checkpoint {path!r} is not a readable checkpoint journal; "
            "delete it to start over"
        )
    results = [({int(k): v for k, v in visited.items()}, found, scanned)
               for visited, found, scanned in records]
    return _Checkpoint(header, results, end)


def _open_journal(path: str, header: dict) -> _Checkpoint:
    """Load the journal at path for this sweep, or start one with its header."""
    cp = _load_checkpoint(path, header)
    if cp is None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        return _Checkpoint(header, [], 0)
    if cp.next_chunk > header["tasks"]:
        raise ValueError(
            f"checkpoint {path!r} records {cp.next_chunk} subtrees, "
            f"but the sweep has only {header['tasks']}"
        )
    with open(path, "r+b") as fh:
        fh.truncate(cp.end)
    return cp


# Sweeps -------------------------------------------------------------------------

def _sweep(chunk, class_name: str, max_n: int, jobs: int,
           checkpoint: str | None, chunk_size: int,
           source: Iterable[Graph] | None):
    """Visit every graph of order 1..max_n (or of an external stream) once.

    An enumerated sweep visits the orders up to the split here and runs one
    task per subtree below it (see the module docstring); a stream is cut
    into chunk tasks by runs of equal order. Task results, journaled ones
    first, go through add in task order, so lines keep visit order. Returns
    (visited_by_order, lines, bscans).
    """
    visited_by_order: dict[int, int] = {}
    lines: list[str] = []
    bscans = 0

    def add(result: tuple[dict[int, int], list[str], int]) -> None:
        nonlocal bscans
        visited, found, scanned = result
        for n, count in visited.items():
            visited_by_order[n] = visited_by_order.get(n, 0) + count
        lines.extend(found)
        bscans += scanned

    done: list = []
    if source is not None:
        if checkpoint:
            raise ValueError("a checkpoint resumes enumerated sweeps, not a source stream")
        tasks = [(chunk, class_name, c, None)
                 for _, run in groupby(source, key=lambda g: g.n)
                 for c in _chunked(list(run), chunk_size)]
    else:
        check_order(max_n)
        split = max(0, min(_SPLIT, max_n - 1))
        tasks = [(chunk, class_name, root, max_n) for root in graphs_of_order(split)]
        if checkpoint:
            header = {"task": chunk.__name__, "class": class_name, "level": max_n,
                      "split": split, "tasks": len(tasks),
                      "enumerator": ENUMERATOR_VERSION}
            done = _open_journal(checkpoint, header).results
        for n in range(1, split + 1):
            add(_work((chunk, class_name, graphs_of_order(n), None)))
    for result in done:
        add(result)
    for result in _map_tasks(tasks[len(done):], jobs):
        add(result)
        if checkpoint:
            with open(checkpoint, "a", encoding="ascii") as fh:
                fh.write(json.dumps(result) + "\n")
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
    (order, key), making the output independent of worker count. chunk_size
    only cuts a source stream; enumerated sweeps run one task per subtree.
    """
    get_predicate(class_name)  # validate the name before sweeping
    start = time.monotonic()
    visited_by_order, lines, _ = _sweep(
        _mine_chunk, class_name, max_n, jobs, checkpoint, chunk_size, source
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
        _conjecture_chunk, "sum-perfect", max_n, jobs, checkpoint, chunk_size, source
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


def verify_theorem_27(max_n: int = 8, *, jobs: int = 1) -> Theorem27Report:
    """Mine the sum-perfect obstructions and compare them with the built family."""
    result = mine_forbidden("sum-perfect", max_n, jobs=jobs)
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
