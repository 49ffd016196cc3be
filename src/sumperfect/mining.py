"""Minimal forbidden induced subgraph mining and the verification harnesses.

A hereditary class predicate is mined by visiting every isomorphism class up
to a target order and keeping the graphs that fail the predicate while every
proper induced subgraph satisfies it. For the classes the subset DP decides
(sum-perfect, perfect, deficiency:C) one DP pass per graph settles both: the
DP visits vertex subsets in ascending mask order and stops at the first that
breaks the class, so g is a member iff there is none, and minimal forbidden
iff it is the full vertex set, the largest mask, since any other lies inside
some g - v. A graph whose vertices 0..n-2 induce the task's last graph of
order n - 1 (in a walk, its parent) resumes that DP: the masks below 2^(n-1)
come first and are the same. Threshold is decided by elimination instead: a
non-member is minimal forbidden iff each one-vertex deletion is a member.
A sweep to max_n cuts the generation tree at the root order
s = max(1, min(_SPLIT, max_n - 1)), as geng's res/mod splitting does: the
main process visits orders 1..s-1 as one task over one walk, and each
order-s graph roots one task that visits it and its subtree depth-first down
to max_n, so workers enumerate as well as evaluate. Task results are merged
in root order, and the graph6 lines are only read as a set, so output is
identical for every worker count. An external source stream is cut into
tasks of _SOURCE_CHUNK graphs instead, whatever their orders; each task
counts its graphs by order itself. _sweep is the one gate of every sweep:
it refuses out-of-range max_n or jobs, and a stream graph of order above
max_n, with ValueError before anything runs.
An enumerated sweep can checkpoint into an append-only journal: a JSON
header line naming the sweep (task, class, level = max_n, roots = s, the
number of subtree tasks, and the enumerator version, since records follow
the roots by position), then one JSON line [visited by order, lines, bscans]
per completed subtree, covering its root and every graph below it. A rerun
revisits orders below s, adds the journaled results like fresh ones and
runs only the subtrees after them; a journal for another sweep, in an
older format, with more records than tasks, or with a malformed line
other than a torn last one is refused with ValueError.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .canon import canonical_key, check_canon_order
# children_of stays bound for perfbench/tracing.py, which wraps it into the
# enumeration span. It feeds nothing: the walks call enumeration's own
# binding through its memo, and that wrapper makes the enumeration figures.
from .enumeration import (
    ENUMERATOR_VERSION,
    check_order,
    children_of,
    descendants,
)
from .family import build_conjecture_family, build_family
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, delete_vertex
from .induced import PatternSet
from .invariants import (
    _PRODUCT_BOUND,
    _SUM_BOUND,
    _subset_dp,
    clique_number,
    has_deficiency_above,
    is_perfect_lovasz,
    is_sum_perfect_definitional,
    stability_number,
)
from .recognition import check_threshold_theorem, is_threshold, is_threshold_by_obstructions

_SOURCE_CHUNK = 512
_SPLIT = 6


# Class predicates ------------------------------------------------------------

@dataclass(frozen=True)
class ClassPredicate:
    """A named hereditary property; fn decides membership of one graph."""

    name: str
    fn: Callable[[Graph], bool]


class _SubsetForm(NamedTuple):
    """g is a member iff every non-empty induced subgraph S has
    |S| - bound[alpha(S)][omega(S)] <= stop."""

    bound: list[list[int]]
    stop: int


def _resolve(name: str) -> tuple[Callable[[Graph], bool] | None, _SubsetForm | None]:
    """(membership fn, subset-DP form or None) of a class; (None, None) if unknown."""
    if name == "threshold":
        return is_threshold, None
    if name == "sum-perfect":
        return is_sum_perfect_definitional, _SubsetForm(_SUM_BOUND, 0)
    if name == "perfect":
        return is_perfect_lovasz, _SubsetForm(_PRODUCT_BOUND, 0)
    if name.startswith("deficiency:"):
        arg = name.split(":", 1)[1]
        try:  # int() also refuses more digits than sys.get_int_max_str_digits()
            c = int(arg) if arg.isascii() and arg.isdigit() else -1
        except ValueError:
            c = -1
        if c < 0:
            raise ValueError(f"deficiency parameter must be an integer >= 0, got {arg!r}")
        form = _SubsetForm(_SUM_BOUND, c)
        return (lambda g: not has_deficiency_above(g, c)), form
    return None, None


def get_predicate(name: str) -> ClassPredicate:
    """Resolve a predicate name: sum-perfect, threshold, perfect, deficiency:C.
    The predicate spells C in plain decimal (its form's stop), so
    deficiency:01 is named deficiency:1."""
    fn, form = _resolve(name)
    if fn is None:
        raise ValueError(f"unknown class predicate {name!r}")
    if name.startswith("deficiency:"):
        name = f"deficiency:{form.stop}"
    return ClassPredicate(name, fn)


def is_minimal_forbidden(pred: ClassPredicate, g: Graph) -> bool:
    """True iff g fails the class but every one-vertex deletion satisfies it."""
    return _verdict(_resolve(pred.name)[1], pred.fn, g)[1]


def _verdict(form: _SubsetForm | None, fn: Callable[[Graph], bool], g: Graph,
             tables: dict | None = None) -> tuple[bool, bool]:
    """(member, minimal forbidden) of g: one subset-DP pass if the class has
    a form (see the module docstring), else fn on g and its deletions. The
    pass resumes from `tables` where they hold g's prefix (see _subset_dp)."""
    if form is None:
        if fn(g):
            return True, False
        return False, all(fn(delete_vertex(g, v)) for v in range(g.n))
    value, mask = _subset_dp(g, form.bound, form.stop, tables)
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
    tables: dict = {}  # each order's last DP scan, for graphs extending it
    for i, g in enumerate(graphs):
        member, minimal = _verdict(form, fn, g, tables)
        if member:
            # sampled heredity check: members stay members under deletion
            if g.n and (not sampled or (i & 127) == 0):
                sampled = True
                if not fn(delete_vertex(g, 0)):
                    raise AssertionError(f"predicate {class_name!r} is not hereditary")
        elif minimal:
            check_canon_order(g.n)  # a certificate is keyed: refuse it before mining on
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


def _threshold_chunk(class_name: str, graphs: Iterable[Graph]) -> tuple[list[str], int]:
    """Graphs on which the three threshold tests disagree; class_name is unused."""
    lines = [emit_graph6(g) for g in graphs
             if not (is_threshold(g) == is_threshold_by_obstructions(g)
                     == check_threshold_theorem(g))]
    return lines, 0


def _work(task) -> tuple[dict[int, int], list[str], int]:
    """Run one task through its chunk function (_mine_chunk,
    _conjecture_chunk or _threshold_chunk, which return the graph6 lines
    found in visit order and the B-scans run). A task (chunk, class, root,
    max_n) visits root and then its subtree down to order max_n; (chunk,
    class, graphs, None) visits the listed graphs. Returns (visited by
    order, lines, bscans).
    """
    chunk, class_name, graphs, max_n = task
    if max_n is not None:
        graphs = itertools.chain((graphs,), descendants(graphs, max_n))
    visited: dict[int, int] = {}

    def counted() -> Iterator[Graph]:
        for g in graphs:
            visited[g.n] = visited.get(g.n, 0) + 1
            yield g

    return (visited, *chunk(class_name, counted()))


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

def _is_record(rec) -> bool:
    return (isinstance(rec, list) and len(rec) == 3 and type(rec[2]) is int
            and isinstance(rec[0], dict)
            and all(k.isdecimal() and type(v) is int for k, v in rec[0].items())
            and isinstance(rec[1], list) and all(isinstance(x, str) for x in rec[1]))


def _open_journal(path: str, header: dict) -> list[tuple[dict[int, int], list[str], int]]:
    """Open the journal at path for the sweep that header names and return
    the subtree results it records, in order; a missing or empty file is
    started with the header. A header other than this one is refused, even
    over records of an older format. A last line without its newline is a
    torn write: it is dropped and cut off, so the next record starts a fresh
    line. Any other unreadable line (so a non-empty file without a complete
    line, which has no header), or more records than header["tasks"], is
    refused with ValueError before the file is changed.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    if not data:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        return []
    end = data.rfind(b"\n") + 1
    rows = data[:end].splitlines()
    try:
        found = json.loads(rows[0]) if rows else None
        records = [json.loads(row) for row in rows[1:]]
    except ValueError:
        found = records = None
    if isinstance(found, dict) and found != header:
        raise ValueError(
            f"checkpoint {path!r} was written for {json.dumps(found, sort_keys=True)}, "
            f"not {json.dumps(header, sort_keys=True)}"
        )
    if not isinstance(found, dict) or not all(map(_is_record, records)):
        raise ValueError(
            f"checkpoint {path!r} is not a readable checkpoint journal; "
            "delete it to start over"
        )
    if len(records) > header["tasks"]:
        raise ValueError(
            f"checkpoint {path!r} records {len(records)} subtrees, "
            f"but the sweep has only {header['tasks']}"
        )
    with open(path, "r+b") as fh:
        fh.truncate(end)
    return [({int(k): v for k, v in visited.items()}, lines, bscans)
            for visited, lines, bscans in records]


# Sweeps -------------------------------------------------------------------------

def _sweep(chunk, class_name: str, max_n: int, jobs: int,
           checkpoint: str | None, source: Iterable[Graph] | None = None):
    """Visit every graph of order 1..max_n (or of an external stream) once.

    An enumerated sweep walks orders 1..s once, visits those below the root
    order s here as one task and roots one task at each order-s graph (see
    the module docstring). A stream is cut into tasks of _SOURCE_CHUNK
    graphs. Task results, journaled ones first, go through add in task
    order, so lines keep visit order. Returns (visited_by_order, lines,
    bscans).

    Raises ValueError, before any journal, task or worker exists, unless
    max_n >= 1, jobs >= 1, and max_n is within the enumerator (enumerated)
    or no stream graph exceeds it (source).
    """
    if max_n < 1 or jobs < 1:
        raise ValueError(
            f"a sweep needs max_n >= 1 and jobs >= 1, got max_n={max_n}, jobs={jobs}")
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
        graphs = list(source)
        big = max((g.n for g in graphs), default=0)
        if big > max_n:
            raise ValueError(f"source graph of order {big} exceeds max_n {max_n}")
        tasks = [(chunk, class_name, graphs[i : i + _SOURCE_CHUNK], None)
                 for i in range(0, len(graphs), _SOURCE_CHUNK)]
    else:
        check_order(max_n)
        s = max(1, min(_SPLIT, max_n - 1))
        walk = list(descendants(Graph(0, ()), s))
        head = [g for g in walk if g.n < s]
        tasks = [(chunk, class_name, root, max_n) for root in walk if root.n == s]
        if checkpoint:
            header = {"task": chunk.__name__, "class": class_name, "level": max_n,
                      "roots": s, "tasks": len(tasks),
                      "enumerator": ENUMERATOR_VERSION}
            done = _open_journal(checkpoint, header)
        add(_work((chunk, class_name, head, None)))
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
                   source: Iterable[Graph] | None = None) -> MineResult:
    """All minimal forbidden graphs for the class, up to order max_n, or
    among the graphs of source, none of which may exceed order max_n.

    Certificates are deduplicated by canonical key and ordered by
    (order, key), making the output independent of worker count.
    """
    # validate the name before sweeping, and spell it as the results do
    class_name = get_predicate(class_name).name
    visited_by_order, lines, _ = _sweep(
        _mine_chunk, class_name, max_n, jobs, checkpoint, source
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
    )


@dataclass
class ConjectureReport:
    max_n: int
    visited_by_order: dict[int, int]
    deficient_scanned: int
    counterexamples: list[str]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_conjecture(max_n: int = 9, *, jobs: int = 1,
                      checkpoint: str | None = None) -> ConjectureReport:
    """Check that every graph up to order max_n avoiding all 24 six-vertex
    obstructions has alpha + omega >= n - 1; reports any counterexamples
    (expected none)."""
    visited_by_order, bad, scanned = _sweep(
        _conjecture_chunk, "sum-perfect", max_n, jobs, checkpoint
    )
    return ConjectureReport(
        max_n=max_n,
        visited_by_order=visited_by_order,
        deficient_scanned=scanned,
        counterexamples=sorted(set(bad)),
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
    """Mine the sum-perfect obstructions and compare them with the built
    family; max_n must reach 7, the order of members 26 and 27."""
    if max_n < 7:
        raise ValueError(f"theorem27 needs max_n >= 7 for its 7-vertex members, got {max_n}")
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


def verify_threshold_equivalence(max_n: int = 7, *, jobs: int = 1) -> ThresholdReport:
    """Elimination ordering, {P4,C4,2K2}-freeness, and the all-subgraphs
    alpha + omega = |V| + 1 test must agree on every graph of order 1..max_n;
    checked counts the graphs the sweep visits."""
    visited_by_order, bad, _ = _sweep(_threshold_chunk, "threshold", max_n, jobs, None)
    return ThresholdReport(max_n=max_n, checked=sum(visited_by_order.values()),
                           disagreements=bad)


def count_hc_forbidden(c: int, max_n: int, *, jobs: int = 1) -> int:
    """Number of minimal forbidden graphs of order <= max_n for the deficiency-c class."""
    return mine_forbidden(f"deficiency:{c}", max_n, jobs=jobs).total
