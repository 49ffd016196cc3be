"""Minimal forbidden induced subgraph mining and the verification harnesses.

Every sweep runs one loop (_work) over each task's graphs. It hands each
graph to the sweep's visit, which returns a graph6 line or None and keeps
what passes from graph to graph in the task's one state dict:
- mine keeps the graphs that fail a hereditary class while every proper
  induced subgraph is in it. For the classes the subset DP decides
  (sum-perfect, perfect, deficiency:C) one DP pass per graph settles both:
  the DP visits vertex subsets in ascending mask order and stops at the
  first that breaks the class, so g is a member iff there is none, and
  minimal forbidden iff it is the full vertex set, the largest mask, since
  any other lies inside some g - v. Threshold is decided by elimination: a
  non-member is minimal forbidden iff every g - v is a member.
- conjecture runs the same DP with no stop, so every lane is built, and
  reads alpha(g) and omega(g) off the full set's (invariants._full_set). A
  leaf of its walk (order max_n, which each subtree task carries) whose
  stored prefix has deficit <= 0 has deficit <= 1, since alpha and omega
  never shrink when a vertex is added: it gets no scan and no B-check.
- threshold reports the graphs on which three threshold tests disagree.
Both DP sweeps resume the DP of g's prefix where the task stored it (see
invariants._stored_prefix), as an enumerated walk visits each graph right
after its parent.
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
header line naming the sweep (task, the sweep's name; class; level = max_n;
roots = s; the number of subtree tasks; and the enumerator version, since
records follow the roots by position), then one JSON line [visited by
order, lines, bscans] per completed subtree, covering its root and every
graph below it. A rerun revisits orders below s, adds the journaled results
like fresh ones and runs only the subtrees after them; a journal for
another sweep, in an older format, with more records than tasks, with a
record no subtree of its sweep can give, or with a malformed line other
than a torn last one is refused with ValueError.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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
from .family import build_family, has_b_copy
from .graph6 import _decimal, emit_graph6, parse_graph6
from .graphs import Graph, delete_vertex
from .invariants import (
    _full_set,
    _product_bound,
    _stored_prefix,
    _subset_dp,
    _sum_bound,
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


def _lookup(name: str) -> tuple[str, Callable[[Graph], bool] | None, tuple | None]:
    """(spelling, membership fn, subset-DP form) of a class. The spelling
    writes deficiency:C's C in plain decimal. The form (bound, stop) says g
    is a member iff every non-empty induced subgraph S has
    |S| - bound(alpha(S), omega(S)) <= stop (bound in lanes, see
    _subset_dp), or is None. An unknown name keeps its spelling and has
    neither fn nor form."""
    if name == "threshold":
        return name, is_threshold, None
    if name == "sum-perfect":
        return name, is_sum_perfect_definitional, (_sum_bound, 0)
    if name == "perfect":
        return name, is_perfect_lovasz, (_product_bound, 0)
    if name.startswith("deficiency:"):
        arg = name.split(":", 1)[1]
        try:
            c = _decimal(arg)
        except ValueError:
            raise ValueError(
                f"deficiency parameter must be an integer >= 0, got {arg!r}"
            ) from None
        return f"deficiency:{c}", (lambda g: not has_deficiency_above(g, c)), (_sum_bound, c)
    return name, None, None


def get_predicate(name: str) -> ClassPredicate:
    """Resolve a predicate name: sum-perfect, threshold, perfect, deficiency:C
    (named with C in plain decimal, so deficiency:01 is deficiency:1)."""
    spelling, fn, _ = _lookup(name)
    if fn is None:
        raise ValueError(f"unknown class predicate {name!r}")
    return ClassPredicate(spelling, fn)


def is_minimal_forbidden(pred: ClassPredicate, g: Graph) -> bool:
    """True iff g fails the class but every one-vertex deletion satisfies it."""
    return _verdict(_lookup(pred.name)[2], pred.fn, g)[1]


def _verdict(form: tuple | None, fn: Callable[[Graph], bool], g: Graph,
             tables: dict | None = None) -> tuple[bool, bool]:
    """(member, minimal forbidden) of g: one subset-DP pass if the class has
    a form (see the module docstring), else fn on g and its deletions. The
    pass resumes from `tables` where they hold g's prefix (see _subset_dp)."""
    if form is None:
        if fn(g):
            return True, False
        return False, all(fn(delete_vertex(g, v)) for v in range(g.n))
    bound, stop = form
    value, mask = _subset_dp(g, bound, stop, tables)
    if value <= stop:
        return True, False
    return False, mask == g.vertex_mask()


# Sweep visits ------------------------------------------------------------------

def _mine_visit(g: Graph, state: dict) -> str | None:
    """g's line if it is minimal forbidden for the task's class, with a
    sampled heredity check of its members."""
    member, minimal = _verdict(state["form"], state["fn"], g, state["tables"])
    # sampled heredity check: every 128th member of order >= 1, from the
    # first, stays a member under deletion
    if member and g.n:
        state["members"] += 1
        if state["members"] % 128 == 1 and not state["fn"](delete_vertex(g, 0)):
            raise AssertionError(f"predicate {state['class']!r} is not hereditary")
    if not minimal:
        return None
    check_canon_order(g.n)  # a certificate is keyed: refuse it before mining on
    return emit_graph6(g)


def _conjecture_visit(g: Graph, state: dict) -> str | None:
    """g's line if it is a counterexample: deficit >= 2 and no B-copy, each
    B-check counted in state["bscans"]. A leaf (order state["leaf"]) whose
    stored prefix has deficit <= 0 is settled at once (module docstring),
    and nothing is stored: no graph extends it."""
    n, tables = g.n, state["tables"]
    if n == state["leaf"]:
        prev = _stored_prefix(tables, g)
        if prev is not None and n - 1 - sum(_full_set(prev)) <= 0:
            return None
    _subset_dp(g, _sum_bound, None, tables)
    if n - sum(_full_set(tables[n])) <= 1:
        return None
    state["bscans"] += 1
    return None if has_b_copy(g) else emit_graph6(g)


def _threshold_visit(g: Graph, state: dict) -> str | None:
    """g's line if the three threshold tests disagree on it."""
    agree = state["fn"](g) == is_threshold_by_obstructions(g) == check_threshold_theorem(g)
    return None if agree else emit_graph6(g)


_VISITS = {"mine": _mine_visit, "conjecture": _conjecture_visit,
           "threshold": _threshold_visit}


# Worker plumbing ---------------------------------------------------------------

def _work(task) -> tuple[dict[int, int], list[str], int]:
    """Run one task (sweep, class, graphs, max_n): hand each graph in turn
    to the visit _VISITS names for the sweep. With max_n, graphs is a root,
    visited before its subtree down to the leaves, of order max_n; else a
    list. The visits share one state: the class's fn (from get_predicate,
    where a predicate can be substituted), its DP form (from the name
    alone), the DP tables, the leaf order, the B-check count and the
    heredity sample's count. Returns (visited by order, lines in visit
    order, B-checks).
    """
    sweep, class_name, graphs, max_n = task
    if max_n is not None:
        graphs = itertools.chain((graphs,), descendants(graphs, max_n))
    visit = _VISITS[sweep]
    state = {"class": class_name, "fn": get_predicate(class_name).fn,
             "form": _lookup(class_name)[2], "tables": {}, "leaf": max_n,
             "bscans": 0, "members": 0}
    visited: dict[int, int] = {}
    lines: list[str] = []
    for g in graphs:
        visited[g.n] = visited.get(g.n, 0) + 1
        line = visit(g, state)
        if line is not None:
            lines.append(line)
    return visited, lines, state["bscans"]


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

def _is_record(rec, header: dict) -> bool:
    """True iff rec can be one subtree's [visited by order, lines, bscans]
    in the sweep header names: its root order visited once, only orders
    roots..level, each at least once, and 0..visited B-scans."""
    if not (isinstance(rec, list) and len(rec) == 3 and isinstance(rec[0], dict)
            and isinstance(rec[1], list) and all(isinstance(x, str) for x in rec[1])):
        return False
    visited, _, bscans = rec
    orders = {str(n) for n in range(header["roots"], header["level"] + 1)}
    return (visited.keys() <= orders and visited.get(str(header["roots"])) == 1
            and all(type(v) is int and v >= 1 for v in visited.values())
            and type(bscans) is int and 0 <= bscans <= sum(visited.values()))


def _open_journal(path: str, header: dict) -> list[tuple[dict[int, int], list[str], int]]:
    """Open the journal at path for the sweep that header names and return
    the subtree results it records, in order; a missing or empty file is
    started with the header. A header other than this one is refused, even
    over records of an older format. A last line without its newline is a
    torn write: it is dropped and cut off, so the next record starts a fresh
    line. Any other unreadable line (so a non-empty file without a complete
    line, which has no header), a record _is_record refuses, or more
    records than header["tasks"], is refused with ValueError before the
    file is changed.
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
    if not isinstance(found, dict) or not all(_is_record(r, header) for r in records):
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

def _sweep(sweep: str, class_name: str, max_n: int, jobs: int,
           checkpoint: str | None, source: Iterable[Graph] | None = None):
    """Hand every graph of order 1..max_n (or of an external stream) once
    to the visit of `sweep` (see _work).

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
        tasks = [(sweep, class_name, graphs[i : i + _SOURCE_CHUNK], None)
                 for i in range(0, len(graphs), _SOURCE_CHUNK)]
    else:
        check_order(max_n)
        s = max(1, min(_SPLIT, max_n - 1))
        walk = list(descendants(Graph(0, ()), s))
        head = [g for g in walk if g.n < s]
        tasks = [(sweep, class_name, root, max_n) for root in walk if root.n == s]
        if checkpoint:
            header = {"task": sweep, "class": class_name, "level": max_n, "roots": s,
                      "tasks": len(tasks), "enumerator": ENUMERATOR_VERSION}
            done = _open_journal(checkpoint, header)
        add(_work((sweep, class_name, head, None)))
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
    visited_by_order, lines, _ = _sweep("mine", class_name, max_n, jobs,
                                        checkpoint, source)
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
    visited_by_order, bad, scanned = _sweep("conjecture", "sum-perfect", max_n,
                                            jobs, checkpoint)
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
    visited_by_order, bad, _ = _sweep("threshold", "threshold", max_n, jobs, None)
    return ThresholdReport(max_n=max_n, checked=sum(visited_by_order.values()),
                           disagreements=bad)


def count_hc_forbidden(c: int, max_n: int, *, jobs: int = 1) -> int:
    """Number of minimal forbidden graphs of order <= max_n for the deficiency-c class."""
    return mine_forbidden(f"deficiency:{c}", max_n, jobs=jobs).total
