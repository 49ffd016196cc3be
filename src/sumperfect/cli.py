"""Command-line interface: analyze, family, recognize, mine, verify.

Inputs are graph6 lines or edge-list blocks (first line n, then 'u v' lines,
blocks separated by blank lines); '-' reads stdin. Exit codes: 0 clean,
1 mathematical counterexample, 2 usage, parse or file error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .enumeration import ENUM_MAX
from .family import build_conjecture_family, build_family
from .graph6 import FormatError, emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .graphs import Graph
from .invariants import compute_report
from .mining import (
    get_predicate,
    mine_forbidden,
    verify_conjecture,
    verify_theorem_27,
    verify_threshold_equivalence,
)
from .recognition import (
    ForbiddenCopy,
    find_forbidden_copies,
    is_apex_threshold,
    is_split,
    is_sum_perfect,
    is_threshold,
    witness_vertices,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


@dataclass
class ParsedInput:
    graphs: list[tuple[str, Graph]]
    errors: list[str]


def _read_text(path: str) -> str:
    # A non-ASCII byte decodes to U+FFFD, which neither parser accepts, so
    # only its own line (or edge-list block) fails, from stdin as from a file.
    if path == "-":
        return sys.stdin.buffer.read().decode("ascii", errors="replace")
    with open(path, "rb") as fh:
        return fh.read().decode("ascii", errors="replace")


def _parse_stream(text: str, fmt: str) -> ParsedInput:
    """Split input into graphs. graph6 is line-oriented; edge lists are
    blank-line separated blocks. 'auto' sniffs: a leading integer means edges."""
    graphs: list[tuple[str, Graph]] = []
    errors: list[str] = []
    stripped = [ln.strip() for ln in text.splitlines()]
    if fmt == "auto":
        first = next((ln for ln in stripped if ln), "")
        fmt = "edges" if first.isdigit() else "graph6"
    if fmt == "graph6":
        for i, line in enumerate(stripped, start=1):
            if not line or line.startswith("#"):
                continue
            try:
                graphs.append((f"line {i}", parse_graph6(line)))
            except FormatError as exc:
                errors.append(f"line {i}: {exc}")
        return ParsedInput(graphs, errors)
    # edge-list blocks
    block: list[str] = []
    start_line = 1
    for i, line in enumerate(stripped + [""], start=1):
        if line:
            if not block:
                start_line = i
            block.append(line)
            continue
        if block:
            try:
                graphs.append((f"line {start_line}", parse_edge_list("\n".join(block))))
            except FormatError as exc:
                errors.append(f"line {start_line}: {exc}")
            block = []
    return ParsedInput(graphs, errors)


def _read_graphs(path: str, fmt: str) -> ParsedInput:
    return _parse_stream(_read_text(path), fmt)


# analyze ----------------------------------------------------------------------

def _analysis_record(gid: str, g: Graph) -> dict:
    report = compute_report(g)
    verdict, witness = is_sum_perfect(g)
    rec: dict = {"id": gid, **report.to_dict(), "sum_perfect": verdict}
    wv = witness_vertices(witness)
    rec["witness_kind"] = wv.pop("kind")
    rec["witness"] = wv
    ev = witness.evidence
    rec["forbidden_index"] = ev.index if isinstance(ev, ForbiddenCopy) else None
    rec["forbidden_name"] = ev.name if isinstance(ev, ForbiddenCopy) else None
    rec["threshold"] = is_threshold(g)
    rec["split"] = is_split(g) is not None
    rec["apex_threshold"] = is_apex_threshold(g) is not None
    return rec


_ANALYZE_COLUMNS = (
    "id", "n", "alpha", "omega", "tau", "nu", "triangles", "deficit",
    "sum_perfect", "forbidden_name", "threshold", "split", "apex_threshold",
)


def cmd_analyze(args) -> int:
    parsed = _read_graphs(args.input, args.input_format)
    for err in parsed.errors:
        print(f"parse error: {err}", file=sys.stderr)
    records = [_analysis_record(gid, g) for gid, g in parsed.graphs]
    if args.format == "json":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        rows = [
            [str(rec[c]) if rec[c] is not None else "-" for c in _ANALYZE_COLUMNS]
            for rec in records
        ]
        widths = [
            max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
            for i, c in enumerate(_ANALYZE_COLUMNS)
        ]
        print("  ".join(c.ljust(w) for c, w in zip(_ANALYZE_COLUMNS, widths)))
        for r in rows:
            print("  ".join(x.ljust(w) for x, w in zip(r, widths)))
    return EXIT_USAGE if parsed.errors else EXIT_OK


# family -----------------------------------------------------------------------

def cmd_family(args) -> int:
    if args.set == "F":
        members = list(build_family())
    else:
        members = list(build_conjecture_family())
    if args.format == "json":
        for m in members:
            print(json.dumps({
                "index": m.index,
                "name": m.name,
                "n": m.graph.n,
                "graph6": emit_graph6(m.graph),
                "edges": list(m.graph.edges()),
            }))
    elif args.format == "graph6":
        for m in members:
            print(emit_graph6(m.graph))
    elif args.format == "edges":
        for m in members:
            print(f"# {m.index} {m.name}")
            print(emit_edge_list(m.graph))
            print()
    else:
        for m in members:
            print(f"{m.index}\t{m.name}\t{emit_graph6(m.graph)}")
    return EXIT_OK


# recognize ----------------------------------------------------------------------

def cmd_recognize(args) -> int:
    parsed = _read_graphs(args.input, args.input_format)
    for err in parsed.errors:
        print(f"parse error: {err}", file=sys.stderr)
    for gid, g in parsed.graphs:
        verdict, witness = is_sum_perfect(g)
        ev = witness.evidence
        rec = {
            "id": gid,
            "verdict": verdict,
            "witness_kind": None,
            "witness_vertices": None,
            "forbidden_index": ev.index if isinstance(ev, ForbiddenCopy) else None,
            "forbidden_name": ev.name if isinstance(ev, ForbiddenCopy) else None,
        }
        if args.witness or args.all_witnesses or not verdict:
            wv = witness_vertices(witness)
            rec["witness_kind"] = wv.pop("kind")
            rec["witness_vertices"] = wv.get("vertices", wv or None)
        if args.all_witnesses and not verdict:
            rec["all_copies"] = [
                {
                    "forbidden_index": c.index,
                    "forbidden_name": c.name,
                    "vertices": list(c.embedding.mapping),
                }
                for c in find_forbidden_copies(g, limit=None)
            ]
        print(json.dumps(rec))
    return EXIT_USAGE if parsed.errors else EXIT_OK


# mine ---------------------------------------------------------------------------

def cmd_mine(args) -> int:
    try:
        get_predicate(args.cls)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    source = None
    if args.source:
        parsed = _read_graphs(args.source, args.input_format)
        if parsed.errors:
            for err in parsed.errors:
                print(f"parse error: {err}", file=sys.stderr)
            return EXIT_USAGE
        source = [g for _, g in parsed.graphs]
    result = mine_forbidden(
        args.cls, args.max_n, jobs=args.jobs,
        checkpoint=args.checkpoint, source=source,
    )
    for _, g in result.certificates:
        print(emit_graph6(g))
    print(json.dumps(result.summary(), sort_keys=True))
    return EXIT_OK


# verify --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.target == "theorem27":
        report = verify_theorem_27(args.max_n, jobs=args.jobs)
        counts = report.mine.counts_by_order
        print(f"visited {report.mine.visited} graphs up to n={args.max_n}")
        print(f"minimal forbidden counts by order: {dict(sorted(counts.items()))}")
        print(f"family keys match: {report.keys_match_family}")
        print(f"per-order counts {{5:1, 6:24, 7:2}}: {report.counts_by_order_ok}")
        print(f"none above 7 vertices: {report.none_above_seven}")
        print(f"max(alpha, omega) <= 3 on every certificate: {report.alpha_omega_bounded}")
        if report.passed:
            print("theorem27: PASS")
            return EXIT_OK
        print("theorem27: FAIL")
        for _, g in report.mine.certificates:
            if g.n > 7:
                print(f"counterexample: {emit_graph6(g)}")
        return EXIT_COUNTEREXAMPLE
    if args.target == "conjecture":
        report = verify_conjecture(
            args.max_n, jobs=args.jobs, checkpoint=args.checkpoint
        )
        print(f"visited by order: {dict(sorted(report.visited_by_order.items()))}")
        print(f"graphs needing the obstruction scan: {report.deficient_scanned}")
        print(f"counterexamples: {len(report.counterexamples)}")
        if report.passed:
            print("conjecture: PASS")
            return EXIT_OK
        print("conjecture: FAIL")
        print(f"counterexample: {report.counterexamples[0]}")
        return EXIT_COUNTEREXAMPLE
    report = verify_threshold_equivalence(args.max_n)
    print(f"checked {report.checked} graphs up to n={args.max_n}")
    print(f"disagreements: {len(report.disagreements)}")
    if report.passed:
        print("threshold: PASS")
        return EXIT_OK
    print("threshold: FAIL")
    print(f"counterexample: {report.disagreements[0]}")
    return EXIT_COUNTEREXAMPLE


# parser ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumperfect",
        description="Exact invariants, recognition, and forbidden-subgraph mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input file of graphs, or - for stdin")
        p.add_argument("--input-format", choices=("auto", "graph6", "edges"),
                       default="auto")

    p = sub.add_parser("analyze", help="invariants and class flags per input graph")
    add_input(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("family", help="emit the obstruction family")
    p.add_argument("--set", choices=("F", "B"), default="F",
                   help="F: all 27; B: the 24 six-vertex members")
    p.add_argument("--format", choices=("text", "json", "graph6", "edges"),
                   default="text")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("recognize", help="sum-perfect verdict with witness (JSON lines)")
    add_input(p)
    p.add_argument("--witness", action="store_true",
                   help="include witness vertices even for positive verdicts")
    p.add_argument("--all-witnesses", action="store_true",
                   help="list every forbidden copy, not just the first")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("mine", help="mine minimal forbidden graphs for a class")
    p.add_argument("--class", dest="cls", required=True,
                   help="sum-perfect | threshold | perfect | deficiency:C")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--source", default=None,
                   help="mine an external graph stream instead of enumerating")
    p.add_argument("--input-format", choices=("auto", "graph6", "edges"),
                   default="auto")
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("verify", help="run a verification harness")
    p.add_argument("target", choices=("theorem27", "conjecture", "threshold"))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


_VERIFY_DEFAULT_MAX_N = {"theorem27": 8, "conjecture": 9, "threshold": 7}
# max-n ranges; theorem27 needs order 7 to meet the two 7-vertex members.
_VERIFY_ENVELOPE = {"theorem27": (7, 9), "conjecture": (1, ENUM_MAX), "threshold": (1, 8)}
_MINE_ENVELOPE = (1, ENUM_MAX)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "verify":
        if args.max_n is None:
            args.max_n = _VERIFY_DEFAULT_MAX_N[args.target]
        if args.checkpoint and args.target != "conjecture":
            print(f"error: verify {args.target} cannot checkpoint", file=sys.stderr)
            return EXIT_USAGE
        name, (lo, hi) = f"verify {args.target}", _VERIFY_ENVELOPE[args.target]
    elif args.command == "mine":
        name, (lo, hi) = "mine", _MINE_ENVELOPE
    if args.command in ("verify", "mine"):
        if not lo <= args.max_n <= hi:
            print(f"error: {name} supports max-n in {lo}..{hi}", file=sys.stderr)
            return EXIT_USAGE
        if args.jobs < 1:
            print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
