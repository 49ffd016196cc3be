"""Command-line interface: analyze, family, recognize, mine, verify.

Input is read line by line from a file or from stdin ('-'): graph6 lines or
edge-list blocks (first line n, then 'u v' lines, blocks separated by blank
lines). Blank and '#' lines are skipped in both formats; --input-format auto
picks edge lists iff the first remaining line is an integer. recognize and
analyze --format json print each record as its graph is read (analyze text
waits to size its columns); mine --source reads the whole stream, whose
orders --max-n caps. A graph that does not parse is one 'parse error:'
line on stderr. Size limits are checked by the library functions that own
them; a ValueError they raise is printed as one 'error:' line. Exit codes:
0 clean, 1 mathematical counterexample, 2 usage, parse or file error.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
from typing import Iterator

from .family import build_conjecture_family, build_family
from .graph6 import FormatError, emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .graphs import Graph, vertices_of
from .induced import PatternHit
from .invariants import StableCliquePair, compute_report
from .mining import (
    mine_forbidden,
    verify_conjecture,
    verify_theorem_27,
    verify_threshold_equivalence,
)
from .recognition import (
    find_forbidden_copies,
    is_apex_threshold,
    is_split,
    is_sum_perfect,
    is_threshold,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _read_graphs(path: str, fmt: str, failed: list[str]) -> Iterator[tuple[str, Graph]]:
    """(id, graph) for each graph of a file or of stdin ('-'), read line by
    line; the id names the graph's first line. A graph that does not parse
    is reported on stderr as 'parse error: <id>: <message>' and its id is
    appended to `failed`. Blank and '#' lines are skipped. graph6 has one
    graph per line; an edge list is a block of lines that ends at a blank
    line. 'auto' picks edges iff the first remaining line is an integer."""
    raw = sys.stdin.buffer if path == "-" else open(path, "rb")
    # A non-ASCII byte decodes to U+FFFD, which neither parser accepts, so
    # only its own line (or edge-list block) fails, from stdin as from a file.
    # newline="" ends lines at LF, CRLF or CR; splitlines() also cuts at the
    # other separators str.splitlines knows (\v, \f, \x1c..\x1e).
    text = io.TextIOWrapper(raw, encoding="ascii", errors="replace", newline="")
    try:
        lines = (ln.strip() for physical in text for ln in physical.splitlines())
        block: list[str] = []
        start = 0
        for i, line in enumerate(itertools.chain(lines, [""]), start=1):
            if line.startswith("#"):
                continue
            if fmt == "auto" and line:
                fmt = "edges" if line.isdigit() else "graph6"
            if fmt == "edges" and line:
                if not block:
                    start = i
                block.append(line)
                continue
            if fmt == "graph6" and line:
                gid, parse, item = f"line {i}", parse_graph6, line
            elif block:
                gid, parse, item = f"line {start}", parse_edge_list, "\n".join(block)
                block = []
            else:
                continue
            try:
                g = parse(item)
            except FormatError as exc:
                print(f"parse error: {gid}: {exc}", file=sys.stderr)
                failed.append(gid)
                continue
            yield gid, g
    finally:
        # Closing the wrapper would close its buffer, stdin's included.
        if raw is sys.stdin.buffer:
            text.detach()
        else:
            text.close()


def _witness(ev: PatternHit | StableCliquePair) -> tuple:
    """(kind, vertex content, forbidden index, forbidden name) of the evidence."""
    if isinstance(ev, PatternHit):
        copy = {"vertices": list(ev.embedding.mapping)}
        return "forbidden_copy", copy, ev.label.index, ev.label.name
    pair = {"stable": list(vertices_of(ev.stable)), "clique": list(vertices_of(ev.clique))}
    return "stable_clique_pair", pair, None, None


# analyze ----------------------------------------------------------------------

def _analysis_record(gid: str, g: Graph) -> dict:
    verdict, ev = is_sum_perfect(g)
    kind, content, index, name = _witness(ev)
    return {
        "id": gid, **compute_report(g).to_dict(), "sum_perfect": verdict,
        "witness_kind": kind, "witness": content,
        "forbidden_index": index, "forbidden_name": name,
        "threshold": is_threshold(g),
        "split": is_split(g) is not None,
        "apex_threshold": is_apex_threshold(g) is not None,
    }


_ANALYZE_COLUMNS = (
    "id", "n", "alpha", "omega", "tau", "nu", "triangles", "deficit",
    "sum_perfect", "forbidden_name", "threshold", "split", "apex_threshold",
)


def cmd_analyze(args) -> int:
    failed: list[str] = []
    records = []
    for gid, g in _read_graphs(args.input, args.input_format, failed):
        if args.format == "json":
            print(json.dumps(_analysis_record(gid, g), sort_keys=True))
        else:
            records.append(_analysis_record(gid, g))
    if args.format == "text":
        rows = [_ANALYZE_COLUMNS] + [
            [str(rec[c]) if rec[c] is not None else "-" for c in _ANALYZE_COLUMNS]
            for rec in records
        ]
        # The last column is not padded.
        widths = [max(map(len, col)) for col in zip(*rows)][:-1] + [0]
        for r in rows:
            print("  ".join(x.ljust(w) for x, w in zip(r, widths)))
    return EXIT_USAGE if failed else EXIT_OK


# family -----------------------------------------------------------------------

def cmd_family(args) -> int:
    for m in build_family() if args.set == "F" else build_conjecture_family():
        g6 = emit_graph6(m.graph)
        if args.format == "json":
            line = json.dumps({"index": m.index, "name": m.name, "n": m.graph.n,
                               "graph6": g6, "edges": list(m.graph.edges())})
        elif args.format == "graph6":
            line = g6
        elif args.format == "edges":
            line = f"# {m.index} {m.name}\n{emit_edge_list(m.graph)}\n"
        else:
            line = f"{m.index}\t{m.name}\t{g6}"
        print(line)
    return EXIT_OK


# recognize ----------------------------------------------------------------------

def cmd_recognize(args) -> int:
    failed: list[str] = []
    for gid, g in _read_graphs(args.input, args.input_format, failed):
        verdict, ev = is_sum_perfect(g)
        kind, content, index, name = _witness(ev)
        shown = args.witness or args.all_witnesses or not verdict
        rec = {
            "id": gid,
            "verdict": verdict,
            "witness_kind": kind if shown else None,
            # A copy's vertices are listed bare on this wire format.
            "witness_vertices": content.get("vertices", content) if shown else None,
            "forbidden_index": index,
            "forbidden_name": name,
        }
        if args.all_witnesses and not verdict:
            rec["all_copies"] = [
                {
                    "forbidden_index": c.label.index,
                    "forbidden_name": c.label.name,
                    "vertices": list(c.embedding.mapping),
                }
                for c in find_forbidden_copies(g, limit=None)
            ]
        print(json.dumps(rec))
    return EXIT_USAGE if failed else EXIT_OK


# mine ---------------------------------------------------------------------------

def cmd_mine(args) -> int:
    source = None
    if args.source:
        failed: list[str] = []
        source = [g for _, g in _read_graphs(args.source, args.input_format, failed)]
        if failed:
            return EXIT_USAGE
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
    # Each target's default max-n is its library function's.
    sized = {} if args.max_n is None else {"max_n": args.max_n}
    # Each target gives its report lines and the counterexamples a FAIL
    # prints: every certificate above 7 vertices, or the first one found.
    if args.target == "theorem27":
        report = verify_theorem_27(**sized, jobs=args.jobs)
        counts = report.mine.counts_by_order
        lines = [
            f"visited {report.mine.visited} graphs up to n={report.mine.max_n}",
            f"minimal forbidden counts by order: {dict(sorted(counts.items()))}",
            f"family keys match: {report.keys_match_family}",
            f"per-order counts {{5:1, 6:24, 7:2}}: {report.counts_by_order_ok}",
            f"none above 7 vertices: {report.none_above_seven}",
            f"max(alpha, omega) <= 3 on every certificate: {report.alpha_omega_bounded}",
        ]
        examples = [emit_graph6(g) for _, g in report.mine.certificates if g.n > 7]
    elif args.target == "conjecture":
        report = verify_conjecture(**sized, jobs=args.jobs, checkpoint=args.checkpoint)
        lines = [
            f"visited by order: {dict(sorted(report.visited_by_order.items()))}",
            f"graphs needing the obstruction scan: {report.deficient_scanned}",
            f"counterexamples: {len(report.counterexamples)}",
        ]
        examples = report.counterexamples[:1]
    else:
        report = verify_threshold_equivalence(**sized, jobs=args.jobs)
        lines = [
            f"checked {report.checked} graphs up to n={report.max_n}",
            f"disagreements: {len(report.disagreements)}",
        ]
        examples = report.disagreements[:1]
    print("\n".join([*lines, f"{args.target}: {'PASS' if report.passed else 'FAIL'}"]))
    if report.passed:
        return EXIT_OK
    for example in examples:
        print(f"counterexample: {example}")
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "verify" and args.checkpoint and args.target != "conjecture":
        print(f"error: verify {args.target} cannot checkpoint", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
