"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/session.py --workload W [--jobs N] [--trace] [--corpus F]
    python3 perfbench/session.py --setup-only

The package is imported from the checkout's ``src``. Set-up (imports, the
27-member family, the conjecture's 24-member subfamily and the recognition
pattern index) runs before the clock starts. Wall and CPU time cover only
the workload; CPU time adds the parent's own time and that of every worker
process it reaped. The last stdout line is one JSON object with the timings,
the workload's raw results for the checks and, with --trace, the per-layer
counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class _LineClock:
    """A stdout stand-in that keeps each output line and when it was written."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._part: list[str] = []

    def write(self, text: str) -> int:
        parts = text.split("\n")
        self._part.append(parts[0])
        if len(parts) > 1:
            now = perf_counter()
            for part in parts[1:]:
                self.lines.append("".join(self._part))
                self.stamps.append(now)
                self._part = [part]
        return len(text)

    def flush(self) -> None:
        pass


def _graph_record(g) -> list:
    return [g.n, [list(e) for e in g.edges()]]


def _conjecture8(jobs: int, corpus: str | None, tracer) -> tuple[int, dict, dict]:
    from sumperfect import mining

    report = mining.verify_conjecture(8, jobs=jobs)
    result = {
        "visited_by_order": report.visited_by_order,
        "deficient_scanned": report.deficient_scanned,
        "counterexamples": len(report.counterexamples),
    }
    return sum(report.visited_by_order.values()), result, {}


def _mine8(jobs: int, corpus: str | None, tracer) -> tuple[int, dict, dict]:
    from sumperfect import build_family, mining

    classes = ("sum-perfect", "deficiency:1", "perfect", "threshold")
    mined = [mining.mine_forbidden(cls, 8, jobs=jobs) for cls in classes]
    result = {"classes": {}, "family": [_graph_record(m.graph) for m in build_family()]}
    for cls, r in zip(classes, mined):
        result["classes"][cls] = {
            "counts_by_order": r.counts_by_order,
            "total": r.total,
            "certificates": ([_graph_record(g) for _, g in r.certificates]
                             if cls == "sum-perfect" else []),
        }
    return sum(r.visited for r in mined), result, {}


def _recognize_mix(jobs: int, corpus: str | None, tracer) -> tuple[int, dict, dict]:
    from sumperfect import cli

    clock = _LineClock()
    real = sys.stdout
    sys.stdout = clock
    start = perf_counter()
    try:
        if tracer is not None:
            tracer.enter("cli")
        try:
            code = cli.main(["recognize", "--witness", corpus])
        finally:
            if tracer is not None:
                tracer.leave()
    finally:
        sys.stdout = real
    stamps = [start] + clock.stamps
    latencies = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    result = {"exit_code": code, "lines": [json.loads(line) for line in clock.lines]}
    return len(clock.lines), result, {"latencies_ms": latencies}


WORKLOADS = {
    "conjecture8": _conjecture8,
    "mine8": _mine8,
    "recognize-mix": _recognize_mix,
}


def _setup():
    """Imports plus the family and pattern indexes; returns their build time."""
    from sumperfect import build_conjecture_family, build_family, is_sum_perfect
    from sumperfect.graphs import Graph

    start = perf_counter()
    build_family()
    build_conjecture_family()
    is_sum_perfect(Graph(0, ()))  # builds the recognition pattern index
    return perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corpus")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    unwrapped: list[str] = []
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        unwrapped = install(tracer)
    family_build_s = _setup()
    if args.setup_only:
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if tracer is not None:
        tracer.reset()  # count the workload only, not set-up
    cpu0, kids0, t0 = process_time(), _children_cpu(), perf_counter()
    graphs, result, extra = WORKLOADS[args.workload](args.jobs, args.corpus, tracer)
    wall = perf_counter() - t0
    kids = _children_cpu() - kids0
    cpu = process_time() - cpu0 + kids

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "workload": args.workload,
        "jobs": args.jobs,
        "traced": tracer is not None,
        "graphs": graphs,
        "wall_s": wall,
        "cpu_s": cpu,
        "worker_cpu_s": kids,
        "peak_rss_mb": max(own, reaped) / 1024.0,
        "family_build_s": family_build_s,
        "result": result,
        **extra,
    }
    if tracer is not None:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer)
        out["unwrapped"] = unwrapped
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
