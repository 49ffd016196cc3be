"""Per-layer tracing from outside the package.

Every wrapper replaces a name that a consumer module binds (for example
``enumeration.canonical_key`` or ``induced.induced_subgraph``), so a call is
attributed to the module that makes it. Hot primitives only count calls;
coarse boundaries are spans that also sum their duration. A span's self time
is its duration minus the time of the spans nested inside it, so the self
times of all spans add up to the time covered by the outermost ones.

Wrappers must be installed before the program resolves a predicate or
builds a pattern index, because those keep references to the functions they
were given.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


class Tracer:
    """Summed counters and span times, kept in memory for one process."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self._stack: list[list] = []

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()
        self.self_seconds.clear()

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, nested = self._stack.pop()
        took = perf_counter() - start
        self.seconds[name] += took
        self.self_seconds[name] += took - nested
        if self._stack:
            self._stack[-1][2] += took

    def span(self, name: str, fn, on_result=None):
        """Wrap fn as a span; on_result(result, args) may bump more counters."""

        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn (a function or a class) so that it only counts its calls under name."""
        counts = self.counts

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap the consumer bindings of every traced layer.

    Returns the bindings that could not be wrapped because the program no
    longer has them. Their figures would silently read 0, so a traced run
    with any of them must fail until the wrapper is moved on purpose.
    """
    from sumperfect import cli, enumeration, induced, mining, recognition

    t = tracer
    missing: list[str] = []

    def _patch(owner, attr: str, make) -> None:
        if hasattr(owner, attr):
            setattr(owner, attr, make(getattr(owner, attr)))
        else:
            missing.append(f"{owner.__name__}.{attr}")

    def children(result, args):
        t.counts["enumeration.parents"] += 1
        t.counts["enumeration.children"] += len(result)

    for mod in (enumeration, mining):
        _patch(mod, "children_of", lambda f: t.span("enumeration", f, children))
    # Every one-vertex extension that survives the degree tests is built as a
    # Graph before the remaining tests, so the Graph constructions inside
    # enumeration are its candidates (plus the empty graph, built once).
    _patch(enumeration, "Graph", lambda f: t.counter("enumeration.candidates", f))

    _patch(enumeration, "canonical_key", lambda f: t.span("canon.enumeration", f))
    _patch(enumeration, "induced_subgraph",
           lambda f: t.counter("graphs.calls.enumeration", f))
    _patch(mining, "canonical_key", lambda f: t.span("canon.mining", f))
    _patch(induced, "canonical_labeling", lambda f: t.span("canon.induced", f))
    _patch(induced, "induced_subgraph", lambda f: t.counter("induced.subsets", f))
    _patch(mining, "delete_vertex", lambda f: t.counter("mining.deletions", f))

    # Subset DPs: count the graphs each one puts outside its class.
    def rejected_when(value):
        def note(result, args):
            if result is value:
                t.counts["invariants.dp.rejects"] += 1
        return note

    _patch(mining, "has_deficiency_above",
           lambda f: t.span("invariants.dp", f, rejected_when(True)))
    for attr in ("is_sum_perfect_definitional", "is_perfect_lovasz"):
        _patch(mining, attr, lambda f: t.span("invariants.dp", f, rejected_when(False)))

    for mod, attrs in ((mining, ("stability_number", "clique_number")),
                       (recognition, ("max_stable_set", "max_clique"))):
        for attr in attrs:
            _patch(mod, attr, lambda f: t.span("invariants.clique", f))

    def predicate(get):
        @functools.wraps(get)
        def wrapper(name):
            pred = get(name)
            return type(pred)(pred.name, t.counter("mining.predicate.calls", pred.fn))
        return wrapper

    _patch(mining, "get_predicate", predicate)
    for attr in ("mine_forbidden", "verify_conjecture"):
        _patch(mining, attr, lambda f: t.span("mining", f))

    for mod in (mining, cli):
        _patch(mod, "parse_graph6", lambda f: t.span("graph6.parse", f))
        _patch(mod, "emit_graph6", lambda f: t.span("graph6.emit", f))
    _patch(cli, "is_sum_perfect", lambda f: t.span("recognition", f))

    # A subset whose fingerprint matches some pattern is canonically
    # labelled, so the labellings made during a scan are its fingerprint passes.
    canon_calls = "canon.induced.calls"

    def traced(scan):
        @functools.wraps(scan)
        def traced_scan(self, host):
            inner = scan(self, host)
            t.counts["induced.scans"] += 1
            try:
                while True:
                    before = t.counts[canon_calls]
                    t.enter("induced")
                    try:
                        hit = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t.leave()
                        t.counts["induced.fp_passes"] += t.counts[canon_calls] - before
                    t.counts["induced.hits"] += 1
                    yield hit
            finally:
                inner.close()

        return traced_scan

    _patch(induced.PatternSet, "scan", traced)
    return missing


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced repetition, by metric name."""
    c, s, own = tracer.counts, tracer.seconds, tracer.self_seconds
    out = {
        "enumeration.parents": c["enumeration.parents"],
        "enumeration.children": c["enumeration.children"],
        "enumeration.candidates": c["enumeration.candidates"],
        "enumeration.accept_ratio": _ratio(c["enumeration.children"],
                                           c["enumeration.candidates"]),
        "enumeration.s": s["enumeration"],
        "enumeration.self_s": own["enumeration"],
        "canon.keys_per_child": _ratio(c["canon.enumeration.calls"],
                                       c["enumeration.children"]),
        "induced.scans": c["induced.scans"],
        "induced.subsets": c["induced.subsets"],
        "induced.fp_passes": c["induced.fp_passes"],
        "induced.hits": c["induced.hits"],
        "induced.fp_pass_ratio": _ratio(c["induced.fp_passes"], c["induced.subsets"]),
        "induced.hit_ratio": _ratio(c["induced.hits"], c["induced.fp_passes"]),
        "induced.s": s["induced"],
        "induced.self_s": own["induced"],
        "invariants.dp.calls": c["invariants.dp.calls"],
        "invariants.dp.s": s["invariants.dp"],
        "invariants.dp.reject_ratio": _ratio(c["invariants.dp.rejects"],
                                             c["invariants.dp.calls"]),
        "invariants.clique.calls": c["invariants.clique.calls"],
        "invariants.clique.s": s["invariants.clique"],
        "recognition.calls": c["recognition.calls"],
        "recognition.s": s["recognition"],
        "recognition.self_s": own["recognition"],
        "mining.s": s["mining"],
        "mining.self_s": own["mining"],
        "mining.predicate.calls": c["mining.predicate.calls"],
        "mining.deletions": c["mining.deletions"],
        "graph6.parse.calls": c["graph6.parse.calls"],
        "graph6.parse.s": s["graph6.parse"],
        "graph6.emit.calls": c["graph6.emit.calls"],
        "graph6.emit.s": s["graph6.emit"],
        "cli.self_s": own["cli"],
        "graphs.calls.enumeration": c["graphs.calls.enumeration"],
    }
    for site in ("enumeration", "mining", "induced"):
        out[f"canon.calls.{site}"] = c[f"canon.{site}.calls"]
        out[f"canon.s.{site}"] = s[f"canon.{site}"]
    return out
