"""The repository benchmark: exact workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Every repetition of a workload runs in a fresh interpreter
(``perfbench/session.py``), and every output is checked; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the lines before it report every metric by name and unit,
the failed checks, the machine and the corpus. The exit code is 0 only when
every check passed.

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``conjecture8``: ``verify_conjecture(8, jobs=2)``, every graph with
  n <= 8 (13,598), with the level sizes, the 2,449 B-scans and the absence
  of counterexamples checked.
- ``mine8``: ``mine_forbidden`` to max_n 8 at jobs=1 for sum-perfect,
  deficiency:1, perfect and threshold in one process (4 x 13,598 graphs).
- ``recognize-mix``: ``sumperfect recognize --witness`` over a seeded
  corpus (see ``corpus.py``); verdicts are compared with the definitional
  DP and every witness is re-checked.

With ``--trace 0`` repetitions run back to back until ``--seconds`` have
passed (at least two) and the end-to-end metrics are medians over them.
``setup_s`` is the median of several fresh interpreters that only import
the package and build the family and pattern indexes.

With ``--trace 1`` one untraced and one traced repetition run at jobs=1
(plus, for conjecture8, one untraced repetition at jobs=2 for the pool's
busy ratio); the per-layer metrics come from the traced one, and
``trace.overhead_ratio`` compares it with the untraced one.

``--wrong-expected`` corrupts one expected count (a self-check: the run
must then fail).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
SETUP_SAMPLES = 11
MIN_REPS = 2
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import corpus as corpus_mod  # noqa: E402


class RepFailed(Exception):
    pass


def _machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], deadline: float) -> dict | None:
    """Run one session; its last stdout line as a dict (None for set-up)."""
    left = deadline - perf_counter()
    if left <= 0:
        raise RepFailed("out of time before the repetition started")
    try:
        proc = subprocess.run(
            [sys.executable, str(SESSION), *args], cwd=ROOT, env=_env(),
            capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition {args} timed out") from exc
    if proc.returncode != 0:
        raise RepFailed(f"repetition {args} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    if "--setup-only" in args:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(deadline: float) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        _spawn(["--setup-only"], deadline)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the data at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    """How to run and check one workload."""

    jobs = 1

    def __init__(self, seed: int, work: Path, wrong_expected: bool):
        self.wrong_expected = wrong_expected
        self.info: dict = {}

    def args(self, jobs: int) -> list[str]:
        return ["--workload", self.name, "--jobs", str(jobs)]

    def check(self, rep: dict) -> list:
        raise NotImplementedError


class Conjecture8(Workload):
    name = "conjecture8"
    jobs = 2

    def check(self, rep):
        levels = dict(checks.CONJECTURE_LEVELS)
        if self.wrong_expected:
            levels[8] += 1
        return checks.check_conjecture(rep["result"], levels)


class Mine8(Workload):
    name = "mine8"

    def check(self, rep):
        totals = {k: v + self.wrong_expected for k, v in checks.MINE_TOTALS.items()}
        return checks.check_mine(rep["result"], totals)


class RecognizeMix(Workload):
    name = "recognize-mix"

    def __init__(self, seed, work, wrong_expected):
        super().__init__(seed, work, wrong_expected)
        self.graphs = corpus_mod.build(seed)
        self.path = work / "corpus.g6"
        self.path.write_text(
            "".join(corpus_mod.to_graph6(n, e) + "\n" for _, n, e in self.graphs),
            encoding="ascii",
        )
        self.expected = corpus_mod.expected_verdicts(self.graphs)
        if wrong_expected:
            self.expected[0] = not self.expected[0]
        self.info = {"corpus": corpus_mod.properties(self.graphs, self.expected)}

    def args(self, jobs):
        return super().args(jobs) + ["--corpus", str(self.path)]

    def check(self, rep):
        return checks.check_recognize(rep["result"], self.graphs, self.expected)


WORKLOADS = {w.name: w for w in (Conjecture8, Mine8, RecognizeMix)}


def _end_to_end(reps: list[dict], setup_s: float) -> dict[str, float]:
    samples = [x for r in reps for x in r.get("latencies_ms", [])]
    if samples:
        p50, p99 = _percentile(samples, 0.50), _percentile(samples, 0.99)
    else:
        # A sweep writes nothing per graph: both figures are then the
        # median over repetitions of the mean time per graph.
        p50 = p99 = statistics.median(1e3 * r["wall_s"] / r["graphs"] for r in reps)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "setup_s": setup_s,
        "graphs_per_s": statistics.median(r["graphs"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "graph_p50_ms": p50,
        "graph_p99_ms": p99,
    }


def _per_layer(pool: dict | None, plain: dict, traced: dict) -> dict:
    out = dict(traced["layers"])
    out["mining.pool.busy_ratio"] = (
        pool["worker_cpu_s"] / (pool["jobs"] * pool["wall_s"]) if pool else 0.0
    )
    out["family.build_s"] = traced["family_build_s"]
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args(argv)

    deadline = perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "sumperfect" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    machine = _machine()
    load_before = os.getloadavg()
    attempted = failed = 0
    failures: list[str] = []
    reps: list[dict] = []
    metrics: dict[str, float] = {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def record(results: list) -> None:
        nonlocal attempted, failed
        for what, ok in results:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(what)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        workload = WORKLOADS[args.workload](args.seed, Path(work), args.wrong_expected)
        try:
            if args.trace:
                pool = None
                if workload.jobs > 1:
                    pool = _spawn(workload.args(workload.jobs), deadline)
                    reps.append(pool)
                plain = _spawn(workload.args(1), deadline)
                traced = _spawn(workload.args(1) + ["--trace"], deadline)
                reps += [plain, traced]
                # A binding the tracer could not wrap would read 0, not fail.
                missing = ", ".join(traced["unwrapped"]) or "none"
                record([(f"tracer wrapped every binding (missing: {missing})",
                         not traced["unwrapped"])])
                metrics = _per_layer(pool, plain, traced)
            else:
                setup_s = _setup_seconds(deadline)
                start = perf_counter()
                while len(reps) < MIN_REPS or perf_counter() - start < args.seconds:
                    if reps and perf_counter() + 1.5 * reps[-1]["wall_s"] > deadline:
                        break
                    reps.append(_spawn(workload.args(workload.jobs), deadline))
                metrics = _end_to_end(reps, setup_s)
            for rep in reps:
                record(workload.check(rep))
        except RepFailed as exc:
            record([(str(exc), False)])

    if not failed:
        record([(f"metric {m['name']} computed", m["name"] in metrics) for m in wanted])
    correct = failed == 0
    out_metrics = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in metrics
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": [{"jobs": r["jobs"], "traced": r["traced"], "wall_s": r["wall_s"]}
                        for r in reps],
        "machine": {**machine, "load_before": load_before, "load_after": os.getloadavg()},
        **workload.info,
        "fail_ratio": failed / attempted if attempted else None,
        "failures": failures[:20],
    }
    print(json.dumps(report))
    for name, m in out_metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':28s} {failed}/{attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
