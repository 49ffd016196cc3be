"""Compare two checkouts by alternating repetitions of one workload.

    python3 perfbench/pairs.py --base DIR --workload NAME [--pairs 10] [--seed 1]

DIR is another checkout of the repository (for example the parent commit,
made with ``git archive`` or ``git clone``) that also has ``perfbench/``.
Each pair runs one repetition in DIR and one in this checkout, each in a
fresh interpreter through that checkout's own ``perfbench/session.py``; the
order within a pair alternates (base first, then this checkout first), so a
drift of the machine's speed over minutes falls on both sides alike. Every
repetition is checked as in ``run.py``.

Prints, for wall and CPU time, the median of each side (with the base's
quartiles, its own spread), the median of the per-pair ratios (this
checkout over base) with their quartiles, and in how many pairs this
checkout was faster. Exits 1 if a repetition failed or a
check did not pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def _rep(root: Path, args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "session.py"), *args],
        cwd=root, env=run._env(), capture_output=True, text=True, timeout=run.RUN_LIMIT_S,
    )
    if proc.returncode != 0:
        raise run.RepFailed(f"{root}: exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    base = args.base.resolve()
    if not (base / "perfbench" / "session.py").is_file():
        parser.error(f"{base} has no perfbench/session.py")
    sys.path.insert(0, str(run.ROOT / "src"))

    sides = {"base": base, "this": run.ROOT}
    times: dict[str, dict[str, list[float]]] = {s: {"wall_s": [], "cpu_s": []} for s in sides}
    failed = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
        workload = run.WORKLOADS[args.workload](args.seed, Path(work), False)
        rep_args = workload.args(workload.jobs)
        for i in range(args.pairs):
            order = ("base", "this") if i % 2 == 0 else ("this", "base")
            for side in order:
                rep = _rep(sides[side], rep_args)
                failed += [f"{side}: {what}" for what, ok in workload.check(rep) if not ok]
                for key in times[side]:
                    times[side][key].append(rep[key])
            print(f"pair {i + 1}: base {times['base']['wall_s'][-1]:.3f} s, "
                  f"this {times['this']['wall_s'][-1]:.3f} s", flush=True)

    for key in ("wall_s", "cpu_s"):
        a, b = times["base"][key], times["this"][key]
        ratios = [y / x for x, y in zip(a, b)]
        a1, _, a3 = statistics.quantiles(a, n=4)
        r1, _, r3 = statistics.quantiles(ratios, n=4)
        print(f"{key}: base {statistics.median(a):.4f} (quartiles {a1:.4f}..{a3:.4f}), "
              f"this {statistics.median(b):.4f}, ratio this/base "
              f"{statistics.median(ratios):.4f} (quartiles {r1:.4f}..{r3:.4f}), "
              f"this faster in {sum(r < 1 for r in ratios)}/{len(ratios)} pairs")
    for what in failed[:20]:
        print(f"failed check: {what}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
