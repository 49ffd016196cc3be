"""Run every workload of the benchmark in turn and print one table.

    python3 perfbench/all.py [--seed 1] [--seconds 20] [--trace 0|1]

Each workload runs as its own ``run.py`` process, so every repetition still
starts from a fresh interpreter. Prints every metric by workload, name and
unit, plus each workload's failed/attempted checks; exits 1 if any workload
failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{w['name']}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and res["correct"]
        for name, m in res["metrics"].items():
            print(f"{w['name']:14s} {name:28s} {m['value']:.6g} {m['unit']}")
        print(f"{w['name']:14s} {'fail_ratio':28s} {res['failed']}/{res['attempted']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
