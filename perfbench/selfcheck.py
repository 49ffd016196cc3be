"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` has the expected shape: keys, names, units, bounds.
2. For every workload, a short untraced run prints every end-to-end metric,
   and a traced run every per-layer metric, each with the unit
   ``BENCHMARK.json`` gives it, and both pass their checks.
3. For every workload, the same untraced run with one deliberately wrong
   expected count reports failed checks (fail ratio above 0) and exits
   non-zero.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result.

Exits 0 when all of these hold; prints each finding otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec_problems(spec: dict) -> list[str]:
    out = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        out.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    out += [f"bad or repeated name {n!r}" for n in names
            if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            out.append(f"bad end-to-end metric {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            out.append(f"bad per-layer metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            out.append(f"bad unit or direction in {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        out.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        out.append("setup_s must have the largest bound")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            out.append(f"bad workload {w}")
    return out


def _run(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=400,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict | None:
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return out if isinstance(out, dict) and "correct" in out else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = _spec_problems(spec)

    for w in spec["workloads"]:
        base = ["--workload", w["name"], "--seed", "1", "--seconds", "1"]
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, lines = _run(ROOT, *base, "--trace", trace)
            res = _result(lines)
            where = f"{w['name']} --trace {trace}"
            if code != 0 or res is None or not res["correct"] or res["failed"]:
                problems.append(f"{where} run failed (exit {code}): {lines[-3:]}")
                continue
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} printed as {got}")
            extra = set(res["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: unnamed metrics {sorted(extra)}")

        code, lines = _run(ROOT, *base, "--trace", "0", "--wrong-expected")
        res = _result(lines)
        if code == 0 or res is None or res["correct"] or not res["failed"]:
            problems.append(f"{w['name']}: a wrong expected count did not fail "
                            f"the run (exit {code})")

    with tempfile.TemporaryDirectory(prefix=".perfbench-selfcheck-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(Path(bare), "--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0")
        if code == 0 or _result(lines) is not None:
            problems.append(f"without the package source the run exited {code}")

    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
