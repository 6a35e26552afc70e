"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs a tiny pass (the warm-up operation only) of every workload, untraced
and traced, and confirms that the result line has the contract's keys,
that the outputs checked out, and that every metric BENCHMARK.json names
is emitted with its unit and nothing else is.  Then confirms that a copy
holding only BENCHMARK.json and perfbench/ exits nonzero without a result.
Exits nonzero on the first mismatch.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: outputs failed their checks")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            bad = [name for name, m in result["metrics"].items()
                   if set(m) != {"value", "unit"}
                   or not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{where}: malformed metrics {bad}")
            print(f"{where}: {len(got)} metrics", flush=True)
    return problems


def check_bare_copy() -> list[str]:
    """Without the program's sources the benchmark must fail, not report."""
    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "scan3d", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare copy: exit {proc.returncode}", flush=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare copy: expected a nonzero exit and no output"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_metrics(spec) + check_bare_copy()
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
