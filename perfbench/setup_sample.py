"""One set-up sample: import, input construction and one warm-up operation.

    python3 perfbench/setup_sample.py <workload>

Run in a fresh interpreter by run.py, which takes the median of several.
Prints one JSON line: the set-up time, the operation and its problems.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import env


def main(workload: str) -> int:
    env.prepare()
    start = time.perf_counter()
    import workloads
    env.WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=env.WORK)
    try:
        op = workloads.warmup_op(workload, workloads.build(workload,
                                                           Path(tmp)))
        outcome = op.run()
        setup_s = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = outcome.problems + workloads.reference_problems(
        workloads.load_reference(), op, outcome)
    print(json.dumps({"setup_s": setup_s, "op": op.name,
                      "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
