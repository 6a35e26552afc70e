"""Record the reference values that run.py checks every operation against.

    python3 perfbench/record_reference.py

Runs each operation of every workload once and rewrites reference.json.
Run it only when a change is meant to move the numbers, and say so.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import env


def main() -> None:
    env.prepare()
    import workloads
    env.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=env.WORK))
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, tmp):
                outcome = op.run()
                if outcome.problems:
                    raise RuntimeError(f"{op.name}: {outcome.problems}")
                reference[op.name] = outcome.values
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
