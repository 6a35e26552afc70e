"""Benchmark of diraclab on fixed inputs, from one process at one BLAS thread.

    python3 perfbench/run.py --workload scan3d --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): scan3d, radial, oneshot3d.
A pass runs every operation of the workload once, in an order drawn from
the seed.  After one untimed warm-up operation the run repeats passes for
about `--seconds` seconds, and never fewer than three.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics of the traced ones,
with the tracing overhead.  Every operation's output is checked; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --tiny runs only the warm-up operation,
for the self-check.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import env
import spans

HERE = Path(__file__).resolve().parent
SETUP_HALF = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# an operation percentile is a tail only with more samples than this above it
TAIL_BEYOND = 10
UNITS = {"wall_s": "s", "solve_p50_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "max_err": "1"}


class Tally:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, reference_problems):
        self.reference_problems = reference_problems
        self.attempted = 0
        self.failures: list[str] = []
        self.closed_form_errs: list[float] = []

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")

    def run(self, op) -> float:
        """Run one operation, check its output and return its wall time."""
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.add(op.name, [f"{type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - start
        if outcome.closed_form_err is not None:
            self.closed_form_errs.append(outcome.closed_form_err)
        self.add(op.name, outcome.problems
                 + self.reference_problems(op, outcome))
        return elapsed


def _setup_samples(workload: str, count: int, tally: Tally) -> list[float]:
    """Set-up times of `count` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_sample.py"), workload],
            cwd=env.ROOT, capture_output=True, text=True, timeout=150,
            check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        tally.add(sample["op"], sample["problems"])
        times.append(sample["setup_s"])
    return times


def _one_pass(ops, rng, tally: Tally, tracer=None) -> tuple[float, dict]:
    order = list(ops)
    rng.shuffle(order)
    times = {}
    start = time.perf_counter()
    for op in order:
        if tracer is not None:
            tracer.op = op.name
        times[op.name] = tally.run(op)
    return time.perf_counter() - start, times


def _more(passes: list[float], floor: int, seconds: float,
          start: float) -> bool:
    """Whether another pass is due: below the floor, or it fits the time."""
    if len(passes) < floor:
        return True
    return time.perf_counter() - start + statistics.median(passes) <= seconds


def _tail(samples: list[float]) -> str:
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:
        return (f"solve_tail_s: not reported, {n} operations leave no "
                f"percentile above the median with {TAIL_BEYOND} beyond it")
    value = sorted(samples)[n - TAIL_BEYOND - 1]
    return (f"solve_tail_s: {value!r} s at p{100.0 * (n - TAIL_BEYOND) / n:.1f}"
            f" of {n} operations")


def timed_run(ops, warmup, rng, tally: Tally, args) -> dict:
    # half the set-up samples before the passes and half after, so that
    # their median spans the run's drift in machine speed
    setups = _setup_samples(args.workload, 1 if args.tiny else SETUP_HALF,
                            tally)
    tally.run(warmup)
    walls, samples = [], []
    start = time.perf_counter()
    while _more(walls, MIN_PASSES, args.seconds, start):
        wall, times = _one_pass(ops, rng, tally)
        walls.append(wall)
        samples.extend(times.values())
    setups += _setup_samples(args.workload, len(setups), tally)
    print(f"# {len(walls)} passes, {len(samples)} operations, "
          f"{len(setups)} set-ups; " + _tail(samples))
    return {
        "wall_s": statistics.median(walls),
        "solve_p50_s": statistics.median(samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_err": max(tally.closed_form_errs),
    }


def traced_run(ops, warmup, rng, tally: Tally, args, facts) -> dict:
    tally.run(warmup)
    untraced, traced, rows = [], [], []
    start = time.perf_counter()
    while _more([u + t for u, t in zip(untraced, traced)],
                MIN_TRACED_PASSES, args.seconds, start):
        untraced.append(_one_pass(ops, rng, tally)[0])
        tracer = spans.Tracer()
        with spans.installed(tracer):
            wall = _one_pass(ops, rng, tally, tracer)[0]
        traced.append(wall)
        rows.append(spans.layer_metrics(tracer.spans, wall))
    out = env.WORK / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"facts": facts, "wall_s": wall,
                               "spans": tracer.to_json()}), encoding="utf-8")
    print(f"# {len(traced)} traced and {len(untraced)} untraced passes; "
          f"spans of the last traced pass in {out.relative_to(env.ROOT)}")
    # counts repeat exactly from pass to pass; keep them whole numbers
    metrics = {name: (statistics.median_low if spans.UNITS[name] == "count"
                      else statistics.median)(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="only the warm-up operation, one set-up sample")
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    facts = env.machine_facts()
    print("# machine " + json.dumps(facts, sort_keys=True))
    env.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.WORK))
    try:
        ops = workloads.build(args.workload, tmp)
        warmup = workloads.warmup_op(args.workload, ops)
        if args.tiny:
            ops = [warmup]
        tally = Tally(functools.partial(workloads.reference_problems,
                                        workloads.load_reference()))
        rng = random.Random(args.seed)
        if args.trace:
            values = traced_run(ops, warmup, rng, tally, args, facts)
            units = spans.UNITS
        else:
            values = timed_run(ops, warmup, rng, tally, args)
            units = UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for failure in tally.failures:
        print(f"# FAILED {failure}")
    print(f"# failed_frac {len(tally.failures) / tally.attempted!r} "
          f"({len(tally.failures)} of {tally.attempted} operations)")
    for name, value in values.items():
        print(f"# {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
