"""Fixed inputs, operations and output checks of the three workloads.

An operation is one scan row, one radial solve or one one-shot command,
and every one goes through diraclab's public functions.  Scan rows run
through `cli.main` on a copy of a shipped config cut down to that one row;
rows of a scan are solved independently, so a row's lambda1 is the one
the full scan prints.  The seed only orders the operations of a pass.

Import `env` and call `env.prepare()` before importing this module.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from diraclab import charges, cli, radial
from diraclab.configio import doc_from_charge, emit_config, load_config
from diraclab.radial import RadialGrid

from env import ROOT

CONFIGS = ROOT / "configs"
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Every checked value must match the value this benchmark recorded when it
# was added.  10x the 3D root-find tolerance (1e-8), and 10x below the
# radial closed-form tolerance (1e-6).
REFERENCE_TOL = 1e-7
# Closed-form tolerances: acceptance criterion 01 (radial point charges)
# and criterion 04 (3D single atom).
RADIAL_TOL = 1e-6
RADIAL_TOL_NEAR_CRITICAL = 1e-4
GAUSSIAN_TOL = 5e-3
# GapSolveConfig's default residual tolerance; one-shot JSON carries the
# residual but no convergence flag.
RESIDUAL_TOL = 1e-8

# Scan rows kept per pass: 2-centre and 3-centre geometries and the merged
# s = 0 contraction row, sized so that several passes fit in one run.
SCAN_ROWS = (
    ("conjecture_m2", "separations", "1"),
    ("conjecture_m2", "separations", "4"),
    ("conjecture_m3", "separations", "1"),
    ("contraction", "scales", "0.5"),
    ("contraction", "scales", "0"),
)
RADIAL_NUS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
RADIAL_GRID = RadialGrid(1e-6, 100.0, 4000)
SINGLE_ATOM_NU = 0.4
WORKLOADS = ("scan3d", "radial", "oneshot3d")
# Cheapest operation of each workload; it warms caches and times set-up.
WARMUP = {"scan3d": "contraction/scales=0", "radial": "radial/nu=0.5",
          "oneshot3d": "multicenter/single-atom"}


@dataclass
class Outcome:
    """What one operation produced: checked values and failed checks."""

    values: list[float]
    problems: list[str] = field(default_factory=list)
    closed_form_err: float | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]


def point_dirac_lambda(nu: float) -> float:
    """Closed-form lowest gap eigenvalue of a point charge nu."""
    return math.sqrt(1.0 - nu * nu)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _exit_problems(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def _scan_row(tmp: Path, config: str, key: str, value: str) -> Op:
    text = (CONFIGS / f"{config}.cfg").read_text(encoding="utf-8")
    row_text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                          flags=re.M)
    if n != 1:
        raise ValueError(f"{config}.cfg has no single '{key} =' line")
    path = tmp / f"{config}-{key}-{value}.cfg"
    path.write_text(row_text, encoding="utf-8")
    doc = load_config(path)
    kind = str(doc.get("experiment", "kind"))
    merged = key == "scales" and float(value) == 0.0
    closed = point_dirac_lambda(doc.charge().total_charge) if merged else None
    out = tmp / f"{config}-{key}-{value}.csv"

    def run() -> Outcome:
        out.unlink(missing_ok=True)
        code = cli.main([kind, "--config", str(path), "--out", str(out)])
        rows = _read_csv(out)
        problems = _exit_problems(code)
        if len(rows) != 1:
            return Outcome([], problems + [f"{len(rows)} rows, expected 1"])
        lam = float(rows[0]["lambda1"])
        if rows[0]["flags"] != "ok":
            problems.append(f"flags {rows[0]['flags']!r}")
        err = None
        if closed is not None:
            err = abs(lam - closed)
            if not err <= GAUSSIAN_TOL:
                problems.append(f"merged row off closed form by {err:.3g}")
        return Outcome([lam], problems, err)

    return Op(f"{config}/{key}={value}", run)


def _radial_solve(name: str, mu, grid: RadialGrid, closed: float | None,
                  tol: float, floor: float | None = None) -> Op:
    def run() -> Outcome:
        # looked up at call time, so a tracer's rebinding applies
        res = radial.lowest_gap_eigenvalue_radial(mu, -1, grid)
        problems = []
        if not res.converged or res.below_gap:
            problems.append("not converged")
        err = None
        if closed is not None:
            err = abs(res.lambda1 - closed)
            if not err <= tol:
                problems.append(f"off closed form by {err:.3g} > {tol:g}")
        if floor is not None and not res.lambda1 >= floor:
            problems.append(f"lambda1 {res.lambda1!r} below {floor!r}")
        return Outcome([res.lambda1], problems, err)

    return Op(name, run)


def _radial_ops() -> list[Op]:
    ops = []
    for nu in RADIAL_NUS:
        tol = RADIAL_TOL_NEAR_CRITICAL if nu >= 0.99 else RADIAL_TOL
        ops.append(_radial_solve(f"radial/nu={nu:g}",
                                 charges.atom((0.0, 0.0, 0.0), nu),
                                 RADIAL_GRID, point_dirac_lambda(nu), tol))
    doc = load_config(CONFIGS / "radial_shell.cfg")
    mu = doc.charge()
    grid = RadialGrid(float(doc.get("grid", "r_min")),
                      float(doc.get("grid", "r_max")),
                      int(doc.get("grid", "n")))
    # criterion 02: a shell lies above the point value of its total charge
    floor = point_dirac_lambda(mu.total_charge) - 1e-8
    ops.append(_radial_solve("radial/radial_shell", mu, grid, None, 0.0,
                             floor))
    return ops


def _multicenter(tmp: Path, name: str, path: Path,
                 closed: float | None) -> Op:
    out = tmp / f"{path.stem}.json"

    def run() -> Outcome:
        out.unlink(missing_ok=True)
        code = cli.main(["multicenter", "--config", str(path),
                         "--out", str(out)])
        res = json.loads(out.read_text(encoding="utf-8"))
        problems = _exit_problems(code)
        if res["flags"] or res["below_gap"]:
            problems.append(f"flags {res['flags']!r}")
        if not res["residual"] <= RESIDUAL_TOL:
            problems.append(f"residual {res['residual']:.3g}")
        values = [res["lambda1"]]
        if res["crosscheck_lambda1"] is not None:
            values.append(res["crosscheck_lambda1"])
        err = None
        if closed is not None:
            err = abs(res["lambda1"] - closed)
            if not err <= GAUSSIAN_TOL:
                problems.append(f"off closed form by {err:.3g}")
        return Outcome(values, problems, err)

    return Op(name, run)


def _scan_command(tmp: Path, command: str, config: str, column: str) -> Op:
    out = tmp / f"{config}.csv"

    def run() -> Outcome:
        out.unlink(missing_ok=True)
        code = cli.main([command, "--config", str(CONFIGS / f"{config}.cfg"),
                         "--out", str(out)])
        rows = _read_csv(out)
        problems = _exit_problems(code)
        bad = [r["flags"] for r in rows if r.get("flags", "ok") != "ok"]
        if bad:
            problems.append(f"flags {bad!r}")
        return Outcome([float(r[column]) for r in rows], problems)

    return Op(f"{command}/{config}", run)


def _oneshot_ops(tmp: Path) -> list[Op]:
    single = tmp / "single_atom.cfg"
    single.write_text(emit_config(doc_from_charge(
        charges.atom((0.0, 0.0, 0.0), SINGLE_ATOM_NU),
        {"basis": {"n_s": 16}})), encoding="utf-8")
    return [
        _multicenter(tmp, "multicenter/multicenter_example",
                     CONFIGS / "multicenter_example.cfg", None),
        _multicenter(tmp, "multicenter/single-atom", single,
                     point_dirac_lambda(SINGLE_ATOM_NU)),
        _scan_command(tmp, "hardy-sweep", "hardy_sweep", "c_mu"),
        _scan_command(tmp, "schrodinger", "schrodinger", "energy"),
    ]


def build(workload: str, tmp: Path) -> list[Op]:
    """Operations of one pass, in a fixed order; inputs are written to tmp."""
    if workload == "scan3d":
        ops = [_scan_row(tmp, *row) for row in SCAN_ROWS]
    elif workload == "radial":
        ops = _radial_ops()
    elif workload == "oneshot3d":
        ops = _oneshot_ops(tmp)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if WARMUP[workload] not in {op.name for op in ops}:
        raise ValueError(f"warm-up op of {workload} is not in its pass")
    return ops


def warmup_op(workload: str, ops: list[Op]) -> Op:
    return next(op for op in ops if op.name == WARMUP[workload])


def load_reference() -> dict[str, list[float]]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def reference_problems(reference: dict, op: Op, outcome: Outcome) -> list[str]:
    """Mismatches between an outcome and the recorded reference values."""
    ref = reference.get(op.name)
    if ref is None:
        return ["no reference value recorded"]
    if len(ref) != len(outcome.values):
        return [f"{len(outcome.values)} values, reference has {len(ref)}"]
    return [f"value {k}: {got!r} differs from reference {want!r}"
            for k, (got, want) in enumerate(zip(outcome.values, ref))
            if not abs(got - want) <= REFERENCE_TOL]
