"""Experiment drivers: geometry scans over charge families.

Each runner builds a family of charge distributions from an
ExperimentConfig, solves the scan points (concurrently up to a worker
count), and returns an ExperimentReport whose CSV body is deterministic:
rows ordered by scan index, floats at 17 significant digits, flags as
lowercase words.  Wall-clock timestamps live only in the JSON manifest.

Evidence semantics: reports carry margins against the relevant closed
forms with explicit budgets; a converged row violating its budget drives
the process exit code, it is never suppressed.
"""
from __future__ import annotations

import csv
import datetime
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import charges
from .charges import ChargeDistribution
from .configio import ConfigDoc, charge_descriptor, emit_config, format_float
from .errors import (BelowGapError, ChargeModelError, ConfigError,
                     IllConditionedBasisError, NoGapEigenvalueError)
from .gaussian import default_spinor_basis, grid_for_basis
from .hardy import hardy_quotient_min
from .multicenter import (GapSolveConfig, schrodinger_ground_gaussian,
                          solve_gap)
from .radial import RadialGrid, schrodinger_ground_radial

KINDS = ("conjecture-sweep", "pes-scan", "contraction-check",
         "schrodinger", "hardy-sweep")
WORKERS_ENV = "DIRACLAB_WORKERS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_MARGIN = 3

# Proven lower end of the critical-charge bracket [2/(pi/2 + 2/pi), 1].
# Merged-limit claims need the total charge below the critical one, which
# is only known to lie in that bracket; totals in (0.9, 1] may exceed it,
# so those rows carry a conditional flag.
NU1_KNOWN_FLOOR = 2.0 / (math.pi / 2.0 + 2.0 / math.pi)
CONDITIONAL_ABOVE = 0.9

_GAP_DEFAULTS = GapSolveConfig()


def _add_flag(flags: str, word: str) -> str:
    if flags == "ok":
        return word
    return f"{flags} {word}"


def resolve_workers(cli_value=None, config_value=None) -> int:
    """Worker count precedence: CLI flag, then environment, then config."""
    if cli_value is not None:
        n = int(cli_value)
    elif os.environ.get(WORKERS_ENV):
        n = int(os.environ[WORKERS_ENV])
    elif config_value is not None:
        n = int(config_value)
    else:
        n = 1
    if n < 1:
        raise ConfigError("worker count must be at least 1")
    return n


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment inputs: kind, geometry scan, solver knobs."""

    kind: str
    charge: ChargeDistribution | None = None
    thetas: tuple[float, ...] = ()
    separations: tuple[float, ...] = ()
    scales: tuple[float, ...] = ()
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)
    arrangement: str = "line"
    n_s: int = 16
    alpha0: float = 0.02
    beta: float = 2.8
    n_radial: int = _GAP_DEFAULTS.n_radial
    angular_order: int = _GAP_DEFAULTS.angular_order
    lam_tol: float = _GAP_DEFAULTS.lam_tol
    residual_tol: float = _GAP_DEFAULTS.residual_tol
    max_iterations: int = _GAP_DEFAULTS.max_iterations
    crosscheck: bool = _GAP_DEFAULTS.crosscheck
    crosscheck_tol: float = _GAP_DEFAULTS.crosscheck_tol
    margin_budget: float = 5e-3
    workers: int = 1
    radial_r_min: float = 1e-6
    radial_r_max: float = 100.0
    radial_n: int = 4000
    out_csv: str | None = None
    out_manifest: str | None = None
    config_echo: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {', '.join(KINDS)}")
        if self.arrangement not in ("line", "triangle"):
            raise ConfigError("arrangement must be 'line' or 'triangle'")
        if self.arrangement == "triangle" and len(self.thetas) != 3:
            raise ConfigError("triangle arrangement needs exactly 3 thetas")
        if self.margin_budget <= 0.0:
            raise ConfigError("margin budget must be positive")
        if np.linalg.norm(self.direction) == 0.0:
            raise ConfigError("scan direction must be nonzero")

    def gap_config(self) -> GapSolveConfig:
        return GapSolveConfig(
            lam_tol=self.lam_tol, residual_tol=self.residual_tol,
            max_iterations=self.max_iterations,
            n_radial=self.n_radial, angular_order=self.angular_order,
            crosscheck=self.crosscheck, crosscheck_tol=self.crosscheck_tol)


def _floats(value, what: str) -> tuple[float, ...]:
    if value is None:
        return ()
    if isinstance(value, (int, float)):
        return (float(value),)
    if isinstance(value, tuple):
        return tuple(float(v) for v in value)
    raise ConfigError(f"{what} must be a number or a list of numbers")


def gap_config_from_doc(doc: ConfigDoc) -> GapSolveConfig:
    """GapSolveConfig from [solver] and [grid], defaults for unset keys."""
    base = GapSolveConfig()
    return GapSolveConfig(
        lam_tol=float(doc.get("solver", "lam_tol", base.lam_tol)),
        residual_tol=float(doc.get("solver", "residual_tol",
                                   base.residual_tol)),
        max_iterations=int(doc.get("solver", "max_iterations",
                                   base.max_iterations)),
        n_radial=int(doc.get("grid", "n_radial", base.n_radial)),
        angular_order=int(doc.get("grid", "angular_order",
                                  base.angular_order)),
        crosscheck=doc.get_bool("solver", "crosscheck", base.crosscheck),
        crosscheck_tol=float(doc.get("solver", "crosscheck_tol",
                                     base.crosscheck_tol)))


def config_from_doc(doc: ConfigDoc, kind: str | None = None,
                    workers: int | None = None,
                    out_csv: str | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config document."""
    doc.check_keys()
    kind = kind or str(doc.get("experiment", "kind", ""))
    if not kind:
        raise ConfigError("no experiment kind given")
    exp = doc.sections.get("experiment", {})
    thetas = _floats(exp.get("thetas"), "thetas")
    arrangement = str(exp.get("arrangement",
                              "triangle" if len(thetas) == 3 else "line"))
    direction = exp.get("direction", (1.0, 0.0, 0.0))
    if isinstance(direction, tuple) and len(direction) == 3:
        direction = tuple(float(c) for c in direction)
    else:
        raise ConfigError("direction must be three reals")
    charge = doc.charge() if doc.has_charge() else None
    gap = gap_config_from_doc(doc)
    cfg = ExperimentConfig(
        kind=kind,
        charge=charge,
        thetas=thetas,
        separations=_floats(exp.get("separations"), "separations"),
        scales=_floats(exp.get("scales"), "scales"),
        direction=direction,
        arrangement=arrangement,
        n_s=int(doc.get("basis", "n_s", 16)),
        alpha0=float(doc.get("basis", "alpha0", 0.02)),
        beta=float(doc.get("basis", "beta", 2.8)),
        n_radial=gap.n_radial, angular_order=gap.angular_order,
        lam_tol=gap.lam_tol, residual_tol=gap.residual_tol,
        max_iterations=gap.max_iterations, crosscheck=gap.crosscheck,
        crosscheck_tol=gap.crosscheck_tol,
        margin_budget=float(exp.get("margin_budget", 5e-3)),
        workers=resolve_workers(workers, exp.get("workers")),
        radial_r_min=float(doc.get("grid", "r_min", 1e-6)),
        radial_r_max=float(doc.get("grid", "r_max", 100.0)),
        radial_n=int(doc.get("grid", "n", 4000)),
        out_csv=out_csv or doc.get("output", "csv"),
        out_manifest=doc.get("output", "manifest"),
        config_echo=emit_config(doc),
    )
    return cfg


@dataclass
class ExperimentReport:
    kind: str
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    config_echo: str = ""
    started_utc: str = ""
    finished_utc: str = ""

    @property
    def exit_code(self) -> int:
        return int(self.summary.get("exit_code", EXIT_OK))

    def csv_body(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_cell(row.get(col)) for col in self.columns])
        return buf.getvalue()

    def manifest(self) -> dict:
        from . import __version__
        return {
            "version": __version__,
            "experiment": self.kind,
            "config": self.config_echo,
            "started_utc": self.started_utc,
            "finished_utc": self.finished_utc,
            "row_count": len(self.rows),
            "columns": list(self.columns),
            "summary": self.summary,
        }

    def write(self, csv_path, manifest_path=None) -> None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_body())
        if manifest_path is None:
            manifest_path = str(csv_path) + ".manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _run_ordered(fn, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]


def _line_positions(m: int, d: float, direction) -> list[tuple]:
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    return [tuple(k * d * e) for k in range(m)]


def _triangle_positions(d: float) -> list[tuple]:
    return [(0.0, 0.0, 0.0), (d, 0.0, 0.0),
            (0.5 * d, 0.5 * math.sqrt(3.0) * d, 0.0)]


def _scan_family(cfg: ExperimentConfig) -> list[tuple[float, ChargeDistribution]]:
    """(separation, charge) pairs; a bare charge gives one nan-keyed entry."""
    if cfg.thetas and cfg.separations:
        out = []
        for d in cfg.separations:
            if d <= 0.0:
                raise ConfigError("separations must be positive")
            if cfg.arrangement == "triangle":
                pos = _triangle_positions(d)
            else:
                pos = _line_positions(len(cfg.thetas), d, cfg.direction)
            out.append((d, charges.atoms(pos, cfg.thetas)))
        return out
    if cfg.charge is not None:
        return [(float("nan"), cfg.charge)]
    raise ConfigError(f"{cfg.kind} needs either thetas+separations or a "
                      "charge block")


def _solve_point(mu: ChargeDistribution, cfg: ExperimentConfig) -> dict:
    """One gap solve; solver failures are recorded, not raised."""
    try:
        basis = default_spinor_basis(mu, n_s=cfg.n_s, alpha0=cfg.alpha0,
                                     beta=cfg.beta)
        grid = grid_for_basis(basis, cfg.n_radial, cfg.angular_order)
        res = solve_gap(basis, mu, grid, cfg.gap_config())
    except (ConfigError, ChargeModelError):
        raise
    except (NoGapEigenvalueError, IllConditionedBasisError,
            BelowGapError) as exc:
        return {"lambda1": float("nan"), "converged": False,
                "flags": "solver-error", "error": str(exc)}
    words = []
    if res.below_gap:
        words.append("below-gap")
    if not res.converged and not res.below_gap:
        words.append("unconverged")
    words.extend(res.flags)
    if not words:
        words.append("ok")
    return {"lambda1": res.lambda1, "converged": res.converged,
            "flags": " ".join(words), "error": None}


def _aggregate_exit(rows, margin_key: str | None, budget: float) -> int:
    if any(r["flags"].startswith("solver-error") for r in rows):
        return EXIT_SOLVER
    if margin_key is not None:
        for r in rows:
            margin = r.get(margin_key)
            if r.get("converged") and margin is not None \
                    and not math.isnan(margin) and margin < -budget:
                return EXIT_MARGIN
    return EXIT_OK


def run_conjecture_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Gap eigenvalues across geometries vs the merged-charge closed form.

    The margin column is lambda1 - sqrt(1 - (total charge)^2); the
    conjectured lower bound makes every converged margin nonnegative up
    to solver and basis budgets.
    """
    report = ExperimentReport(
        kind=cfg.kind, config_echo=cfg.config_echo,
        columns=("scan_index", "separation", "geometry", "nu_total",
                 "lambda1", "bound", "margin", "flags"))
    report.started_utc = _utcnow()
    family = _scan_family(cfg)
    total = family[0][1].total_charge
    if total > 1.0 + 1e-12:
        raise ConfigError("conjecture sweep needs total charge <= 1")
    bound = math.sqrt(max(0.0, 1.0 - total * total))
    conditional = total > CONDITIONAL_ABOVE
    solved = _run_ordered(lambda item: _solve_point(item[1], cfg),
                          family, cfg.workers)
    for idx, ((sep, mu), sol) in enumerate(zip(family, solved)):
        margin = sol["lambda1"] - bound
        flags = sol["flags"]
        if conditional:
            flags = _add_flag(flags, "conditional-on-nu1")
        report.rows.append({
            "scan_index": idx, "separation": sep,
            "geometry": charge_descriptor(mu), "nu_total": mu.total_charge,
            "lambda1": sol["lambda1"], "bound": bound, "margin": margin,
            "converged": sol["converged"], "flags": flags})
    margins = [r["margin"] for r in report.rows
               if r["converged"] and not math.isnan(r["margin"])]
    report.summary = {
        "bound": bound,
        "conditional_on_nu1": conditional,
        "margin_min": min(margins) if margins else None,
        "margin_budget": cfg.margin_budget,
        "unconverged_rows": sum(not r["converged"] for r in report.rows),
        "exit_code": _aggregate_exit(report.rows, "margin",
                                     cfg.margin_budget),
    }
    report.finished_utc = _utcnow()
    return report


def run_pes_scan(cfg: ExperimentConfig) -> ExperimentReport:
    """lambda1 plus exact nuclear repulsion along a separation scan."""
    report = ExperimentReport(
        kind=cfg.kind, config_echo=cfg.config_echo,
        columns=("scan_index", "separation", "geometry", "lambda1",
                 "repulsion", "pes", "flags"))
    report.started_utc = _utcnow()
    if len(cfg.thetas) < 2:
        raise ConfigError("PES scan needs at least two centers")
    if not cfg.separations:
        raise ConfigError("PES scan needs a separation list")
    family = _scan_family(cfg)
    solved = _run_ordered(lambda item: _solve_point(item[1], cfg),
                          family, cfg.workers)
    for idx, ((sep, mu), sol) in enumerate(zip(family, solved)):
        rep = _repulsion(mu)
        report.rows.append({
            "scan_index": idx, "separation": sep,
            "geometry": charge_descriptor(mu),
            "lambda1": sol["lambda1"], "repulsion": rep,
            "pes": sol["lambda1"] + rep,
            "converged": sol["converged"], "flags": sol["flags"]})
    jumps = [abs(b["pes"] - a["pes"])
             for a, b in zip(report.rows, report.rows[1:])
             if a["converged"] and b["converged"]]
    report.summary = {
        "continuity_max_jump": max(jumps) if jumps else None,
        "unconverged_rows": sum(not r["converged"] for r in report.rows),
        "exit_code": _aggregate_exit(report.rows, None, cfg.margin_budget),
    }
    report.finished_utc = _utcnow()
    return report


def _repulsion(mu: ChargeDistribution) -> float:
    pts = mu.points
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = np.linalg.norm(np.subtract(pts[i].position, pts[j].position))
            total += pts[i].strength * pts[j].strength / d
    return total


def run_contraction_check(cfg: ExperimentConfig) -> ExperimentReport:
    """lambda1 along a family of uniform contractions x -> s x.

    Rows run in the given (descending) scale order; the monotonicity
    diagnostic counts adjacent increases beyond the budget.  The fully
    merged s=0 row is compared to the closed-form sqrt(1 - nu^2).
    """
    report = ExperimentReport(
        kind=cfg.kind, config_echo=cfg.config_echo,
        columns=("scan_index", "scale", "geometry", "lambda1", "bound",
                 "margin", "flags"))
    report.started_utc = _utcnow()
    if cfg.charge is None or not cfg.charge.points:
        raise ConfigError("contraction check needs an atomic charge block")
    scales = cfg.scales or (1.0, 0.5, 0.25, 0.0)
    if any(not 0.0 <= s <= 1.0 for s in scales):
        raise ConfigError("scales must lie in [0, 1]")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ConfigError("scales must be strictly descending")
    eye = np.eye(3)
    family = [(s, charges.pushforward(cfg.charge, eye, s)) for s in scales]
    total = cfg.charge.total_charge
    bound = math.sqrt(max(0.0, 1.0 - total * total))
    conditional = total > CONDITIONAL_ABOVE
    solved = _run_ordered(lambda item: _solve_point(item[1], cfg),
                          family, cfg.workers)
    for idx, ((s, mu), sol) in enumerate(zip(family, solved)):
        flags = sol["flags"]
        if conditional:
            flags = _add_flag(flags, "conditional-on-nu1")
        report.rows.append({
            "scan_index": idx, "scale": s, "geometry": charge_descriptor(mu),
            "lambda1": sol["lambda1"], "bound": bound,
            "margin": sol["lambda1"] - bound,
            "converged": sol["converged"], "flags": flags})
    violations = []
    for a, b in zip(report.rows, report.rows[1:]):
        if a["converged"] and b["converged"] \
                and b["lambda1"] > a["lambda1"] + cfg.margin_budget:
            violations.append(b["scan_index"])
    report.summary = {
        "bound": bound,
        "conditional_on_nu1": conditional,
        "monotonicity_violations": violations,
        "unconverged_rows": sum(not r["converged"] for r in report.rows),
        "exit_code": _aggregate_exit(report.rows, "margin",
                                     cfg.margin_budget),
    }
    report.finished_utc = _utcnow()
    return report


def _schrodinger_energy(mu: ChargeDistribution,
                        cfg: ExperimentConfig) -> tuple[float, bool]:
    if mu.radially_symmetric:
        grid = RadialGrid(cfg.radial_r_min, cfg.radial_r_max, cfg.radial_n)
        res = schrodinger_ground_radial(mu, grid)
        return res.energy, res.bound
    basis = default_spinor_basis(mu, n_s=cfg.n_s, alpha0=cfg.alpha0,
                                 beta=cfg.beta)
    return schrodinger_ground_gaussian(basis, mu)


def run_schrodinger_compare(cfg: ExperimentConfig) -> ExperimentReport:
    """Nonrelativistic ground energies vs the -nu^2/2 concavity bound.

    Radially symmetric charges use the radial integrator; atomic ones the
    Gaussian solver.  For adjacent scan pairs the midpoint mixture is also
    solved and the concavity slack recorded in the summary.
    """
    report = ExperimentReport(
        kind=cfg.kind, config_echo=cfg.config_echo,
        columns=("scan_index", "separation", "geometry", "nu_total",
                 "energy", "bound", "margin", "flags"))
    report.started_utc = _utcnow()
    family = _scan_family(cfg)

    def solve_one(item):
        _, mu = item
        energy, is_bound = _schrodinger_energy(mu, cfg)
        return energy, is_bound

    solved = _run_ordered(solve_one, family, cfg.workers)
    for idx, ((sep, mu), (energy, is_bound)) in enumerate(zip(family, solved)):
        nu = mu.total_charge
        bound_val = -0.5 * nu * nu
        report.rows.append({
            "scan_index": idx, "separation": sep,
            "geometry": charge_descriptor(mu), "nu_total": nu,
            "energy": energy, "bound": bound_val,
            "margin": energy - bound_val,
            "converged": True, "flags": "ok" if is_bound else "unbound"})
    concavity = None
    if len(family) >= 2:
        slacks = []
        for (_, mu_a), (_, mu_b), row_a, row_b in zip(
                family, family[1:], report.rows, report.rows[1:]):
            mixed, _ = _schrodinger_energy(charges.mix(mu_a, mu_b, 0.5), cfg)
            slacks.append(mixed - 0.5 * (row_a["energy"] + row_b["energy"]))
        concavity = min(slacks)
    margins = [r["margin"] for r in report.rows]
    report.summary = {
        "margin_min": min(margins) if margins else None,
        "concavity_min_slack": concavity,
        "margin_budget": cfg.margin_budget,
        "exit_code": _aggregate_exit(report.rows, "margin",
                                     cfg.margin_budget),
    }
    report.finished_utc = _utcnow()
    return report


def run_hardy_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Per-charge quotient constants c(mu) with the published floor."""
    report = ExperimentReport(
        kind=cfg.kind, config_echo=cfg.config_echo,
        columns=("family_index", "nu_total", "geometry_descriptor",
                 "eta_min", "c_mu", "basis_size"))
    report.started_utc = _utcnow()
    family = _scan_family(cfg)

    def solve_one(item):
        _, mu = item
        basis = default_spinor_basis(mu, n_s=cfg.n_s, alpha0=cfg.alpha0,
                                     beta=cfg.beta)
        return hardy_quotient_min(basis, mu,
                                  grid_for_basis(basis, cfg.n_radial,
                                                 cfg.angular_order))
    solved = _run_ordered(solve_one, family, cfg.workers)
    for idx, ((_, mu), res) in enumerate(zip(family, solved)):
        report.rows.append({
            "family_index": idx, "nu_total": mu.total_charge,
            "geometry_descriptor": charge_descriptor(mu),
            "eta_min": res.eta_min, "c_mu": res.c_mu,
            "basis_size": res.basis_size,
            "converged": True, "flags": "ok"})
    c_min = min(r["c_mu"] for r in report.rows)
    floor = 0.90033 - 1e-6
    report.summary = {
        "c_min": c_min,
        "published_bracket": [0.90033, 1.0],
        "floor": floor,
        "exit_code": EXIT_MARGIN if c_min < floor else EXIT_OK,
    }
    report.finished_utc = _utcnow()
    return report


RUNNERS = {
    "conjecture-sweep": run_conjecture_sweep,
    "pes-scan": run_pes_scan,
    "contraction-check": run_contraction_check,
    "schrodinger": run_schrodinger_compare,
    "hardy-sweep": run_hardy_sweep,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return RUNNERS[cfg.kind](cfg)
