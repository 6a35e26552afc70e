"""Experiment drivers: geometry scans over charge families.

Each experiment kind builds a family of charge distributions from an
ExperimentConfig, solves the scan points (concurrently up to a worker
count), and returns its columns, rows and summary; run_experiment wraps
them in an ExperimentReport whose CSV body is deterministic: rows ordered
by scan index, floats at 17 significant digits, flags as lowercase
words.  Wall-clock timestamps live only in the JSON manifest.

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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import charges
from .charges import ChargeDistribution
from .configio import ConfigDoc, charge_descriptor, emit_config, format_float
from .errors import ConfigError, IllConditionedBasisError, NoGapEigenvalueError
from .gaussian import default_spinor_basis, grid_for_basis
from .hardy import HardyScanRow, scan_row
from .multicenter import (GapSolveConfig, schrodinger_ground_gaussian,
                          solve_gap)
from .radial import RadialGrid, SchrodingerResult, schrodinger_ground_radial

WORKERS_ENV = "DIRACLAB_WORKERS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_MARGIN = 3

# Merged-limit claims need the total charge below the critical one, which
# is only known to lie in the proven bracket [2/(pi/2 + 2/pi), 1] (lower
# end 0.906...); totals in (0.9, 1] may exceed it, so those rows carry a
# conditional flag.
CONDITIONAL_ABOVE = 0.9


def resolve_workers(cli_value=None, config_value=None) -> int:
    """Worker count precedence: CLI flag, then environment, then config."""
    n = cli_value
    if n is None and os.environ.get(WORKERS_ENV):
        try:
            n = int(os.environ[WORKERS_ENV])
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got "
                              f"{os.environ[WORKERS_ENV]!r}") from None
    if n is None:
        n = 1 if config_value is None else config_value
    if n < 1:
        raise ConfigError("worker count must be at least 1")
    return n


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment inputs: kind, geometry scan, solver configs.

    `basis` holds the [basis] keys that are set, as keyword arguments of
    default_spinor_basis; `gap` and `radial_grid` are built from the set
    [solver] and [grid] keys, so every unset value keeps the default its
    own class declares.
    """

    kind: str
    charge: ChargeDistribution | None = None
    thetas: tuple[float, ...] = ()
    separations: tuple[float, ...] = ()
    scales: tuple[float, ...] = ()
    arrangement: str = "line"
    basis: dict = field(default_factory=dict)
    gap: GapSolveConfig = GapSolveConfig()
    radial_grid: RadialGrid = field(default_factory=RadialGrid)
    margin_budget: float = 5e-3
    workers: int = 1
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


def config_from_doc(doc: ConfigDoc, kind: str | None = None,
                    workers: int | None = None,
                    out_csv: str | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config document.

    A given `kind` (the command's) must match the document's
    [experiment] kind, if it declares one.
    """
    exp = dict(doc.sections.get("experiment", {}))
    declared = exp.get("kind")
    if kind and declared and kind != declared:
        raise ConfigError(f"{kind} cannot run a config of kind {declared}")
    exp["kind"] = kind or declared
    if not exp["kind"]:
        raise ConfigError("no experiment kind given")
    exp.setdefault("arrangement",
                   "triangle" if len(exp.get("thetas", ())) == 3 else "line")
    exp["workers"] = resolve_workers(workers, exp.get("workers"))
    return ExperimentConfig(
        charge=doc.charge() if doc.has_charge() else None,
        basis=dict(doc.sections.get("basis", {})),
        gap=doc.build(GapSolveConfig, "solver", "grid"),
        radial_grid=doc.build(RadialGrid, "grid"),
        out_csv=out_csv or doc.get("output", "csv"),
        out_manifest=doc.get("output", "manifest"),
        config_echo=emit_config(doc),
        **exp)


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
            "row_diagnostics": [row["diagnostics"] for row in self.rows
                                if "diagnostics" in row],
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
    # imported here, as only a pool needs it (with logging, ~5 ms)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]


def _line_positions(m: int, d: float) -> list[tuple]:
    return [(k * d, 0.0, 0.0) for k in range(m)]


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
                pos = _line_positions(len(cfg.thetas), d)
            out.append((d, charges.atoms(pos, cfg.thetas)))
        return out
    if cfg.charge is not None:
        return [(float("nan"), cfg.charge)]
    raise ConfigError(f"{cfg.kind} needs either thetas+separations or a "
                      "charge block")


def _solve_point(mu: ChargeDistribution, cfg: ExperimentConfig) -> dict:
    """One gap solve; solver failures are recorded, not raised.

    `diagnostics` goes to the manifest: the root find's first sample
    (start), iterations, residual and final bracket width and the keys of
    _grid_diagnostics; or the solver's error message.
    """
    try:
        basis = default_spinor_basis(mu, **cfg.basis)
        grid = grid_for_basis(basis, cfg.gap.n_radial, cfg.gap.angular_order)
        res = solve_gap(basis, mu, grid, cfg.gap)
    except (NoGapEigenvalueError, IllConditionedBasisError) as exc:
        return {"lambda1": float("nan"), "converged": False,
                "flags": "solver-error", "diagnostics": {"error": str(exc)}}
    words = []
    if res.below_gap:
        words.append("below-gap")
    if not res.converged and not res.below_gap:
        words.append("unconverged")
    words.extend(res.flags)
    if basis.orthogonalizer.shape[1] < basis.scalar.n:
        words.append("rank-reduced")
    if not words:
        words.append("ok")
    return {"lambda1": res.lambda1, "converged": res.converged,
            "flags": " ".join(words),
            "diagnostics": {
                "start": res.trace[0][0], "iterations": res.iterations,
                "residual": res.residual,
                "bracket_width": res.bracket[1] - res.bracket[0],
                **_grid_diagnostics(basis, grid)}}


def _grid_diagnostics(basis, grid) -> dict:
    """The retained rank of the basis against its scalar size, the grid
    size and kind, and the grid's partition-of-unity residual."""
    return {"retained_rank": basis.orthogonalizer.shape[1],
            "basis_size": basis.scalar.n, "grid_points": grid.size,
            "grid_kind": grid.kind,
            "partition_residual": grid.partition_residual}


def _gap_rows(cfg: ExperimentConfig, family, key: str,
              merged: ChargeDistribution | None = None):
    """One gap solve per (value, charge) of `family`, as rows of
    scan_index, `key` (the value), geometry and the solve's cells, with
    bound and margin against `merged` when it is given (_against_merged);
    and a summary of unconverged_rows, exit_code and _against_merged's
    keys."""
    solved = _run_ordered(lambda item: _solve_point(item[1], cfg),
                          family, cfg.workers)
    rows = [{"scan_index": idx, key: value,
             "geometry": charge_descriptor(mu), **sol}
            for idx, ((value, mu), sol) in enumerate(zip(family, solved))]
    summary = {} if merged is None else _against_merged(merged, rows)
    summary["unconverged_rows"] = sum(not r["converged"] for r in rows)
    summary["exit_code"] = _aggregate_exit(
        rows, None if merged is None else "margin", cfg.margin_budget)
    return rows, summary


def _against_merged(mu: ChargeDistribution, rows: list[dict]) -> dict:
    """Add the bound sqrt(1 - nu^2) of the merged charge and the margin
    to each row, flagging them when they are conditional on the critical
    charge; return the bound and that condition.  Above nu = 1 the merged
    charge has no gap eigenvalue to compare with: bound and margin are
    NaN, which no exit code reads."""
    bound = mu.merged_lambda if mu.total_charge <= 1.0 else math.nan
    conditional = mu.total_charge > CONDITIONAL_ABOVE
    for row in rows:
        if conditional:
            row["flags"] = ("conditional-on-nu1" if row["flags"] == "ok"
                            else f"{row['flags']} conditional-on-nu1")
        row["bound"] = bound
        row["margin"] = row["lambda1"] - bound
    return {"bound": bound, "conditional_on_nu1": conditional}


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


def _conjecture_sweep(cfg: ExperimentConfig):
    """Gap eigenvalues across geometries vs the merged-charge closed form.

    The margin column is lambda1 - sqrt(1 - (total charge)^2); the
    conjectured lower bound makes every converged margin nonnegative up
    to solver and basis budgets.
    """
    family = _scan_family(cfg)
    if family[0][1].total_charge > 1.0 + 1e-12:
        raise ConfigError("conjecture sweep needs total charge <= 1")
    rows, summary = _gap_rows(cfg, family, "separation", family[0][1])
    for row, (_, mu) in zip(rows, family):
        row["nu_total"] = mu.total_charge
    margins = [r["margin"] for r in rows
               if r["converged"] and not math.isnan(r["margin"])]
    summary["margin_min"] = min(margins) if margins else None
    summary["margin_budget"] = cfg.margin_budget
    columns = ("scan_index", "separation", "geometry", "nu_total",
               "lambda1", "bound", "margin", "flags")
    return columns, rows, summary


def _pes_scan(cfg: ExperimentConfig):
    """lambda1 plus exact nuclear repulsion along a separation scan, with
    each lambda1's margin against the merged-charge bound."""
    if len(cfg.thetas) < 2:
        raise ConfigError("PES scan needs at least two centers")
    if not cfg.separations:
        raise ConfigError("PES scan needs a separation list")
    family = _scan_family(cfg)
    rows, summary = _gap_rows(cfg, family, "separation", family[0][1])
    for row, (_, mu) in zip(rows, family):
        row["repulsion"] = _repulsion(mu)
        row["pes"] = row["lambda1"] + row["repulsion"]
    jumps = [abs(b["pes"] - a["pes"]) for a, b in zip(rows, rows[1:])
             if a["converged"] and b["converged"]]
    summary["continuity_max_jump"] = max(jumps) if jumps else None
    columns = ("scan_index", "separation", "geometry", "lambda1", "bound",
               "margin", "repulsion", "pes", "flags")
    return columns, rows, summary


def _repulsion(mu: ChargeDistribution) -> float:
    pts = mu.points
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = np.linalg.norm(np.subtract(pts[i].position, pts[j].position))
            total += pts[i].strength * pts[j].strength / d
    return total


def _contraction_check(cfg: ExperimentConfig):
    """lambda1 along a family of uniform contractions x -> s x.

    Rows run in the given (descending) scale order; the monotonicity
    diagnostic counts adjacent increases beyond the budget.  The fully
    merged s=0 row is compared to the closed-form sqrt(1 - nu^2).
    """
    if cfg.charge is None or not cfg.charge.points:
        raise ConfigError("contraction check needs an atomic charge block")
    scales = cfg.scales or (1.0, 0.5, 0.25, 0.0)
    if any(not 0.0 <= s <= 1.0 for s in scales):
        raise ConfigError("scales must lie in [0, 1]")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ConfigError("scales must be strictly descending")
    eye = np.eye(3)
    family = [(s, charges.pushforward(cfg.charge, eye, s)) for s in scales]
    rows, summary = _gap_rows(cfg, family, "scale", cfg.charge)
    summary["monotonicity_violations"] = [
        b["scan_index"] for a, b in zip(rows, rows[1:])
        if a["converged"] and b["converged"]
        and b["lambda1"] > a["lambda1"] + cfg.margin_budget]
    columns = ("scan_index", "scale", "geometry", "lambda1", "bound",
               "margin", "flags")
    return columns, rows, summary


def _schrodinger_energy(mu: ChargeDistribution,
                        cfg: ExperimentConfig) -> SchrodingerResult:
    if mu.radially_symmetric:
        return schrodinger_ground_radial(mu, cfg.radial_grid)
    basis = default_spinor_basis(mu, **cfg.basis)
    return schrodinger_ground_gaussian(basis, mu)


def _schrodinger_compare(cfg: ExperimentConfig):
    """Nonrelativistic ground energies vs the -nu^2/2 concavity bound.

    Radially symmetric charges use the radial integrator; atomic ones the
    Gaussian solver.  For adjacent scan pairs the midpoint mixture is also
    solved and the concavity slack recorded in the summary.
    """
    family = _scan_family(cfg)
    solved = _run_ordered(lambda item: _schrodinger_energy(item[1], cfg),
                          family, cfg.workers)
    rows = []
    for idx, ((sep, mu), (energy, is_bound)) in enumerate(zip(family, solved)):
        nu = mu.total_charge
        bound_val = -0.5 * nu * nu
        rows.append({
            "scan_index": idx, "separation": sep,
            "geometry": charge_descriptor(mu), "nu_total": nu,
            "energy": energy, "bound": bound_val,
            "margin": energy - bound_val,
            "converged": True, "flags": "ok" if is_bound else "unbound"})
    concavity = None
    if len(family) >= 2:
        slacks = []
        for (_, mu_a), (_, mu_b), row_a, row_b in zip(
                family, family[1:], rows, rows[1:]):
            mixed, _ = _schrodinger_energy(charges.mix(mu_a, mu_b, 0.5), cfg)
            slacks.append(mixed - 0.5 * (row_a["energy"] + row_b["energy"]))
        concavity = min(slacks)
    margins = [r["margin"] for r in rows]
    summary = {
        "margin_min": min(margins) if margins else None,
        "concavity_min_slack": concavity,
        "margin_budget": cfg.margin_budget,
        "exit_code": _aggregate_exit(rows, "margin", cfg.margin_budget),
    }
    columns = ("scan_index", "separation", "geometry", "nu_total",
               "energy", "bound", "margin", "flags")
    return columns, rows, summary


def _hardy_sweep(cfg: ExperimentConfig):
    """Per-charge quotient constants c(mu) with the published floor; each
    row's `diagnostics` (_grid_diagnostics) goes to the manifest."""
    def solve_one(indexed):
        index, (_, mu) = indexed
        basis = default_spinor_basis(mu, **cfg.basis)
        grid = grid_for_basis(basis, cfg.gap.n_radial, cfg.gap.angular_order)
        return {**asdict(scan_row(index, mu, basis, grid)),
                "converged": True, "flags": "ok",
                "diagnostics": _grid_diagnostics(basis, grid)}
    rows = _run_ordered(solve_one, list(enumerate(_scan_family(cfg))),
                        cfg.workers)
    c_min = min(r["c_mu"] for r in rows)
    floor = 0.90033 - 1e-6
    summary = {
        "c_min": c_min,
        "published_bracket": [0.90033, 1.0],
        "floor": floor,
        "exit_code": EXIT_MARGIN if c_min < floor else EXIT_OK,
    }
    return tuple(f.name for f in fields(HardyScanRow)), rows, summary


# per kind its runner, which returns (columns, rows, summary), the
# headline column of its rows and the help line of its command
KINDS = {
    "conjecture-sweep": (_conjecture_sweep, "lambda1",
                         "gap margins vs the merged-charge bound"),
    "pes-scan": (_pes_scan, "lambda1",
                 "lambda1 plus nuclear repulsion vs separation"),
    "contraction-check": (_contraction_check, "lambda1",
                          "lambda1 along uniform contractions"),
    "schrodinger": (_schrodinger_compare, "energy",
                    "nonrelativistic energies vs -nu^2/2"),
    "hardy-sweep": (_hardy_sweep, "c_mu",
                    "quotient constants c(mu) over a family"),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one experiment and stamp its report with start/finish times."""
    started = _utcnow()
    columns, rows, summary = KINDS[cfg.kind][0](cfg)
    return ExperimentReport(kind=cfg.kind, columns=columns, rows=rows,
                            summary=summary, config_echo=cfg.config_echo,
                            started_utc=started, finished_utc=_utcnow())
