"""Experiment runners: determinism, margins, flags, and exit codes."""
import csv
import io
import json
import math

import pytest

from diraclab import charges, configio, experiments, multicenter, radial
from diraclab.errors import ConfigError

FAST = """
[experiment]
kind = conjecture-sweep
thetas = 0.2 0.2
separations = 1 4
margin_budget = 5e-3

[basis]
n_s = 8

[grid]
n_radial = 64
angular_order = 17
"""


def fast_config(**overrides):
    cfg = experiments.config_from_doc(configio.parse_config(FAST))
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
    return cfg


def test_config_from_doc_reads_sections():
    cfg = fast_config()
    assert cfg.kind == "conjecture-sweep"
    assert cfg.thetas == (0.2, 0.2)
    assert cfg.separations == (1.0, 4.0)
    assert cfg.basis == {"n_s": 8} and cfg.gap.n_radial == 64
    assert cfg.arrangement == "line"
    assert cfg.workers == 1
    assert "kind = conjecture-sweep" in cfg.config_echo


def test_config_validation_failures():
    with pytest.raises(ConfigError):
        experiments.ExperimentConfig(kind="mystery-scan")
    with pytest.raises(ConfigError):
        experiments.ExperimentConfig(kind="pes-scan", thetas=(0.1, 0.2),
                                     arrangement="square")
    with pytest.raises(ConfigError):
        experiments.ExperimentConfig(kind="pes-scan", thetas=(0.1, 0.2),
                                     arrangement="triangle")
    with pytest.raises(ConfigError):
        experiments.ExperimentConfig(kind="pes-scan", margin_budget=0.0)
    # keys the package no longer has are rejected like any typo
    for text in (FAST.replace("[experiment]\n",
                              "[experiment]\ndirection = 1 0 0\n"),
                 FAST + "\n[solver]\ncrosscheck_tol = 1e-3\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            experiments.config_from_doc(configio.parse_config(text))
    with pytest.raises(ConfigError):
        experiments.run_experiment(fast_config(separations=(1.0, -2.0)))
    with pytest.raises(ConfigError):
        experiments.run_experiment(fast_config(thetas=(), separations=()))


def test_crosscheck_false_means_off():
    for text, want in (("false", False), ("0", False), ("true", True),
                       ("1", True)):
        doc = configio.parse_config(
            FAST + f"\n[solver]\ncrosscheck = {text}\n")
        assert experiments.config_from_doc(doc).gap.crosscheck is want
    with pytest.raises(ConfigError, match="crosscheck"):
        configio.parse_config(FAST + "\n[solver]\ncrosscheck = off\n")


def test_config_from_doc_rejects_unknown_keys():
    # a misspelt grid key would leave the default grid in use; the reader
    # refuses it before any config is built
    with pytest.raises(ConfigError, match="n_radail"):
        configio.parse_config(FAST.replace("n_radial", "n_radail"))
    with pytest.raises(ConfigError, match="solvers"):
        configio.parse_config(FAST + "\n[solvers]\nlam_tol = 1e-9\n")


def test_solver_defaults_come_from_gap_config():
    doc = configio.parse_config("[experiment]\nkind = pes-scan\n")
    for cfg in (experiments.config_from_doc(doc),
                experiments.ExperimentConfig(kind="pes-scan")):
        assert cfg.gap == multicenter.GapSolveConfig()
        assert cfg.radial_grid == radial.RadialGrid()
        assert cfg.basis == {}


def test_triangle_is_default_for_three_thetas():
    doc = configio.parse_config(FAST.replace("0.2 0.2", "0.1 0.1 0.1"))
    assert experiments.config_from_doc(doc).arrangement == "triangle"


def test_workers_precedence(monkeypatch):
    monkeypatch.delenv(experiments.WORKERS_ENV, raising=False)
    assert experiments.resolve_workers(None, None) == 1
    assert experiments.resolve_workers(None, 3) == 3
    monkeypatch.setenv(experiments.WORKERS_ENV, "5")
    assert experiments.resolve_workers(None, 3) == 5
    assert experiments.resolve_workers(2, 3) == 2
    with pytest.raises(ConfigError):
        experiments.resolve_workers(0, None)


def test_conjecture_sweep_margins_and_summary():
    report = experiments.run_experiment(fast_config())
    assert report.columns == ("scan_index", "separation", "geometry",
                              "nu_total", "lambda1", "bound", "margin",
                              "flags")
    assert [r["scan_index"] for r in report.rows] == [0, 1]
    bound = math.sqrt(1 - 0.16)
    assert report.summary["bound"] == pytest.approx(bound, rel=1e-15)
    assert report.summary["conditional_on_nu1"] is False
    for row in report.rows:
        assert row["flags"] == "ok"
        assert row["nu_total"] == pytest.approx(0.4)
        assert row["margin"] == pytest.approx(row["lambda1"] - bound)
        assert row["margin"] > -5e-3
    assert report.summary["exit_code"] == experiments.EXIT_OK
    assert report.exit_code == 0


def test_rank_reduced_flag_on_a_nearly_dependent_basis():
    # exponents 1.3 apart are nearly parallel: the overlap keeps 15 of the
    # 16 directions, and the row says so without failing the scan
    report = experiments.run_experiment(
        fast_config(basis={"n_s": 8, "beta": 1.3}, separations=(1.0,)))
    row = report.rows[0]
    diag = row["diagnostics"]
    assert diag["retained_rank"] < diag["basis_size"]
    assert row["flags"] == "rank-reduced" and row["converged"]
    assert report.exit_code == experiments.EXIT_OK
    # the default ladder is full rank, so its rows stay "ok"
    for row in experiments.run_experiment(fast_config()).rows:
        assert row["diagnostics"]["retained_rank"] == \
            row["diagnostics"]["basis_size"]


def test_csv_body_is_deterministic_and_parseable():
    cfg = fast_config()
    body1 = experiments.run_experiment(cfg).csv_body()
    body2 = experiments.run_experiment(cfg).csv_body()
    assert body1 == body2
    body_mt = experiments.run_experiment(fast_config(workers=2)).csv_body()
    assert body_mt == body1
    rows = list(csv.reader(io.StringIO(body1)))
    assert rows[0] == ["scan_index", "separation", "geometry", "nu_total",
                       "lambda1", "bound", "margin", "flags"]
    # geometry cells contain commas; csv quoting must round-trip them
    assert rows[1][2].count("pt(") == 2
    assert float(rows[1][4]) == pytest.approx(float(rows[1][5]) +
                                              float(rows[1][6]))


def test_manifest_contents(tmp_path):
    cfg = fast_config()
    report = experiments.run_experiment(cfg)
    out = tmp_path / "sweep.csv"
    report.write(out)
    man = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert man["experiment"] == "conjecture-sweep"
    assert man["row_count"] == 2
    assert man["columns"][0] == "scan_index"
    assert man["version"]
    assert man["started_utc"] <= man["finished_utc"]
    assert "n_s = 8" in man["config"]
    assert man["summary"]["exit_code"] == 0
    assert out.read_text() == report.csv_body()


def test_conditional_flag_for_heavy_total():
    cfg = fast_config(thetas=(0.5, 0.5), separations=(2.0,))
    report = experiments.run_experiment(cfg)
    assert report.summary["conditional_on_nu1"] is True
    assert all("conditional-on-nu1" in r["flags"] for r in report.rows)
    # the label region starts at 0.9, below the exact bracket constant
    cfg = fast_config(thetas=(0.4525, 0.4525), separations=(2.0,))
    assert experiments.run_experiment(cfg).summary["conditional_on_nu1"] \
        is True
    with pytest.raises(ConfigError):
        experiments.run_experiment(fast_config(thetas=(0.6, 0.6)))
    # a pes-scan may run above nu = 1, where no merged bound exists: its
    # negative lambda1 is no margin violation
    report = experiments.run_experiment(fast_config(
        kind="pes-scan", thetas=(0.6, 0.6), separations=(0.1,)))
    row, = report.rows
    assert row["converged"] and row["lambda1"] < 0.0
    assert math.isnan(row["bound"]) and math.isnan(row["margin"])
    assert report.exit_code == 0


def test_pes_scan_repulsion_exact():
    cfg = fast_config(kind="pes-scan", thetas=(0.3, 0.2),
                      separations=(1.0, 2.0))
    report = experiments.run_experiment(cfg)
    assert report.columns == ("scan_index", "separation", "geometry",
                              "lambda1", "bound", "margin", "repulsion",
                              "pes", "flags")
    assert report.rows[0]["repulsion"] == pytest.approx(0.06, rel=1e-15)
    assert report.rows[1]["repulsion"] == pytest.approx(0.03, rel=1e-15)
    bound = math.sqrt(1.0 - 0.5 ** 2)
    assert report.summary["bound"] == pytest.approx(bound, rel=1e-15)
    for row in report.rows:
        assert row["pes"] == row["lambda1"] + row["repulsion"]
        assert row["bound"] == report.summary["bound"]
        assert row["margin"] == row["lambda1"] - row["bound"]
    assert report.summary["continuity_max_jump"] is not None
    assert report.exit_code == 0


def test_pes_scan_requires_two_centers():
    with pytest.raises(ConfigError):
        experiments.run_experiment(fast_config(kind="pes-scan",
                                               thetas=(0.4,)))


def test_contraction_check_monotone_and_closed_form():
    mu = charges.atoms([(-1, 0, 0), (1, 0, 0)], [0.2, 0.2])
    cfg = fast_config(kind="contraction-check", thetas=(), separations=(),
                      charge=mu, scales=(1.0, 0.5, 0.0))
    report = experiments.run_experiment(cfg)
    lams = [r["lambda1"] for r in report.rows]
    assert all(a >= b - 5e-3 for a, b in zip(lams, lams[1:]))
    assert report.summary["monotonicity_violations"] == []
    assert report.summary["conditional_on_nu1"] is False
    # fully merged row must sit on the closed form
    assert report.rows[-1]["margin"] == pytest.approx(0.0, abs=1e-3)
    assert report.exit_code == 0


def test_contraction_check_scale_validation():
    mu = charges.atom((0, 0, 0), 0.4)
    base = fast_config(kind="contraction-check", thetas=(), separations=(),
                       charge=mu)
    from dataclasses import replace
    with pytest.raises(ConfigError):
        experiments.run_experiment(replace(base, scales=(0.5, 1.0)))
    with pytest.raises(ConfigError):
        experiments.run_experiment(replace(base, scales=(1.0, 1.5)))
    with pytest.raises(ConfigError):
        experiments.run_experiment(replace(base, charge=None))


def test_schrodinger_radial_point_margin_zero():
    mu = charges.atom((0.0, 0.0, 0.0), 0.8)
    cfg = fast_config(kind="schrodinger", thetas=(), separations=(),
                      charge=mu)
    report = experiments.run_experiment(cfg)
    row = report.rows[0]
    assert math.isnan(row["separation"])
    assert row["flags"] == "ok"
    # a point charge meets the quadratic bound exactly
    assert row["margin"] == pytest.approx(0.0, abs=1e-8)
    assert report.summary["concavity_min_slack"] is None
    assert report.exit_code == 0


def test_schrodinger_pair_concavity_and_flags():
    cfg = fast_config(kind="schrodinger", thetas=(0.5, 0.5),
                      separations=(1.0, 2.0))
    report = experiments.run_experiment(cfg)
    assert report.columns[4] == "energy"
    for row in report.rows:
        assert row["flags"] == "ok"
        assert row["margin"] >= -1e-10
    assert report.summary["concavity_min_slack"] >= -1e-10


def test_schrodinger_unbound_flag():
    # a very shallow wide shell cannot bind on this radial window
    mu = charges.shell(1e-8, 1.0)
    cfg = fast_config(kind="schrodinger", thetas=(), separations=(),
                      charge=mu)
    report = experiments.run_experiment(cfg)
    assert report.rows[0]["flags"] == "unbound"
    assert report.rows[0]["energy"] == 0.0


def test_hardy_sweep_columns_fixed():
    cfg = fast_config(kind="hardy-sweep", thetas=(0.5, 0.5),
                      separations=(1.0, 2.0))
    report = experiments.run_experiment(cfg)
    assert report.columns == ("family_index", "nu_total",
                              "geometry_descriptor", "eta_min", "c_mu",
                              "basis_size")
    header = report.csv_body().splitlines()[0]
    assert header == ("family_index,nu_total,geometry_descriptor,"
                      "eta_min,c_mu,basis_size")
    assert report.summary["published_bracket"] == [0.90033, 1.0]
    assert report.summary["c_min"] >= report.summary["floor"]
    assert report.exit_code == 0
    # the gap rows' basis and grid diagnostics, in the manifest only
    diagnostics = report.manifest()["row_diagnostics"]
    assert [set(d) for d in diagnostics] == [
        {"retained_rank", "basis_size", "grid_points", "grid_kind",
         "partition_residual"}] * 2
    # one meaning of basis_size: scalar primitives in the CSV and manifest
    assert [r["basis_size"] for r in report.rows] == [
        d["basis_size"] for d in diagnostics]


def test_exit_code_solver_error(monkeypatch):
    def broken(mu, cfg):
        return {"lambda1": float("nan"), "converged": False,
                "flags": "solver-error", "error": "synthetic"}
    monkeypatch.setattr(experiments, "_solve_point", broken)
    report = experiments.run_experiment(fast_config())
    assert report.exit_code == experiments.EXIT_SOLVER
    assert report.summary["unconverged_rows"] == 2
    assert report.summary["margin_min"] is None


def test_exit_code_margin_violation(monkeypatch):
    # a real basis cannot undershoot the bound, so synthesize one
    def undershoot(mu, cfg):
        return {"lambda1": 0.5, "converged": True, "flags": "ok",
                "error": None}
    monkeypatch.setattr(experiments, "_solve_point", undershoot)
    report = experiments.run_experiment(fast_config())
    assert report.exit_code == experiments.EXIT_MARGIN
    assert report.summary["margin_min"] == pytest.approx(
        0.5 - math.sqrt(1 - 0.16))


def test_solver_error_takes_precedence_over_margin(monkeypatch):
    state = {"n": 0}

    def mixed(mu, cfg):
        state["n"] += 1
        if state["n"] == 1:
            return {"lambda1": float("nan"), "converged": False,
                    "flags": "solver-error", "error": "synthetic"}
        return {"lambda1": 0.5, "converged": True, "flags": "ok",
                "error": None}
    monkeypatch.setattr(experiments, "_solve_point", mixed)
    report = experiments.run_experiment(fast_config(workers=1))
    assert report.exit_code == experiments.EXIT_SOLVER


def test_cell_formatting():
    assert experiments._cell(None) == ""
    assert experiments._cell(True) == "true"
    assert experiments._cell(False) == "false"
    assert experiments._cell(0.1) == "0.10000000000000001"
    assert experiments._cell(3) == "3"


def test_atom_order_does_not_change_csv_bytes():
    atoms = ["[charge.point]\nposition = 0 0 0\ntheta = 0.15\n",
             "[charge.point]\nposition = 1 0 0\ntheta = 0.15\n",
             "[charge.point]\nposition = 0.5 0.86602540378443860 0\n"
             "theta = 0.15\n"]
    for kind, extra in (("contraction-check", "scales = 1 0.5\n"),
                        ("hardy-sweep", ""), ("schrodinger", "")):
        head = (f"[experiment]\nkind = {kind}\n{extra}[basis]\nn_s = 8\n"
                "[grid]\nn_radial = 64\nangular_order = 17\n")
        bodies = []
        for order in ((0, 1, 2), (2, 1, 0)):
            doc = configio.parse_config(
                head + "".join(atoms[i] for i in order))
            bodies.append(experiments.run_experiment(
                experiments.config_from_doc(doc)).csv_body().encode())
        assert bodies[0] == bodies[1], kind


def test_manifest_carries_root_find_diagnostics_per_row(tmp_path):
    doc = configio.parse_config(
        "[experiment]\nkind = contraction-check\nscales = 1 0\n"
        "[basis]\nn_s = 8\n[grid]\nn_radial = 64\nangular_order = 17\n"
        "[charge.point]\nposition = -1 0 0\ntheta = 0.2\n"
        "[charge.point]\nposition = 1 0 0\ntheta = 0.2\n")
    cfg = experiments.config_from_doc(doc)
    report = experiments.run_experiment(cfg)
    report.write(tmp_path / "c.csv")
    man = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    diags = man["row_diagnostics"]
    assert len(diags) == 2
    for row, diag in zip(report.rows, diags):
        assert set(diag) == {"start", "iterations", "residual",
                             "bracket_width", "retained_rank", "basis_size",
                             "grid_points", "grid_kind", "partition_residual"}
        assert type(diag["start"]) is float
        # a pair and a merged atom both lie on a line
        assert diag["grid_kind"] == "axial"
        assert row["converged"]
        assert diag["residual"] <= cfg.gap.residual_tol
        assert 0.0 <= diag["bracket_width"] <= cfg.gap.lam_tol
        assert 1 <= diag["iterations"] <= cfg.gap.max_iterations
        assert 0 < diag["retained_rank"] <= diag["basis_size"]
        assert diag["grid_points"] > 0
        assert 0.0 <= diag["partition_residual"] <= 1e-12
    # the pair starts above its root, at the min-max bound of its
    # Schrodinger ground vector; the merged s = 0 row at its exact value
    # sqrt(1 - 0.4^2), and it has one centre: half the basis of the pair
    assert diags[0]["start"] >= report.rows[0]["lambda1"] - 1e-12
    assert diags[1]["start"] == math.sqrt(1.0 - 0.4 ** 2)
    assert diags[1]["basis_size"] == diags[0]["basis_size"] // 2 == 8
