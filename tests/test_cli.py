"""Command line façade: exit codes, JSON/CSV output, config echo."""
import csv
import json
import math
from pathlib import Path

import pytest

from diraclab import _rootfind, cli, multicenter, radial
from diraclab.configio import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# Values the benchmark checks its shipped-config runs against, and its
# tolerance on each.
REFERENCE_FILE = CONFIG_DIR.parent / "perfbench" / "reference.json"
REFERENCE_TOL = 1e-7

FAST_SWEEP = """
[experiment]
kind = conjecture-sweep
thetas = 0.2 0.2
separations = 1 4

[basis]
n_s = 8

[grid]
n_radial = 64
angular_order = 17
"""

RADIAL_SHELL = """
[charge.layer]
kind = sphere-shell
radius = 1.0
theta = 0.5

[grid]
r_min = 1e-6
r_max = 100
n = 3000
"""

MULTI = """
[basis]
n_s = 8

[grid]
n_radial = 64
angular_order = 17

[charge.point]
position = 0 0 0
theta = 0.5
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_radial_nu_shortcut(capsys):
    assert cli.main(["radial", "--nu", "0.6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda1"] == pytest.approx(math.sqrt(1 - 0.36), abs=1e-6)
    assert out["kappa"] == -1
    assert out["below_gap"] is False


def test_radial_config_shell(tmp_path, capsys):
    cfg = write(tmp_path, "shell.cfg", RADIAL_SHELL)
    assert cli.main(["radial", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda1"] >= math.sqrt(0.75) - 1e-8


def test_multicenter_verbose_reports_the_grid(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI)
    assert cli.main(["multicenter", "--config", cfg, "--verbose"]) == 0
    err = capsys.readouterr().err
    # one atom: 64 shells times the 18 cos(theta) nodes of one azimuth
    assert "grid_points=1152 grid_kind=axial" in err


def test_radial_rejects_nonsymmetric_charge(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI.replace(
        "position = 0 0 0", "position = 1 0 0"))
    assert cli.main(["radial", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "multicenter" in err and err.startswith("error:")


def test_radial_needs_config_or_nu(capsys):
    assert cli.main(["radial"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert cli.main(["multicenter", "--config", "/nonexistent.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_multicenter_solve_json(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI)
    assert cli.main(["multicenter", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"lambda1", "residual", "iterations", "below_gap",
                        "crosscheck_lambda1", "flags", "converged"}
    assert out["lambda1"] == pytest.approx(math.sqrt(0.75), abs=5e-3)
    assert out["converged"] is True


def test_multicenter_atom_order_does_not_change_json_bytes(tmp_path):
    head = "[basis]\nn_s = 8\n\n[grid]\nn_radial = 48\nangular_order = 17\n"
    blocks = [f"\n[charge.point]\nposition = {pos}\ntheta = 0.15\n"
              for pos in ("0 0 0", "1.2 0 0", "0.4 0.9 0")]
    outputs = []
    for order in (blocks, blocks[::-1]):
        cfg = write(tmp_path, "three.cfg", head + "".join(order))
        out = tmp_path / f"out{len(outputs)}.json"
        assert cli.main(["multicenter", "--config", cfg,
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_radial_json_reports_unconverged_solve(tmp_path, capsys):
    # 4 is the smallest accepted budget; no sample reaches a residual of
    # 1e-30, so the solve runs out of it unconverged
    cfg = write(tmp_path, "shell.cfg", RADIAL_SHELL
                + "\n[solver]\nmax_iterations = 4\nresidual_tol = 1e-30\n")
    assert cli.main(["radial", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is False and out["iterations"] <= 4


@pytest.mark.parametrize("budget", ["0", "3", "-1"])
def test_radial_rejects_too_small_iteration_budget(tmp_path, capsys, budget):
    # the 3D solver's rule: fewer than 4 root-find iterations exits 1
    cfg = write(tmp_path, "shell.cfg",
                RADIAL_SHELL + f"\n[solver]\nmax_iterations = {budget}\n")
    assert cli.main(["radial", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "iteration budget too small" in captured.err
    assert captured.out == ""


def test_multicenter_rejects_non_boolean_crosscheck(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg",
                MULTI + "\n[solver]\ncrosscheck = false-ish\n")
    assert cli.main(["multicenter", "--config", cfg]) == 1
    assert "crosscheck" in capsys.readouterr().err


def test_radial_defaults_come_from_solve_config(monkeypatch, capsys):
    seen = []

    def fake_solve(mu, kappa, grid, config):
        seen.append((grid, config))
        return radial.RadialGapResult(_rootfind.OK, 0.5, 0.0, ((0.5, 0.0),),
                                      (0.5, 0.5), True, (), None, kappa)

    monkeypatch.setattr(cli, "lowest_gap_eigenvalue_radial", fake_solve)
    assert cli.main(["radial", "--nu", "0.5"]) == 0
    assert seen == [(radial.RadialGrid(), radial.RadialSolveConfig())]


def test_multicenter_defaults_come_from_gap_config(tmp_path, monkeypatch,
                                                  capsys):
    seen = []

    def fake_solve(basis, mu, grid, config):
        seen.append(config)
        return multicenter.GapResult(_rootfind.OK, 0.5, 0.0, ((0.5, 0.0),),
                                     (0.5, 0.5), True, (), None)

    monkeypatch.setattr(cli, "solve_gap", fake_solve)
    monkeypatch.setattr(cli, "grid_for_basis", lambda *args: None)
    no_grid = MULTI.replace("[grid]\nn_radial = 64\nangular_order = 17\n",
                            "")
    assert "[grid]" not in no_grid and "[solver]" not in no_grid
    cfg = write(tmp_path, "multi.cfg", no_grid)
    assert cli.main(["multicenter", "--config", cfg]) == 0
    assert seen == [multicenter.GapSolveConfig()]


@pytest.mark.parametrize("command,text", [
    ("multicenter", MULTI.replace("n_radial", "n_radail")),
    ("multicenter", MULTI + "\n[solvers]\nlam_tol = 1e-9\n"),
    ("radial", RADIAL_SHELL.replace("r_max", "rmax")),
    ("conjecture-sweep", FAST_SWEEP.replace("angular_order", "angular"))],
    ids=["multicenter-key", "multicenter-section", "radial-key", "sweep-key"])
def test_unknown_config_keys_exit_1(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "typo.cfg", text)
    assert cli.main([command, "--config", cfg]) == 1
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("multicenter", MULTI), ("conjecture-sweep", FAST_SWEEP)],
    ids=["multicenter", "sweep"])
@pytest.mark.parametrize("n_radial", ["1", "0", "-3"])
def test_bad_radial_shell_count_exits_1(tmp_path, capsys, command, text,
                                        n_radial):
    cfg = write(tmp_path, "grid.cfg",
                text.replace("n_radial = 64", f"n_radial = {n_radial}"))
    assert cli.main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command,text", [
    ("conjecture-sweep", FAST_SWEEP.replace("n_s = 8", "n_s = abc")),
    ("multicenter", MULTI.replace("n_s = 8", "n_s = 2.7")),
    ("conjecture-sweep", FAST_SWEEP.replace(
        "kind = conjecture-sweep", "kind = conjecture-sweep\nworkers = two")),
    ("conjecture-sweep", FAST_SWEEP + "\n[output]\ncsv = 5\n"),
    ("radial", RADIAL_SHELL + "\n[solver]\nlam_tol = 1e-8 1e-9\n"),
    ("radial", RADIAL_SHELL.replace("n = 3000", "n = 4000.9")),
    ("conjecture-sweep", FAST_SWEEP.replace(
        "thetas", "margin_budget = nan\nthetas")),
    ("multicenter", MULTI + "\n[solver]\nlam_tol = nan\n"),
    ("radial", RADIAL_SHELL.replace("r_max = 100", "r_max = inf"))],
    ids=["n_s-word", "n_s-real", "workers-word", "csv-int", "lam_tol-list",
         "n-real", "margin_budget-nan", "lam_tol-nan", "r_max-inf"])
def test_wrongly_typed_config_values_exit_1(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "bad.cfg", text)
    assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err and captured.out == ""


def test_non_integer_workers_env_exits_1(tmp_path, monkeypatch, capsys):
    from diraclab import experiments
    monkeypatch.setenv(experiments.WORKERS_ENV, "two")
    cfg = write(tmp_path, "sweep.cfg", FAST_SWEEP)
    assert cli.main(["conjecture-sweep", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and experiments.WORKERS_ENV in err


def test_print_config_is_fixed_point(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI)
    assert cli.main(["multicenter", "--config", cfg, "--print-config"]) == 0
    echoed = capsys.readouterr().out
    cfg2 = write(tmp_path, "echo.cfg", echoed)
    assert cli.main(["multicenter", "--config", cfg2, "--print-config"]) == 0
    assert capsys.readouterr().out == echoed


def test_sweep_writes_csv_and_manifest(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg", FAST_SWEEP)
    out = tmp_path / "sweep.csv"
    code = cli.main(["conjecture-sweep", "--config", cfg,
                     "--out", str(out), "--verbose"])
    assert code == 0
    body = out.read_text()
    assert body.splitlines()[0].startswith("scan_index,separation,")
    assert len(body.splitlines()) == 3
    man = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert man["experiment"] == "conjecture-sweep"
    err = capsys.readouterr().err
    assert "wrote 2 rows" in err and "exit_code" in err


def test_sweep_stdout_when_no_out(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg", FAST_SWEEP)
    assert cli.main(["conjecture-sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("scan_index,")


def test_sweep_byte_identical_between_runs(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", FAST_SWEEP)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["conjecture-sweep", "--config", cfg,
                     "--out", str(a)]) == 0
    assert cli.main(["conjecture-sweep", "--config", cfg,
                     "--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_needs_config(capsys):
    assert cli.main(["pes-scan"]) == 1
    assert "needs --config" in capsys.readouterr().err


def test_experiment_exit_code_passthrough(tmp_path, monkeypatch, capsys):
    from diraclab import experiments

    def undershoot(mu, cfg):
        return {"lambda1": 0.0, "converged": True, "flags": "ok",
                "error": None}
    monkeypatch.setattr(experiments, "_solve_point", undershoot)
    cfg = write(tmp_path, "sweep.cfg", FAST_SWEEP)
    assert cli.main(["conjecture-sweep", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 3


def shipped_command(path: Path) -> str:
    """The subcommand a shipped config is written for: radial for layers,
    multicenter for a bare charge block, else its experiment kind."""
    doc = load_config(path)
    if doc.layer_blocks:
        return "radial"
    return str(doc.get("experiment", "kind", "multicenter"))


# the CSV column of a scan kind's whole-output reference, and the column
# each `<config>/<key>=<value>` reference picks its row by
SCAN_VALUE = {"hardy-sweep": "c_mu", "schrodinger": "energy"}
ROW_COLUMN = {"separations": "separation", "scales": "scale"}


def reference_pairs(path: Path, command: str, out: Path) -> dict:
    """Per key of REFERENCE_FILE naming this config, the values `out`
    holds for it (None if none) and the recorded ones: the whole output
    under `<command>/<config>`, one scan row under `<config>/<key>=<value>`."""
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    whole = f"{command}/{path.stem}"
    keys = [k for k in reference
            if k == whole or k.startswith(f"{path.stem}/")]
    got = {}
    if command in ("radial", "multicenter"):
        res = json.loads(out.read_text())
        got[whole] = [v for v in (res["lambda1"],
                                  res.get("crosscheck_lambda1"))
                      if v is not None]
    else:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if command in SCAN_VALUE:
            got[whole] = [float(r[SCAN_VALUE[command]]) for r in rows]
        for k in keys:
            key, _, value = k.partition("/")[2].partition("=")
            if key in ROW_COLUMN:
                got[k] = [float(r["lambda1"]) for r in rows
                          if float(r[ROW_COLUMN[key]]) == float(value)]
    return {k: (got.get(k), reference[k]) for k in keys}


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_shipped_config_runs_clean(path, tmp_path):
    command = shipped_command(path)
    single = command in ("radial", "multicenter")
    out = tmp_path / ("out.json" if single else "out.csv")
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    if single:
        res = json.loads(out.read_text())
        assert res["converged"] and not res["below_gap"]
        assert res.get("flags", []) == []
    else:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(row.get("flags", "ok") == "ok" for row in rows)
    # every value the benchmark records for this output, within its
    # tolerance, so a drift shows here and not only in a benchmark run
    for key, (got, want) in reference_pairs(path, command, out).items():
        assert got is not None and len(got) == len(want), key
        assert all(abs(g - w) <= REFERENCE_TOL for g, w in zip(got, want)), \
            (key, got, want)
