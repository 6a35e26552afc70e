"""Command line façade: exit codes, JSON/CSV output, config echo."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diraclab import cli, multicenter, radial
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


def test_multicenter_verbose_reports_the_start(tmp_path, capsys):
    # one atom starts at its exact merged value; a pair at the min-max
    # bound of its Schrodinger ground vector, above its root
    for text, merged in ((MULTI, True),
                         (MULTI + "\n[charge.point]\nposition = 1 0 0\n"
                          "theta = 0.2\n", False)):
        cfg = write(tmp_path, "multi.cfg", text)
        assert cli.main(["multicenter", "--config", cfg, "--verbose"]) == 0
        captured = capsys.readouterr()
        fields = dict(item.split("=") for item in captured.err.split())
        start, lambda1 = float(fields["start"]), float(fields["lambda1"])
        if merged:
            assert start == pytest.approx(math.sqrt(1.0 - 0.25), abs=1e-12)
        else:
            assert start > lambda1
        assert "start" not in json.loads(captured.out)


# exponents 1.3 apart: the overlap of this pair keeps 15 of its 16
# directions
RANK_REDUCED_BASIS = "[basis]\nn_s = 8\nbeta = 1.3\n"
RANK_REDUCED_PAIR = (MULTI.replace("[basis]\nn_s = 8\n", RANK_REDUCED_BASIS)
                     .replace("theta = 0.5", "theta = 0.2")
                     + "\n[charge.point]\nposition = 1 0 0\ntheta = 0.2\n")


def test_rank_reduced_pair_prints_one_set_of_words(tmp_path, capsys):
    # the JSON, the --verbose line and the sweep row of one solve agree
    cfg = write(tmp_path, "pair.cfg", RANK_REDUCED_PAIR)
    assert cli.main(["multicenter", "--config", cfg, "--verbose"]) == 0
    captured = capsys.readouterr()
    fields = dict(item.split("=") for item in captured.err.split())
    assert json.loads(captured.out)["flags"] == ["rank-reduced"]
    assert fields["flags"] == "rank-reduced"
    assert int(fields["retained_rank"]) < int(fields["basis_size"])
    sweep = write(tmp_path, "sweep.cfg", FAST_SWEEP.replace(
        "separations = 1 4", "separations = 1").replace(
        "[basis]\nn_s = 8\n", RANK_REDUCED_BASIS))
    assert cli.main(["conjecture-sweep", "--config", sweep]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["flags"] for r in rows] == ["rank-reduced"]
    assert float(rows[0]["lambda1"]) == json.loads(captured.out)["lambda1"]


def test_multicenter_verbose_reports_residual_and_bracket(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI)
    assert cli.main(["multicenter", "--config", cfg, "--verbose"]) == 0
    captured = capsys.readouterr()
    fields = dict(item.split("=") for item in captured.err.split())
    solver = multicenter.GapSolveConfig()
    assert 0.0 <= float(fields["residual"]) <= solver.residual_tol
    assert 0.0 <= float(fields["bracket_width"]) <= solver.lam_tol
    assert fields["flags"] == "-"
    # the JSON key set stays as it was
    assert set(json.loads(captured.out)) == {
        "lambda1", "residual", "iterations", "below_gap", "converged",
        "crosscheck_lambda1", "flags"}


@pytest.mark.parametrize("kappa", ["1", "2"])
def test_radial_refuses_positive_kappa(capsys, kappa):
    # the stencil reads the kappa = -1 level 0.8000037 for --kappa 1,
    # where the closed form is 0.9486833
    assert cli.main(["radial", "--nu", "0.6", "--kappa", kappa]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "kappa > 0" in captured.err


def test_point_layer_points_to_an_origin_atom(tmp_path, capsys):
    cfg = write(tmp_path, "point.cfg",
                "[charge.layer]\nkind = point\nradius = 0\ntheta = 0.5\n")
    assert cli.main(["radial", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[charge.point]" in err


HARDY_SWEEP = """
[experiment]
kind = hardy-sweep
thetas = 0.5 0.5
separations = 1 2 4

[basis]
n_s = 6

[grid]
n_radial = 32
angular_order = 11
"""


@pytest.mark.parametrize("text, index, head", [
    (FAST_SWEEP, "scan_index", "lambda1"),
    (HARDY_SWEEP, "family_index", "c_mu")], ids=["sweep", "hardy"])
def test_verbose_writes_one_line_per_row_in_row_order(tmp_path, capsys, text,
                                                      index, head):
    cfg = write(tmp_path, "scan.cfg", text)
    bodies = []
    for workers in ("1", "2"):
        kind = load_config(cfg).get("experiment", "kind")
        assert cli.main([kind, "--config", cfg, "--workers", workers,
                         "--verbose"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        lines = captured.err.splitlines()
        # N rows give N lines, in row order, then the summary
        assert len(rows) >= 2 and len(lines) == len(rows) + 1
        assert lines[:-1] == [f"{index}={r[index]} {head}="
                              f"{float(r[head]):.12g}" for r in rows]
        assert json.loads(lines[-1])["exit_code"] == 0
        bodies.append(captured.out)
    assert bodies[0] == bodies[1]


def test_radial_verbose_reports_residual_and_bracket(tmp_path, capsys):
    cfg = write(tmp_path, "shell.cfg", RADIAL_SHELL)
    assert cli.main(["radial", "--config", cfg, "--verbose"]) == 0
    captured = capsys.readouterr()
    fields = dict(item.split("=") for item in captured.err.split())
    solver = radial.RadialSolveConfig()
    assert 0.0 <= float(fields["residual"]) <= solver.residual_tol
    assert 0.0 <= float(fields["bracket_width"]) <= solver.lam_tol
    # the JSON output does not carry them
    assert set(json.loads(captured.out)) == {
        "lambda1", "residual", "iterations", "below_gap", "kappa",
        "converged"}


def test_radial_rejects_nonsymmetric_charge(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI.replace(
        "position = 0 0 0", "position = 1 0 0"))
    assert cli.main(["radial", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "multicenter" in err and err.startswith("error:")


def test_radial_needs_config_or_nu(capsys):
    assert cli.main(["radial"]) == 1
    assert "error:" in capsys.readouterr().err


def test_radial_refuses_nu_with_config(capsys):
    # one of the two would otherwise be dropped without a word
    cfg = str(CONFIG_DIR / "radial_shell.cfg")
    assert cli.main(["radial", "--nu", "0.5", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "--nu" in captured.err and "--config" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,code", [
    (["radial", "--bogus"], 1), ([], 1), (["radial", "--help"], 0)],
    ids=["unknown_flag", "no_command", "help"])
def test_usage_errors_exit_1_and_help_exits_0(capsys, argv, code):
    # argparse's own usage-error code, 2, would read as a solver failure;
    # a malformed value is checked in the one-parser test below
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    assert ("usage:" in capsys.readouterr().err) == (code == 1)


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


def test_multicenter_rejects_near_coincident_atoms(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI + "\n[charge.point]\n"
                "position = 1e-17 0 0\ntheta = 0.2\n")
    assert cli.main(["multicenter", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "closer than" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["radial", "multicenter"])
def test_supercritical_point_mass_at_one_position_exits_1(tmp_path, capsys,
                                                         command):
    cfg = write(tmp_path, "multi.cfg", MULTI.replace("theta = 0.5",
                                                     "theta = 0.6")
                + "\n[charge.point]\nposition = 0 0 0\ntheta = 0.6\n")
    assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "> 1" in captured.err
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
        return radial.RadialGapResult(False, 0.5, 0.0, ((0.5, 0.0),),
                                      (0.5, 0.5), True, (), None, kappa)

    monkeypatch.setattr(cli, "lowest_gap_eigenvalue_radial", fake_solve)
    assert cli.main(["radial", "--nu", "0.5"]) == 0
    assert seen == [(radial.RadialGrid(), radial.RadialSolveConfig())]


def test_multicenter_defaults_come_from_gap_config(tmp_path, monkeypatch,
                                                  capsys):
    seen = []

    def fake_solve(basis, mu, grid=None, config=None):
        # the solver, not the command, builds the grid
        assert grid is None
        seen.append(config)
        return multicenter.GapResult(False, 0.5, 0.0, ((0.5, 0.0),),
                                     (0.5, 0.5), True, (), None)

    monkeypatch.setattr(cli, "solve_gap", fake_solve)
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


@pytest.mark.parametrize("command,text", [
    ("radial", None), ("multicenter", MULTI),
    ("conjecture-sweep", FAST_SWEEP), ("hardy-sweep", FAST_SWEEP)],
    ids=["radial-nu", "multicenter", "sweep", "hardy"])
def test_print_config_solves_nothing(tmp_path, monkeypatch, capsys, command,
                                     text):
    def refuse(*args, **kwargs):
        raise AssertionError("--print-config ran a solve")
    for name in ("lowest_gap_eigenvalue_radial", "solve_gap",
                 "run_experiment"):
        monkeypatch.setattr(cli, name, refuse)
    source = (["--nu", "0.5"] if text is None
              else ["--config", write(tmp_path, "c.cfg", text)])
    assert cli.main([command, *source, "--print-config"]) == 0
    echoed = capsys.readouterr().out
    assert echoed.startswith("[charge.point]" if text != FAST_SWEEP
                             else "[basis]")


def fresh_process(argv):
    """Exit code, stdout and stderr of dirac-lab `argv` in a new
    interpreter that imports diraclab from this checkout."""
    src = str(CONFIG_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "diraclab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          check=False)
    return done.returncode, done.stdout, done.stderr


def test_one_parser_serves_every_call_as_a_fresh_process_would(capsys):
    # the parser is built once per process; parsing, an argparse error
    # (SystemExit) and a solve between calls must leave it as it was
    calls = [["radial", "--nu", "0.3", "--print-config"],
             ["radial", "--nu", "0.3", "--kappa", "one"],
             ["radial", "--nu", "0.3"]]
    want = [fresh_process(argv) for argv in calls]
    assert want[1][0] == 1 and "--kappa" in want[1][2]
    for _ in range(2):
        for argv, expected in zip(calls, want):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected
    assert cli._build_parser() is cli._build_parser()


def test_print_config_echoes_a_boolean_as_a_word(tmp_path, capsys):
    cfg = write(tmp_path, "multi.cfg", MULTI + "\n[solver]\ncrosscheck = 1\n")
    assert cli.main(["multicenter", "--config", cfg, "--print-config"]) == 0
    assert "crosscheck = true\n" in capsys.readouterr().out


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


def test_command_refuses_a_config_of_another_kind(tmp_path, capsys):
    text = (CONFIG_DIR / "conjecture_m2.cfg").read_text()
    cfg = write(tmp_path, "m2.cfg", text.replace(
        "separations = 0.25 0.5 1 2 4 8", "separations = 1").replace(
        "csv = conjecture_m2.csv", f"csv = {tmp_path / 'm2.csv'}"))
    assert cli.main(["pes-scan", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "pes-scan" in err and "conjecture-sweep" in err
    assert not (tmp_path / "m2.csv").exists()


def test_experiment_subcommands_are_the_kinds(capsys):
    from diraclab import experiments

    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for kind, (_, _, blurb) in experiments.KINDS.items():
        assert kind in out and blurb in out


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
