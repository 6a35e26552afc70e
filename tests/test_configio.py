"""Config parsing, canonical emission, and float formatting."""
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diraclab import charges, cli, configio
from diraclab.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SAMPLE = """
# two centers plus solver overrides
[experiment]
kind = conjecture-sweep
thetas = 0.2 0.2
separations = 0.25, 0.5, 1

[solver]
lam_tol = 1e-9

[charge.point]
position = 0 0 0
theta = 0.2

[charge.point]
position = 1 0 0
theta = 0.2
"""


def test_parse_sections_and_values():
    doc = configio.parse_config(SAMPLE)
    assert doc.get("experiment", "kind") == "conjecture-sweep"
    assert doc.get("experiment", "thetas") == (0.2, 0.2)
    # commas and whitespace are interchangeable separators
    assert doc.get("experiment", "separations") == (0.25, 0.5, 1)
    assert doc.get("solver", "lam_tol") == 1e-9
    assert doc.get("solver", "missing", 7) == 7


def test_parse_charge_blocks():
    mu = configio.parse_config(SAMPLE).charge()
    assert len(mu.points) == 2
    assert mu.total_charge == pytest.approx(0.4, abs=1e-15)


def test_parse_rejects_malformed_input():
    with pytest.raises(ConfigError):
        configio.parse_config("[unterminated\nkey = 1")
    with pytest.raises(ConfigError):
        configio.parse_config("key = 1")  # outside any section
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        configio.parse_config("[basis]\nn_s = 1\nn_s = 2")
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        configio.parse_config("[basis]\nnot a pair")
    with pytest.raises(ConfigError, match="line 3: duplicate section"):
        configio.parse_config("[basis]\nn_s = 1\n[basis]")


def test_emit_parse_round_trip():
    doc = configio.parse_config(SAMPLE)
    text = configio.emit_config(doc)
    again = configio.parse_config(text)
    assert again.sections == doc.sections
    assert again.charge() == doc.charge()
    # canonical emission is a fixed point
    assert configio.emit_config(again) == text


def test_charge_round_trip_with_layers():
    mu = charges.combine(charges.atom((0.5, -1, 2), 0.3),
                         charges.shell(0.25, 1.5))
    doc = configio.doc_from_charge(mu)
    again = configio.parse_config(configio.emit_config(doc)).charge()
    assert again == mu


def test_descriptor_mentions_every_piece():
    mu = charges.combine(charges.atom((1, 0, 0), 0.3), charges.ball(0.2, 2.0))
    desc = configio.charge_descriptor(mu)
    assert "pt(" in desc and "ball" in desc
    # order-insensitive: the charge stores its pieces in canonical order
    flipped = charges.ChargeDistribution(points=mu.points[::-1],
                                         layers=mu.layers)
    assert configio.charge_descriptor(flipped) == desc


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(configio.format_float(x)) == x


def test_format_float_17g():
    assert configio.format_float(0.1) == "0.10000000000000001"
    assert configio.format_float(1.0) == "1"
    assert configio.format_float(float("nan")) == "nan"
    assert math.isinf(float(configio.format_float(float("inf"))))


def test_bool_keys_accept_only_0_1_true_false():
    def crosscheck(text):
        doc = configio.parse_config(f"[solver]\ncrosscheck = {text}\n")
        return doc.get("solver", "crosscheck")

    assert [crosscheck(t) for t in ("0", "1", "true", "false")] == [
        False, True, True, False]
    assert configio.parse_config("[solver]\n").sections == {"solver": {}}
    for text in ("yes", "2", "1.0", "False"):
        with pytest.raises(ConfigError, match="crosscheck"):
            crosscheck(text)


def test_typed_reader_converts_each_declared_type():
    doc = configio.parse_config(
        "[experiment]\nkind = pes-scan\nthetas = 0.2, 1\nscales = 1\n"
        "margin_budget = 1\nworkers = 2\n[grid]\nn = 4000\n")
    assert doc.sections["experiment"] == {
        "kind": "pes-scan", "thetas": (0.2, 1.0), "scales": (1.0,),
        "margin_budget": 1.0, "workers": 2}
    assert type(doc.get("experiment", "margin_budget")) is float
    assert doc.sections["grid"] == {"n": 4000}
    assert "basis" not in doc.sections


@pytest.mark.parametrize("section,line", [
    ("basis", "n_s = abc"), ("basis", "n_s = 2.7"), ("grid", "n = 4000.9"),
    ("experiment", "workers = two"), ("output", "csv = 5"),
    ("solver", "lam_tol = 1e-8 1e-9"), ("experiment", "thetas = 0.2 x"),
    ("experiment", "kind = 1 2"), ("experiment", "margin_budget = nan"),
    ("solver", "lam_tol = nan"), ("grid", "r_max = inf"),
    ("grid", "r_min = -inf"), ("experiment", "separations = 1 nan"),
    ("experiment", "thetas = 0.2 1e400"),
    pytest.param("grid", "r_max = 1" + "0" * 400, id="grid-r_max-huge-int")])
def test_typed_reader_rejects_wrong_types(section, line):
    key = line.split()[0]
    with pytest.raises(ConfigError,
                       match=rf"^line 2: \[{section}\] {key} must be"):
        configio.parse_config(f"[{section}]\n{line}\n")


def test_reader_rejects_unknown_sections_and_keys():
    configio.parse_config(SAMPLE)
    for text, lineno in (("[grid]\nn_radail = 12\n", 2),
                         ("[solver]\nlamtol = 1e-9\n", 2),
                         ("[grids]\nn_radial = 12\n", 1)):
        with pytest.raises(ConfigError, match=f"^line {lineno}: unknown"):
            configio.parse_config(text)


def test_shipped_configs_use_declared_keys():
    shipped = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(shipped) == 8
    for path in shipped:
        configio.load_config(str(path))


@pytest.mark.parametrize("line,message", [
    ("n_radail = 12", "line 4: unknown key 'n_radail' in [grid]"),
    ("n_radial = 12.5", "line 4: [grid] n_radial must be an integer"),
    ("n_radial =", "line 4: [grid] n_radial must be an integer, got ''")])
def test_load_config_names_the_line_of_a_bad_value(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"# a comment\n[basis]\n[grid]\n{line}\n")
    with pytest.raises(ConfigError) as info:
        configio.load_config(path)
    assert str(info.value).startswith(message)


def test_empty_value_is_an_error():
    for text in ("[output]\ncsv =\n", "[experiment]\nthetas = \n"):
        with pytest.raises(ConfigError, match="line 2"):
            configio.parse_config(text)
    assert configio.parse_config("[output]\ncsv = a.csv\n").get(
        "output", "csv") == "a.csv"


def test_doc_from_charge_reads_sections_back_typed():
    mu = charges.atom((0.0, 0.0, 0.0), 0.5)
    doc = configio.doc_from_charge(mu, {"basis": {"n_s": 16},
                                        "grid": {"r_max": 100}})
    assert doc.sections == {"basis": {"n_s": 16}, "grid": {"r_max": 100.0}}
    assert type(doc.get("grid", "r_max")) is float and doc.charge() == mu
    for sections in ({"basis": {"n_s": "x"}}, {"basis": {"nS": 16}},
                     {"bases": {"n_s": 16}}):
        with pytest.raises(ConfigError):
            configio.doc_from_charge(mu, sections)


@pytest.mark.parametrize("block", [
    "[charge.point]\nposition = 0 0 0\ntheta = abc",
    "[charge.point]\nposition = a b c\ntheta = 0.5",
    "[charge.point]\nposition = 0 0\ntheta = 0.5",
    "[charge.point]\nposition = 0 0 0\ntheta = 0.5\nstrenght = 0.9",
    "[charge.layer]\nkind = sphere-shell\nradius = abc\ntheta = 0.5",
    "[charge.layer]\nkind = sphere-shell\nradius = 1\ntheta = 0.5\n"
    "strenght = 0.9"], ids=["theta", "position", "position-length",
                            "point-typo", "radius", "layer-typo"])
def test_bad_charge_block_exits_1(block, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(block + "\n")
    assert cli.main(["radial", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
