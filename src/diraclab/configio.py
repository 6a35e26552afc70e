"""Structured text config files.

Grammar: INI-like sections.  `[charge.point]` and `[charge.layer]` may
repeat, one block per charge piece; every other section holds scalar
`key = value` pairs and may appear once.  `#` starts a comment.  The
reader converts each value to the type SECTION_KEYS declares for its
key as it reads the line, so a parsed document holds typed values only.
The writer is canonical: charge blocks in the charge's own stored order,
floats at 17 significant digits, so write -> parse round-trips
bit-exactly.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

from .charges import ChargeDistribution, PointCharge, RadialLayer
from .errors import ConfigError

# value types of the keys, each spelt as an error message names it
INT, REAL, BOOL, NAME, REALS = ("an integer", "a finite real number",
                                "0, 1, true or false", "a name",
                                "a list of finite real numbers")

# every section and key any command reads, with its type
SECTION_KEYS = {
    "charge.point": {"position": REALS, "theta": REAL},
    "charge.layer": {"kind": NAME, "radius": REAL, "theta": REAL},
    "experiment": {"kind": NAME, "thetas": REALS, "separations": REALS,
                   "scales": REALS, "arrangement": NAME,
                   "margin_budget": REAL, "workers": INT},
    "basis": {"n_s": INT, "alpha0": REAL, "beta": REAL},
    "grid": {"n_radial": INT, "angular_order": INT, "r_min": REAL,
             "r_max": REAL, "n": INT},
    "solver": {"lam_tol": REAL, "residual_tol": REAL, "max_iterations": INT,
               "crosscheck": BOOL},
    "output": {"csv": NAME, "manifest": NAME},
}


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


def _number(text: str):
    """`text` as int() reads it, else as float() does."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _finite(text: str) -> float:
    """`text` as a finite float: a nan tolerance passes every check."""
    value = _number(text)
    if not abs(value) <= sys.float_info.max:
        raise ValueError(text)
    return float(value)


def _convert(kind: str, raw: str):
    """The text of a value as `kind`; ValueError if it is not one.  Only a
    list of reals splits on whitespace and commas; every other kind reads
    the whole text, and a name is one that no number reading takes."""
    parts = raw.replace(",", " ").split()
    if kind == REALS:
        return tuple(_finite(p) for p in (parts if len(parts) > 1 else [raw]))
    if kind == INT:
        return int(raw)
    if kind == REAL:
        return _finite(raw)
    if kind == BOOL:
        value = raw if raw in ("true", "false") else int(raw)
        if value not in ("true", "false", 0, 1):
            raise ValueError(raw)
        return value in ("true", 1)
    try:
        _number(raw)
    except ValueError:
        if raw and len(parts) <= 1:
            return raw
    raise ValueError(raw)


@dataclass
class ConfigDoc:
    """Parsed config: scalar sections plus an optional charge distribution,
    every value already of the type SECTION_KEYS declares for its key."""

    sections: dict[str, dict[str, object]] = field(default_factory=dict)
    point_blocks: list[dict[str, object]] = field(default_factory=list)
    layer_blocks: list[dict[str, object]] = field(default_factory=list)

    def charge(self) -> ChargeDistribution:
        if not self.point_blocks and not self.layer_blocks:
            raise ConfigError("config declares no charge blocks")
        points = []
        for blk in self.point_blocks:
            if not {"position", "theta"} <= blk.keys():
                raise ConfigError("[charge.point] needs position and theta")
            if len(blk["position"]) != 3:
                raise ConfigError("position must be three reals, got "
                                  f"{blk['position']!r}")
            points.append(PointCharge(blk["position"], blk["theta"]))
        layers = []
        for blk in self.layer_blocks:
            if not {"kind", "theta"} <= blk.keys():
                raise ConfigError("[charge.layer] needs kind and theta")
            layers.append(RadialLayer(blk["kind"], blk.get("radius", 0.0),
                                      blk["theta"]))
        return ChargeDistribution(points=tuple(points), layers=tuple(layers))

    def has_charge(self) -> bool:
        return bool(self.point_blocks or self.layer_blocks)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def build(self, cls, *sections: str):
        """`cls(**keys)` from the keys set in `sections` that name its
        fields; every other field keeps the default `cls` declares."""
        names = {f.name for f in fields(cls) if f.init}
        return cls(**{k: v for section in sections
                      for k, v in self.sections.get(section, {}).items()
                      if k in names})


def parse_config(text: str) -> ConfigDoc:
    """The document `text` holds, each value converted to its key's type.

    Raises ConfigError, naming the line, on a malformed line, an
    undeclared section or key, a repeated one, or a value of the wrong
    type.
    """
    doc = ConfigDoc()
    current: dict[str, object] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw!r}")
            name = line[1:-1].strip()
            if name not in SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]; "
                                  f"expected one of {', '.join(SECTION_KEYS)}")
            current_name = name
            current = {}
            if name == "charge.point":
                doc.point_blocks.append(current)
            elif name == "charge.layer":
                doc.layer_blocks.append(current)
            else:
                if name in doc.sections:
                    raise ConfigError(f"line {lineno}: duplicate section [{name}]")
                doc.sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        declared = SECTION_KEYS[current_name]
        if key not in declared:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{current_name}]; "
                f"expected one of {', '.join(declared)}")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current_name}]")
        try:
            current[key] = _convert(declared[key], val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: [{current_name}] {key} must be "
                f"{declared[key]}, got {val!r}") from None
    return doc


def load_config(path) -> ConfigDoc:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return " ".join(_format_value(c) for c in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def emit_charge(mu: ChargeDistribution) -> str:
    """Canonical charge blocks: stored order, 17 significant digits."""
    out = []
    for p in mu.points:
        out.append("[charge.point]")
        out.append("position = " + " ".join(format_float(c) for c in p.position))
        out.append("theta = " + format_float(p.strength))
        out.append("")
    for l in mu.layers:
        out.append("[charge.layer]")
        out.append(f"kind = {l.kind}")
        out.append("radius = " + format_float(l.radius))
        out.append("theta = " + format_float(l.strength))
        out.append("")
    return "\n".join(out)


def _emit_sections(sections) -> list[str]:
    """Lines of the scalar sections, sorted by name and by key."""
    lines = []
    for name in sorted(sections):
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_format_value(value)}"
                     for key, value in sorted(sections[name].items()))
        lines.append("")
    return lines


def emit_config(doc: ConfigDoc) -> str:
    """Canonical text for a whole document: charge first, sections sorted."""
    parts = [emit_charge(doc.charge())] if doc.has_charge() else []
    return "\n".join(parts + _emit_sections(doc.sections))


def charge_descriptor(mu: ChargeDistribution) -> str:
    """Compact one-line geometry descriptor used in report rows."""
    bits = []
    for p in mu.points:
        x, y, z = p.position
        bits.append(f"pt({format_float(p.strength)}@"
                    f"{format_float(x)},{format_float(y)},{format_float(z)})")
    for l in mu.layers:
        bits.append(f"{l.kind}({format_float(l.strength)},r={format_float(l.radius)})")
    return "+".join(bits)


def doc_from_charge(mu: ChargeDistribution, sections=None) -> ConfigDoc:
    """The document of `mu` plus scalar `sections` ({section: {key:
    value}}), read back through parse_config so every value is checked."""
    return parse_config("\n".join([emit_charge(mu),
                                   *_emit_sections(sections or {})]))
