"""Structured text config files.

Grammar: INI-like sections.  `[charge.point]` and `[charge.layer]` may
repeat, one block per charge piece; every other section holds scalar
`key = value` pairs and may appear once.  `#` starts a comment.  The
writer is canonical: charge blocks in the charge's own stored order,
floats at 17 significant digits, so write -> parse round-trips
bit-exactly.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

from .charges import ChargeDistribution, PointCharge, RadialLayer
from .errors import ConfigError

# value types of the keys
INT, REAL, BOOL, NAME, REALS = "int", "real", "bool", "name", "reals"

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


def _parse_scalar(raw: str):
    """int if it looks like one, else float, else the bare string."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_value(raw: str):
    raw = raw.strip()
    parts = raw.replace(",", " ").split()
    if len(parts) > 1:
        return tuple(_parse_scalar(p) for p in parts)
    return _parse_scalar(raw)


def _convert(kind: str, value, what: str):
    """A parsed value as `kind`; ConfigError if it is not one.  A real
    must fit a finite float: a nan tolerance passes every check."""
    if kind == INT and isinstance(value, int):
        return value
    if kind == REAL and isinstance(value, (int, float)) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    if kind == BOOL and (value in ("true", "false") or (
            isinstance(value, int) and value in (0, 1))):
        return value in ("true", 1)
    if kind == NAME and isinstance(value, str):
        return value
    if kind == REALS:
        items = value if isinstance(value, tuple) else (value,)
        if all(isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
               for v in items):
            return tuple(float(v) for v in items)
    expected = {INT: "an integer", REAL: "a finite real number",
                BOOL: "0, 1, true or false", NAME: "a name",
                REALS: "a list of finite real numbers"}[kind]
    raise ConfigError(f"{what} must be {expected}, got {value!r}")


def _typed_block(section: str, block: dict[str, object]) -> dict[str, object]:
    """The keys of one block of a declared section, each converted to its
    type; ConfigError on an undeclared key or a value of the wrong type."""
    declared = SECTION_KEYS[section]
    out = {}
    for key, value in block.items():
        if key not in declared:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; expected one "
                f"of {', '.join(declared)}")
        out[key] = _convert(declared[key], value, f"[{section}] {key}")
    return out


@dataclass
class ConfigDoc:
    """Parsed config: scalar sections plus an optional charge distribution."""

    sections: dict[str, dict[str, object]] = field(default_factory=dict)
    point_blocks: list[dict[str, object]] = field(default_factory=list)
    layer_blocks: list[dict[str, object]] = field(default_factory=list)

    def charge(self) -> ChargeDistribution:
        if not self.point_blocks and not self.layer_blocks:
            raise ConfigError("config declares no charge blocks")
        points = []
        for blk in self.point_blocks:
            blk = _typed_block("charge.point", blk)
            pos = blk.get("position")
            theta = blk.get("theta")
            if pos is None or theta is None:
                raise ConfigError("[charge.point] needs position and theta")
            if len(pos) != 3:
                raise ConfigError(f"position must be three reals, got {pos!r}")
            points.append(PointCharge(pos, theta))
        layers = []
        for blk in self.layer_blocks:
            blk = _typed_block("charge.layer", blk)
            kind = blk.get("kind")
            theta = blk.get("theta")
            if kind is None or theta is None:
                raise ConfigError("[charge.layer] needs kind and theta")
            layers.append(RadialLayer(kind, blk.get("radius", 0.0), theta))
        return ChargeDistribution(points=tuple(points), layers=tuple(layers))

    def has_charge(self) -> bool:
        return bool(self.point_blocks or self.layer_blocks)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def typed(self, section: str) -> dict[str, object]:
        """The keys set in a scalar section, each converted to its type.

        Raises ConfigError on an undeclared section or key and on a value
        that is not of its key's type.
        """
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]; expected one "
                              f"of {', '.join(SECTION_KEYS)}")
        return _typed_block(section, self.sections.get(section, {}))

    def build(self, cls, *sections: str):
        """`cls(**keys)` from the keys set in `sections` that name its
        fields; every other field keeps the default `cls` declares."""
        keys = {}
        for section in sections:
            keys.update(self.typed(section))
        names = {f.name for f in fields(cls) if f.init}
        return cls(**{k: v for k, v in keys.items() if k in names})

    def check_keys(self) -> None:
        """Raise ConfigError on an undeclared section or key, or a value
        of the wrong type, anywhere in the scalar sections."""
        for section in self.sections:
            self.typed(section)


def parse_config(text: str) -> ConfigDoc:
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
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
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
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current_name}]")
        current[key] = _parse_value(val)
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


def emit_config(doc: ConfigDoc) -> str:
    """Canonical text for a whole document: charge first, sections sorted."""
    parts = []
    if doc.has_charge():
        parts.append(emit_charge(doc.charge()))
    for name in sorted(doc.sections):
        body = doc.sections[name]
        parts.append(f"[{name}]")
        for key in sorted(body):
            parts.append(f"{key} = {_format_value(body[key])}")
        parts.append("")
    return "\n".join(parts)


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
    doc = parse_config(emit_charge(mu))
    if sections:
        for name, body in sections.items():
            doc.sections[name] = dict(body)
    return doc
