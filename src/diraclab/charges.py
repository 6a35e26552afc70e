"""Finite attractive charge distributions and their Coulomb potentials.

A distribution is a finite set of point charges ("atoms") plus optional
origin-centered radial layers (spherical shells and uniformly charged
balls).  Strengths are in units of the critical coupling, so an atom may
not exceed 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ChargeModelError, MergedAtomTooHeavyError,
                     SingularLocationError)

# Distance under which a potential evaluation counts as sitting on an atom.
SINGULAR_EPS = 1e-14
# Pushforward images closer than this merge into a single atom.
MERGE_TOL = 1e-12

LAYER_KINDS = ("point", "sphere-shell", "uniform-ball")


@dataclass(frozen=True)
class PointCharge:
    """An atom: strength 0 < theta <= 1 at a fixed location."""

    position: tuple[float, float, float]
    strength: float

    def __post_init__(self):
        pos = tuple(float(c) for c in self.position)
        if len(pos) != 3 or not all(math.isfinite(c) for c in pos):
            raise ChargeModelError(f"bad point position {self.position!r}")
        object.__setattr__(self, "position", pos)
        s = float(self.strength)
        if not (0.0 < s <= 1.0):
            # an atom heavier than the critical coupling has no
            # distinguished self-adjoint realization
            raise ChargeModelError(f"point strength must be in (0, 1], got {s}")
        object.__setattr__(self, "strength", s)

    @property
    def xyz(self) -> np.ndarray:
        return np.array(self.position, dtype=float)


@dataclass(frozen=True)
class RadialLayer:
    """Origin-centered layer: a point, a sphere shell, or a uniform ball."""

    kind: str
    radius: float
    strength: float

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ChargeModelError(f"unknown layer kind {self.kind!r}")
        rho = float(self.radius)
        s = float(self.strength)
        if s <= 0.0 or not math.isfinite(s):
            raise ChargeModelError(f"layer strength must be positive, got {s}")
        if self.kind == "point":
            if rho != 0.0:
                raise ChargeModelError("point layer must have radius 0")
            if s > 1.0:
                raise ChargeModelError("point layer strength must not exceed 1")
        elif rho <= 0.0 or not math.isfinite(rho):
            raise ChargeModelError(f"{self.kind} layer needs radius > 0, got {rho}")
        object.__setattr__(self, "radius", rho)
        object.__setattr__(self, "strength", s)


@dataclass(frozen=True)
class ChargeDistribution:
    """A finite collection of atoms and origin-centered radial layers."""

    points: tuple[PointCharge, ...] = ()
    layers: tuple[RadialLayer, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def total_charge(self) -> float:
        return math.fsum([p.strength for p in self.points]
                         + [l.strength for l in self.layers])

    @property
    def merged_lambda(self) -> float:
        """sqrt(1 - nu^2), nu the total charge: the lowest gap eigenvalue
        of the merged point charge (0 from nu = 1 on)."""
        nu = self.total_charge
        return math.sqrt(max(0.0, 1.0 - nu * nu))

    @property
    def radially_symmetric(self) -> bool:
        return all(p.position == (0.0, 0.0, 0.0) for p in self.points)

    @property
    def origin_point_strength(self) -> float:
        """Combined strength of point mass at the origin (atoms + point layers)."""
        tot = [p.strength for p in self.points if p.position == (0.0, 0.0, 0.0)]
        tot += [l.strength for l in self.layers if l.kind == "point"]
        return math.fsum(tot)


def atom(position, strength) -> ChargeDistribution:
    return ChargeDistribution(points=(PointCharge(tuple(position), strength),))


def atoms(positions, strengths) -> ChargeDistribution:
    pts = tuple(PointCharge(tuple(p), s) for p, s in zip(positions, strengths))
    return ChargeDistribution(points=pts)


def shell(strength, radius) -> ChargeDistribution:
    return ChargeDistribution(layers=(RadialLayer("sphere-shell", radius, strength),))


def ball(strength, radius) -> ChargeDistribution:
    return ChargeDistribution(layers=(RadialLayer("uniform-ball", radius, strength),))


def _layer_profile(layer: RadialLayer, r: np.ndarray) -> np.ndarray:
    """Convolution of the layer with 1/|x| as a function of radius r."""
    if layer.kind == "point":
        return layer.strength / r
    if layer.kind == "sphere-shell":
        return layer.strength / np.maximum(r, layer.radius)
    # uniform ball: harmonic outside, parabolic inside
    rho = layer.radius
    out = layer.strength / np.maximum(r, rho)
    inside = r < rho
    out = np.where(inside,
                   layer.strength * (3.0 - (r / rho) ** 2) / (2.0 * rho),
                   out)
    return out


def radial_profile(mu: ChargeDistribution, r) -> np.ndarray:
    """Potential of a radially symmetric distribution at radii r > 0."""
    if not mu.radially_symmetric:
        raise ChargeModelError("radial profile needs a radially symmetric charge")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ChargeModelError("radial profile needs r > 0")
    out = np.zeros_like(r)
    nu_pt = math.fsum(p.strength for p in mu.points)
    if nu_pt > 0.0:
        out += nu_pt / r
    for layer in mu.layers:
        out += _layer_profile(layer, r)
    return out


def potential_grid(mu: ChargeDistribution, pts: np.ndarray) -> np.ndarray:
    """Coulomb potential mu * 1/|x| at an (m, 3) array of locations.

    Raises SingularLocationError when any location sits within
    SINGULAR_EPS of an atom (or of the origin when a point layer exists).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(len(pts))
    for p in mu.points:
        d = np.linalg.norm(pts - p.xyz[None, :], axis=1)
        if np.any(d < SINGULAR_EPS):
            raise SingularLocationError(
                f"potential evaluated within {SINGULAR_EPS} of atom at {p.position}")
        out += p.strength / d
    if mu.layers:
        r = np.linalg.norm(pts, axis=1)
        for layer in mu.layers:
            if layer.kind == "point" and np.any(r < SINGULAR_EPS):
                raise SingularLocationError(
                    "potential evaluated at the origin point layer")
            out += _layer_profile(layer, np.maximum(r, SINGULAR_EPS))
    return out


def pushforward(mu: ChargeDistribution, matrix, scale: float,
                offset=(0.0, 0.0, 0.0)) -> ChargeDistribution:
    """Image of an atomic distribution under x -> scale * matrix @ x + offset.

    matrix must be orthogonal and 0 <= scale <= 1, so the map is a
    contraction.  Atom images that collide within MERGE_TOL merge; a merged
    strength above 1 is rejected.
    """
    if mu.layers:
        raise ChargeModelError("pushforward is defined for atomic distributions only")
    A = np.asarray(matrix, dtype=float)
    if A.shape != (3, 3) or np.max(np.abs(A.T @ A - np.eye(3))) > 1e-12:
        raise ChargeModelError("pushforward matrix must be orthogonal")
    s = float(scale)
    if not (0.0 <= s <= 1.0):
        raise ChargeModelError(f"pushforward scale must lie in [0, 1], got {s}")
    b = np.asarray(offset, dtype=float)
    images = [(s * (A @ p.xyz) + b, p.strength) for p in mu.points]

    groups: list[list[int]] = []
    for i, (pos, _) in enumerate(images):
        for g in groups:
            if np.linalg.norm(images[g[0]][0] - pos) <= MERGE_TOL:
                g.append(i)
                break
        else:
            groups.append([i])

    merged = []
    for g in groups:
        strength = math.fsum(images[i][1] for i in g)
        if strength > 1.0:
            raise MergedAtomTooHeavyError(
                f"merged atom of strength {strength} > 1 under contraction")
        w = np.array([images[i][1] for i in g])
        pos = np.average([images[i][0] for i in g], axis=0, weights=w)
        merged.append(PointCharge(tuple(pos), strength))
    return ChargeDistribution(points=tuple(merged))


def scale_strengths(mu: ChargeDistribution, factor: float) -> ChargeDistribution:
    """Same geometry with all strengths multiplied by factor > 0."""
    if factor <= 0.0:
        raise ChargeModelError("strength scale factor must be positive")
    pts = tuple(PointCharge(p.position, factor * p.strength) for p in mu.points)
    lys = tuple(RadialLayer(l.kind, l.radius, factor * l.strength) for l in mu.layers)
    return ChargeDistribution(points=pts, layers=lys)


def combine(mu1: ChargeDistribution, mu2: ChargeDistribution) -> ChargeDistribution:
    """Superposition mu1 + mu2 (no merging of coincident pieces)."""
    return ChargeDistribution(points=mu1.points + mu2.points,
                              layers=mu1.layers + mu2.layers)


def mix(mu1: ChargeDistribution, mu2: ChargeDistribution, t: float) -> ChargeDistribution:
    """Convex combination t*mu1 + (1-t)*mu2 for 0 < t < 1."""
    if not (0.0 < t < 1.0):
        raise ChargeModelError("mixing weight must lie strictly between 0 and 1")
    return combine(scale_strengths(mu1, t), scale_strengths(mu2, 1.0 - t))


def sorted_canonical(mu: ChargeDistribution) -> ChargeDistribution:
    """Deterministic ordering used by the config writer."""
    pts = tuple(sorted(mu.points, key=lambda p: (p.position, p.strength)))
    order = {k: i for i, k in enumerate(LAYER_KINDS)}
    lys = tuple(sorted(mu.layers, key=lambda l: (order[l.kind], l.radius, l.strength)))
    return ChargeDistribution(points=pts, layers=lys)
