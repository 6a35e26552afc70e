"""Even-tempered s-type Gaussian spinor basis, analytic integrals and grids.

Scalar primitives are s Gaussians exp(-a |x - A|^2), which a basis
stores site by site, each site's by ascending exponent: the order of
every matrix and vector over it, GapResult.vector and
SpinorBasis.expand_scalar_spinor included.  Their overlap, gradient
Gram and nuclear attraction matrices have closed forms (the attraction
through the Boys function F_0, itself in closed form through erf) and
are evaluated for all pairs at once as array expressions from pair
terms formed once per basis; see ScalarBasis.  Only the lam-dependent
weighted integrals need the multi-center quadrature grid built here
(per-center log radial shells times Gauss-Legendre-by-azimuth spheres,
glued by smoothed Voronoi-style partition weights).  The grid build
works on a center-major table of point-center distances, one
contiguous row per center, and each sphere rule is built once.

grid_for_basis builds that rule in a frame attached to the distinct
centers and keeps only what their symmetry needs: one azimuth of weight
2 pi, with twice the cos(theta) nodes, when they lie on a line (an
"axial" grid; see _sphere_rule), the half on one side of
their plane with the off-plane weights doubled when they lie in a plane
(a "mirror" grid), and the whole lab-frame sphere otherwise ("full").
A reduced grid integrates every integrand with that symmetry exactly as
the full rule it is cut from, laid in the same frame, would; integrands odd under it, the
cross parts perpendicular to the symmetry axis, are left out as exactly
0.  Every weight the solvers put on a grid (partition, potential) has
the symmetry of the centers.

On a grid the basis is tabulated once as values, with every value below
VALUE_FLOOR taken as 0 (exp arguments are clamped at EXP_CLAMP first,
off exp's slow underflowing path, which changes no value), plus the
displacements of the points from the distinct centers.  No gradient is
formed: since grad g = -2a (x - A) g, every kernel (the weighted
gradient Gram, both gradient densities, the weighted overlap) works on
values, over one list of chunks: each center's own points, radial
shells times one sphere rule, in chunks of whole shells, every other
point in blocks of BLOCK points; the Gram multiplies each operand of a
chunk as it builds it.  On its own shells a center's primitives depend
on the shell radius alone (Becke, J. Chem. Phys. 88, 2547 (1988)), so
every kernel reads them there from per-shell values, the Gram and the
overlap summing their weight over each ring first.

The chunks are the blocks tabulation fills, and each holds per center
only its live values, a leading run of its columns: tabulation takes
exp only for the primitives whose floored value is not 0 at the chunk's
smallest distance from their center and stores only those rows (one
test per batch of grid points, as in Stratmann, Scuseria & Frisch,
Chem. Phys. Lett. 257, 213 (1996)); a center's values on its own shells
are its per-shell values.  A kernel reads every row a chunk stores, so
VALUE_FLOOR alone decides what it skips.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .charges import MERGE_TOL, ChargeDistribution, distances
from .errors import ConfigError, IllConditionedBasisError

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

EXPONENT_RANGE = (1e-8, 1e12)
# Grid points per block of every loop over a tabulated grid: 4096 keeps
# each Gram operand of the shipped triangle inside a 2 MB L2 cache.
BLOCK = 4096
# Tabulated basis values below this are stored as 0.  Products of
# weighted operand entries below sqrt(tiny) ~ 1.5e-154 are subnormal and
# made the gradient Gram about twice as slow on x86; on a shipped two-atom
# geometry the dropped terms moved no Gram entry by more than 4.3e-109.
VALUE_FLOOR = 1e-100
# Below this exponent -a r^2 every primitive (exponent in EXPONENT_RANGE,
# so norm < 7.2e8) is under VALUE_FLOOR / e; see _floored_values.
EXP_CLAMP = (math.log(VALUE_FLOOR) - 1.0
             - 0.75 * math.log(2.0 * EXPONENT_RANGE[1] / math.pi))
# Default radial shell count and angular order of a 3D solve's grid.
N_RADIAL = 96
ANGULAR_ORDER = 29
# Overlap (and small-component metric) eigenvalues below the largest one
# divided by this are dropped as numerically dependent directions.
COND_CAP = 1e10


def even_tempered(alpha0: float, beta: float, n: int) -> np.ndarray:
    """Geometric exponent ladder alpha0 * beta^k, k = 0..n-1."""
    if alpha0 <= 0.0 or beta <= 1.0 or n < 1:
        raise ConfigError("even_tempered needs alpha0 > 0, beta > 1, n >= 1")
    return alpha0 * beta ** np.arange(n)


# Below this t, F_0(t) = 1 - t/3 to within t^2/10, under half an ulp of
# 1; the closed form would overflow in sqrt(pi/t) at a subnormal t.
BOYS_SMALL_T = 1e-8

# math.erf(x) rounds to exactly 1.0 from here on (glibc libm: checked on
# 200,001 points up to 30 and pinned by a test), so F_0 skips it there.
ERF_IS_ONE = 5.921587195794507

_erf = np.frompyfunc(math.erf, 1, 1)


def _boys0(t: np.ndarray) -> np.ndarray:
    """F_0(t) = sqrt(pi/t) erf(sqrt t) / 2, and 1 - t/3 below BOYS_SMALL_T;
    erf is called only where sqrt t < ERF_IS_ONE, the same bits."""
    small = t < BOYS_SMALL_T
    big = np.where(small, 1.0, t)
    root = np.sqrt(big)
    f = 0.5 * np.sqrt(np.pi / big)
    near = root < ERF_IS_ONE
    f[near] *= _erf(root[near]).astype(float)
    return np.where(small, 1.0 - t / 3.0, f)


def boys(m: int, t):
    """Boys function F_m(t) = int_0^1 u^{2m} exp(-t u^2) du, m = 0..4.

    F_0 in closed form for every t (_boys0, math.erf applied elementwise;
    relative error a few ulp).  F_m, m >= 1: series below t = 20
    (all-positive terms, no cancellation), upward recursion from F_0
    above; absolute accuracy ~1e-14.
    """
    if not 0 <= m <= 4:
        raise ConfigError(f"boys supports m in 0..4, got {m}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise ConfigError("boys needs t >= 0")
    out = _boys0(t_arr) if m == 0 else _boys_upper(m, t_arr)
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))


def _boys_upper(m: int, t: np.ndarray) -> np.ndarray:
    """F_m(t), m >= 1, for a 1D array t >= 0; see boys."""
    out = np.empty_like(t)
    small = t < 20.0
    if np.any(small):
        ts = t[small]
        term = np.full_like(ts, 1.0 / (2 * m + 1))
        acc = term.copy()
        for k in range(1, 200):
            term = term * 2.0 * ts / (2 * m + 2 * k + 1)
            acc += term
            if np.all(term <= 1e-17 * acc):
                break
        out[small] = np.exp(-ts) * acc

    if np.any(~small):
        tl = t[~small]
        f = _boys0(tl)
        et = np.exp(-tl)
        for k in range(m):
            f = ((2 * k + 1) * f - et) / (2.0 * tl)
        out[~small] = f
    return out


@dataclass(frozen=True)
class GaussianPrimitive:
    """Unnormalized s Gaussian exp(-exponent |x - center|^2)."""

    center: tuple[float, float, float]
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        lo, hi = EXPONENT_RANGE
        if not (lo <= self.exponent <= hi):
            raise ConfigError(
                f"exponent {self.exponent} outside [{lo}, {hi}]")

    @property
    def norm(self) -> float:
        return (2.0 * self.exponent / np.pi) ** 0.75


class ScalarBasis:
    """A set of s Gaussians with closed-form all-pairs matrices.

    Primitives given in any order are stored site by site (np.unique
    order of the centers), each site's by ascending exponent (stable), so
    site s has the columns site_columns[s], one slice.

    For a pair with exponents a, b and centers A, B let p = a + b,
    q = ab/p and d = A - B.  Then

        S = N_i N_j (pi/p)^(3/2) exp(-q d^2)
        T = int grad g_i . grad g_j = 2q (3 - 2q d^2) S
        V_C = N_i N_j (2 pi/p) exp(-q d^2) F_0(p |P - C|^2)

    with P = (aA + bB)/p and F_0 the Boys function (Boys 1950).  Every
    expression is symmetric in (i, j) operation by operation, so the
    matrices are exactly symmetric.
    """

    def __init__(self, primitives):
        given = tuple(primitives)
        if not given:
            raise ConfigError("basis is empty")
        # the distinct centers and per primitive the index of its own
        self.sites, site_of = np.unique([g.center for g in given], axis=0,
                                        return_inverse=True)
        order = np.lexsort(([g.exponent for g in given], site_of))
        self.primitives = tuple(given[k] for k in order)
        self.site_of = site_of[order]
        self.n = len(self.primitives)
        self.norms = np.array([g.norm for g in self.primitives])
        self.centers = np.array([g.center for g in self.primitives])
        self.alphas = np.array([g.exponent for g in self.primitives])
        ends = [0, *np.cumsum(np.bincount(self.site_of)).tolist()]
        self.site_columns = [slice(a, b) for a, b in zip(ends, ends[1:])]

    @cached_property
    def _pair_terms(self):
        """p = a + b, q = ab/p, d^2, N_i N_j exp(-q d^2), each (n, n), and
        the upper triangle (i <= j) as np.triu_indices and the product
        centers P on it (m, 3); formed once per basis."""
        a = self.alphas
        p = a[:, None] + a[None, :]
        q = a[:, None] * a[None, :] / p
        d = self.centers[:, None, :] - self.centers[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", d, d)
        upper = np.triu_indices(self.n)
        wa = a[:, None] * self.centers
        P = (wa[upper[0]] + wa[upper[1]]) / p[upper][:, None]
        return (p, q, d2, np.outer(self.norms, self.norms) * np.exp(-q * d2),
                upper, P)

    def overlap_matrix(self) -> np.ndarray:
        p, _, _, pref, _, _ = self._pair_terms
        return pref * (np.pi / p) ** 1.5

    def grad_dot_matrix(self) -> np.ndarray:
        p, q, d2, pref, _, _ = self._pair_terms
        return 2.0 * q * (3.0 - 2.0 * q * d2) * (pref * (np.pi / p) ** 1.5)

    def attraction_matrix(self, R, theta: float = 1.0) -> np.ndarray:
        """Positive integrals int g_i g_j theta/|x-R|; caller applies the sign.

        t = p |P - C|^2 is exactly symmetric, so F_0 is evaluated on its
        upper triangle and mirrored.
        """
        p, _, _, pref, upper, P = self._pair_terms
        pc = P - np.asarray(R, dtype=float)
        f0 = np.empty((self.n, self.n))
        f0[upper] = f0.T[upper] = _boys0(
            p[upper] * np.einsum("ij,ij->i", pc, pc))
        return theta * pref * (2.0 * np.pi / p) * f0

    def potential_matrix(self, mu: ChargeDistribution) -> np.ndarray:
        """M_V = -sum_atoms theta * attraction; negative semidefinite."""
        if mu.layers:
            raise ConfigError("analytic potential matrices need atomic charges")
        out = np.zeros((self.n, self.n))
        for p in mu.points:
            out -= self.attraction_matrix(p.xyz, p.strength)
        return out

    def values_and_gradients(self, pts: np.ndarray, blocks=None):
        """Per block, per site the floored values (live, b) of the site's
        live primitives on the block's b points, and the displacements
        x - A_s (k, 3, m) of the points from the k sites; no gradient is
        formed.

        blocks partitions the points into pairs (slice, home), filled one
        at a time: home is a site that gets None there, its values not
        tabulated (GridEvaluation: its own shells), or None; by default
        blocks of BLOCK points.  A site's live primitives on a block are
        those not all 0 there, a leading run of its columns (ascending
        exponent; _tabulate_run).  All values share one allocation,
        filled front to back.
        """
        pts = np.asarray(pts, dtype=float)
        m = len(pts)
        if blocks is None:
            blocks = [(slice(a, min(a + BLOCK, m)), None)
                      for a in range(0, m, BLOCK)]
        store = np.empty(self.n * m)
        disp = np.empty((len(self.sites), 3, m))
        neg = -self.alphas[:, None]
        vals, used = [], 0
        for sl, home in blocks:
            dx = np.subtract(pts[sl].T[None], self.sites[:, :, None],
                             out=disp[:, :, sl])
            # summed x, z, y, as einsum sums a row (x, y, z) of points
            r2 = dx[:, 0] ** 2 + dx[:, 2] ** 2 + dx[:, 1] ** 2
            rows = []
            for s, (cols, r2_site) in enumerate(zip(self.site_columns, r2)):
                if s == home:
                    rows.append(None)
                    continue
                rows.append(_tabulate_run(store[used:], neg[cols],
                                          self.norms[cols], r2_site))
                used += rows[-1].size
            vals.append(rows)
        return vals, disp


def _live_count(neg: np.ndarray, norms: np.ndarray, r2: float) -> int:
    """How many leading primitives of one site, exponents -neg (n, 1)
    ascending, can be nonzero at squared distances >= r2: up to the last
    whose floored value (_floored_values) at r2 is not 0.  Each step is
    monotone in r2; and as a >= EXPONENT_RANGE[0] makes the norm > 7e-7,
    a value is floored only where a r2 > 215 > 3/4, where N exp(-a r2)
    falls as a grows, so those floored at r2 are a trailing run."""
    alive = np.flatnonzero(_floored_values(neg * r2, norms))
    return int(alive[-1]) + 1 if len(alive) else 0


def _tabulate_run(store: np.ndarray, neg: np.ndarray, norms: np.ndarray,
                  r2: np.ndarray) -> np.ndarray:
    """The floored values (live, b) of the live primitives of one site
    at squared distances r2 (b,), written to the front of the flat array
    store.  Those live at the smallest r2 (_live_count) are the ones not
    0 on every point, and only those not live at the largest r2 can fall
    below EXP_CLAMP or VALUE_FLOOR, so only they are clamped and floored:
    the same values, bit for bit."""
    live = _live_count(neg, norms, np.min(r2))
    full = _live_count(neg[:live], norms[:live], np.max(r2))
    out = store[:live * len(r2)].reshape(live, len(r2))
    np.multiply(neg[:live], r2, out=out)
    np.exp(out[:full], out=out[:full])
    out[:full] *= norms[:full, None]
    _floored_values(out[full:], norms[full:live])
    return out


def _floored_values(arg: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """norms[:, None] exp(arg), each below VALUE_FLOOR set to 0, written
    over the exponents arg = -a r^2 (n, b).

    Exponents are first raised to EXP_CLAMP: exp is several times slower
    where its result underflows, and a clamped value is below VALUE_FLOOR
    either way, so the table is the same bit for bit.
    """
    np.maximum(arg, EXP_CLAMP, out=arg)
    np.exp(arg, out=arg)
    arg *= norms[:, None]
    arg *= arg >= VALUE_FLOOR
    return arg


def spinor_matrix(dot: np.ndarray, cross=None) -> np.ndarray:
    """Assemble kron(dot, I2) + i sum_k kron(cross_k, sigma_k).

    Spinor index ordering is spin-fastest: row 2*i + s for scalar i, spin s.
    """
    out = np.kron(dot.astype(complex), np.eye(2, dtype=complex))
    if cross is not None:
        for k in range(3):
            out = out + 1j * np.kron(cross[k].astype(complex), PAULI[k])
    return out


def grid_matrix(grid: QuadratureGrid, dot: np.ndarray, cross=None):
    """The part of the spinor matrix kron(dot, I2) + i sum_k
    kron(cross_k, sigma_k) that the eigenproblems of this grid need.

    The whole 2n x 2n matrix on a full grid.  On a reduced grid (axis a)
    every cross part lies along a, so each matrix of a pencil splits into
    dot + i a.cross on phi (x) chi_+ and its complex conjugate on
    phi (x) chi_-, with (sigma.a) chi_+- = +-chi_+-: the n x n block of
    chi_+ has every eigenvalue of the 2n pencil, each once, and
    eigenvectors phi (x) chi_+ (spin_along).  It is dot on an axial grid.
    """
    if grid.kind == "full":
        return spinor_matrix(dot, cross)
    if grid.kind == "axial" or cross is None:
        return dot
    return dot + 1j * np.tensordot(grid.axis, cross, 1)


def spin_along(axis: np.ndarray) -> np.ndarray:
    """The unit 2-spinor chi with (sigma.axis) chi = chi."""
    ax, ay, az = axis
    chi = np.array([1.0 + az, ax + 1j * ay]) if az > -1.0 \
        else np.array([0.0, 1.0 + 0j])
    return chi / np.linalg.norm(chi)


def filtered_orthogonalizer(S: np.ndarray, failure: str) -> np.ndarray:
    """X with X^T S X = I on the eigenvectors of S above top / COND_CAP.

    Raises IllConditionedBasisError(failure) when S has no positive
    eigenvalue.
    """
    evals, vecs = np.linalg.eigh(S)
    top = evals[-1]
    if top <= 0.0:
        raise IllConditionedBasisError(failure)
    keep = evals > top / COND_CAP
    return vecs[:, keep] / np.sqrt(evals[keep])[None, :]


@dataclass
class SpinorBasis:
    """Scalar basis doubled by spin, with its scalar overlap S, computed
    once, and the orthogonalizer X of S: X^T S X = I on the retained,
    condition-filtered scalar subspace."""

    scalar: ScalarBasis
    overlap: np.ndarray = field(init=False, repr=False)
    orthogonalizer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.overlap = self.scalar.overlap_matrix()
        self.orthogonalizer = filtered_orthogonalizer(
            self.overlap, "overlap matrix is not positive")

    @property
    def size(self) -> int:
        return 2 * self.scalar.n

    def expand_scalar_spinor(self, v: np.ndarray) -> np.ndarray:
        """Map projected spinor coefficients back to the primitive basis."""
        x = self.orthogonalizer
        return (np.kron(x, np.eye(2)) @ v.reshape(2 * x.shape[1], -1)).ravel()


def default_spinor_basis(mu: ChargeDistribution, n_s: int = 16,
                         alpha0: float = 0.02, beta: float = 2.8
                         ) -> SpinorBasis:
    """Even-tempered shells on every atom of an atomic charge."""
    if mu.layers:
        raise ConfigError("3D basis construction needs an atomic charge")
    if not mu.points:
        raise ConfigError("3D basis construction needs at least one atom")
    # coincident atoms share one shell stack; ScalarBasis orders them
    shells = even_tempered(alpha0, beta, n_s)
    return SpinorBasis(ScalarBasis(
        [GaussianPrimitive(x, float(a))
         for x in {p.position for p in mu.points} for a in shells]))


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass
class QuadratureGrid:
    """Multi-center grid: points, combined weights, partition metadata.

    `kind` is "full", "axial" or "mirror" (see the module docstring) and
    `axis` the unit symmetry axis of a reduced grid: the line of an axial
    grid, the plane normal of a mirror one; None for a full grid.

    Every center's points are its `radii` shells times one sphere rule of
    `ring` nodes, shell-major.  `runs` holds per center the index of the
    point at which its complete shells x ring run starts, or None if
    EXCLUSION_RADIUS dropped a node of it.
    """

    points: np.ndarray
    weights: np.ndarray
    centers: np.ndarray
    n_radial: int
    angular_order: int
    partition_residual: float
    radii: np.ndarray
    ring: int
    runs: tuple[int | None, ...]
    kind: str = "full"
    axis: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.weights)

    def live_directions(self, d: np.ndarray) -> np.ndarray:
        """Orthonormal rows (j, 3) perpendicular to the center separation
        d along which a cross part can be nonzero on this grid: both
        directions of the plane perpendicular to d on a full grid, the
        normal on a mirror grid, none on an axial one."""
        if self.kind == "axial":
            return np.empty((0, 3))
        if self.kind == "mirror":
            return self.axis[None, :]
        return np.linalg.svd(d[None, :])[2][1:]


# Smoothing steps of the Becke cell function in every partition.
BECKE_ORDER = 4
GRID_KINDS = ("full", "axial", "mirror")
# Centers within this fraction of their largest distance from the first
# one of a line (plane) count as lying on it.
SYMMETRY_TOL = 1e-10


def becke_weights(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Smoothed Voronoi partition weights (points, centers), rows
    normalized to sum to 1."""
    return _becke_cells(distances(pts, centers), centers).T


def _becke_cells(d: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Partition weights (centers, points) from the center-point
    distances d (centers, points); columns sum to 1."""
    m_ctr = len(centers)
    if m_ctr == 1:
        return np.ones_like(d)
    cell = np.ones_like(d)
    f, t = np.empty(d.shape[1]), np.empty(d.shape[1])
    # each cell takes its factors in center order, as a loop over all
    # ordered pairs would; f_ji = -f_ij exactly, so one pass serves both.
    # In place, f (3 - f^2) / 2 takes its exact halving last: same bits.
    for i in range(m_ctr):
        for j in range(i + 1, m_ctr):
            np.subtract(d[i], d[j], out=f)
            f /= np.linalg.norm(centers[i] - centers[j])
            for _ in range(BECKE_ORDER):
                f *= np.subtract(3.0, np.multiply(f, f, out=t), out=t)
                f *= 0.5
            cell[i] *= np.multiply(0.5, np.subtract(1.0, f, out=t), out=t)
            cell[j] *= np.multiply(0.5, np.add(1.0, f, out=t), out=t)
    cell /= np.sum(cell, axis=0)
    return cell


# nodes closer than this to a nucleus are dropped
EXCLUSION_RADIUS = 1e-10


@lru_cache(maxsize=None)
def _sphere_rule(angular_order: int, kind: str):
    """Directions (k, 3) and weights (k,) of the sphere rule in its own
    frame, cos(theta)-major; built once per (angular_order, kind) and
    returned as read-only arrays.

    The full rule has (order + 1) / 2 Gauss-Legendre nodes in cos(theta)
    times order + 1 azimuths.  An axial rule is the azimuth-0 ring, of
    weight 2 pi, of the full rule of order 2 order + 1, so it spends the
    order + 1 nodes of an azimuth ring on cos(theta).  With only
    (order + 1) / 2 of them a function of theta alone is resolved worse
    than by the full rule with its axis on the equator: at order 35 the
    analytic overlap of a pair 1.4 apart was off by 1.4e-8 that way,
    against 1.3e-9 with order + 1 nodes and 1.9e-9 on the full rule.
    A mirror rule keeps the nodes of the full rule with cos(theta) >= 0,
    the ones off the plane with doubled weight.
    """
    n_theta = angular_order + 1 if kind == "axial" else (angular_order + 1) // 2
    n_phi = 1 if kind == "axial" else angular_order + 1
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    if kind == "mirror":
        # Gauss-Legendre nodes and weights are exactly symmetric
        keep = ct >= 0.0
        ct, wt = ct[keep], np.where(ct[keep] > 0.0, 2.0, 1.0) * wt[keep]
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - ct ** 2)
    dirs = np.empty((len(ct) * n_phi, 3))
    wang = np.empty(len(ct) * n_phi)
    k = 0
    for c_one, s_one, w_one in zip(ct, st, wt):
        for ph in phis:
            dirs[k] = (s_one * math.cos(ph), s_one * math.sin(ph), c_one)
            wang[k] = w_one * (2.0 * np.pi / n_phi)
            k += 1
    dirs.flags.writeable = wang.flags.writeable = False
    return dirs, wang


def build_grid(centers, n_radial: int = N_RADIAL,
               angular_order: int = ANGULAR_ORDER,
               r_lo: float = 2e-4, r_hi: float = 9.0, kind: str = "full",
               frame: np.ndarray | None = None) -> QuadratureGrid:
    """Per-center log-radial x spherical product grid with partition weights.

    The sphere rule is Gauss-Legendre in cos(theta) crossed with a uniform
    azimuth ring, exact through the stated angular order.  The default radial
    window targets unit-scale exponents; callers with wider exponent ranges
    should pass explicit bounds (grid_for_basis does this automatically).
    A reduced `kind` ("axial" or "mirror") needs the orthonormal `frame`
    (rows e1, e2, axis) of symmetry_frame, in which its sphere rule is
    laid: its azimuth 0 on e1, its pole on the axis.  Centers must lie
    farther apart than charges.MERGE_TOL, as atoms do.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(centers) < 1:
        raise ConfigError("grid needs at least one center")
    seps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    if np.any(seps[np.triu_indices(len(centers), 1)] <= MERGE_TOL):
        raise ConfigError(f"grid centers must lie farther apart than "
                          f"{MERGE_TOL}")
    if angular_order < 1 or angular_order % 2 == 0:
        raise ConfigError("angular order must be an odd positive integer")
    if n_radial < 2:
        raise ConfigError("grid needs at least two radial shells")
    if not (0.0 < r_lo < r_hi < math.inf):
        raise ConfigError(f"need finite 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
    if kind not in GRID_KINDS or (kind == "full") != (frame is None):
        raise ConfigError(f"grid kind must be one of {GRID_KINDS}, with a "
                          "frame unless it is full")

    tt = np.linspace(math.log(r_lo), math.log(r_hi), n_radial)
    h = tt[1] - tt[0]
    rr = np.exp(tt)
    wr = np.full(n_radial, h)
    wr[0] *= 0.5
    wr[-1] *= 0.5
    wr = wr * rr ** 3  # r^2 dr = r^3 dt on the log axis

    dirs, wang = _sphere_rule(angular_order, kind)
    if frame is not None:
        dirs = dirs @ frame

    # every center's shells x ring, center-major
    pts = (rr[None, :, None, None] * dirs[None, None, :, :]
           + centers[:, None, None, :]).reshape(-1, 3)
    d = distances(pts, centers)
    cell = _becke_cells(d, centers)
    residual = float(np.max(np.abs(np.sum(cell, axis=0) - 1.0)))
    # each center's own points take its own cell weight
    n_ctr = len(centers)
    own = np.arange(n_ctr)
    weights = ((wr[:, None] * wang[None, :]).reshape(-1)
               * cell.reshape(n_ctr, n_ctr, -1)[own, own]).reshape(-1)

    keep = np.min(d, axis=0) > EXCLUSION_RADIUS
    kept = keep.reshape(n_ctr, -1)
    count = kept.sum(axis=1)
    starts = np.cumsum(count) - count
    if not keep.all():
        pts, weights = pts[keep], weights[keep]
    return QuadratureGrid(points=pts, weights=weights,
                          centers=centers, n_radial=n_radial,
                          angular_order=angular_order,
                          partition_residual=residual, radii=rr,
                          ring=len(dirs),
                          runs=tuple(int(a) if k.all() else None
                                     for a, k in zip(starts, kept)),
                          kind=kind, axis=None if frame is None else frame[2])


def symmetry_frame(sites) -> tuple[str, np.ndarray | None]:
    """The grid kind the distinct centers allow and its frame.

    With s_0 the first and s_-1 the last site (np.unique order) and
    e1 = unit(s_-1 - s_0): a single site or sites on the line of e1 give
    "axial" with the line as axis, e1 then replaced by the unit lab
    vector least aligned with it, made perpendicular; sites in one plane
    give "mirror" with the normal e1 x (s_j - s_0) of the site s_j
    farthest from that line; any other set gives "full" and no frame.
    A mirror frame then lays e1 along the longest edge, or along the
    bisector of the two longest if exactly two tie within the tolerance
    and meet at a site (an isosceles triangle with its apex under 60
    degrees), so its azimuths turn with the sites; other ties keep
    s_-1 - s_0 if it is as long within the tolerance (an equilateral
    triangle, whose three edges are alike).  The sign of e1 is
    immaterial, as the order + 1 azimuths of a ring are symmetric under a
    half turn.  The frame rows are (e1, axis x e1, axis).  A line along z
    or a plane in z = 0 whose longest edge lies on +x keeps the lab frame.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if len(sites) == 1:
        return "axial", np.eye(3)
    rel = sites - sites[0]
    reach = np.linalg.norm(rel, axis=1)
    tol = SYMMETRY_TOL * float(np.max(reach))
    e1 = rel[-1] / reach[-1]
    off = np.cross(e1, rel)
    off_len = np.linalg.norm(off, axis=1)
    j = int(np.argmax(off_len))
    if off_len[j] <= tol:
        axis = e1
        k = int(np.argmin(np.abs(axis)))
        e1 = np.eye(3)[k] - axis[k] * axis
        e1 = e1 / np.linalg.norm(e1)
        return "axial", np.array([e1, np.cross(axis, e1), axis])
    normal = off[j] / off_len[j]
    if np.max(np.abs(rel @ normal)) <= tol:
        edges = sites[:, None, :] - sites[None, :, :]
        lengths = np.linalg.norm(edges, axis=2)
        a, b = np.unravel_index(np.argmax(lengths), lengths.shape)
        longest = np.argwhere(np.triu(lengths >= lengths[a, b] - tol, 1))
        apex = np.intersect1d(*longest) if len(longest) == 2 else ()
        d = None
        if len(apex) == 1:
            far = np.setdiff1d(longest, apex)
            d = np.sum(edges[far, apex[0]]
                       / lengths[far, apex[0]][:, None], axis=0)
        elif lengths[a, b] - reach[-1] > tol:
            d = edges[a, b]
        if d is not None:
            e1 = d - (d @ normal) * normal
            e1 = e1 / np.linalg.norm(e1)
        return "mirror", np.array([e1, np.cross(normal, e1), normal])
    return "full", None


def radial_window(basis: SpinorBasis) -> tuple[float, float]:
    """Inner and outer radius (r_lo, r_hi) of the grids of this basis.

    Radial shells must reach past the most diffuse function (and past the
    other centers, so cross-center products are covered) and resolve the
    steepest one; the log-trapezoid rule then converges geometrically.
    The inner cut is small enough that even integrands with a single
    surviving power of r at a nucleus (attraction-type) lose < 1e-8.
    """
    sc = basis.scalar
    a_min = float(np.min(sc.alphas))
    a_max = float(np.max(sc.alphas))
    d_max = 0.0
    if len(sc.sites) > 1:
        seps = np.linalg.norm(sc.sites[:, None, :] - sc.sites[None, :, :],
                              axis=2)
        d_max = float(np.max(seps))
    return 3e-5 / math.sqrt(a_max), 5.5 / math.sqrt(a_min) + d_max


def grid_for_basis(basis: SpinorBasis, n_radial: int = N_RADIAL,
                   angular_order: int = ANGULAR_ORDER) -> QuadratureGrid:
    """Grid sized from the basis (radial_window) and reduced by the
    symmetry of its distinct centers (symmetry_frame)."""
    sites = basis.scalar.sites
    kind, frame = symmetry_frame(sites)
    return build_grid(sites, n_radial, angular_order, *radial_window(basis),
                      kind=kind, frame=frame)


def grid_diagnostics(basis: SpinorBasis, grid: QuadratureGrid) -> dict:
    """The basis's retained rank and size, the grid's size, kind and
    partition-of-unity residual: the discretisation facts of a row."""
    return {"retained_rank": basis.orthogonalizer.shape[1],
            "basis_size": basis.scalar.n, "grid_points": grid.size,
            "grid_kind": grid.kind,
            "partition_residual": grid.partition_residual}


def check_reduced_grid(grid: QuadratureGrid, basis: SpinorBasis,
                       mu: ChargeDistribution) -> None:
    """Refuse a reduced grid unless every atom of mu and every basis site
    lies on one of its centers (within MERGE_TOL): such a grid integrates
    exactly only what has the symmetry of its centers, and an atom or a
    site off them breaks it."""
    if grid.kind == "full":
        return
    for what, xyz in (("atom", [p.position for p in mu.points]),
                      ("basis site", basis.scalar.sites)):
        for x in xyz:
            if np.min(np.linalg.norm(grid.centers - x, axis=1)) > MERGE_TOL:
                raise ConfigError(
                    f"{what} at {tuple(map(float, x))} is not a center of "
                    f"this {grid.kind} grid, whose symmetry it breaks; use "
                    "a full grid")


def _ring_contract(w: np.ndarray, vals: np.ndarray, ring: int) -> np.ndarray:
    """q[e, j, k] = sum over the ring of shell k of w[e] vals[j], for
    weights w (E, b) and values vals (n, b) on b points laid shell-major;
    one small product per shell."""
    per_shell = vals.reshape(-1, w.shape[1] // ring, ring).transpose(1, 0, 2)
    q = per_shell @ w.reshape(len(w), -1, ring).transpose(1, 2, 0)
    return q.transpose(2, 1, 0)


class _Chunk(NamedTuple):
    """A run of grid points that every grid kernel takes in one go.

    `home` is the site whose own shells `shells` the points are, else
    None.  `vals` holds per site s its live values, a leading run of
    ScalarBasis.site_columns[s] (ascending exponent): (live, points) as
    tabulating them found, and home's per-shell values (all its columns,
    shells); `disp` the displacements (k, 3, points) from the k sites,
    `pairs` the indices of the site pairs with both sides live and
    `columns` the live columns of every site but home, in order.
    """

    points: slice
    home: int | None
    shells: slice | None
    vals: list
    disp: np.ndarray
    pairs: list
    columns: np.ndarray


class GridEvaluation:
    """The basis on a grid as one list of chunks (_Chunk): per chunk each
    site's live values and the displacements of the points from the
    sites, and on the shells of the grid center at a site that site's
    floored values g_i(r_k), which every kernel reads there.  The
    gradient of a primitive i at site s is -2a_i (x - A_s) g_i, so every
    gradient integral is 4 a_i a_j times a weighted integral of values,
    with the factors applied to the finished matrices.

    The grid is split once (_partition) and tabulated in those parts,
    and every kernel (the weighted gradient Gram, the two gradient
    densities and the weighted overlap) walks the chunks, reading every
    row each stores.
    """

    def __init__(self, basis: SpinorBasis, grid: QuadratureGrid):
        self.basis = basis
        self.grid = grid
        sc = basis.scalar
        # per site pair s < t with D = A_s - A_t: the directions e (j, 3)
        # perpendicular to D of its live cross parts, and the rows D x e
        self._pairs = []
        for s, t in zip(*np.triu_indices(len(sc.sites), 1)):
            d = sc.sites[s] - sc.sites[t]
            e = grid.live_directions(d)
            self._pairs.append((s, t, e, np.cross(d, e)))
        # per site its primitives' values on the shells, each below
        # VALUE_FLOOR set to 0
        shell = _floored_values(-sc.alphas[:, None] * grid.radii ** 2,
                                sc.norms)
        self._shell_vals = [shell[i] for i in sc.site_columns]
        parts = self._partition()
        vals, disp = sc.values_and_gradients(
            grid.points, [(points, home) for points, home, _ in parts])
        self._chunks = [self._chunk(*part, v, disp)
                        for part, v in zip(parts, vals)]

    def _partition(self) -> list:
        """The grid in point order as (points, home, shells): the run of
        each center that is a site h and kept all its nodes in parts of
        max(1, BLOCK // ring) whole shells, with home h, every other point
        in blocks of up to BLOCK points, with home None."""
        grid = self.grid
        site_at = {tuple(x): s for s, x in enumerate(self.basis.scalar.sites)}
        homes = [(a, site_at[tuple(x)])
                 for x, a in zip(grid.centers, grid.runs)
                 if a is not None and tuple(x) in site_at]
        step = max(1, BLOCK // grid.ring)
        parts, done = [], 0
        for start, h in homes + [(grid.size, None)]:
            parts += [(slice(a, min(a + BLOCK, start)), None, None)
                      for a in range(done, start, BLOCK)]
            if h is None:
                return parts
            for k in range(0, grid.n_radial, step):
                ks = slice(k, min(k + step, grid.n_radial))
                parts.append((slice(start + ks.start * grid.ring,
                                    start + ks.stop * grid.ring), h, ks))
            done = start + grid.n_radial * grid.ring

    def _chunk(self, points, home, shells, vals, disp) -> _Chunk:
        """The chunk of the part (points, home, shells) of _partition,
        with the values and displacements (k, 3, m) tabulation found."""
        if home is not None:
            vals[home] = self._shell_vals[home][:, shells]
        pairs = [k for k, (s, t, _, _) in enumerate(self._pairs)
                 if len(vals[s]) and len(vals[t])]
        columns = np.concatenate([
            np.arange(i.start, i.start + (0 if s == home else len(v)))
            for s, (i, v) in enumerate(zip(self.basis.scalar.site_columns,
                                           vals))])
        return _Chunk(points, home, shells, vals, disp[:, :, points], pairs,
                      columns)

    def _check_size(self, c: np.ndarray) -> None:
        if len(c) != self.grid.size:
            raise ValueError(f"{len(c)} weights for a grid of "
                             f"{self.grid.size} points")

    def weighted_overlap(self, c: np.ndarray) -> np.ndarray:
        """int c g_i g_j for a weight c >= 0, exactly symmetric.

        Per chunk, the symmetric rank-k update of the sqrt(c)-scaled live
        values of every site but home.  On the home site h's own shells,
        as in gram_operands, h's block takes one row per shell, g_i(r_k)
        sqrt(C_k) with C_k the sum of c over its ring, and h's blocks
        with the others take their rows contracted over each ring.
        """
        self._check_size(c)
        if np.any(c < 0.0):
            raise ValueError("overlap weights must be nonnegative")
        root = np.sqrt(c)
        sc = self.basis.scalar
        out = np.zeros((sc.n, sc.n))
        for ch in self._chunks:
            # (0, points) when home is the only site
            rows = np.concatenate([np.empty((0, ch.disp.shape[2]))] + [
                v for s, v in enumerate(ch.vals) if s != ch.home])
            rows *= root[ch.points]
            out[np.ix_(ch.columns, ch.columns)] += rows @ rows.T
            if ch.home is not None:
                i = sc.site_columns[ch.home]
                home = ch.vals[ch.home]
                r = home * np.sqrt(c[ch.points].reshape(-1, self.grid.ring)
                                   .sum(axis=1))
                out[i, i] += r @ r.T
                blk = home @ _ring_contract(root[None, ch.points], rows,
                                            self.grid.ring)[0].T
                out[i, ch.columns] += blk
                out[ch.columns, i] += blk.T
        return out

    def gram_operands(self, c: np.ndarray):
        """The value operands of the weighted gradient Gram per chunk (see
        _partition), each yielded as it is built, to be multiplied
        while in cache: (ch, s, rows, None) for site s, whose symmetric
        rank-k update is the live part of the (s, s) block, and
        (ch, k, lhs, rhs) for the site pair self._pairs[k], which gets
        lhs @ rhs^T (batched over a leading axis of rhs), reshaped to its
        live part.

        The rows of site s are sqrt(c) |x - A_s| g_i of its live
        primitives.  A site pair s < t with both sides live takes the rows
        c w g_i (i at s), stacked for the weights w = (x - A_s).(x - A_t)
        and ((x - A_s) x D).e for each live direction e of the pair, and
        the values g_j (j at t) they multiply.

        On the points of the home site h's own grid its primitives are
        g_i(r_k) of the shell radius r_k alone.  Its rows there are
        g_i(r_k) r_k sqrt(C_k), with C_k the sum of c over the ring of
        shell k, one per shell, and a pair block of h takes the floored
        shell values g_i(r_k) times the ring contraction
        q[e, j, k] = sum over the ring of c w_e g_j of the other site's
        values: one product over shells instead of over points.
        """
        root = np.sqrt(c)
        ring = self.grid.ring
        for ch in self._chunks:
            sl, h, vals, disp = ch.points, ch.home, ch.vals, ch.disp
            b = disp.shape[2]
            for s, (v, dx) in enumerate(zip(vals, disp)):
                if s == h:
                    ring_c = c[sl].reshape(-1, ring).sum(axis=1)
                    yield ch, s, v * (self.grid.radii[ch.shells]
                                      * np.sqrt(ring_c)), None
                else:
                    yield ch, s, v * (np.sqrt(np.einsum("ab,ab->b", dx, dx))
                                      * root[sl]), None
            for k in ch.pairs:
                s, t, _, dxe = self._pairs[k]
                w = np.empty((1 + len(dxe), b))
                np.einsum("ab,ab->b", disp[s], disp[t], out=w[0])
                # ((x - A_s) x D).e = (x - A_s).(D x e)
                np.matmul(dxe, disp[s], out=w[1:])
                w *= c[sl]
                if h == s:
                    yield ch, k, vals[s], _ring_contract(w, vals[t], ring)
                elif h == t:
                    q = _ring_contract(w, vals[s], ring)
                    yield ch, k, q.reshape(-1, q.shape[2]), vals[t]
                else:
                    yield (ch, k, (w[:, None, :] * vals[s]).reshape(-1, b),
                           vals[t])

    def weighted_grad_blocks(self, c: np.ndarray):
        """Dot and cross gradient Grams for a weight c >= 0.

        With g_i at site s, g_j at site t, r = x - A_s, D = A_s - A_t,

            int c grad g_i . grad g_j  = 4 a_i a_j int c r.(r + D) g_i g_j
            int c (grad g_i x grad g_j) = 4 a_i a_j int c (r x D) g_i g_j,

        so a same-site cross block is exactly 0, and an off-site one lies
        in the plane perpendicular to D.  Only its live directions (see
        QuadratureGrid.live_directions) are formed: two on a full grid,
        the plane normal on a mirror grid, none on an axial grid, where
        the others integrate to exactly 0.  One weighted product per
        site pair and live direction, one more for dot, and one symmetric
        rank-k update per site give everything, each multiplied as
        gram_operands builds it and summed over the chunks into its live
        part: on a site's own grid over its shells, elsewhere over points.
        The (t, s) blocks are the (anti)transposes of the (s, t) ones, so
        dot is exactly symmetric and each cross_k exactly antisymmetric.
        Returns dot and the three lab-frame components cross_k.
        """
        self._check_size(c)
        if np.any(c < 0.0):
            raise ValueError("gradient Gram weights must be nonnegative")
        sc = self.basis.scalar
        cols = sc.site_columns
        dot = np.zeros((sc.n, sc.n))
        off = [np.zeros((1 + len(e), *dot[cols[s], cols[t]].shape))
               for s, t, e, _ in self._pairs]
        for ch, k, lhs, rhs in self.gram_operands(c):
            if rhs is None:
                n = len(lhs)
                dot[cols[k], cols[k]][:n, :n] += lhs @ lhs.T
            else:
                s, t = self._pairs[k][:2]
                acc = off[k][:, :len(ch.vals[s]), :len(ch.vals[t])]
                acc += (lhs @ np.swapaxes(rhs, -1, -2)).reshape(acc.shape)
        cross = np.zeros((3, sc.n, sc.n))
        for (s, t, e, _), acc in zip(self._pairs, off):
            i, j = cols[s], cols[t]
            dot[i, j] = acc[0]
            dot[j, i] = acc[0].T
            blk = np.einsum("ek,est->kst", e, acc[1:])
            cross[:, i, j] = blk
            cross[:, j, i] = -blk.transpose(0, 2, 1)
        f = 2.0 * sc.alphas
        scale = np.outer(f, f)
        return scale * dot, list(scale * cross)

    def _gradient_density(self, coef: np.ndarray, per_point) -> np.ndarray:
        """per_point(g) at every grid point, for g (3, r, points) the sums
        over the sites t of (x - A_t) (x) u_t and the r rows
        u_t = sum_{i at t} coef[:, i] g_i, from one (r x live)(live x
        points) product per site and chunk (per shell on the home site's
        own shells, spread over the ring)."""
        sc = self.basis.scalar
        ring = self.grid.ring
        out = np.empty(self.grid.size)
        for ch in self._chunks:
            u = np.empty((len(ch.disp), len(coef), ch.disp.shape[2]))
            for s, (i, v) in enumerate(zip(sc.site_columns, ch.vals)):
                if s == ch.home:
                    shell = coef[:, i] @ v
                    u[s].reshape(len(coef), -1, ring)[:] = shell[:, :, None]
                else:  # 0 where no column is live
                    np.matmul(coef[:, i][:, :len(v)], v, out=u[s])
            out[ch.points] = per_point(np.einsum("tab,trb->arb", ch.disp,
                                                 u))
        return out

    def sigma_grad_density(self, psi: np.ndarray) -> np.ndarray:
        """|sigma.grad psi|^2 at every grid point, for spinor coefficients
        psi, spin fastest, from the values; any weighted integral of it is
        one dot product with its weight.

        sigma.grad psi = sum_t sigma.(x - A_t) u_t with the 2-spinor
        u_t = sum_{i at t} (-2a_i) psi_i g_i: _gradient_density takes the
        four real rows of u_t, and the 2 x 2 algebra is done per point.
        """
        coef = (-2.0 * self.basis.scalar.alphas)[:, None] * psi.reshape(-1, 2)

        def spinor(g):
            # the sums over t of (x - A_t)_a times each part of
            # u_t = (p0 + i q0, p1 + i q1), for a = x, y, z
            ((xp0, xp1, xq0, xq1), (yp0, yp1, yq0, yq1),
             (zp0, zp1, zq0, zq1)) = g
            return sum(f * f for f in (zp0 + xp1 + yq1, zq0 + xq1 - yp1,
                                       xp0 - yq0 - zp1, xq0 + yp0 - zq1))
        return self._gradient_density(np.vstack([coef.real.T, coef.imag.T]),
                                      spinor)

    def grad_density(self, phi: np.ndarray) -> np.ndarray:
        """|grad phi|^2 at every grid point for real scalar coefficients
        phi: sigma_grad_density of phi (x) chi for any unit 2-spinor chi,
        from one row per site instead of four."""
        return self._gradient_density(
            (-2.0 * self.basis.scalar.alphas * phi)[None, :],
            lambda g: np.sum(g[:, 0] ** 2, axis=0))
