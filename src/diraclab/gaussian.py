"""Even-tempered s-type Gaussian spinor basis, analytic integrals and grids.

Scalar primitives are s Gaussians exp(-a |x - A|^2).  Their overlap,
gradient Gram and nuclear attraction matrices have closed forms (the
attraction through the Boys function F_0) and are evaluated for all pairs
at once as array expressions; see ScalarBasis.  Only the lam-dependent
weighted integrals need the multi-center quadrature grid built here
(per-center log radial shells times Gauss-Legendre-by-azimuth spheres,
glued by smoothed Voronoi-style partition weights).

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
VALUE_FLOOR stored as 0, plus the displacements of the points from the
distinct centers.  No gradient is formed: since grad g = -2a (x - A) g,
the weighted gradient Gram and the sigma.grad slope integral are
computed from the values, block by block of BLOCK points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charges import ChargeDistribution
from .errors import ConfigError, IllConditionedBasisError

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

EXPONENT_RANGE = (1e-8, 1e12)
# Grid points per block of every loop over a tabulated grid.
BLOCK = 8192
# Tabulated basis values below this are stored as 0.  Products of
# weighted operand entries below sqrt(tiny) ~ 1.5e-154 are subnormal and
# made the gradient Gram about twice as slow on x86; on a shipped two-atom
# geometry the dropped terms moved no Gram entry by more than 4.3e-109.
VALUE_FLOOR = 1e-100
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


def boys(m: int, t):
    """Boys function F_m(t) = int_0^1 u^{2m} exp(-t u^2) du, m = 0..4.

    Series below t = 20 (all-positive terms, no cancellation), closed-form
    F_0 with upward recursion above; absolute accuracy ~1e-14.
    """
    if not 0 <= m <= 4:
        raise ConfigError(f"boys supports m in 0..4, got {m}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise ConfigError("boys needs t >= 0")
    out = np.empty_like(t_arr)

    small = t_arr < 20.0
    if np.any(small):
        ts = t_arr[small]
        term = np.full_like(ts, 1.0 / (2 * m + 1))
        acc = term.copy()
        for k in range(1, 200):
            term = term * 2.0 * ts / (2 * m + 2 * k + 1)
            acc += term
            if np.all(term <= 1e-17 * acc):
                break
        out[small] = np.exp(-ts) * acc

    if np.any(~small):
        tl = t_arr[~small]
        f = 0.5 * np.sqrt(np.pi / tl) * np.array([math.erf(x) for x in np.sqrt(tl)])
        et = np.exp(-tl)
        for k in range(m):
            f = ((2 * k + 1) * f - et) / (2.0 * tl)
        out[~small] = f

    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))


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
    """An ordered set of s Gaussians with closed-form all-pairs matrices.

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
        self.primitives = tuple(primitives)
        if not self.primitives:
            raise ConfigError("basis is empty")
        self.n = len(self.primitives)
        self.norms = np.array([g.norm for g in self.primitives])
        self.centers = np.array([g.center for g in self.primitives])
        self.alphas = np.array([g.exponent for g in self.primitives])
        # the distinct centers, per primitive the index of its own, and
        # per site the indices of its primitives
        self.sites, self.site_of = np.unique(self.centers, axis=0,
                                             return_inverse=True)
        self.site_columns = [np.flatnonzero(self.site_of == s)
                             for s in range(len(self.sites))]

    def _pairs(self):
        """p = a + b, q = ab/p, d^2 and N_i N_j exp(-q d^2), each (n, n)."""
        a = self.alphas
        p = a[:, None] + a[None, :]
        q = a[:, None] * a[None, :] / p
        d = self.centers[:, None, :] - self.centers[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", d, d)
        return p, q, d2, np.outer(self.norms, self.norms) * np.exp(-q * d2)

    def overlap_matrix(self) -> np.ndarray:
        p, _, _, pref = self._pairs()
        return pref * (np.pi / p) ** 1.5

    def grad_dot_matrix(self) -> np.ndarray:
        p, q, d2, pref = self._pairs()
        return 2.0 * q * (3.0 - 2.0 * q * d2) * (pref * (np.pi / p) ** 1.5)

    def attraction_matrix(self, R, theta: float = 1.0) -> np.ndarray:
        """Positive integrals int g_i g_j theta/|x-R|; caller applies the sign."""
        p, _, _, pref = self._pairs()
        wa = self.alphas[:, None] * self.centers
        P = (wa[:, None, :] + wa[None, :, :]) / p[:, :, None]
        pc = P - np.asarray(R, dtype=float)
        t = p * np.einsum("ijk,ijk->ij", pc, pc)
        return theta * pref * (2.0 * np.pi / p) * boys(0, t)

    def potential_matrix(self, mu: ChargeDistribution) -> np.ndarray:
        """M_V = -sum_atoms theta * attraction; negative semidefinite."""
        if mu.layers:
            raise ConfigError("analytic potential matrices need atomic charges")
        out = np.zeros((self.n, self.n))
        for p in mu.points:
            out -= self.attraction_matrix(p.xyz, p.strength)
        return out

    def values_and_gradients(self, pts: np.ndarray):
        """Values (m, n) of every primitive, each below VALUE_FLOOR set to
        0, and the displacements x - A_s (m, 3, k) of the points from the
        k sites; no gradient is formed.

        Both arrays are transposed views of point-fastest tables, so the
        grid kernels scale them along memory.  Filled over blocks of
        BLOCK points for all primitives at once.
        """
        pts = np.asarray(pts, dtype=float)
        m = len(pts)
        vals = np.empty((self.n, m))
        disp = np.empty((len(self.sites), 3, m))
        for start in range(0, m, BLOCK):
            sl = slice(start, start + BLOCK)
            dx = pts[sl].T[None, :, :] - self.sites[:, :, None]
            r2 = np.einsum("kab,kab->kb", dx, dx)
            e = self.norms[:, None] * np.exp(-self.alphas[:, None]
                                             * r2[self.site_of])
            e[e < VALUE_FLOOR] = 0.0
            vals[:, sl] = e
            disp[:, :, sl] = dx
        return vals.T, disp.T


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
    """Scalar basis doubled by spin, with condition-filtered orthogonalizer."""

    scalar: ScalarBasis
    _x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._x = filtered_orthogonalizer(self.scalar.overlap_matrix(),
                                          "overlap matrix is not positive")

    @property
    def size(self) -> int:
        return 2 * self.scalar.n

    @property
    def orthogonalizer(self) -> np.ndarray:
        """X with X^T S X = I on the retained scalar subspace."""
        return self._x

    def expand_scalar_spinor(self, v: np.ndarray) -> np.ndarray:
        """Map projected spinor coefficients back to the primitive basis."""
        k = self._x.shape[1]
        return (np.kron(self._x, np.eye(2)) @ v.reshape(2 * k, -1)).ravel()


def default_spinor_basis(mu: ChargeDistribution, n_s: int = 16,
                         alpha0: float = 0.02, beta: float = 2.8
                         ) -> SpinorBasis:
    """Even-tempered shells on every atom of an atomic charge."""
    if mu.layers:
        raise ConfigError("3D basis construction needs an atomic charge")
    if not mu.points:
        raise ConfigError("3D basis construction needs at least one atom")
    seen = set()
    prims = []
    for p in mu.points:
        if p.position in seen:  # coincident atoms share one shell stack
            continue
        seen.add(p.position)
        for a in even_tempered(alpha0, beta, n_s):
            prims.append(GaussianPrimitive(p.position, float(a)))
    return SpinorBasis(ScalarBasis(prims))


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass
class QuadratureGrid:
    """Multi-center grid: points, combined weights, partition metadata.

    `kind` is "full", "axial" or "mirror" (see the module docstring) and
    `axis` the unit symmetry axis of a reduced grid: the line of an axial
    grid, the plane normal of a mirror one; None for a full grid.
    """

    points: np.ndarray
    weights: np.ndarray
    centers: np.ndarray
    n_radial: int
    angular_order: int
    partition_residual: float
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
    """Smoothed Voronoi partition weights, rows normalized to sum to 1."""
    return _becke_cells(_center_distances(pts, centers), centers)


def _center_distances(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distances (points, centers) of every point from every center."""
    return np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)


def _becke_cells(d: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """becke_weights from the point-center distances d."""
    m_ctr = len(centers)
    if m_ctr == 1:
        return np.ones((len(d), 1))
    cell = np.ones_like(d)
    # each cell takes its factors in center order, as a loop over all
    # ordered pairs would; f_ji = -f_ij exactly, so one pass serves both
    for i in range(m_ctr):
        for j in range(i + 1, m_ctr):
            rij = np.linalg.norm(centers[i] - centers[j])
            f = (d[:, i] - d[:, j]) / rij
            for _ in range(BECKE_ORDER):
                f = 0.5 * f * (3.0 - f * f)
            cell[:, i] *= 0.5 * (1.0 - f)
            cell[:, j] *= 0.5 * (1.0 + f)
    return cell / np.sum(cell, axis=1, keepdims=True)


# nodes closer than this to a nucleus are dropped
EXCLUSION_RADIUS = 1e-10


def _sphere_rule(angular_order: int, kind: str):
    """Directions (k, 3) and weights (k,) of the sphere rule in its own
    frame, cos(theta)-major.

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
    laid: its azimuth 0 on e1, its pole on the axis.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(centers) < 1:
        raise ConfigError("grid needs at least one center")
    if angular_order < 1 or angular_order % 2 == 0:
        raise ConfigError("angular order must be an odd positive integer")
    if n_radial < 2:
        raise ConfigError("grid needs at least two radial shells")
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

    pts_parts, w_parts = [], []
    for c in centers:
        pts = (rr[:, None, None] * dirs[None, :, :] + c[None, None, :])
        pts_parts.append(pts.reshape(-1, 3))
        w_parts.append((wr[:, None] * wang[None, :]).reshape(-1))
    pts = np.concatenate(pts_parts)
    w = np.concatenate(w_parts)

    d = _center_distances(pts, centers)
    cell = _becke_cells(d, centers)
    residual = float(np.max(np.abs(np.sum(cell, axis=1) - 1.0)))
    per_center = np.concatenate([
        w[i * len(rr) * len(dirs):(i + 1) * len(rr) * len(dirs)]
        * cell[i * len(rr) * len(dirs):(i + 1) * len(rr) * len(dirs), i]
        for i in range(len(centers))])

    keep = np.min(d, axis=1) > EXCLUSION_RADIUS
    return QuadratureGrid(points=pts[keep], weights=per_center[keep],
                          centers=centers, n_radial=n_radial,
                          angular_order=angular_order,
                          partition_residual=residual, kind=kind,
                          axis=None if frame is None else frame[2])


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


class GridEvaluation:
    """Basis values (m, n) and site displacements (m, 3, k) on a grid.

    The kernels work from these two tables alone.  The gradient of a
    primitive i at site s is -2a_i (x - A_s) g_i, so every gradient
    integral is 4 a_i a_j times a weighted integral of values, with the
    factors applied to the finished matrices.
    """

    def __init__(self, basis: SpinorBasis, grid: QuadratureGrid):
        self.basis = basis
        self.grid = grid
        sc = basis.scalar
        self.vals, self.disp = sc.values_and_gradients(grid.points)
        # per site its primitives' columns, a view when they are adjacent
        self._cols = [slice(i[0], i[-1] + 1) if i[-1] - i[0] == len(i) - 1
                      else i for i in sc.site_columns]
        # per site pair s < t with D = A_s - A_t: the directions e (j, 3)
        # perpendicular to D of its live cross parts, and the rows D x e
        self._pairs = []
        for s, t in zip(*np.triu_indices(len(sc.sites), 1)):
            d = sc.sites[s] - sc.sites[t]
            e = grid.live_directions(d)
            self._pairs.append((s, t, e, np.cross(d, e)))

    def _blocks(self):
        """Per block of BLOCK points: its slice, values (n, b) and
        displacements (k, 3, b), rows contiguous along the points."""
        vals, disp = self.vals.T, self.disp.T
        for start in range(0, vals.shape[1], BLOCK):
            sl = slice(start, start + BLOCK)
            yield sl, vals[:, sl], disp[:, :, sl]

    def weighted_overlap(self, c: np.ndarray) -> np.ndarray:
        """int c g_i g_j for a weight c >= 0, exactly symmetric.

        rows rows^T of the sqrt(c)-scaled values, summed over grid
        blocks; numpy runs it as a symmetric rank-k update.
        """
        if np.any(c < 0.0):
            raise ValueError("overlap weights must be nonnegative")
        root = np.sqrt(c)
        n = self.basis.scalar.n
        out = np.zeros((n, n))
        for sl, vals, _ in self._blocks():
            rows = vals * root[sl]
            out += rows @ rows.T
        return out

    def gram_operands(self, c: np.ndarray):
        """Per grid block, the value operands of the weighted gradient Gram.

        For each site s, the rows sqrt(c) |x - A_s| g_i of its primitives,
        whose symmetric rank-k update is the (s, s) block.  For each site
        pair s < t, the rows c w g_i (i at s), stacked for the weights
        w = (x - A_s).(x - A_t) and ((x - A_s) x D).e for each live
        direction e of the pair, and the values g_j (j at t) they
        multiply.
        """
        root = np.sqrt(c)
        for sl, vals, disp in self._blocks():
            b = vals.shape[1]
            cols = [vals[i] for i in self._cols]
            radius = np.sqrt(np.einsum("kab,kab->kb", disp, disp))
            rows = [v * r for v, r in zip(cols, radius * root[sl])]
            pairs = []
            for s, t, _, dxe in self._pairs:
                w = np.empty((1 + len(dxe), b))
                np.einsum("ab,ab->b", disp[s], disp[t], out=w[0])
                # ((x - A_s) x D).e = (x - A_s).(D x e)
                np.matmul(dxe, disp[s], out=w[1:])
                w *= c[sl]
                pairs.append(((w[:, None, :] * cols[s]).reshape(-1, b),
                              cols[t]))
            yield rows, pairs

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
        site pair and live direction, one more for dot (see
        gram_operands), and one symmetric rank-k update per site give
        everything.  The (t, s) blocks are the (anti)transposes of the
        (s, t) ones, so dot is exactly symmetric and each cross_k
        exactly antisymmetric.  Returns dot and the three lab-frame
        components cross_k.
        """
        if np.any(c < 0.0):
            raise ValueError("gradient Gram weights must be nonnegative")
        sc = self.basis.scalar
        idx = sc.site_columns
        same = [np.zeros((len(i), len(i))) for i in idx]
        off = [np.zeros(((1 + len(e)) * len(idx[s]), len(idx[t])))
               for s, t, e, _ in self._pairs]
        for rows, pairs in self.gram_operands(c):
            for acc, r in zip(same, rows):
                acc += r @ r.T
            for acc, (lhs, rhs) in zip(off, pairs):
                acc += lhs @ rhs.T
        dot = np.zeros((sc.n, sc.n))
        cross = np.zeros((3, sc.n, sc.n))
        for i, acc in zip(idx, same):
            dot[np.ix_(i, i)] = acc
        for (s, t, e, _), acc in zip(self._pairs, off):
            acc = acc.reshape(1 + len(e), len(idx[s]), len(idx[t]))
            i, j = np.ix_(idx[s], idx[t])
            dot[i, j] = acc[0]
            dot[j.T, i.T] = acc[0].T
            blk = np.einsum("ek,est->kst", e, acc[1:])
            cross[:, i, j] = blk
            cross[:, j.T, i.T] = -blk.transpose(0, 2, 1)
        f = 2.0 * sc.alphas
        scale = np.outer(f, f)
        return scale * dot, list(scale * cross)

    def weighted_sigma_grad(self, c: np.ndarray, psi: np.ndarray) -> float:
        """int c |sigma.grad psi|^2 for spinor coefficients psi, spin
        fastest, from the values.

        sigma.grad psi = sum_t sigma.(x - A_t) u_t with the 2-spinor
        u_t = sum_{i at t} (-2a_i) psi_i g_i, so each block is one
        (4k x n)(n x points) product for the parts of every u_t and then
        per-point 2 x 2 algebra.
        """
        sc = self.basis.scalar
        coef = (-2.0 * sc.alphas)[:, None] * psi.reshape(-1, 2)
        parts = np.zeros((4, len(sc.sites), sc.n))
        parts[:, sc.site_of, np.arange(sc.n)] = np.vstack([coef.real.T,
                                                           coef.imag.T])
        parts = parts.reshape(-1, sc.n)
        total = 0.0
        for sl, vals, disp in self._blocks():
            # u_t = (p0 + i q0, p1 + i q1) and (x, y, z) = x - A_t, (k, b)
            p0, p1, q0, q1 = (parts @ vals).reshape(4, len(sc.sites), -1)
            x, y, z = disp.transpose(1, 0, 2)
            f = [z * p0 + x * p1 + y * q1, z * q0 + x * q1 - y * p1,
                 x * p0 - y * q0 - z * p1, x * q0 + y * p0 - z * q1]
            total += float(c[sl] @ sum(np.sum(g, axis=0) ** 2 for g in f))
        return total
