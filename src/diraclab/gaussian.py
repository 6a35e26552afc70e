"""Even-tempered s-type Gaussian spinor basis, analytic integrals and grids.

Scalar primitives are s Gaussians exp(-a |x - A|^2).  Their overlap,
gradient Gram and nuclear attraction matrices have closed forms (the
attraction through the Boys function F_0) and are evaluated for all pairs
at once as array expressions; see ScalarBasis.  Only the lam-dependent
weighted integrals need the multi-center quadrature grid built here
(per-center log radial shells times Gauss-Legendre-by-azimuth spheres,
glued by smoothed Voronoi-style partition weights).

On a grid the basis is tabulated once as values, with every value below
VALUE_FLOOR stored as 0, plus the displacements of the points from the
distinct centers.  Gradients -2a (x - A) g are formed from those per
block of BLOCK points inside each weighted kernel, so no (points, 3, n)
gradient table is ever held.
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
# weighted gradients below sqrt(tiny) ~ 1.5e-154 are subnormal and made
# the gradient Gram about twice as slow on x86; on a shipped two-atom
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
        # the distinct centers and, per primitive, the index of its own
        self.sites, self.site_of = np.unique(self.centers, axis=0,
                                             return_inverse=True)

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
        0, and the displacements (m, 3, k) of the points from the k sites.

        `gradients` turns any block of the two into gradients.  Filled
        over blocks of BLOCK points for all primitives at once.
        """
        pts = np.asarray(pts, dtype=float)
        m = len(pts)
        vals = np.empty((m, self.n))
        disp = np.empty((m, 3, len(self.sites)))
        for start in range(0, m, BLOCK):
            sl = slice(start, start + BLOCK)
            dx = pts[sl, :, None] - self.sites.T[None, :, :]
            r2 = np.einsum("ijk,ijk->ik", dx, dx)
            e = self.norms * np.exp(-self.alphas * r2[:, self.site_of])
            e[e < VALUE_FLOOR] = 0.0
            vals[sl] = e
            disp[sl] = dx
        return vals, disp

    def gradients(self, vals: np.ndarray, disp: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Gradients (m, 3, n) ((-2a) (x - A)) g from values (m, n) and
        site displacements (m, 3, k), written into `out` when given."""
        # mode "clip" writes straight into out; the default buffers it
        out = np.take(disp, self.site_of, axis=2, out=out, mode="clip")
        out *= -2.0 * self.alphas
        out *= vals[:, None, :]
        return out


def spinor_matrix(dot: np.ndarray, cross=None) -> np.ndarray:
    """Assemble kron(dot, I2) + i sum_k kron(cross_k, sigma_k).

    Spinor index ordering is spin-fastest: row 2*i + s for scalar i, spin s.
    """
    out = np.kron(dot.astype(complex), np.eye(2, dtype=complex))
    if cross is not None:
        for k in range(3):
            out = out + 1j * np.kron(cross[k].astype(complex), PAULI[k])
    return out


@dataclass
class SpinorBasis:
    """Scalar basis doubled by spin, with condition-filtered orthogonalizer."""

    scalar: ScalarBasis
    _x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = self.scalar.overlap_matrix()
        evals, vecs = np.linalg.eigh(S)
        top = evals[-1]
        if top <= 0.0:
            raise IllConditionedBasisError("overlap matrix is not positive")
        keep = evals > top / COND_CAP
        if not np.any(keep):
            raise IllConditionedBasisError("no basis direction survives filtering")
        self._x = vecs[:, keep] / np.sqrt(evals[keep])[None, :]

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
    """Multi-center grid: points, combined weights, partition metadata."""

    points: np.ndarray
    weights: np.ndarray
    centers: np.ndarray
    n_radial: int
    angular_order: int
    partition_residual: float

    @property
    def size(self) -> int:
        return len(self.weights)


def becke_weights(pts: np.ndarray, centers: np.ndarray, order: int = 3
                  ) -> np.ndarray:
    """Smoothed Voronoi partition weights, rows normalized to sum to 1."""
    m_ctr = len(centers)
    if m_ctr == 1:
        return np.ones((len(pts), 1))
    d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
    cell = np.ones((len(pts), m_ctr))
    for i in range(m_ctr):
        for j in range(m_ctr):
            if i == j:
                continue
            rij = np.linalg.norm(centers[i] - centers[j])
            f = (d[:, i] - d[:, j]) / rij
            for _ in range(order):
                f = 0.5 * f * (3.0 - f * f)
            cell[:, i] *= 0.5 * (1.0 - f)
    return cell / np.sum(cell, axis=1, keepdims=True)


# nodes closer than this to a nucleus are dropped
EXCLUSION_RADIUS = 1e-10


def build_grid(centers, n_radial: int = N_RADIAL,
               angular_order: int = ANGULAR_ORDER,
               r_lo: float = 2e-4, r_hi: float = 9.0) -> QuadratureGrid:
    """Per-center log-radial x spherical product grid with partition weights.

    The sphere rule is Gauss-Legendre in cos(theta) crossed with a uniform
    azimuth ring, exact through the stated angular order.  The default radial
    window targets unit-scale exponents; callers with wider exponent ranges
    should pass explicit bounds (grid_for_basis does this automatically).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(centers) < 1:
        raise ConfigError("grid needs at least one center")
    if angular_order < 1 or angular_order % 2 == 0:
        raise ConfigError("angular order must be an odd positive integer")
    if n_radial < 2:
        raise ConfigError("grid needs at least two radial shells")

    tt = np.linspace(math.log(r_lo), math.log(r_hi), n_radial)
    h = tt[1] - tt[0]
    rr = np.exp(tt)
    wr = np.full(n_radial, h)
    wr[0] *= 0.5
    wr[-1] *= 0.5
    wr = wr * rr ** 3  # r^2 dr = r^3 dt on the log axis

    n_theta = (angular_order + 1) // 2
    n_phi = angular_order + 1
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - ct ** 2)
    dirs = np.empty((n_theta * n_phi, 3))
    wang = np.empty(n_theta * n_phi)
    k = 0
    for c_one, s_one, w_one in zip(ct, st, wt):
        for ph in phis:
            dirs[k] = (s_one * math.cos(ph), s_one * math.sin(ph), c_one)
            wang[k] = w_one * (2.0 * np.pi / n_phi)
            k += 1

    pts_parts, w_parts = [], []
    for c in centers:
        pts = (rr[:, None, None] * dirs[None, :, :] + c[None, None, :])
        pts_parts.append(pts.reshape(-1, 3))
        w_parts.append((wr[:, None] * wang[None, :]).reshape(-1))
    pts = np.concatenate(pts_parts)
    w = np.concatenate(w_parts)

    cell = becke_weights(pts, centers, order=4)
    residual = float(np.max(np.abs(np.sum(cell, axis=1) - 1.0)))
    per_center = np.concatenate([
        w[i * len(rr) * len(dirs):(i + 1) * len(rr) * len(dirs)]
        * cell[i * len(rr) * len(dirs):(i + 1) * len(rr) * len(dirs), i]
        for i in range(len(centers))])

    dmin = np.min(np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2),
                  axis=1)
    keep = dmin > EXCLUSION_RADIUS
    return QuadratureGrid(points=pts[keep], weights=per_center[keep],
                          centers=centers, n_radial=n_radial,
                          angular_order=angular_order,
                          partition_residual=residual)


def grid_for_basis(basis: SpinorBasis, n_radial: int = N_RADIAL,
                   angular_order: int = ANGULAR_ORDER) -> QuadratureGrid:
    """Grid sized from the basis: range scales with the exponent extremes.

    Radial shells must reach past the most diffuse function (and past the
    other centers, so cross-center products are covered) and resolve the
    steepest one; the log-trapezoid rule then converges geometrically.
    The inner cut is small enough that even integrands with a single
    surviving power of r at a nucleus (attraction-type) lose < 1e-8.
    """
    sc = basis.scalar
    centers = np.unique(sc.centers, axis=0)
    a_min = float(np.min(sc.alphas))
    a_max = float(np.max(sc.alphas))
    d_max = 0.0
    if len(centers) > 1:
        seps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        d_max = float(np.max(seps))
    r_hi = 5.5 / math.sqrt(a_min) + d_max
    r_lo = 3e-5 / math.sqrt(a_max)
    return build_grid(centers, n_radial=n_radial, angular_order=angular_order,
                      r_lo=r_lo, r_hi=r_hi)


class GridEvaluation:
    """Basis values (m, n) and site displacements (m, 3, k) on a grid."""

    def __init__(self, basis: SpinorBasis, grid: QuadratureGrid):
        self.basis = basis
        self.grid = grid
        self.vals, self.disp = basis.scalar.values_and_gradients(grid.points)

    def weighted_overlap(self, c: np.ndarray) -> np.ndarray:
        return self.vals.T @ (c[:, None] * self.vals)

    def gradient_blocks(self):
        """(slice, gradients) per block of BLOCK points.

        Every block is written into one reused buffer, so a caller may
        scale it in place but must not keep it past the next block.
        """
        sc = self.basis.scalar
        m = len(self.vals)
        buf = np.empty((min(BLOCK, m), 3, sc.n))
        for start in range(0, m, BLOCK):
            sl = slice(start, start + BLOCK)
            vals = self.vals[sl]
            yield sl, sc.gradients(vals, self.disp[sl], out=buf[:len(vals)])

    def weighted_grad_blocks(self, c: np.ndarray):
        """Dot and cross gradient Grams for a weight c >= 0.

        rows^T rows of the sqrt(c)-weighted gradients, viewed (points, 3n),
        is summed over grid blocks; numpy runs it as a symmetric rank-k
        update.  dot sums its diagonal n x n blocks and cross_k differences
        one off-diagonal pair, so they are exactly (anti)symmetric.
        """
        if np.any(c < 0.0):
            raise ValueError("gradient Gram weights must be nonnegative")
        n = self.basis.scalar.n
        gram = np.zeros((3 * n, 3 * n))
        root = np.sqrt(c)
        for sl, grads in self.gradient_blocks():
            grads *= root[sl, None, None]
            rows = grads.reshape(-1, 3 * n)
            gram += rows.T @ rows
        g = gram.reshape(3, n, 3, n)  # g[a, :, b] = int c d_a g_i d_b g_j
        cross = [g[a, :, b] - g[b, :, a] for a, b in ((1, 2), (2, 0), (0, 1))]
        return g[0, :, 0] + g[1, :, 1] + g[2, :, 2], cross

    def weighted_sigma_grad(self, c: np.ndarray, psi: np.ndarray) -> float:
        """int c |sigma.grad psi|^2 for spinor coefficients psi, spin fastest.

        sigma.grad psi = sum_a d_a g_i (sigma_a psi_i), so each block is one
        (points x 3n)(3n x 4) product giving its real and imaginary parts.
        """
        spun = np.concatenate([psi.reshape(-1, 2) @ s.T for s in PAULI])
        parts = np.column_stack([spun.real, spun.imag])
        total = 0.0
        for sl, grads in self.gradient_blocks():
            d = grads.reshape(-1, len(parts)) @ parts
            total += float(c[sl] @ (d * d).sum(1))
        return total
