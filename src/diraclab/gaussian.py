"""Even-tempered Gaussian spinor basis with analytic integrals and grids.

Scalar primitives are s and p Gaussians.  Overlap, nuclear attraction, and
gradient Gram matrices come from Hermite-Gaussian (McMurchie-Davidson)
recurrences with the Boys function kernel; only lam-dependent weighted
integrals need the multi-center quadrature grid built here (per-center log
radial shells times Gauss-Legendre-by-azimuth spheres, glued by smoothed
Voronoi-style partition weights).
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

PTYPES = ("s", "px", "py", "pz")
_ANG = {"s": (0, 0, 0), "px": (1, 0, 0), "py": (0, 1, 0), "pz": (0, 0, 1)}

EXPONENT_RANGE = (1e-8, 1e12)


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
    center: tuple[float, float, float]
    exponent: float
    ptype: str = "s"

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        lo, hi = EXPONENT_RANGE
        if not (lo <= self.exponent <= hi):
            raise ConfigError(
                f"exponent {self.exponent} outside [{lo}, {hi}]")
        if self.ptype not in PTYPES:
            raise ConfigError(f"primitive type must be one of {PTYPES}")

    @property
    def ang(self) -> tuple[int, int, int]:
        return _ANG[self.ptype]

    @property
    def norm(self) -> float:
        a = self.exponent
        n = (2.0 * a / np.pi) ** 0.75
        if self.ptype != "s":
            n *= 2.0 * math.sqrt(a)
        return n


def _overlap_1d(i: int, j: int, p: float, xpa: float, xpb: float) -> float:
    """1-D unnormalized overlap with Gaussian prefactor handled by caller."""
    if i < 0 or j < 0:
        return 0.0
    if i == 0 and j == 0:
        return math.sqrt(math.pi / p)
    if i > 0:
        return (xpa * _overlap_1d(i - 1, j, p, xpa, xpb)
                + ((i - 1) * _overlap_1d(i - 2, j, p, xpa, xpb)
                   + j * _overlap_1d(i - 1, j - 1, p, xpa, xpb)) / (2.0 * p))
    return (xpb * _overlap_1d(i, j - 1, p, xpa, xpb)
            + (i * _overlap_1d(i - 1, j - 1, p, xpa, xpb)
               + (j - 1) * _overlap_1d(i, j - 2, p, xpa, xpb)) / (2.0 * p))


class _Pair:
    """Geometry of one primitive pair for the 1-D recurrences."""

    def __init__(self, gi: GaussianPrimitive, gj: GaussianPrimitive):
        a, b = gi.exponent, gj.exponent
        self.a, self.b = a, b
        self.p = a + b
        self.q = a * b / self.p
        A = np.array(gi.center)
        B = np.array(gj.center)
        self.d = A - B
        self.P = (a * A + b * B) / self.p
        self.xpa = self.P - A
        self.xpb = self.P - B
        self.pref = math.exp(-self.q * float(self.d @ self.d))
        self.li = gi.ang
        self.lj = gj.ang

    def overlap_1d(self, dim: int, di: int = 0, dj: int = 0) -> float:
        return _overlap_1d(self.li[dim] + di, self.lj[dim] + dj,
                           self.p, self.xpa[dim], self.xpb[dim])

    def overlap(self) -> float:
        s = self.pref
        for dim in range(3):
            s *= self.overlap_1d(dim)
        return s

    def grad_dot(self) -> float:
        """int grad(gi) . grad(gj), unnormalized."""
        svals = [self.overlap_1d(dim) for dim in range(3)]
        total = 0.0
        for dim in range(3):
            i, j = self.li[dim], self.lj[dim]
            a, b = self.a, self.b
            d = (i * j * self.overlap_1d(dim, -1, -1)
                 - 2.0 * b * i * self.overlap_1d(dim, -1, +1)
                 - 2.0 * a * j * self.overlap_1d(dim, +1, -1)
                 + 4.0 * a * b * self.overlap_1d(dim, +1, +1))
            total += d * svals[(dim + 1) % 3] * svals[(dim + 2) % 3]
        return total * self.pref

    def _e_table(self, dim: int) -> list[float]:
        """E^{ij}_t for t = 0..i+j in this dimension (prefactor excluded)."""
        i, j = self.li[dim], self.lj[dim]
        p = self.p
        xpa, xpb = self.xpa[dim], self.xpb[dim]
        # E[i][j] is a list over t
        E = {(0, 0): [1.0]}

        def build(ii, jj):
            if (ii, jj) in E:
                return E[(ii, jj)]
            if ii > 0:
                low = build(ii - 1, jj)
                nt = len(low) + 1
                out = [0.0] * nt
                for t in range(nt):
                    val = 0.0
                    if t - 1 >= 0 and t - 1 < len(low):
                        val += low[t - 1] / (2.0 * p)
                    if t < len(low):
                        val += xpa * low[t]
                    if t + 1 < len(low):
                        val += (t + 1) * low[t + 1]
                    out[t] = val
            else:
                low = build(ii, jj - 1)
                nt = len(low) + 1
                out = [0.0] * nt
                for t in range(nt):
                    val = 0.0
                    if t - 1 >= 0 and t - 1 < len(low):
                        val += low[t - 1] / (2.0 * p)
                    if t < len(low):
                        val += xpb * low[t]
                    if t + 1 < len(low):
                        val += (t + 1) * low[t + 1]
                    out[t] = val
            E[(ii, jj)] = out
            return out

        return build(i, j)

    def attraction(self, C) -> float:
        """int gi gj / |x - C|, unnormalized, always >= 0 for s pairs."""
        C = np.asarray(C, dtype=float)
        pc = self.P - C
        t_arg = self.p * float(pc @ pc)
        ex = self._e_table(0)
        ey = self._e_table(1)
        ez = self._e_table(2)
        nmax = len(ex) + len(ey) + len(ez) - 3
        fm = [boys(n, t_arg) for n in range(nmax + 1)]

        memo: dict[tuple[int, int, int, int], float] = {}

        def rtuv(n, t, u, v):
            if t < 0 or u < 0 or v < 0:
                return 0.0
            key = (n, t, u, v)
            if key in memo:
                return memo[key]
            if t == u == v == 0:
                val = (-2.0 * self.p) ** n * fm[n]
            elif t > 0:
                val = (t - 1) * rtuv(n + 1, t - 2, u, v) \
                    + pc[0] * rtuv(n + 1, t - 1, u, v)
            elif u > 0:
                val = (u - 1) * rtuv(n + 1, t, u - 2, v) \
                    + pc[1] * rtuv(n + 1, t, u - 1, v)
            else:
                val = (v - 1) * rtuv(n + 1, t, u, v - 2) \
                    + pc[2] * rtuv(n + 1, t, u, v - 1)
            memo[key] = val
            return val

        total = 0.0
        for t, et in enumerate(ex):
            for u, eu in enumerate(ey):
                for v, ev in enumerate(ez):
                    total += et * eu * ev * rtuv(0, t, u, v)
        return (2.0 * math.pi / self.p) * self.pref * total


class ScalarBasis:
    """An ordered set of Gaussian primitives with analytic matrices."""

    def __init__(self, primitives):
        self.primitives = tuple(primitives)
        if not self.primitives:
            raise ConfigError("basis is empty")
        self.n = len(self.primitives)
        self.norms = np.array([g.norm for g in self.primitives])
        self.centers = np.array([g.center for g in self.primitives])
        self.alphas = np.array([g.exponent for g in self.primitives])

    def _pair(self, i: int, j: int) -> _Pair:
        return _Pair(self.primitives[i], self.primitives[j])

    def overlap(self, i: int, j: int) -> float:
        return self.norms[i] * self.norms[j] * self._pair(i, j).overlap()

    def grad_dot(self, i: int, j: int) -> float:
        return self.norms[i] * self.norms[j] * self._pair(i, j).grad_dot()

    def attraction(self, i: int, j: int, R, theta: float = 1.0) -> float:
        """Positive integral int gi gj theta/|x-R|; caller applies the sign."""
        return theta * self.norms[i] * self.norms[j] * self._pair(i, j).attraction(R)

    def _symmetric(self, entry) -> np.ndarray:
        out = np.empty((self.n, self.n))
        for i in range(self.n):
            for j in range(i, self.n):
                out[i, j] = out[j, i] = entry(i, j)
        return out

    def overlap_matrix(self) -> np.ndarray:
        return self._symmetric(self.overlap)

    def grad_dot_matrix(self) -> np.ndarray:
        return self._symmetric(self.grad_dot)

    def attraction_matrix(self, R, theta: float = 1.0) -> np.ndarray:
        return self._symmetric(lambda i, j: self.attraction(i, j, R, theta))

    def potential_matrix(self, mu: ChargeDistribution) -> np.ndarray:
        """M_V = -sum_atoms theta * attraction; negative semidefinite."""
        if mu.layers:
            raise ConfigError("analytic potential matrices need atomic charges")
        out = np.zeros((self.n, self.n))
        for p in mu.points:
            out -= self.attraction_matrix(p.xyz, p.strength)
        return out

    def values_and_gradients(self, pts: np.ndarray):
        """Values (m,n) and three contiguous gradient component arrays."""
        pts = np.asarray(pts, dtype=float)
        m = len(pts)
        vals = np.empty((m, self.n))
        grads = [np.empty((m, self.n)) for _ in range(3)]
        for k, g in enumerate(self.primitives):
            dx = pts - np.asarray(g.center)[None, :]
            r2 = np.einsum("ij,ij->i", dx, dx)
            e = g.norm * np.exp(-g.exponent * r2)
            ia = g.ang
            if g.ptype == "s":
                vals[:, k] = e
                for d in range(3):
                    grads[d][:, k] = -2.0 * g.exponent * dx[:, d] * e
            else:
                axis = ia.index(1)
                vals[:, k] = dx[:, axis] * e
                for d in range(3):
                    grads[d][:, k] = -2.0 * g.exponent * dx[:, d] * dx[:, axis] * e
                grads[axis][:, k] += e
        return vals, grads


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
    cond_cap: float = 1e10
    _s_scalar: np.ndarray = field(init=False, repr=False)
    _x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = self.scalar.overlap_matrix()
        evals, vecs = np.linalg.eigh(S)
        top = evals[-1]
        if top <= 0.0:
            raise IllConditionedBasisError("overlap matrix is not positive")
        keep = evals > top / self.cond_cap
        if not np.any(keep):
            raise IllConditionedBasisError("no basis direction survives filtering")
        self._s_scalar = S
        self._x = vecs[:, keep] / np.sqrt(evals[keep])[None, :]

    @property
    def size(self) -> int:
        return 2 * self.scalar.n

    @property
    def orthogonalizer(self) -> np.ndarray:
        """X with X^T S X = I on the retained scalar subspace."""
        return self._x

    def overlap(self) -> np.ndarray:
        return spinor_matrix(self._s_scalar)

    def grad_gram(self) -> np.ndarray:
        """T = int (sigma.grad chi_i)^dag (sigma.grad chi_j).

        The cross piece int grad(g_i) x grad(g_j) vanishes identically
        (it is the integral of a curl), so T is the scalar gradient Gram
        tensored with the spin identity.
        """
        return spinor_matrix(self.scalar.grad_dot_matrix())

    def potential(self, mu: ChargeDistribution) -> np.ndarray:
        return spinor_matrix(self.scalar.potential_matrix(mu))

    def project_scalar(self, A: np.ndarray) -> np.ndarray:
        return self._x.T @ A @ self._x

    def expand_scalar_spinor(self, v: np.ndarray) -> np.ndarray:
        """Map projected spinor coefficients back to the primitive basis."""
        k = self._x.shape[1]
        return (np.kron(self._x, np.eye(2)) @ v.reshape(2 * k, -1)).ravel()


def default_spinor_basis(mu: ChargeDistribution, n_s: int = 16,
                         alpha0: float = 0.02, beta: float = 2.8,
                         n_p: int = 0, cond_cap: float = 1e10) -> SpinorBasis:
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
            prims.append(GaussianPrimitive(p.position, float(a), "s"))
        if n_p > 0:
            for a in even_tempered(alpha0, beta, n_p):
                for pt in ("px", "py", "pz"):
                    prims.append(GaussianPrimitive(p.position, float(a), pt))
    return SpinorBasis(ScalarBasis(prims), cond_cap=cond_cap)


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


def build_grid(centers, n_radial: int = 80, angular_order: int = 29,
               r_lo: float = 2e-4, r_hi: float = 9.0,
               becke_order: int = 4) -> QuadratureGrid:
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

    cell = becke_weights(pts, centers, becke_order)
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


def grid_for_basis(basis: SpinorBasis, n_radial: int = 96,
                   angular_order: int = 29, becke_order: int = 4
                   ) -> QuadratureGrid:
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
                      r_lo=r_lo, r_hi=r_hi, becke_order=becke_order)


class GridEvaluation:
    """Basis values and gradients tabulated on a grid, with weighted Grams."""

    def __init__(self, basis: SpinorBasis, grid: QuadratureGrid):
        self.basis = basis
        self.grid = grid
        vals, grads = basis.scalar.values_and_gradients(grid.points)
        self.vals = vals
        self.grads = [np.ascontiguousarray(g) for g in grads]

    def weighted_overlap(self, c: np.ndarray) -> np.ndarray:
        return self.vals.T @ (c[:, None] * self.vals)

    def weighted_grad_dot(self, c: np.ndarray) -> np.ndarray:
        out = np.zeros((self.basis.scalar.n, self.basis.scalar.n))
        for gd in self.grads:
            out += gd.T @ (c[:, None] * gd)
        return out

    def weighted_grad_cross(self, c: np.ndarray) -> list[np.ndarray]:
        """Antisymmetric cross Grams int c (grad_a g_i grad_b g_j - ...)."""
        out = []
        for a, b in ((1, 2), (2, 0), (0, 1)):
            m1 = self.grads[a].T @ (c[:, None] * self.grads[b])
            out.append(m1 - m1.T)
        return out

    def weighted_grad_blocks(self, c: np.ndarray, block: int = 16384):
        """Dot and cross gradient Grams accumulated over ordered grid blocks.

        Returns (dot, [cross_x, cross_y, cross_z]) with the dot part
        symmetrized and the cross parts exactly antisymmetric, so the spinor
        assembly is Hermitian to the last bit.
        """
        n = self.basis.scalar.n
        dot = np.zeros((n, n))
        cross = [np.zeros((n, n)) for _ in range(3)]
        gx, gy, gz = self.grads
        for start in range(0, len(c), block):
            sl = slice(start, start + block)
            cw = c[sl][:, None]
            ga, gb, gc = gx[sl], gy[sl], gz[sl]
            cga, cgb, cgc = cw * ga, cw * gb, cw * gc
            dot += ga.T @ cga + gb.T @ cgb + gc.T @ cgc
            for k, (u, v) in enumerate(((gb, cgc), (gc, cga), (ga, cgb))):
                m1 = u.T @ v
                cross[k] += m1 - m1.T
        dot = 0.5 * (dot + dot.T)
        return dot, cross

