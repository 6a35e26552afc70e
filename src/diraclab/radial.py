"""Radial gap solver: kappa-channel reduction of the Dirac problem.

For a radially symmetric charge, eliminating the lower spinor component
turns the gap eigenvalue problem in channel kappa into a root solve: the
quadratic form

    Q(lam, g) = int (g' + kappa*g/r)^2 / (1 + lam + v) dr
              + int (1 - v - lam) g^2 dr,        v = potential >= 0,

is strictly decreasing in lam, and the lowest gap eigenvalue is the root
of h(lam) = mu_min(B(lam)) - lam, where B(lam) is the matrix of the
lam-frozen part of Q on a log-uniform grid and mu_min its smallest
eigenvalue against the radial mass matrix.

mu_min comes from spectrum slicing: by Sylvester's law of inertia the
banded Cholesky factorisation of B - sigma*M succeeds exactly when sigma
lies below the whole spectrum.  Bisection on that test brackets mu_min,
inverse iteration with the factor at the bracket's lower end supplies the
last digits, and one more successful factorisation just below the result
certifies that no lower eigenvalue exists.  No random start vector and
no dense or banded eigensolver is involved.

The root find starts at the merged-charge value sqrt(1 - nu^2), the
root for a point charge in kappa = -1, and takes Newton steps on the
exact slope of the discrete mu_min (Hellmann-Feynman): mu'(lam) =
g^T B'(lam) g for the M-normalised eigenvector g of the inverse
iteration, B' = -A^T diag(w / (r (1 + lam + v)^2)) A plus the
lam-derivative of the stub term below on the first row.

Near the origin the eigenfunction behaves like r^gamma with
gamma = sqrt(kappa^2 - nu_pt^2), which a truncated grid cannot represent
when the point strength nu_pt is large.  The first degree of freedom is
therefore extended onto (0, r_min] by the matched profile (r/r_min)^gamma;
the singular part of its kinetic-plus-potential integral has the closed
form (kappa + gamma)/nu_pt, and the remainder is handled by fixed-order
quadrature.  A plain Dirichlet cut at r_min would leave an O(r_min^{2*gamma})
truncation error, fatal for strong charges.

The radial Schroedinger ground state (l = 0) is the lowest eigenvalue of
the same kind of pencil, found by the same spectrum slicing: the kappa = -1
form with 1/(1 + lam + v) replaced by its nonrelativistic value 1/2,

    E(u) = int (u' - u/r)^2 / 2 dr - int v u^2 dr,   u = r R,

against the mass int u^2 dr.  On [r_min, r_max] the first integral equals
int u'^2 / 2 dr + u(r_min)^2 / (2 r_min), exactly the kinetic energy of u
with the regular profile u ~ r continued onto (0, r_min], so no stub is
needed; what the cut leaves out is O(r_min^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # unused here; perfbench/spans.py wraps it

from . import _rootfind
from .charges import ChargeDistribution, radial_profile
from .errors import (BelowGapError, ConfigError, NoGapEigenvalueError,
                     UncertifiedEigenvalueError)

_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(32)
# A returned mu_min is certified by a successful Cholesky factorisation of
# B - (mu - delta) M with delta = _CERT_REL * max(1, |mu|): no eigenvalue of
# the pencil lies below mu - delta.  Bisection narrows the bracket to
# _BISECT_REL in the same scale before inverse iteration takes over.
_CERT_REL = 1e-9
_BISECT_REL = 1e-8
# Inverse iteration stops once the Rayleigh quotient moves less than this,
# relative: the roundoff level of the quotient on the graded pencil.
_RQ_STALL = 1e-14


@dataclass
class RadialGrid:
    """Log-uniform radial grid on [r_min, r_max] with trapezoid weights."""

    r_min: float = 1e-6
    r_max: float = 100.0
    n: int = 4000
    t: np.ndarray = field(init=False, repr=False, compare=False)
    r: np.ndarray = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    h: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ConfigError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n < 16:
            raise ConfigError(f"radial grid needs n >= 16, got {self.n}")
        self.t = np.linspace(math.log(self.r_min), math.log(self.r_max), self.n)
        self.h = float(self.t[1] - self.t[0])
        self.r = np.exp(self.t)
        self.w = np.full(self.n, self.h)
        self.w[0] *= 0.5
        self.w[-1] *= 0.5


def derivative_matrix(n: int, h: float) -> sp.csr_matrix:
    """d/dt on a uniform grid: 4th order inside, one-sided at the ends."""
    interior = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    skew = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0]) / h
    ends = np.zeros((4, n))
    ends[0, 0:3] = np.array([-1.5, 2.0, -0.5]) / h
    ends[1, 0:5] = skew
    ends[2, n - 5:n] = -skew[::-1]
    ends[3, n - 3:n] = np.array([0.5, -2.0, 1.5]) / h
    ends = sp.csr_matrix(ends)
    # row k of the middle block is grid row k + 2, stencil on k .. k + 4
    middle = sp.diags(list(interior), [0, 1, 3, 4], shape=(n - 4, n))
    return sp.vstack([ends[:2], middle, ends[2:]], format="csr")


def _check_channel(kappa) -> int:
    if int(kappa) != kappa or kappa == 0:
        raise ConfigError(f"kappa must be a nonzero integer, got {kappa!r}")
    return int(kappa)


def _channel_operator(grid: RadialGrid, kappa: int) -> sp.csr_matrix:
    """d/dt + kappa on the grid, Dirichlet at r_max (last column dropped)."""
    D = derivative_matrix(grid.n, grid.h)
    A = (D + kappa * sp.identity(grid.n, format="csr")).tocsr()
    return A[:, :-1].tocsr()


def _lowest(B: sp.csr_matrix, mdiag: np.ndarray
            ) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue of the pencil (B, diag(mdiag)) by spectrum slicing,
    with its M-normalised eigenvector from the inverse iteration.

    B must be symmetric with bandwidth 4.  Raises UncertifiedEigenvalueError
    when the inertia test does not confirm the result as the lowest
    eigenvalue.
    """
    ab = np.zeros((5, B.shape[0]))  # upper band storage, bandwidth 4
    for k in range(5):
        ab[4 - k, k:] = B.diagonal(k)

    def factor(sigma: float):
        shifted = ab.copy()
        shifted[4] -= sigma * mdiag
        try:
            return sla.cholesky_banded(shifted)
        except sla.LinAlgError:
            return None

    # e_k's Rayleigh quotient bounds the lowest eigenvalue from above;
    # step down from it in doubling steps until a factorisation holds
    hi = float(np.min(ab[4] / mdiag))
    step = max(1.0, abs(hi))
    for _ in range(64):
        lo = hi - step
        chol = factor(lo)
        if chol is not None:
            break
        hi, step = lo, 2.0 * step
    else:
        raise UncertifiedEigenvalueError(
            f"no positive definite shift of the pencil below {hi}")
    while hi - lo > _BISECT_REL * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        trial = factor(mid)
        if trial is None:
            hi = mid
        else:
            lo, chol = mid, trial
    # lo sits within the bracket width of the lowest eigenvalue, far
    # closer than to the next, so each inverse step gains many digits
    v = np.ones(len(mdiag))
    mu = hi
    for _ in range(8):
        y = sla.cho_solve_banded((chol, False), mdiag * v)
        v = y / math.sqrt(y @ (mdiag * y))
        prev, mu = mu, float((v @ (B @ v)) / (v @ (mdiag * v)))
        if abs(prev - mu) <= _RQ_STALL * max(1.0, abs(mu)):
            break
    if factor(mu - _CERT_REL * max(1.0, abs(mu))) is None:
        raise UncertifiedEigenvalueError(
            f"inertia test finds an eigenvalue of the pencil below {mu}")
    return mu, v


class _ChannelProblem:
    """Grid matrices of the eliminated form for one (mu, kappa, grid); each
    mu_min(lam) returns its eigenvector for the slope at that lam."""

    def __init__(self, mu: ChargeDistribution, kappa: int, grid: RadialGrid):
        kappa = _check_channel(kappa)
        if not mu.radially_symmetric:
            raise ConfigError("radial solver needs a radially symmetric charge")
        nu_pt = mu.origin_point_strength
        if nu_pt > abs(kappa):
            raise BelowGapError(
                f"origin point strength {nu_pt} exceeds |kappa|={abs(kappa)}; "
                "the channel has no gap eigenvalue")
        self.kappa = kappa
        self.grid = grid
        self.vpot = radial_profile(mu, grid.r)
        self.mass = grid.w * grid.r
        self.A = _channel_operator(grid, kappa)
        self.eps = grid.r_min
        self.nu_pt = nu_pt
        self.gamma = math.sqrt(kappa * kappa - nu_pt * nu_pt)
        smooth = ChargeDistribution(
            layers=tuple(l for l in mu.layers if l.kind != "point"))
        self._rq = 0.5 * self.eps * (_LEG_X + 1.0)  # Gauss nodes on (0, eps)
        self._wq = 0.5 * self.eps * _LEG_W
        self._vq = radial_profile(smooth, self._rq)
        self._sq = (self._rq / self.eps) ** (2.0 * self.gamma)

    def stub_terms(self, lam: float) -> tuple[float, float, float]:
        """Mass and B-matrix contribution of the origin-matched profile,
        and the lam-derivative of the latter."""
        gam, kap, nu = self.gamma, self.kappa, self.nu_pt
        rq, wq, sq, vq = self._rq, self._wq, self._sq, self._vq
        m_stub = self.eps / (2.0 * gam + 1.0)
        a = 1.0 + lam + vq
        if nu == 0.0:
            kin = (gam + kap) ** 2 * np.sum(wq * sq / (rq ** 2 * a))
            dkin = -(gam + kap) ** 2 * np.sum(wq * sq / (rq * a) ** 2)
        else:
            # kinetic minus point-potential part; the 1/r singularities cancel
            kin = (gam + kap) / nu - (gam + kap) ** 2 * np.sum(
                wq * sq * a / (nu * (nu + a * rq)))
            dkin = -(gam + kap) ** 2 * np.sum(wq * sq / (nu + a * rq) ** 2)
        b_stub = kin + m_stub - float(np.sum(wq * sq * vq))
        return m_stub, b_stub, float(dkin)

    def pencil(self, lam: float) -> tuple[sp.csr_matrix, np.ndarray]:
        g = self.grid
        c = g.w / (g.r * (1.0 + lam + self.vpot))
        K = (self.A.T @ sp.diags(c) @ self.A).tocsr()
        m_stub, b_stub, _ = self.stub_terms(lam)
        bdiag = self.mass[:-1] * (1.0 - self.vpot[:-1])
        bdiag[0] += b_stub
        mdiag = self.mass[:-1].copy()
        mdiag[0] += m_stub
        return (K + sp.diags(bdiag)).tocsr(), mdiag

    def mu_min(self, lam: float) -> tuple[float, np.ndarray]:
        """Lowest eigenvalue of the pencil (B(lam), M), certified, and its
        M-normalised eigenvector."""
        return _lowest(*self.pencil(lam))

    def slope(self, lam: float, g: np.ndarray) -> float:
        """mu'(lam) = g^T B'(lam) g, g the M-normalised eigenvector
        mu_min(lam) returned (Hellmann-Feynman)."""
        ag = self.A @ g
        c = self.grid.w / (self.grid.r * (1.0 + lam + self.vpot) ** 2)
        return float(self.stub_terms(lam)[2] * g[0] ** 2 - ag @ (c * ag))


def q_form_radial(lam: float, g, kappa: int, mu: ChargeDistribution,
                  grid: RadialGrid) -> float:
    """The eliminated quadratic form at fixed lam for a grid trial g."""
    kappa = _check_channel(kappa)
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n,):
        raise ValueError(f"trial must have {grid.n} nodal values")
    if not np.any(g):
        raise ValueError("trial is identically zero")
    if lam <= -1.0:
        raise ValueError(f"q_form_radial needs lam > -1, got {lam}")
    a = derivative_matrix(grid.n, grid.h) @ g + kappa * g
    vpot = radial_profile(mu, grid.r)
    kinetic = float(np.sum(grid.w * a * a / (grid.r * (1.0 + lam + vpot))))
    rest = float(np.sum(grid.w * grid.r * (1.0 - vpot - lam) * g * g))
    return kinetic + rest


# Root-find bracket of every radial solve.
_BRACKET = (-1.0 + 1e-9, 1.0)


@dataclass(frozen=True)
class RadialSolveConfig(_rootfind.SolveConfig):
    lam_tol: float = 1e-10
    # the roundoff floor of h near the nu = 1 root on RadialGrid(1e-8, 100,
    # ~8000) (scatter up to 8.8e-12); as h' <= -1, |lam - root| <= 1e-11
    residual_tol: float = 1e-11


@dataclass
class RadialGapResult(_rootfind.GapSolution):
    """A kappa-channel gap solve; `vector` is the M-normalised eigenvector
    g on the grid."""

    kappa: int

    def to_json(self) -> dict:
        return {**super().to_json(), "kappa": self.kappa}


def lowest_gap_eigenvalue_radial(mu: ChargeDistribution, kappa: int = -1,
                                 grid: RadialGrid | None = None,
                                 config: RadialSolveConfig | None = None
                                 ) -> RadialGapResult:
    """Lowest gap eigenvalue of the kappa channel for radially symmetric mu."""
    grid = grid or RadialGrid()
    config = config or RadialSolveConfig()
    prob = _ChannelProblem(mu, kappa, grid)
    rs = _rootfind.solve_monotone_gap(
        prob.mu_min, *_BRACKET, config=config, start=mu.merged_lambda,
        slope=prob.slope)
    if rs.status == _rootfind.NO_ROOT:
        raise NoGapEigenvalueError(
            f"no gap eigenvalue in channel kappa={prob.kappa}: "
            f"h({rs.lambda1}) = {rs.residual} > 0")
    return RadialGapResult(**vars(rs), kappa=prob.kappa)


# Shallower ground states than this are reported as unbound.
UNBOUND_ENERGY = -1e-12


class SchrodingerResult(NamedTuple):
    energy: float
    bound: bool


def _schrodinger_pencil(mu: ChargeDistribution, grid: RadialGrid
                        ) -> tuple[sp.csr_matrix, np.ndarray]:
    """The l=0 pencil: the kappa = -1 form with 1/(1 + lam + v) -> 1/2."""
    if not mu.radially_symmetric:
        raise ConfigError("Schroedinger radial solver needs radial symmetry")
    vpot = radial_profile(mu, grid.r)
    mass = (grid.w * grid.r)[:-1]
    A = _channel_operator(grid, -1)
    K = A.T @ sp.diags(grid.w / (2.0 * grid.r)) @ A
    return (K - sp.diags(mass * vpot[:-1])).tocsr(), mass


def schrodinger_ground_radial(mu: ChargeDistribution,
                              grid: RadialGrid | None = None
                              ) -> SchrodingerResult:
    """Ground state of -Laplace/2 - potential in the l=0 radial channel.

    The certified lowest eigenvalue of the nonrelativistic pencil; states
    shallower than UNBOUND_ENERGY are reported unbound with energy 0.0.
    """
    energy, _ = _lowest(*_schrodinger_pencil(mu, grid or RadialGrid()))
    if energy >= UNBOUND_ENERGY:
        return SchrodingerResult(0.0, False)
    return SchrodingerResult(energy, True)
