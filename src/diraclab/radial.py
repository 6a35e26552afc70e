"""Radial gap solver: kappa-channel reduction of the Dirac problem.

For a radially symmetric charge, eliminating the lower spinor component
turns the gap eigenvalue problem in channel kappa into a root solve: the
quadratic form

    Q(lam, g) = int (g' + kappa*g/r)^2 / (1 + lam + v) dr
              + int (1 - v - lam) g^2 dr,        v = potential >= 0,

is strictly decreasing in lam, and the lowest gap eigenvalue is the root
of h(lam) = mu_min(B(lam)) - lam, where B(lam) is the matrix of the
lam-frozen part of Q on a log-uniform grid and mu_min its smallest
eigenvalue against the radial mass matrix.  B is A^T diag(c) A plus a
diagonal, assembled in banded storage straight from the row table of
the stencil of A = d/dt + kappa.  One object, _ChannelProblem, holds the
grid matrices of one (charge, kappa, grid): the solver's pencil, the
Schroedinger pencil and q_form_radial, which evaluates Q on a trial
vector, all read it, so the form checked is the form solved.

mu_min comes from spectrum slicing: by Sylvester's law of inertia the
banded Cholesky factorisation of B - sigma*M succeeds exactly when sigma
lies below the whole spectrum, so each factorisation that holds is a
lower bound and each that fails an upper one.  Every slice is seeded:
the gap equation is mu(lam) = lam, so near the root mu_min(lam) lies
within |h| of lam, and the first shift probed sits half the certificate
margin below lam.  Inverse iteration with the factor at the lower bound
then narrows the bracket from above by its Rayleigh quotients, each an
upper bound, while further factorisations, at the quotients' extrapolated
limit or the bracket's midpoint, raise the lower end.  Once the quotient
stalls, a successful factorisation within the margin below it certifies
that no lower eigenvalue exists: the one at the lower end when that is
close enough, else one more, and one inverse step with that factor
polishes the eigenvector.  No random start vector and no dense or banded
eigensolver is involved.  On the 4000-node default grid a slice seeded at
the root takes 1 factorisation, one seeded at lam = -1, 0 or 1 6-17, a
Schroedinger slice 1-7.

The factorisation and the solve are LAPACK's dpbtrf and dpbtrs, the two
routines behind scipy.linalg.cholesky_banded and cho_solve_banded, taken
from scipy's compiled wrapper module, which _lapack loads by file: a
radial solve never runs scipy.linalg's package init, which costs a radial
process more start-up time than all its solves.  LAPACK reports success
on a band that holds a nan, so the pencil and each shifted diagonal are
checked finite, as cholesky_banded's check_finite did, and a non-finite
one raises ValueError instead of yielding a certified nan.

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
a pencil on the kappa = -1 problem's operator, mass and potential: its
form with 1/(1 + lam + v) replaced by the nonrelativistic value 1/2,

    E(u) = int (u' - u/r)^2 / 2 dr - int v u^2 dr,   u = r R,

against the mass int u^2 dr.  On [r_min, r_max] the first integral equals
int u'^2 / 2 dr + u(r_min)^2 / (2 r_min), exactly the kinetic energy of u
with the regular profile u ~ r continued onto (0, r_min], so no stub is
needed; what the cut leaves out is O(r_min^2).  Its slice is seeded at
-nu^2/2, the merged charge's energy, which lies below the ground state
since v <= nu/r for every radial charge of total nu.
"""
from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _rootfind
from .charges import ORIGIN, ChargeDistribution, radial_profile
from .errors import ConfigError, UncertifiedEigenvalueError


class _LazyModule:
    """A module that is imported at its first attribute access."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# unused here: both are kept only as lazy attributes that perfbench/spans.py
# reads, and importing scipy.linalg costs about 0.16 s beyond numpy
sla = _LazyModule("scipy.linalg")
spla = _LazyModule("scipy.sparse.linalg")

_LAPACK_LOCK = threading.Lock()


def _flapack_by_file(name: str):
    """The extension module `name`, scipy/linalg/_flapack, loaded from its
    file, which find_spec("scipy") locates without executing scipy."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not an importable package")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = importlib.machinery.FileFinder(folder, (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lapack():
    """scipy's compiled LAPACK wrapper, whose dpbtrf and dpbtrs factor and
    solve the banded pencils (scipy.linalg.cholesky_banded and
    cho_solve_banded call the same two).  The first call loads it by file
    and registers it under its module name, so that scipy.linalg's package
    init, nearly all of scipy.linalg's import time, never runs here and a
    later import of scipy.linalg reuses it; should the file not load, the
    functions come from scipy.linalg.lapack."""
    name = "scipy.linalg._flapack"
    with _LAPACK_LOCK:
        if name not in sys.modules:
            try:
                sys.modules[name] = _flapack_by_file(name)
            except ImportError:
                return importlib.import_module("scipy.linalg.lapack")
        return sys.modules[name]


_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(32)
# A returned mu_min is certified by a successful Cholesky factorisation of
# B - sigma M at some sigma >= mu - delta, delta = _CERT_REL * max(1, |mu|):
# no eigenvalue of the pencil lies below mu - delta.
_CERT_REL = 1e-9
# Inverse iteration stops once the Rayleigh quotient falls by less than
# this, relative (below the spectrum it never rises but by roundoff).
_RQ_STALL = 1e-14
# Inverse steps of one slice before its quotient must be certified.
_MAX_STEPS = 40


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
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ConfigError(f"need finite 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n < 16:
            raise ConfigError(f"radial grid needs n >= 16, got {self.n}")
        self.t = np.linspace(math.log(self.r_min), math.log(self.r_max), self.n)
        self.h = float(self.t[1] - self.t[0])
        self.r = np.exp(self.t)
        self.w = np.full(self.n, self.h)
        self.w[0] *= 0.5
        self.w[-1] *= 0.5


def derivative_matrix(n: int, h: float) -> np.ndarray:
    """d/dt on a uniform grid, 4th order inside and one-sided at the ends,
    as the (7, n) table T[o + 3, j] = D[j, j + o], o = -3 .. 3."""
    table = np.zeros((7, n))
    table[3:6, 0] = np.array([-1.5, 2.0, -0.5]) / h
    skew = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0]) / h
    table[2:, 1] = skew
    # row k, 2 <= k <= n - 3, reaches k - 2, k - 1, k + 1, k + 2
    interior = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    table[[1, 2, 4, 5], 2:n - 2] = interior[:, None]
    table[:5, n - 2] = -skew[::-1]
    table[1:4, n - 1] = np.array([0.5, -2.0, 1.5]) / h
    return table


class _BandOperator:
    """A = d/dt + kappa on the grid, Dirichlet at r_max (last column
    dropped), held in the table layout of derivative_matrix; gram(c)
    gives A^T diag(c) A in upper band storage, apply(g) gives A g."""

    def __init__(self, grid: RadialGrid, kappa: int):
        n = self.n = grid.n
        table = derivative_matrix(n, grid.h)
        # column n - 1 holds T[o + 3, n - 1 - o], o = 0 .. 3
        table[3 + np.arange(4), n - 1 - np.arange(4)] = 0.0
        table[3, :n - 1] += kappa
        self.table = table

    def gram(self, c: np.ndarray) -> np.ndarray:
        """(5, n - 1) upper band storage of A^T diag(c) A."""
        n, table = self.n, self.table
        # row j adds c_j T[i, j] T[k, j] to B[j + i - 3, j + k - 3], that is
        # to superdiagonal k - i <= 4 at band column j + k - 3, stored at
        # j + k so that out-of-range entries (all zero) land in the padding
        band = np.zeros((5, n + 6))
        for i in range(7):
            weighted = c * table[i]
            for k in range(i, min(i + 5, 7)):
                band[4 - (k - i), k:k + n] += weighted * table[k]
        return band[:, 3:n + 2]

    def apply(self, g: np.ndarray) -> np.ndarray:
        """A g for g on the n - 1 free nodes."""
        n = self.n
        padded = np.zeros(n + 6)
        padded[3:n + 2] = g
        return sum(self.table[i] * padded[i:i + n] for i in range(7))


def _energy(op: _BandOperator, c: np.ndarray,
            bdiag: np.ndarray) -> Callable[[np.ndarray], float]:
    """v -> v^T B v for B = A^T diag(c) A + diag(bdiag), as the sum of
    squares (A v).(c A v) + bdiag.v^2, in which the large terms of B,
    which cancel in v^T B v read from the band, never meet."""

    def energy(v: np.ndarray) -> float:
        av = op.apply(v)
        return float(av @ (c * av) + bdiag @ (v * v))

    return energy


def _pencil(op: _BandOperator, c: np.ndarray, bdiag: np.ndarray,
            mdiag: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], float]]:
    """B = A^T diag(c) A + diag(bdiag) in (5, n - 1) upper band storage,
    the diagonal of M, and B's _energy."""
    band = op.gram(c)
    band[4] += bdiag
    return band, mdiag, _energy(op, c, bdiag)


def _lowest(ab: np.ndarray, mdiag: np.ndarray,
            energy: Callable[[np.ndarray], float],
            guess: float) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue of the pencil (B, diag(mdiag)) by spectrum slicing,
    with its M-normalised eigenvector from the inverse iteration.

    B comes in upper band storage, its diagonal in the last row, with
    `energy(v)`, v^T B v, as _pencil returns them.  `guess`, a value
    expected near the eigenvalue, seeds the first shifts; one within half
    the certificate margin of it is certified by the first factorisation.
    Raises UncertifiedEigenvalueError when the inertia test does not
    confirm the result as the lowest eigenvalue.
    """
    def margin(x: float) -> float:
        return _CERT_REL * max(1.0, abs(x))

    # LAPACK factors a band that holds a nan or inf without an error, so
    # the pencil and each shift are checked finite before a factor holds
    if not (np.isfinite(ab).all() and np.isfinite(mdiag).all()):
        raise ValueError("the pencil has a non-finite entry")
    lapack = _lapack()

    def factor(sigma: float):
        """The upper banded Cholesky factor of B - sigma M, or None when
        that is not positive definite."""
        shifted = ab.copy(order="F")
        shifted[-1] -= sigma * mdiag
        if not np.isfinite(shifted[-1]).all():
            raise ValueError(f"B - sigma M is not finite at sigma = {sigma}")
        chol, info = lapack.dpbtrf(shifted, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dpbtrf refused its argument {-info}")
        return chol if info == 0 else None

    def inverse_step(chol, v):
        y, info = lapack.dpbtrs(chol, mdiag * v, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dpbtrs failed with info = {info}")
        y /= math.sqrt(y @ (mdiag * y))
        return y, energy(y) / float(y @ (mdiag * y))

    # e_k's Rayleigh quotient bounds the lowest eigenvalue from above;
    # probe below the seed until a factorisation holds: that shift is the
    # lower end.  The first probe sits half a margin below the seed, so a
    # seed at the eigenvalue is certified by the factor that starts its
    # slice; a seed above it falls back to steps of 1e-6 relative, 16 times
    # longer per failed probe
    hi = float(np.min(ab[-1] / mdiag))
    lo = guess - 0.5 * abs(margin(guess))
    step = 1e-6 * max(1.0, abs(guess))
    for probe in range(64):
        chol = factor(lo)
        if chol is not None:
            break
        hi = min(hi, lo)
        lo, step = guess - step, 16.0 * step
    else:
        raise UncertifiedEigenvalueError(
            f"no positive definite shift of the pencil below {hi}")
    # each M-normalised Rayleigh quotient is an upper bound; until they
    # stall, one more factorisation per step raises lo (or lowers hi) at
    # the quotients' extrapolated limit, or at the midpoint.  When the first
    # probe held, lo sits next to the seed, and the first quotient, which
    # still reflects the start vector, is followed by a second inverse step
    # before any factorisation
    near_seed = probe == 0
    v = np.ones(len(mdiag))
    quotients: list[float] = []
    for _ in range(_MAX_STEPS):
        v, mu = inverse_step(chol, v)
        hi = min(hi, mu)
        quotients.append(mu)
        # below the spectrum inverse iteration only lowers the quotient,
        # so one that falls no further has reached its roundoff level
        if len(quotients) > 1 and (quotients[-2] - mu
                                   <= _RQ_STALL * max(1.0, abs(mu))):
            break
        if hi - lo <= margin(hi) or (near_seed and len(quotients) == 1):
            continue  # lo is as close as the certificate needs, or not yet
        shift = 0.5 * (lo + hi)
        if len(quotients) > 2:
            q1, q2, q3 = quotients[-3:]
            ratio = (q3 - q2) / (q2 - q1)  # > 0: both steps fell
            if ratio < 1.0:
                err = (q2 - q3) * ratio / (1.0 - ratio)
                limit = hi - 2.0 * err - margin(hi)
                if shift < limit < hi:
                    shift = limit
        trial = factor(shift)
        if trial is None:
            hi = shift
        else:
            lo, chol = shift, trial
    # the factor at lo certifies mu once lo is within its margin; only
    # otherwise is one more factorisation made, at mu - delta
    if lo < mu - margin(mu):
        chol = factor(mu - margin(mu))
        if chol is None:
            raise UncertifiedEigenvalueError(
                f"inertia test finds an eigenvalue of the pencil below {mu}")
    # a last inverse step with the certifying factor polishes the vector;
    # the quotient only falls, unless by roundoff, which is refused
    polished, mu_polished = inverse_step(chol, v)
    if mu_polished <= mu:
        return mu_polished, polished
    return mu, v


class _ChannelProblem:
    """Grid matrices of the eliminated form for one (mu, kappa, grid); each
    mu_min(lam) returns its eigenvector for the slope at that lam."""

    def __init__(self, mu: ChargeDistribution, kappa: int, grid: RadialGrid):
        if int(kappa) != kappa or kappa == 0:
            raise ConfigError(f"kappa must be a nonzero integer, got {kappa!r}")
        kappa = int(kappa)
        if not mu.radially_symmetric:
            raise ConfigError("radial solver needs a radially symmetric charge")
        # at most 1 <= |kappa| (ChargeDistribution), so gamma is real
        nu_pt = mu.site_strengths.get(ORIGIN, 0.0)
        self.kappa = kappa
        self.grid = grid
        self.vpot = radial_profile(mu, grid.r)
        self.mass = grid.w * grid.r
        self.A = _BandOperator(grid, kappa)
        self.eps = grid.r_min
        self.nu_pt = nu_pt
        self.gamma = math.sqrt(kappa * kappa - nu_pt * nu_pt)
        smooth = ChargeDistribution(layers=mu.layers)
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

    def terms(self, lam: float):
        """(c, bdiag, mdiag): B(lam) = A^T diag(c) A + diag(bdiag) and
        M = diag(mdiag)."""
        g = self.grid
        m_stub, b_stub, _ = self.stub_terms(lam)
        bdiag = self.mass[:-1] * (1.0 - self.vpot[:-1])
        bdiag[0] += b_stub
        mdiag = self.mass[:-1].copy()
        mdiag[0] += m_stub
        return g.w / (g.r * (1.0 + lam + self.vpot)), bdiag, mdiag

    def pencil(self, lam: float):
        """_pencil of B(lam) against M."""
        return _pencil(self.A, *self.terms(lam))

    def mu_min(self, lam: float) -> tuple[float, np.ndarray]:
        """Lowest eigenvalue of the pencil (B(lam), M), certified, and its
        M-normalised eigenvector; lam seeds the slice (mu = lam at the
        root)."""
        return _lowest(*self.pencil(lam), lam)

    def slope(self, lam: float, g: np.ndarray) -> float:
        """mu'(lam) = g^T B'(lam) g, g the M-normalised eigenvector
        mu_min(lam) returned (Hellmann-Feynman)."""
        ag = self.A.apply(g)
        c = self.grid.w / (self.grid.r * (1.0 + lam + self.vpot) ** 2)
        return float(self.stub_terms(lam)[2] * g[0] ** 2 - ag @ (c * ag))


def q_form_radial(lam: float, g, kappa: int, mu: ChargeDistribution,
                  grid: RadialGrid) -> float:
    """The eliminated form Q(lam, g) = g^T B(lam) g - lam g^T M g of the
    pencil the solver slices, origin stub included, for lam > -1.

    g holds the n - 1 unknowns, the nodes below r_max (where g is 0), as
    RadialGapResult.vector does.  Q(lam, g) > 0 for every nonzero g
    exactly when lam lies below the channel's root on this grid."""
    if lam <= -1.0:
        raise ValueError(f"q_form_radial needs lam > -1, got {lam}")
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n - 1,):
        raise ValueError(f"trial must have {grid.n - 1} nodal values")
    if not np.any(g):
        raise ValueError("trial is identically zero")
    # the band of B is never assembled: the form reads only its energy
    prob = _ChannelProblem(mu, kappa, grid)
    c, bdiag, mdiag = prob.terms(lam)
    return _energy(prob.A, c, bdiag)(g) - lam * float(g @ (mdiag * g))


# Root-find bracket of every radial solve.
_BRACKET = (-1.0 + 1e-9, 1.0)


@dataclass(frozen=True)
class RadialSolveConfig(_rootfind.SolveConfig):
    lam_tol: float = 1e-10
    # near the nu = 1 root on RadialGrid(~1e-8, 100, ~8000) h scatters by
    # up to 3.9e-14, far below this; as h' <= -1, |lam - root| <= 1e-11
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
    return RadialGapResult(**vars(rs), kappa=prob.kappa)


# Shallower ground states than this are reported as unbound.
UNBOUND_ENERGY = -1e-12


class SchrodingerResult(NamedTuple):
    energy: float
    bound: bool

    @classmethod
    def from_energy(cls, energy: float) -> SchrodingerResult:
        """The lowest eigenvalue as a result: one shallower than
        UNBOUND_ENERGY is reported unbound, with energy 0.0."""
        if energy >= UNBOUND_ENERGY:
            return cls(0.0, False)
        return cls(energy, True)


def _schrodinger_pencil(prob: _ChannelProblem):
    """_pencil of the l=0 problem on the kappa = -1 problem's operator,
    mass and potential: its form with 1/(1 + lam + v) -> 1/2, no stub."""
    grid, mass = prob.grid, prob.mass[:-1]
    return _pencil(prob.A, grid.w / (2.0 * grid.r), -mass * prob.vpot[:-1],
                   mass)


def schrodinger_ground_radial(mu: ChargeDistribution,
                              grid: RadialGrid | None = None
                              ) -> SchrodingerResult:
    """Ground state of -Laplace/2 - potential in the l=0 radial channel:
    the certified lowest eigenvalue of the nonrelativistic pencil, sliced
    from the merged charge's -nu^2/2 (see the module docstring), as
    SchrodingerResult.from_energy reports it."""
    pencil = _schrodinger_pencil(_ChannelProblem(mu, -1, grid or RadialGrid()))
    energy, _ = _lowest(*pencil, -0.5 * mu.total_charge ** 2)
    return SchrodingerResult.from_energy(energy)
