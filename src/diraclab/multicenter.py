"""Lowest gap eigenvalue for multi-center atomic charges in 3D.

Eliminating the lower 2-spinor of the Dirac eigenproblem at trial energy
lam turns the gap eigenvalue into the unique root of

    h(lam) = mu_min(W(lam) + S + M_V, S) - lam,

where W(lam) is the gradient Gram weighted by 1/(1 + lam + v), v >= 0 is
the magnitude of the attractive potential, S the spinor overlap and M_V
the (negative) potential matrix.  mu_min is nonincreasing in lam, so h is
strictly decreasing and the safeguarded root find of _rootfind converges
unconditionally.  solve_gap starts it at the merged-charge value
sqrt(1 - nu^2), whose one sample usually brackets the root on its own,
and steps by Newton on the Hellmann-Feynman slope

    mu'(lam) = -int w (1 + lam + v)^-2 |sigma.grad psi|^2,

evaluated from the eigenvector psi that mu_min returns with each sample,
on the tabulated basis values, without another weighted Gram.  The
result's vector is the eigenvector of the sample at the root.  A
converged solve typically builds two or three weighted Grams, one per
sample.

On the symmetry-reduced grid that grid_for_basis builds for atoms on a
line or in a plane, each mu_min is the lowest eigenvalue of one n x n
block (real symmetric for a line) instead of the 2n x 2n spinor pencil,
and psi is its eigenvector times a fixed spinor (gaussian.grid_matrix).

This path cannot produce spurious eigenvalues from below; a kinetically
balanced 4-spinor discretization of the same operator is available as a
diagnostic cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rootfind
from .charges import ChargeDistribution, potential_grid
from .errors import ConfigError, NoGapEigenvalueError
from .gaussian import (ANGULAR_ORDER, N_RADIAL, GridEvaluation,
                       QuadratureGrid, SpinorBasis, filtered_orthogonalizer,
                       grid_for_basis, grid_matrix, spin_along)
from .radial import UNBOUND_ENERGY

NEAR_CRITICAL_STRENGTH = 0.9
# Root-find bracket of every 3D solve.
_BRACKET = (-1.0 + 1e-6, 1.0 - 1e-12)
ACCURACY_FLAG = "accuracy-unverified"
POLLUTION_FLAG = "pollution-warning"
# A four-spinor cross-check farther than this from lambda1 raises the
# pollution flag.
POLLUTION_GAP = 1e-2


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    piv = vec[np.argmax(np.abs(vec))]
    mag = abs(piv)
    return vec if mag == 0.0 else vec * (np.conj(piv) / mag)


@dataclass(frozen=True)
class GapSolveConfig(_rootfind.SolveConfig):
    lam_tol: float = 1e-8
    residual_tol: float = 1e-8
    n_radial: int = N_RADIAL
    angular_order: int = ANGULAR_ORDER
    crosscheck: bool = False


@dataclass
class GapResult(_rootfind.GapSolution):
    """A 3D gap solve: `vector` is the S-normalised lowest eigenvector in
    the primitive spinor basis, with the cross-check and flags."""

    crosscheck_lambda1: float | None = None
    crosscheck_gap: float | None = None
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {**super().to_json(),
                "crosscheck_lambda1": self.crosscheck_lambda1,
                "flags": list(self.flags)}


def _require_atomic(mu: ChargeDistribution, what: str) -> None:
    if mu.layers:
        raise ConfigError(
            f"{what} needs an atomic charge, got radial layers")


class _GapEngine:
    """Cached static matrices and grid tables for repeated mu_min evals.

    Each mu_min(lam) returns the lowest eigenvector of its pencil next to
    the eigenvalue, so the slope at that lam and the eigenvector of the
    returned root need no further weighted Gram.

    The pencil is cut to the block its grid needs (grid_matrix); on a
    reduced grid its lowest eigenvector phi gives psi = phi (x) chi_+.
    """

    def __init__(self, basis: SpinorBasis, mu: ChargeDistribution,
                 grid: QuadratureGrid):
        _require_atomic(mu, "3D gap solve")
        if not mu.points:
            raise ConfigError("3D gap solve needs at least one atom")
        self.basis = basis
        self.mu = mu
        self.grid = grid
        self.evaluation = GridEvaluation(basis, grid)
        self.vpot = potential_grid(mu, grid.points)
        sc = basis.scalar
        self.bstat = sc.overlap_matrix() + sc.potential_matrix(mu)
        self.x = basis.orthogonalizer
        self.spin = None if grid.axis is None else spin_along(grid.axis)

    def _projected_pencil(self, lam: float) -> np.ndarray:
        if lam <= -1.0:
            raise ValueError("trial energy must exceed -1")
        c = self.grid.weights / (1.0 + lam + self.vpot)
        dot, cross = self.evaluation.weighted_grad_blocks(c)
        x = self.x
        return grid_matrix(self.grid, x.T @ (dot + self.bstat) @ x,
                           [x.T @ m @ x for m in cross])

    def mu_min(self, lam: float) -> tuple[float, np.ndarray]:
        """Lowest eigenvalue of the pencil at lam, and its S-normalised
        eigenvector in the primitive spinor basis."""
        evals, vecs = np.linalg.eigh(self._projected_pencil(lam))
        vec = vecs[:, 0] if self.spin is None else np.kron(vecs[:, 0],
                                                           self.spin)
        return (float(evals[0]),
                self.basis.expand_scalar_spinor(_fix_phase(vec)))

    def slope(self, lam: float, psi: np.ndarray) -> float:
        """mu'(lam) = -int w (1+lam+v)^-2 |sigma.grad psi|^2, psi the
        eigenvector mu_min(lam) returned (Hellmann-Feynman)."""
        c = self.grid.weights / (1.0 + lam + self.vpot) ** 2
        return -self.evaluation.weighted_sigma_grad(c, psi)


def solve_gap(basis: SpinorBasis, mu: ChargeDistribution,
              grid: QuadratureGrid | None = None,
              config: GapSolveConfig | None = None) -> GapResult:
    """Find the lowest gap eigenvalue; see the module docstring.

    Atoms with strength above 0.9 are allowed but the result carries an
    accuracy-unverified flag (basis saturation is not guaranteed there).
    Raises NoGapEigenvalueError when no eigenvalue has entered the gap and
    returns a below-gap flagged result when the root has left it downward.
    """
    config = config if config is not None else GapSolveConfig()
    if grid is None:
        grid = grid_for_basis(basis, config.n_radial, config.angular_order)
    engine = _GapEngine(basis, mu, grid)
    root = _rootfind.solve_monotone_gap(
        engine.mu_min, *_BRACKET, config=config, start=mu.merged_lambda,
        slope=engine.slope)
    if root.status == _rootfind.NO_ROOT:
        raise NoGapEigenvalueError(
            "no eigenvalue has entered the gap for this charge and basis")

    result = GapResult(**vars(root))
    flags = []
    if any(p.strength > NEAR_CRITICAL_STRENGTH for p in mu.points):
        flags.append(ACCURACY_FLAG)
    if config.crosscheck and not result.below_gap:
        gap_evs = rkb_cross_check(basis, mu, grid, engine.evaluation)
        if len(gap_evs):
            result.crosscheck_lambda1 = float(gap_evs[0])
            result.crosscheck_gap = abs(result.crosscheck_lambda1
                                        - result.lambda1)
            if result.crosscheck_gap > POLLUTION_GAP:
                flags.append(POLLUTION_FLAG)
        else:
            flags.append(POLLUTION_FLAG)
    result.flags = tuple(flags)
    return result


def schrodinger_ground_gaussian(basis: SpinorBasis, mu: ChargeDistribution
                                ) -> tuple[float, bool]:
    """Nonrelativistic ground energy -Delta/2 - v in the scalar basis.

    Reuses the analytic gradient and attraction integrals; no grid is
    involved.  Returns (energy, bound); an unbound charge (no negative
    eigenvalue) reports energy 0.0.
    """
    _require_atomic(mu, "Gaussian nonrelativistic solve")
    sc = basis.scalar
    h = 0.5 * sc.grad_dot_matrix() + sc.potential_matrix(mu)
    x = basis.orthogonalizer
    evals = np.linalg.eigvalsh(x.T @ h @ x)
    e0 = float(evals[0])
    if e0 >= UNBOUND_ENERGY:
        return 0.0, False
    return e0, True


def rkb_cross_check(basis: SpinorBasis, mu: ChargeDistribution,
                    grid: QuadratureGrid | None = None,
                    evaluation: GridEvaluation | None = None) -> np.ndarray:
    """Gap eigenvalues of the kinetically balanced 4-spinor discretization.

    Large components span the spinor basis, small components the sigma.grad
    images of the same functions; the blocks are then

        [[S + M_V,  T       ],        metric  [[S, 0],
         [T,        P - T   ]]                 [0, T]]

    with P the small-side potential matrix by quadrature, each block cut
    by grid_matrix.  Returns the eigenvalues strictly inside (-1, 1),
    ascending, on a reduced grid each once, not as a Kramers pair.
    Diagnostic only: this discretization can in principle suffer spectral
    pollution, so it is restricted to total charge <= 0.9 where the risk
    is low.  A given
    `evaluation` (the basis tabulated on `grid`) is reused, not rebuilt.
    """
    _require_atomic(mu, "4-spinor cross-check")
    if mu.total_charge > 0.9 + 1e-12:
        raise ConfigError("4-spinor cross-check restricted to total "
                          "charge <= 0.9")
    if grid is None:
        grid = grid_for_basis(basis)
    sc = basis.scalar
    sdot = sc.overlap_matrix()
    mvdot = sc.potential_matrix(mu)
    tdot = sc.grad_dot_matrix()
    vpot = potential_grid(mu, grid.points)
    if evaluation is None:
        evaluation = GridEvaluation(basis, grid)
    # P is the negated Gram of the nonnegative weight w v
    pdot, pcross = evaluation.weighted_grad_blocks(grid.weights * vpot)

    x = basis.orthogonalizer
    y = filtered_orthogonalizer(tdot, "small-component metric collapsed")

    ll = grid_matrix(grid, x.T @ (sdot + mvdot) @ x)
    ls = grid_matrix(grid, x.T @ tdot @ y)
    ss = grid_matrix(grid, y.T @ (-pdot - tdot) @ y,
                     [y.T @ -m @ y for m in pcross])
    top = np.hstack([ll, ls])
    bot = np.hstack([ls.conj().T, ss])
    evals = np.linalg.eigvalsh(np.vstack([top, bot]))
    return evals[(evals > -1.0) & (evals < 1.0)]
