"""Lowest gap eigenvalue for multi-center atomic charges in 3D.

Eliminating the lower 2-spinor of the Dirac eigenproblem at trial energy
lam turns the gap eigenvalue into the unique root of

    h(lam) = mu_min(W(lam) + S + M_V, S) - lam,

where W(lam) is the gradient Gram weighted by 1/(1 + lam + v), v >= 0 is
the magnitude of the attractive potential, S the spinor overlap and M_V
the (negative) potential matrix.  mu_min is nonincreasing in lam, so h is
strictly decreasing and the safeguarded root find of _rootfind converges
unconditionally.

solve_gap starts it at the min-max bound of one trial vector (Dolbeault,
Esteban & Sere, J. Funct. Anal. 174, 208 (2000)): for every upper spinor
the quotient f(lam) of the pencil has one root lam(psi), and lambda1 is
their minimum.  With psi = phi (x) chi for the ground vector phi of the
Schrodinger matrix 1/2 T + M_V, lam(psi) needs no weighted Gram and
lies above lambda1, within 1.3e-3 of it on the shipped conjecture and
contraction rows, so its one sample brackets the root from above
(GapProblem.start).  A charge on one site starts at sqrt(1 - nu^2), its
exact value.  The root find then steps by Newton on the Hellmann-Feynman
slope

    mu'(lam) = -int w (1 + lam + v)^-2 |sigma.grad psi|^2,

evaluated from the eigenvector psi that mu_min returns with each sample,
on the tabulated basis values, without another weighted Gram.  The
result's vector is the eigenvector of the sample at the root.  A
converged solve typically builds two weighted Grams, one per sample.

On the symmetry-reduced grid that grid_for_basis builds for atoms on a
line or in a plane, each mu_min is the lowest eigenvalue of one n x n
block (real symmetric for a line) instead of the 2n x 2n spinor pencil,
and psi is its eigenvector times a fixed spinor (gaussian.grid_matrix).

This path cannot produce spurious eigenvalues from below; a kinetically
balanced 4-spinor discretization of the same operator is available as a
diagnostic cross-check.  solve_gap returns the flags and diagnostics its
row prints (GapResult).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _rootfind
from .charges import ChargeDistribution, potential_grid
from .errors import ConfigError
from .gaussian import (ANGULAR_ORDER, N_RADIAL, GridEvaluation,
                       QuadratureGrid, SpinorBasis, check_reduced_grid,
                       filtered_orthogonalizer, grid_diagnostics,
                       grid_for_basis, grid_matrix, spin_along)
from .radial import SchrodingerResult

NEAR_CRITICAL_STRENGTH = 0.9
# Root-find bracket of every 3D solve.
_BRACKET = (-1.0 + 1e-6, 1.0 - 1e-12)
ACCURACY_FLAG = "accuracy-unverified"
POLLUTION_FLAG = "pollution-warning"
RANK_FLAG = "rank-reduced"
# A four-spinor cross-check farther than this from lambda1 raises the
# pollution flag.
POLLUTION_GAP = 1e-2
# The cross-check refuses charges whose total exceeds this.
CROSSCHECK_MAX_CHARGE = 0.9


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
    the primitive spinor basis.  `warnings` follow the root find's flags,
    in CSV order, and `discretisation` its diagnostics."""

    crosscheck_lambda1: float | None = None
    crosscheck_gap: float | None = None
    warnings: tuple[str, ...] = ()
    discretisation: dict = field(default_factory=dict)

    @property
    def flags(self) -> tuple[str, ...]:
        return super().flags + self.warnings

    @property
    def diagnostics(self) -> dict:
        return {**super().diagnostics, **self.discretisation}

    def to_json(self) -> dict:
        return {**super().to_json(),
                "crosscheck_lambda1": self.crosscheck_lambda1,
                "flags": list(self.flags)}


class GapProblem:
    """One 3D gap problem: the basis tabulated on the grid, v on the grid,
    S + M_V and the orthogonalizer, built once for every mu_min of the
    root find and for the cross-check.

    Each mu_min(lam) returns the lowest eigenvector of its pencil next to
    the eigenvalue, so the slope at that lam and the eigenvector of the
    returned root need no further weighted Gram.

    The pencil is cut to the block its grid needs (grid_matrix); on a
    reduced grid its lowest eigenvector phi gives psi = phi (x) chi_+.
    A reduced grid that an atom or a basis site off its centers breaks
    is refused (check_reduced_grid), and so is a charge with radial layers
    (ScalarBasis.potential_matrix), before the basis is tabulated.
    """

    def __init__(self, basis: SpinorBasis, mu: ChargeDistribution,
                 grid: QuadratureGrid):
        check_reduced_grid(grid, basis, mu)
        self.basis = basis
        self.mu = mu
        self.grid = grid
        self.potential = basis.scalar.potential_matrix(mu)
        self.bstat = basis.overlap + self.potential
        self.evaluation = GridEvaluation(basis, grid)
        self.vpot = potential_grid(mu, grid.points)
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
        return -float(c @ self.evaluation.sigma_grad_density(psi))

    def start(self) -> float:
        """First sample of the root find: lam(phi) for the Schrodinger
        ground vector phi (of _schrodinger_matrix) when the charge sits on
        two or more sites and lam(phi) lies strictly inside _BRACKET, else
        the merged-charge value sqrt(1 - nu^2), exact on one site.

        lam(phi) is the root of f(lam) = lam, with phi^T S phi = 1 and
        f(lam) = phi^T (S + M_V) phi + int w |grad phi|^2 / (1 + lam + v),
        the pencil's quotient at psi = phi (x) chi, so f >= mu_min and
        lam(phi) >= lambda1.  f is convex and decreasing: Newton from the
        merged value climbs to the root from below after one step.
        """
        merged = self.mu.merged_lambda
        if len(self.mu.site_strengths) == 1:
            return merged
        phi = self.x @ np.linalg.eigh(
            _schrodinger_matrix(self.basis, self.potential))[1][:, 0]
        wd = self.grid.weights * self.evaluation.grad_density(phi)
        fixed = float(phi @ self.bstat @ phi)
        lo, hi = _BRACKET
        lam = merged
        for _ in range(50):
            den = 1.0 + lam + self.vpot
            q = wd / den
            step = (fixed + q.sum() - lam) / (1.0 + (q / den).sum())
            lam += step
            if not lo < lam < hi:
                return merged
            if abs(step) <= 1e-14:
                return float(lam)
        return merged


def solve_gap(basis: SpinorBasis, mu: ChargeDistribution,
              grid: QuadratureGrid | None = None,
              config: GapSolveConfig | None = None) -> GapResult:
    """Find the lowest gap eigenvalue of one GapProblem; see the module
    docstring.  The cross-check, when asked for, reads the same problem.

    Without a grid it solves on grid_for_basis at the config's orders.
    Sites whose atoms sum to a strength above 0.9 are allowed but flagged
    accuracy-unverified (basis saturation is not guaranteed there), and a
    basis whose overlap lost a direction rank-reduced.
    The root find raises NoGapEigenvalueError when no eigenvalue has
    entered the gap and returns a below-gap result when the root has left
    it downward.  With the cross-check on, a total charge above
    CROSSCHECK_MAX_CHARGE is refused before anything is built.
    """
    config = config if config is not None else GapSolveConfig()
    if not mu.points:
        raise ConfigError("3D gap solve needs at least one atom")
    if config.crosscheck:
        _check_cross_check_charge(mu)
    if grid is None:
        grid = grid_for_basis(basis, config.n_radial, config.angular_order)
    problem = GapProblem(basis, mu, grid)
    root = _rootfind.solve_monotone_gap(
        problem.mu_min, *_BRACKET, config=config, start=problem.start(),
        slope=problem.slope)
    result = GapResult(**vars(root),
                       discretisation=grid_diagnostics(basis, grid))
    words = []
    if any(s > NEAR_CRITICAL_STRENGTH for s in mu.site_strengths.values()):
        words.append(ACCURACY_FLAG)
    if config.crosscheck and not result.below_gap:
        gap_evs = rkb_cross_check(problem)
        if len(gap_evs):
            result.crosscheck_lambda1 = float(gap_evs[0])
            result.crosscheck_gap = abs(result.crosscheck_lambda1
                                        - result.lambda1)
        if not len(gap_evs) or result.crosscheck_gap > POLLUTION_GAP:
            words.append(POLLUTION_FLAG)
    if basis.orthogonalizer.shape[1] < basis.scalar.n:
        words.append(RANK_FLAG)
    result.warnings = tuple(words)
    return result


def schrodinger_ground_gaussian(basis: SpinorBasis, mu: ChargeDistribution
                                ) -> SchrodingerResult:
    """Nonrelativistic ground energy -Delta/2 - v in the scalar basis.

    Reuses the analytic gradient and attraction integrals; no grid is
    involved.  The lowest eigenvalue is reported by
    SchrodingerResult.from_energy, as the radial solver reports its own.
    """
    return SchrodingerResult.from_energy(float(np.linalg.eigvalsh(
        _schrodinger_matrix(basis, basis.scalar.potential_matrix(mu)))[0]))


def _schrodinger_matrix(basis: SpinorBasis, potential: np.ndarray
                        ) -> np.ndarray:
    """1/2 T + M_V on the retained span, in the coordinates of the
    orthogonalizer's columns, for the potential matrix M_V."""
    x = basis.orthogonalizer
    return x.T @ (0.5 * basis.scalar.grad_dot_matrix() + potential) @ x


def _check_cross_check_charge(mu: ChargeDistribution) -> None:
    if mu.total_charge > CROSSCHECK_MAX_CHARGE + 1e-12:
        raise ConfigError("4-spinor cross-check restricted to total "
                          f"charge <= {CROSSCHECK_MAX_CHARGE}")


def rkb_cross_check(problem: GapProblem) -> np.ndarray:
    """Gap eigenvalues of the kinetically balanced 4-spinor discretization
    of the problem's charge, basis and grid.

    Large components span the spinor basis, small components the sigma.grad
    images of the same functions; the blocks are then

        [[S + M_V,  T       ],        metric  [[S, 0],
         [T,        P - T   ]]                 [0, T]]

    with P the small-side potential matrix by quadrature, each block cut
    by grid_matrix.  S + M_V, v and the tabulated basis are the problem's;
    only T, its orthogonalizer and P are built here.  Returns the
    eigenvalues strictly inside (-1, 1), ascending, on a reduced grid
    each once, not as a Kramers pair.  Diagnostic only: this
    discretization can in principle suffer spectral pollution, so it is
    restricted to total charge <= CROSSCHECK_MAX_CHARGE where the risk is
    low.
    """
    _check_cross_check_charge(problem.mu)
    grid = problem.grid
    tdot = problem.basis.scalar.grad_dot_matrix()
    # P is the negated Gram of the nonnegative weight w v
    pdot, pcross = problem.evaluation.weighted_grad_blocks(
        grid.weights * problem.vpot)

    x = problem.x
    y = filtered_orthogonalizer(tdot, "small-component metric collapsed")

    ll = grid_matrix(grid, x.T @ problem.bstat @ x)
    ls = grid_matrix(grid, x.T @ tdot @ y)
    ss = grid_matrix(grid, y.T @ (-pdot - tdot) @ y,
                     [y.T @ -m @ y for m in pcross])
    top = np.hstack([ll, ls])
    bot = np.hstack([ls.conj().T, ss])
    evals = np.linalg.eigvalsh(np.vstack([top, bot]))
    return evals[(evals > -1.0) & (evals < 1.0)]
