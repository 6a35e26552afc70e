"""Best-constant estimates for the potential-weighted spinor quotient.

For a nonzero attractive charge mu with potential magnitude v = mu * 1/|x|
(v >= 0), the quotient

    int |sigma.grad phi|^2 / v  dx   over   int v |phi|^2 dx = 1

is bounded below by a charge-independent constant.  Minimizing over the
span of a finite spinor basis can only overestimate, so every value
reported here is a certified upper estimate of the per-charge constant:

    eta_min  =  min eig of  A u = eta N u,
    A_ij = int (sigma.grad chi_i)^dag (sigma.grad chi_j) / v,
    N_ij = int chi_i^dag chi_j v,        c(mu) = nu * sqrt(eta_min),

with nu the total charge.  The 1/v weight vanishes linearly at each
nucleus, so plain grid quadrature with the node-exclusion radius of
the grids needs no extra regularization.

Both matrices are cut to the block their grid_for_basis grid needs
(gaussian.grid_matrix).  On the shipped hardy_sweep family the default
96 x 29 grid puts c(mu) within 1.8e-7 to 3.9e-7 of the converged axial
grid (192 x 59).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charges import ChargeDistribution, potential_grid
from .configio import charge_descriptor
from .errors import ConfigError, IllConditionedBasisError
from .gaussian import (GridEvaluation, QuadratureGrid, SpinorBasis,
                       check_reduced_grid, default_spinor_basis,
                       filtered_orthogonalizer, grid_for_basis, grid_matrix)


@dataclass(frozen=True)
class HardyResult:
    """Minimum of the weighted quotient over one basis/grid pair;
    basis_size counts the basis's scalar primitives."""

    eta_min: float
    c_mu: float
    basis_size: int


@dataclass(frozen=True)
class HardyScanRow:
    """One family member's row; its fields are the hardy-sweep CSV columns."""

    family_index: int
    nu_total: float
    geometry_descriptor: str
    eta_min: float
    c_mu: float
    basis_size: int


def hardy_quotient_min(basis: SpinorBasis, mu: ChargeDistribution,
                       grid: QuadratureGrid | None = None) -> HardyResult:
    """Minimize the weighted quotient over the basis span.

    N is a positive-weight quadrature of v |phi|^2, so it is positive
    semidefinite by construction: the shared filtered orthogonalizer
    drops only its numerically null directions, and the minimum over the
    span that remains is still a certified upper estimate.

    Raises IllConditionedBasisError when N has no positive eigenvalue or
    the minimum is not positive (a degenerate grid), and ConfigError for
    zero mu or a reduced grid that mu or the basis breaks
    (check_reduced_grid).
    """
    nu = mu.total_charge
    if nu <= 0.0:
        raise ConfigError("Hardy quotient needs a nonzero charge")
    if grid is None:
        grid = grid_for_basis(basis)
    check_reduced_grid(grid, basis, mu)
    vpot = potential_grid(mu, grid.points)
    evaluation = GridEvaluation(basis, grid)

    adot, across = evaluation.weighted_grad_blocks(grid.weights / vpot)
    a = grid_matrix(grid, adot, across)
    n = grid_matrix(grid, evaluation.weighted_overlap(grid.weights * vpot))

    x = filtered_orthogonalizer(
        n, "quadrature mass matrix has no positive eigenvalue")
    eta = float(np.linalg.eigvalsh(x.conj().T @ a @ x)[0])
    if eta <= 0.0:
        raise IllConditionedBasisError(
            "weighted quotient minimum is not positive; quadrature is "
            "degenerate for this basis/grid pair")
    return HardyResult(eta_min=eta, c_mu=nu * math.sqrt(eta),
                       basis_size=basis.scalar.n)


def scan_row(index: int, mu: ChargeDistribution, basis: SpinorBasis,
             grid: QuadratureGrid | None = None) -> HardyScanRow:
    """The scan row of family member `index`: hardy_quotient_min on the
    given basis and grid (default grid_for_basis)."""
    res = hardy_quotient_min(basis, mu, grid)
    return HardyScanRow(family_index=index, nu_total=mu.total_charge,
                        geometry_descriptor=charge_descriptor(mu),
                        eta_min=res.eta_min, c_mu=res.c_mu,
                        basis_size=res.basis_size)


def nu1_scan(family, basis_rule=None) -> list[HardyScanRow]:
    """Per-member constants c(mu) for a family of charges.

    basis_rule maps a charge to a SpinorBasis (default even-tempered
    shells on its atoms); each basis gets its default grid_for_basis.
    The family minimum min(row.c_mu) is the scan's headline value.
    """
    if basis_rule is None:
        basis_rule = default_spinor_basis
    return [scan_row(idx, mu, basis_rule(mu))
            for idx, mu in enumerate(family)]


def scan_minimum(rows) -> float:
    if not rows:
        raise ConfigError("empty scan family")
    return min(row.c_mu for row in rows)
