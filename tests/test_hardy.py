"""Certified lower-bound constant: overestimate property and invariances."""
import numpy as np
import pytest
import scipy.linalg as sla

from diraclab import charges, gaussian, hardy
from diraclab.errors import ConfigError

PUBLISHED_FLOOR = 0.90033 - 1e-6


def quotient(mu, n_s=12, **kw):
    basis = gaussian.default_spinor_basis(mu, n_s=n_s, **kw)
    return hardy.hardy_quotient_min(basis, mu)


def test_point_ladder_decreases_and_stays_above_one():
    mu = charges.atom((0.0, 0.0, 0.0), 1.0)
    ladder = [quotient(mu, n_s=n).c_mu for n in (8, 12, 16, 24)]
    # richer bases tighten the overestimate monotonically here
    assert all(a > b for a, b in zip(ladder, ladder[1:]))
    # the unit point charge has constant exactly 1; the basis minimum
    # can only sit above it
    assert all(c >= 1.0 - 1e-9 for c in ladder)
    assert ladder[-1] <= 1.1


def test_point_constant_is_charge_invariant():
    c_half = quotient(charges.atom((0, 0, 0), 0.5)).c_mu
    c_full = quotient(charges.atom((0, 0, 0), 1.0)).c_mu
    assert c_half == pytest.approx(c_full, rel=1e-12)


def test_two_center_constant_is_dilation_invariant():
    base = charges.atoms([(0, 0, 0), (1.5, 0, 0)], [0.5, 0.5])
    c0 = quotient(base).c_mu
    for s in (0.5, 0.25):
        mu = charges.pushforward(base, np.eye(3), s)
        # dilating the exponent ladder by 1/s^2 maps the basis covariantly
        cs = quotient(mu, alpha0=0.02 / s ** 2).c_mu
        assert cs == pytest.approx(c0, rel=1e-8)


def test_scan_family_stays_above_published_floor():
    family = [charges.atoms([(0, 0, 0), (d, 0, 0)], [0.5, 0.5])
              for d in (0.5, 1.0, 2.0, 4.0)]
    rows = hardy.nu1_scan(family)
    assert [r.family_index for r in rows] == [0, 1, 2, 3]
    for row in rows:
        assert row.nu_total == pytest.approx(1.0)
        assert row.c_mu == pytest.approx(
            row.nu_total * np.sqrt(row.eta_min), rel=1e-14)
        assert "pt(" in row.geometry_descriptor
        assert row.basis_size > 0
    assert hardy.scan_minimum(rows) >= PUBLISHED_FLOOR


def test_scan_minimum_rejects_empty():
    with pytest.raises(ConfigError):
        hardy.scan_minimum([])


def test_zero_charge_is_rejected():
    basis = gaussian.default_spinor_basis(charges.atom((0, 0, 0), 0.5),
                                          n_s=6)
    with pytest.raises(ConfigError):
        hardy.hardy_quotient_min(basis, charges.ChargeDistribution())


def test_result_reports_grid_and_basis_shape():
    mu = charges.atom((0, 0, 0), 0.7)
    basis = gaussian.default_spinor_basis(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis, n_radial=48, angular_order=17)
    res = hardy.hardy_quotient_min(basis, mu, grid)
    # scalar primitives, as in the manifest's row_diagnostics
    assert res.basis_size == basis.scalar.n == 6
    assert res.c_mu > 0.0 and res.eta_min > 0.0
    row = hardy.scan_row(3, mu, basis, grid)
    assert (row.family_index, row.eta_min, row.c_mu, row.basis_size) == (
        3, res.eta_min, res.c_mu, res.basis_size)


def balanced_pencil_minimum(basis, mu, grid):
    """The lowest eigenvalue of A u = eta N u from scipy's generalized
    eigh on the diagonally balanced pencil, with A and N built from the
    same GridEvaluation blocks as hardy_quotient_min."""
    vpot = charges.potential_grid(mu, grid.points)
    evaluation = gaussian.GridEvaluation(basis, grid)
    a = gaussian.grid_matrix(
        grid, *evaluation.weighted_grad_blocks(grid.weights / vpot))
    n = gaussian.grid_matrix(
        grid, evaluation.weighted_overlap(grid.weights * vpot))
    scale = 1.0 / np.sqrt(np.diag(n).real)
    a = a * scale[:, None] * scale[None, :]
    n = n * scale[:, None] * scale[None, :]
    return sla.eigh(a, n, eigvals_only=True)[0]


@pytest.mark.parametrize("mu, n_s, grid_kw, kind", [
    # cond(N) is about 1.9e7 here
    (charges.atom((0, 0, 0), 1.0), 24, {}, "axial"),
    (charges.atoms([(0, 0, 0), (0.5, 0, 0)], [0.5, 0.5]), 16, {}, "axial"),
    (charges.atoms([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                   [0.25, 0.2, 0.3, 0.15]), 6,
     {"n_radial": 48, "angular_order": 17}, "full"),
], ids=["point", "pair", "non-planar"])
def test_eta_min_matches_generalized_eigh(mu, n_s, grid_kw, kind):
    # the filtered orthogonalizer against scipy's generalized eigh on the
    # diagonally balanced pencil, an independent route to the minimum
    basis = gaussian.default_spinor_basis(mu, n_s=n_s)
    grid = gaussian.grid_for_basis(basis, **grid_kw)
    assert grid.kind == kind
    eta = hardy.hardy_quotient_min(basis, mu, grid).eta_min
    assert eta == pytest.approx(balanced_pencil_minimum(basis, mu, grid),
                                rel=1e-11)
