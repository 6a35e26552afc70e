"""Gaussian primitives, analytic integrals, and the quadrature grid."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from diraclab import charges, experiments, gaussian, multicenter
from strategies import small_molecules
from diraclab.errors import ConfigError, IllConditionedBasisError


def two_center_basis(n_s=6, d=1.4):
    mu = charges.atoms([(0, 0, 0), (d, 0, 0)], [0.3, 0.3])
    return gaussian.default_spinor_basis(mu, n_s=n_s, alpha0=0.05, beta=3.0)


def shipped_pair():
    """conjecture_m2's d = 1 geometry and default basis on a coarse grid,
    with the Gram weight of its first sample, lam = sqrt(1 - 0.4^2)."""
    mu = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.2, 0.2])
    basis = gaussian.default_spinor_basis(mu)
    grid = gaussian.grid_for_basis(basis, n_radial=48, angular_order=17)
    c = grid.weights / (1.0 + math.sqrt(0.84)
                        + charges.potential_grid(mu, grid.points))
    return basis, grid, c


# --- Boys function ---------------------------------------------------------

@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("t", [0.0, 1e-8, 0.1, 1.0, 19.9, 20.1, 50.0, 500.0])
def test_boys_against_quadrature_oracle(m, t):
    assert gaussian.boys(m, t) == pytest.approx(
        oracles.boys_reference(m, t), abs=1e-12)


def test_boys_vectorized_and_validated():
    t = np.array([0.0, 1.0, 30.0])
    out = gaussian.boys(2, t)
    assert out.shape == (3,)
    with pytest.raises(ConfigError):
        gaussian.boys(5, 1.0)
    with pytest.raises(ConfigError):
        gaussian.boys(0, -0.5)


@given(m=st.integers(min_value=0, max_value=3),
       t=st.floats(min_value=1e-6, max_value=200.0))
@settings(max_examples=80, deadline=None)
def test_boys_downward_recursion(m, t):
    # (2m+1) F_m(t) = e^-t + 2t F_{m+1}(t)
    lhs = (2 * m + 1) * gaussian.boys(m, t)
    rhs = math.exp(-t) + 2.0 * t * gaussian.boys(m + 1, t)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


BOYS_T = [0.0, 5e-324, 1e-310, 1e-9, 20.0, *np.logspace(-8.0, 4.0, 49)]


@pytest.mark.parametrize("t", BOYS_T)
def test_closed_form_boys0_to_relative_roundoff(t):
    # measured at most 3.4e-16 here (numpy 2.4, x86-64); a
    # subnormal t takes 1 - t/3, as sqrt(pi/t) would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gaussian.boys(0, t)
    assert math.isfinite(got)
    ref = oracles.boys_reference(0, t)
    assert abs(got - ref) <= 1e-14 * ref


def boys0_elementwise(t: float) -> float:
    """F_0 as the closed form gives it one t at a time, erf always called."""
    if t < gaussian.BOYS_SMALL_T:
        return 1.0 - t / 3.0
    return 0.5 * math.sqrt(math.pi / t) * math.erf(math.sqrt(t))


def test_erf_is_one_from_the_skip_threshold_on():
    # the libm fact _boys0 relies on to skip erf; a libm that rounds
    # otherwise fails here
    assert math.erf(gaussian.ERF_IS_ONE) == 1.0
    assert all(math.erf(x) == 1.0
               for x in np.linspace(gaussian.ERF_IS_ONE, 30.0, 20001))


def test_boys0_skipping_erf_is_bit_identical():
    edge = gaussian.ERF_IS_ONE ** 2
    t = np.concatenate([[0.0, 5e-324, 1e-9, gaussian.BOYS_SMALL_T],
                        np.logspace(-8.0, 3.0, 4001),
                        edge * (1.0 + 1e-15 * np.arange(-8, 9))])
    want = np.array([boys0_elementwise(x) for x in t])
    assert np.array_equal(gaussian.boys(0, t), want)


def test_attraction_matrix_from_its_upper_triangle_is_bit_identical():
    # every entry by the elementwise formula; the shipped pair's t lies on
    # both sides of the erf skip
    basis, _, _ = shipped_pair()
    sc = basis.scalar
    a, ctr = sc.alphas, sc.centers
    p = a[:, None] + a[None, :]
    q = a[:, None] * a[None, :] / p
    d = ctr[:, None, :] - ctr[None, :, :]
    pref = np.outer(sc.norms, sc.norms) * np.exp(
        -q * np.einsum("ijk,ijk->ij", d, d))
    wa = a[:, None] * ctr
    for R, theta in (((0.0, 0.0, 0.0), 0.2), ((1.0, 0.0, 0.0), 0.2),
                     ((0.3, -0.2, 0.1), 0.7)):
        pc = (wa[:, None, :] + wa[None, :, :]) / p[:, :, None] - R
        t = p * np.einsum("ijk,ijk->ij", pc, pc)
        assert np.any(t >= gaussian.ERF_IS_ONE ** 2)
        assert np.any(t < gaussian.ERF_IS_ONE ** 2)
        f0 = np.vectorize(boys0_elementwise)(t)
        want = theta * pref * (2.0 * np.pi / p) * f0
        assert np.array_equal(sc.attraction_matrix(R, theta), want)


# --- analytic integrals vs quadrature oracles ------------------------------

def test_overlap_against_1d_quadrature():
    prims = [gaussian.GaussianPrimitive((0, 0, 0), 0.7),
             gaussian.GaussianPrimitive((1.1, -0.4, 0.2), 2.3)]
    sb = gaussian.ScalarBasis(prims)
    for i in range(2):
        for j in range(2):
            gi, gj = sb.primitives[i], sb.primitives[j]
            want = gi.norm * gj.norm * oracles.gaussian_overlap_reference(
                gi.exponent, gi.center, gj.exponent, gj.center)
            assert sb.overlap_matrix()[i, j] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("centers", [
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (0.9, -0.4, 0.3)),
    ((0.2, 0.1, -0.5), (-1.3, 0.6, 0.8))])
def test_grad_dot_against_1d_quadrature(centers):
    prims = [gaussian.GaussianPrimitive(centers[0], 0.6),
             gaussian.GaussianPrimitive(centers[1], 1.9)]
    sb = gaussian.ScalarBasis(prims)
    t = sb.grad_dot_matrix()
    for i in range(2):
        for j in range(2):
            gi, gj = sb.primitives[i], sb.primitives[j]
            want = gi.norm * gj.norm * oracles.gaussian_grad_dot_reference(
                gi.exponent, gi.center, gj.exponent, gj.center)
            assert t[i, j] == pytest.approx(want, rel=1e-11)


def test_attraction_against_erf_oracle():
    prims = [gaussian.GaussianPrimitive((0, 0, 0), 0.9),
             gaussian.GaussianPrimitive((0.8, 0.3, 0.0), 1.7)]
    sb = gaussian.ScalarBasis(prims)
    for R in [(0, 0, 0), (0.5, 0.1, -0.3), (4.0, 0, 0)]:
        for i in range(2):
            for j in range(2):
                gi, gj = sb.primitives[i], sb.primitives[j]
                want = gi.norm * gj.norm * \
                    oracles.gaussian_attraction_reference(
                        gi.exponent, gi.center, gj.exponent, gj.center, R)
                assert sb.attraction_matrix(R)[i, j] == pytest.approx(
                    want, rel=1e-11)


def test_integral_matrices_are_exactly_symmetric():
    mu = charges.atoms([(0, 0, 0), (1.3, 0.2, 0), (0.4, 1.1, -0.7)],
                       [0.2, 0.2, 0.2])
    sc = gaussian.default_spinor_basis(mu, n_s=7).scalar
    for mat in (sc.overlap_matrix(), sc.grad_dot_matrix(),
                sc.potential_matrix(mu)):
        assert np.array_equal(mat, mat.T)


def test_potential_matrix_is_negative_definite_sum():
    basis = two_center_basis()
    mu = charges.atoms([(0, 0, 0), (1.4, 0, 0)], [0.3, 0.3])
    sc = basis.scalar
    m_v = sc.potential_matrix(mu)
    manual = -(sc.attraction_matrix((0, 0, 0), 0.3)
               + sc.attraction_matrix((1.4, 0, 0), 0.3))
    assert np.allclose(m_v, manual, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(m_v) < 0.0)
    with pytest.raises(ConfigError):
        sc.potential_matrix(charges.shell(0.5, 1.0))


def whole_table(sc, pts):
    """values_and_gradients' values over its default blocks as one table
    (points, n), 0 past each site's live rows, and its displacements
    (points, 3, sites)."""
    blocks, disp = sc.values_and_gradients(pts)
    table, start = np.zeros((sc.n, len(pts))), 0
    for rows in blocks:
        stop = start + rows[0].shape[1]
        for i, v in zip(sc.site_columns, rows):
            table[i.start:i.start + len(v), start:stop] = v
        start = stop
    assert start == len(pts)
    return table.T, disp.T


def test_values_and_gradients_match_finite_differences():
    prims = [gaussian.GaussianPrimitive((0.2, -0.1, 0.5), 1.3),
             gaussian.GaussianPrimitive((0.0, 0.4, 0.0), 0.8),
             gaussian.GaussianPrimitive((-0.6, 0.9, 0.3), 2.2)]
    sb = gaussian.ScalarBasis(prims)
    pts = np.array([[0.3, 0.2, 0.1], [-0.5, 1.0, 0.4]])
    vals, disp = whole_table(sb, pts)
    _, grads = oracles.values_and_gradients(sb, pts, gaussian.VALUE_FLOOR)
    eps = 1e-6
    for d in range(3):
        # the identity every grid kernel rests on: grad g = -2a (x - A) g
        assert np.allclose(grads[d], -2.0 * sb.alphas * disp[:, d, sb.site_of]
                           * vals, rtol=1e-14, atol=0.0)
        shift = np.zeros(3)
        shift[d] = eps
        vp = whole_table(sb, pts + shift)[0]
        vm = whole_table(sb, pts - shift)[0]
        assert np.allclose(grads[d], (vp - vm) / (2 * eps), atol=1e-7)


def test_values_and_gradients_match_per_primitive_reference(monkeypatch):
    monkeypatch.setattr(gaussian, "BLOCK", 700)
    basis = two_center_basis(n_s=4)
    grid = gaussian.grid_for_basis(basis, n_radial=24, angular_order=9)
    assert grid.size % 700 != 0  # the last block is partial
    ev = gaussian.GridEvaluation(basis, grid)
    raw, _ = oracles.values_and_gradients(basis.scalar, grid.points, 0.0)
    assert np.any((raw > 0.0) & (raw < gaussian.VALUE_FLOOR))
    ref_vals, _ = oracles.values_and_gradients(
        basis.scalar, grid.points, gaussian.VALUE_FLOOR)
    # with the default blocks the whole table, and the evaluation's
    # stored entries
    vals, disp = whole_table(basis.scalar, grid.points)
    assert np.array_equal(vals, ref_vals)
    assert_chunks_match_oracle(ev)
    sites = basis.scalar.sites
    assert disp.shape == (grid.size, 3, 2)
    assert np.array_equal(disp,
                          grid.points[:, :, None] - sites.T[None, :, :])


def assert_chunks_match_oracle(ev):
    """Per chunk each site but home stores the oracle's first live rows
    on the chunk's points, bit for bit, the oracle's other rows are all 0
    there and the last stored row is not: the chunk keeps every row that
    is not 0 and no other.  Home stores its shell values, the oracle's
    at the shell radii (a primitive of the site's exponent at the origin,
    evaluated at (0, 0, r_k), has r^2 = r_k^2 exactly), and a site is
    home on all of its complete own shells."""
    sc, grid = ev.basis.scalar, ev.grid
    ref, _ = oracles.values_and_gradients(sc, grid.points,
                                          gaussian.VALUE_FLOOR)
    on_axis = grid.radii[:, None] * np.array([0.0, 0.0, 1.0])
    shells = [oracles.values_and_gradients(gaussian.ScalarBasis([
        gaussian.GaussianPrimitive((0.0, 0.0, 0.0), g.exponent)
        for g in sc.primitives[i]]), on_axis, gaussian.VALUE_FLOOR)[0].T
        for i in sc.site_columns]
    home_points = [0] * len(sc.sites)
    for ch in ev._chunks:
        block = ref[ch.points].T
        assert np.array_equal(ch.disp, grid.points[ch.points].T[None]
                              - sc.sites[:, :, None])
        for s, (i, v) in enumerate(zip(sc.site_columns, ch.vals)):
            if s == ch.home:
                assert np.array_equal(v, shells[s][:, ch.shells])
                home_points[s] += block.shape[1]
                continue
            assert np.array_equal(v, block[i][:len(v)])
            assert not np.any(block[i][len(v):])
            assert len(v) == 0 or np.any(v[-1])
        assert np.array_equal(ch.columns, [
            k for s, (i, v) in enumerate(zip(sc.site_columns, ch.vals))
            if s != ch.home for k in range(i.start, i.start + len(v))])
    runs = {tuple(x): a for x, a in zip(grid.centers, grid.runs)}
    assert home_points == [
        0 if runs.get(tuple(x)) is None else grid.n_radial * grid.ring
        for x in sc.sites]


def test_clamped_tabulation_is_bit_identical_where_exp_underflows():
    # the shipped pair's grid reaches r ~ 40 and its steepest exponent is
    # ~1e5, so many -a r^2 lie below EXP_CLAMP and below -745, where exp
    # underflows to 0; the clamp leaves every table entry as it was
    basis, grid, _ = shipped_pair()
    sc = basis.scalar
    r2 = np.sum((grid.points[:, None, :] - sc.centers[None]) ** 2, axis=2)
    arg = -sc.alphas * r2
    assert np.any(arg < -745.0)
    assert np.any((arg < gaussian.EXP_CLAMP) & (arg > -745.0))
    vals = whole_table(sc, grid.points)[0]
    ref, _ = oracles.values_and_gradients(sc, grid.points,
                                          gaussian.VALUE_FLOOR)
    assert np.array_equal(vals, ref)
    # a clamped entry is below the floor for the heaviest admissible norm
    top = gaussian.GaussianPrimitive((0.0, 0.0, 0.0),
                                     gaussian.EXPONENT_RANGE[1]).norm
    assert top * math.exp(gaussian.EXP_CLAMP) < gaussian.VALUE_FLOOR


def stored_values(ev):
    """Every array of values the chunks store (home's shell values are
    the evaluation's per-shell table)."""
    return [v for ch in ev._chunks for s, v in enumerate(ch.vals)
            if s != ch.home]


def test_grid_evaluation_holds_no_gradient_table():
    basis = two_center_basis(n_s=4)
    grid = gaussian.grid_for_basis(basis, n_radial=24, angular_order=9)
    ev = gaussian.GridEvaluation(basis, grid)
    arrays = [a for a in vars(ev).values() if isinstance(a, np.ndarray)]
    arrays += stored_values(ev) + [ch.disp for ch in ev._chunks]
    arrays += [a.base for a in arrays if a.base is not None]
    assert 3 * basis.scalar.n * grid.size not in [a.size for a in arrays]


@pytest.mark.parametrize("d, share", [(1.0, 0.45), (8.0, 0.30)])
def test_grid_evaluation_stores_only_live_values(d, share):
    # one allocation, filled front to back with each chunk's live rows of
    # every site but home: its touched part is sum(live x b), a share of
    # the n x points a whole table would take
    basis, grid = shipped_triangle(d)
    ev = gaussian.GridEvaluation(basis, grid)
    stored = stored_values(ev)
    store = stored[0].base
    assert all(v.base is store for v in stored)
    start = store.__array_interface__["data"][0]
    used = 0
    for v in stored:
        assert v.__array_interface__["data"][0] == start + 8 * used
        used += v.size
    assert used < share * basis.scalar.n * grid.size


def test_weighted_kernels_need_one_weight_per_grid_point():
    basis = two_center_basis(n_s=4)
    grid = gaussian.grid_for_basis(basis, n_radial=24, angular_order=9)
    ev = gaussian.GridEvaluation(basis, grid)
    for size in (grid.size - 1, grid.size + 1):
        c = np.ones(size)
        for call in (lambda: ev.weighted_overlap(c),
                     lambda: ev.weighted_grad_blocks(c)):
            with pytest.raises(ValueError, match="weights for a grid"):
                call()
    # the sigma.grad density takes no weight: one value per grid point
    psi = np.ones(2 * basis.scalar.n)
    assert ev.sigma_grad_density(psi).shape == (grid.size,)


def test_primitive_validation():
    with pytest.raises(ConfigError):
        gaussian.GaussianPrimitive((0, 0, 0), 0.0)
    with pytest.raises(ConfigError):
        gaussian.GaussianPrimitive((0, 0, 0), 1e13)


# --- spinor layer ----------------------------------------------------------

def test_orthogonalizer_whitens_overlap():
    basis = two_center_basis()
    x = basis.orthogonalizer
    s = basis.scalar.overlap_matrix()
    assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-12)


def test_spinor_matrix_structure():
    rng = np.random.default_rng(7)
    n = 4
    dot = rng.normal(size=(n, n))
    dot = dot + dot.T
    cross = []
    for _ in range(3):
        m = rng.normal(size=(n, n))
        cross.append(m - m.T)  # antisymmetric real cross blocks
    out = gaussian.spinor_matrix(dot, cross)
    assert out.shape == (2 * n, 2 * n)
    assert np.allclose(out, out.conj().T, atol=1e-14)
    # dropping the cross part leaves a real block-diagonal kron
    plain = gaussian.spinor_matrix(dot)
    assert np.allclose(plain, np.kron(dot, np.eye(2)), atol=1e-15)


def test_grad_gram_is_spin_diagonal_and_psd():
    basis = two_center_basis(n_s=4)
    t = gaussian.spinor_matrix(basis.scalar.grad_dot_matrix())
    assert np.allclose(t, t.conj().T, atol=1e-13)
    assert np.allclose(t.imag, 0.0, atol=1e-13)
    assert np.min(np.linalg.eigvalsh(t)) > 0.0
    assert np.allclose(t, np.kron(basis.scalar.grad_dot_matrix(), np.eye(2)),
                       atol=1e-13)


def test_default_basis_dedupes_coincident_atoms():
    mu = charges.ChargeDistribution(points=(
        charges.PointCharge((0.0, 0.0, 0.0), 0.3),
        charges.PointCharge((0.0, 0.0, 0.0), 0.2)))
    basis = gaussian.default_spinor_basis(mu, n_s=5)
    assert basis.scalar.n == 5
    with pytest.raises(ConfigError):
        gaussian.default_spinor_basis(charges.shell(0.5, 1.0))


def test_ill_conditioned_basis_is_filtered_not_fatal():
    # duplicated primitives make S singular; filtering keeps a subspace
    prims = [gaussian.GaussianPrimitive((0, 0, 0), 1.0)] * 3
    basis = gaussian.SpinorBasis(gaussian.ScalarBasis(prims))
    assert basis.orthogonalizer.shape[1] == 1


# --- quadrature grid -------------------------------------------------------

def test_becke_partition_of_unity():
    centers = np.array([[0.0, 0.0, 0.0], [1.3, 0.0, 0.0], [0.4, 1.1, -0.2]])
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(500, 3)) * 2.0
    w = gaussian.becke_weights(pts, centers)
    assert np.max(np.abs(np.sum(w, axis=1) - 1.0)) <= 1e-12
    assert np.all(w >= 0.0)


def test_sphere_rule_is_cached_read_only():
    for kind in gaussian.GRID_KINDS:
        dirs, wang = gaussian._sphere_rule(9, kind)
        assert gaussian._sphere_rule(9, kind)[0] is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0
        with pytest.raises(ValueError):
            wang[0] = 0.0


def test_grid_partition_residual_is_tracked():
    grid = gaussian.build_grid([(0, 0, 0), (1.5, 0, 0)], n_radial=40,
                               angular_order=11)
    assert grid.partition_residual <= 1e-12
    assert grid.size == len(grid.points) == len(grid.weights)


def test_default_window_integrates_unit_gaussian():
    # frozen check of the shipped radial window at the default orders
    grid = gaussian.build_grid([(0, 0, 0)], n_radial=60, angular_order=17)
    got = float(np.sum(grid.weights
                       * np.exp(-np.sum(grid.points ** 2, axis=1))))
    assert abs(got - np.pi ** 1.5) <= 1e-10


def test_grid_error_shrinks_with_radial_count():
    def err(n):
        grid = gaussian.build_grid([(0, 0, 0)], n_radial=n, angular_order=17)
        got = float(np.sum(
            grid.weights * np.exp(-np.sum(grid.points ** 2, axis=1))))
        return abs(got - np.pi ** 1.5)
    assert err(40) > err(60)


def test_grid_for_basis_reproduces_analytic_overlap():
    # 144 radial shells push the inner-cut and aliasing terms below 1e-8
    # for this exponent span; the production default trades some of that
    # accuracy for speed
    basis = two_center_basis(n_s=6)
    grid = gaussian.grid_for_basis(basis, n_radial=144, angular_order=35)
    ev = gaussian.GridEvaluation(basis, grid)
    s_grid = ev.weighted_overlap(grid.weights)
    s_exact = basis.scalar.overlap_matrix()
    assert np.max(np.abs(s_grid - s_exact)) <= 1e-8


def test_grid_reproduces_analytic_attraction():
    # the integrable 1/|x - C| spike must sit on a grid center
    basis = two_center_basis(n_s=6, d=1.4)
    mu = charges.atoms([(0, 0, 0), (1.4, 0, 0)], [0.3, 0.3])
    grid = gaussian.grid_for_basis(basis, n_radial=144, angular_order=35)
    vpot = charges.potential_grid(mu, grid.points)
    ev = gaussian.GridEvaluation(basis, grid)
    got = ev.weighted_overlap(grid.weights * vpot)
    want = -basis.scalar.potential_matrix(mu)
    assert np.max(np.abs(got - want)) <= 1e-8


def spread_basis(positions):
    mu = charges.atoms(positions, [0.1] * len(positions))
    return gaussian.default_spinor_basis(mu, n_s=4, alpha0=0.05, beta=3.0)


def axial_pair():
    basis = two_center_basis(n_s=4)
    return basis, gaussian.grid_for_basis(basis, 48, 17)


def mirror_triangle():
    basis = spread_basis([(0, 0, 0), (1.4, 0, 0), (0.7, 1.2, 0)])
    return basis, gaussian.grid_for_basis(basis, 48, 17)


def full_four_sites():
    basis = spread_basis([(0, 0, 0), (1.4, 0, 0), (0.7, 1.2, 0),
                          (0.5, 0.4, 1.1)])
    return basis, gaussian.grid_for_basis(basis, 48, 17)


def ghost_center():
    # one center is a site, one is not, and one site has no center
    basis = two_center_basis(n_s=4)
    grid = gaussian.build_grid([(0, 0, 0), (0.6, 0.5, -0.3)], 48, 17,
                               *gaussian.radial_window(basis))
    return basis, grid


def excluded_node():
    # the second atom sits on a node of the first atom's rule, and so the
    # first on the antipodal node of the second's: EXCLUSION_RADIUS drops
    # one node of each, and only the third atom keeps all its shells
    one = gaussian.build_grid([(0, 0, 0)], 48, 17, 1e-3, 12.0)
    node = one.points[np.argmin(np.abs(np.linalg.norm(one.points, axis=1)
                                       - 1.4))]
    centers = [(0, 0, 0), tuple(node), (0.3, -0.9, 0.5)]
    grid = gaussian.build_grid(centers, 48, 17, 1e-3, 12.0)
    assert grid.runs[:2] == (None, None) and grid.runs[2] is not None
    return spread_basis(centers), grid


def far_apart_full():
    # four sites 30 apart in no common plane, with steep primitives: on
    # most chunks of a site's own shells most other rows are exactly 0
    positions = [(0, 0, 0), (30, 0, 0), (0, 30, 0), (0, 0, 30)]
    mu = charges.atoms(positions, [0.1] * 4)
    basis = gaussian.default_spinor_basis(mu, n_s=4, alpha0=0.5, beta=3.0)
    return basis, gaussian.grid_for_basis(basis, 48, 17)


def steep_first_primitives():
    """Four sites 6 apart, each site's primitives listed steepest first
    (the basis stores them diffuse first), and their charge."""
    positions = [(0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6)]
    mu = charges.atoms(positions, [0.1] * 4)
    sc = gaussian.default_spinor_basis(mu, n_s=8, alpha0=0.05,
                                       beta=3.0).scalar
    return [g for i in sc.site_columns
            for g in reversed(sc.primitives[i])], mu


def steep_first_full():
    # dead steep columns next to live diffuse rows that are far from 0
    basis = gaussian.SpinorBasis(gaussian.ScalarBasis(
        steep_first_primitives()[0]))
    return basis, gaussian.grid_for_basis(basis, 48, 17)


def live_share(ev):
    """The share of the other sites' rows kept on the home chunks."""
    kept = total = 0
    for ch in ev._chunks:
        if ch.home is not None:
            for s, (i, v) in enumerate(zip(ev.basis.scalar.site_columns,
                                           ch.vals)):
                if s != ch.home:
                    kept += len(v)
                    total += i.stop - i.start
    return kept / total


@pytest.mark.parametrize("make", [axial_pair, mirror_triangle,
                                  full_four_sites, ghost_center,
                                  excluded_node, far_apart_full,
                                  steep_first_full])
def test_weighted_grad_blocks_consistency(monkeypatch, make):
    # each center's 48 shells span several chunks of whole shells
    monkeypatch.setattr(gaussian, "BLOCK", 400)
    basis, grid = make()
    ev = gaussian.GridEvaluation(basis, grid)
    if make is far_apart_full:
        assert grid.kind == "full" and live_share(ev) < 0.5
    c = grid.weights / (1.0 + np.sum(grid.points ** 2, axis=1))
    dot, cross = ev.weighted_grad_blocks(c)
    vals, grads = oracles.values_and_gradients(basis.scalar, grid.points,
                                               gaussian.VALUE_FLOOR)
    assert np.allclose(dot, oracles.weighted_grad_dot(grads, c), atol=1e-12)
    assert np.array_equal(dot, dot.T)
    for a, b in zip(cross, oracles.weighted_grad_cross(grads, c, grid.axis)):
        assert np.allclose(a, b, atol=1e-12)
        assert np.array_equal(a, -a.T)
    # the slope integral and the weighted overlap read the same chunks
    rng = np.random.default_rng(3)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    spinor = psi.reshape(-1, 2)
    field = sum(grads[a] @ (spinor @ gaussian.PAULI[a].T) for a in range(3))
    want = float(c @ np.sum(np.abs(field) ** 2, axis=1))
    assert c @ ev.sigma_grad_density(psi) == pytest.approx(want, rel=1e-12)
    overlap = ev.weighted_overlap(c)
    assert np.array_equal(overlap, overlap.T)
    want = vals.T @ (c[:, None] * vals)
    assert np.allclose(overlap, want, rtol=0.0, atol=1e-13 * np.max(want))


def shipped_triangle(d):
    """conjecture_m3's geometry at side d, default basis and grid."""
    mu = charges.atoms(experiments._triangle_positions(d), [0.15] * 3)
    basis = gaussian.default_spinor_basis(mu)
    return basis, gaussian.grid_for_basis(basis)


@pytest.mark.parametrize("make", [
    lambda: shipped_pair()[:2], lambda: shipped_triangle(1.0),
    lambda: shipped_triangle(8.0), ghost_center, excluded_node,
    far_apart_full], ids=["pair", "triangle_1", "triangle_8", "ghost_center",
                          "excluded_node", "far_apart_full"])
def test_screened_columns_are_exactly_zero(make):
    basis, grid = make()
    assert_chunks_match_oracle(gaussian.GridEvaluation(basis, grid))


@given(mu=small_molecules())
@settings(max_examples=10, derandomize=True, deadline=None)
def test_screened_columns_are_exactly_zero_on_small_molecules(mu):
    basis = gaussian.default_spinor_basis(mu, n_s=8)
    grid = gaussian.grid_for_basis(basis, 48, 17)
    assert_chunks_match_oracle(gaussian.GridEvaluation(basis, grid))


def test_value_floor_moves_the_gradient_gram_by_at_most_1e_100(monkeypatch):
    basis, grid, c = shipped_pair()
    dot, cross = gaussian.GridEvaluation(basis, grid).weighted_grad_blocks(c)
    raw_vals, raw_grads = oracles.values_and_gradients(
        basis.scalar, grid.points, 0.0)
    assert np.any((raw_vals > 0.0) & (raw_vals < gaussian.VALUE_FLOOR))
    # the unfloored oracle sums in another order, so it differs by round-off
    atol = 1e-12 * np.max(np.abs(dot))
    assert np.allclose(dot, oracles.weighted_grad_dot(raw_grads, c),
                       rtol=0.0, atol=atol)
    for a, b in zip(cross, oracles.weighted_grad_cross(raw_grads, c,
                                                       grid.axis)):
        assert np.allclose(a, b, rtol=0.0, atol=atol)
    # the same arithmetic without the floor isolates the floor's own move
    # (4.3e-109 here, in a cross entry)
    monkeypatch.setattr(gaussian, "VALUE_FLOOR", 0.0)
    dot0, cross0 = gaussian.GridEvaluation(basis, grid).weighted_grad_blocks(c)
    assert np.max(np.abs(dot - dot0)) <= 1e-100
    for a, b in zip(cross, cross0):
        assert np.max(np.abs(a - b)) <= 1e-100


def test_weighted_gradient_rows_make_no_subnormal_products():
    # two nonzero operand entries whose product is below tiny make a
    # subnormal, which x86 handles in microcode: the Gram's SYRK ran ~2x
    # slower with 4% of the nonzero entries of its rows below sqrt(tiny)
    basis, grid, c = shipped_pair()
    tiny = np.finfo(float).tiny
    small = math.sqrt(tiny)

    def smallest(a):
        a = np.abs(a)
        return np.min(a[a > 0.0])

    # on each atom's own grid its rows are one per shell, and the pair
    # block multiplies its shell values with the ring-contracted factors;
    # every operand is checked as the fused loop multiplies it
    ev = gaussian.GridEvaluation(basis, grid)
    chunks, widths = set(), []
    for ch, k, lhs, rhs in ev.gram_operands(c):
        chunks.add(ch.points.start)
        if rhs is None:
            widths.append(lhs.shape[1])
            assert not np.any((np.abs(lhs) > 0.0) & (np.abs(lhs) < small))
        else:
            assert smallest(lhs) * smallest(rhs) >= tiny
    # one chunk of all 48 shells of 18 nodes per atom
    assert len(chunks) == 2 == len(ev._chunks)
    assert sorted(widths) == [grid.n_radial, grid.n_radial,
                              grid.n_radial * grid.ring,
                              grid.n_radial * grid.ring]


def test_weighted_grad_blocks_rejects_negative_weights():
    basis = two_center_basis(n_s=3)
    grid = gaussian.grid_for_basis(basis, n_radial=24, angular_order=9)
    ev = gaussian.GridEvaluation(basis, grid)
    c = grid.weights.copy()
    c[5] = -1e-300
    with pytest.raises(ValueError):
        ev.weighted_grad_blocks(c)


def off_plane_triple():
    mu = charges.atoms([(0.1, -0.2, 0.3), (1.2, 0.5, -0.4), (-0.3, 0.9, 0.7)],
                       [0.2, 0.2, 0.2])
    return gaussian.default_spinor_basis(mu, n_s=3, alpha0=0.1, beta=3.0)


def off_plane_quad():
    """Four sites in no common plane: the one geometry on a full grid."""
    mu = charges.atoms([(0.1, -0.2, 0.3), (1.2, 0.5, -0.4), (-0.3, 0.9, 0.7),
                        (0.4, 0.3, -0.9)], [0.2] * 4)
    return gaussian.default_spinor_basis(mu, n_s=3, alpha0=0.1, beta=3.0)


def interleaved_primitives():
    """Two sites' primitives listed alternately (the basis stores them
    site by site), and their charge."""
    sites = ((0.0, 0.0, 0.0), (0.9, -0.4, 0.3))
    return ([gaussian.GaussianPrimitive(ctr, float(a))
             for a in gaussian.even_tempered(0.05, 3.0, 4) for ctr in sites],
            charges.atoms(sites, [0.3, 0.3]))


def interleaved_pair():
    return gaussian.SpinorBasis(gaussian.ScalarBasis(
        interleaved_primitives()[0]))


def one_site():
    mu = charges.atom((0.2, 0.1, -0.3), 0.4)
    return gaussian.default_spinor_basis(mu, n_s=5, alpha0=0.05, beta=3.0)


GEOMETRIES = {"off_plane_quad": off_plane_quad,
              "off_plane_triple": off_plane_triple,
              "interleaved_pair": interleaved_pair, "one_site": one_site}


def tabulated(name, monkeypatch):
    """A geometry's evaluation over blocks of 700 points, the last one
    partial, and a positive Gram weight on it."""
    monkeypatch.setattr(gaussian, "BLOCK", 700)
    basis = GEOMETRIES[name]()
    grid = gaussian.grid_for_basis(basis, n_radial=24, angular_order=11)
    assert grid.size % 700 != 0
    c = grid.weights / (1.0 + np.sum(grid.points ** 2, axis=1))
    return basis, grid, gaussian.GridEvaluation(basis, grid), c


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_values_only_gram_matches_unfloored_gradient_oracle(name, monkeypatch):
    basis, grid, ev, c = tabulated(name, monkeypatch)
    dot, cross = ev.weighted_grad_blocks(c)
    _, grads = oracles.values_and_gradients(basis.scalar, grid.points, 0.0)
    atol = 1e-13 * np.max(np.abs(dot))
    assert np.allclose(dot, oracles.weighted_grad_dot(grads, c),
                       rtol=0.0, atol=atol)
    for a, b in zip(cross, oracles.weighted_grad_cross(grads, c, grid.axis)):
        assert np.allclose(a, b, rtol=0.0, atol=atol)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_values_only_gram_is_exactly_symmetric(name, monkeypatch):
    basis, _, ev, c = tabulated(name, monkeypatch)
    dot, cross = ev.weighted_grad_blocks(c)
    assert np.array_equal(dot, dot.T)
    for m in cross:
        assert np.array_equal(m, -m.T)
        # parallel gradients of one site have no cross part at all
        for i in basis.scalar.site_columns:
            assert np.all(m[i, i] == 0.0)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_values_only_slope_matches_gradient_oracle(name, monkeypatch):
    basis, grid, ev, c = tabulated(name, monkeypatch)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    _, grads = oracles.values_and_gradients(basis.scalar, grid.points, 0.0)
    # sigma.grad psi at every point from the gradient table, spin by spin
    spinor = psi.reshape(-1, 2)
    field = sum(grads[a] @ (spinor @ gaussian.PAULI[a].T) for a in range(3))
    want = float(c @ np.sum(np.abs(field) ** 2, axis=1))
    assert c @ ev.sigma_grad_density(psi) == pytest.approx(want, rel=1e-12)


LISTED = {"interleaved_pair": interleaved_primitives,
          "steep_first_full": steep_first_primitives}


@pytest.mark.parametrize("name", sorted(LISTED))
@given(data=st.data())
@settings(max_examples=3, derandomize=True, deadline=None)
def test_primitive_order_does_not_change_a_bit(name, data):
    # the basis stores any permutation of its primitives in one order
    prims, mu = LISTED[name]()
    order = data.draw(st.permutations(range(len(prims))))
    bases = [gaussian.SpinorBasis(gaussian.ScalarBasis(p))
             for p in (prims, [prims[k] for k in order])]
    a, b = bases
    grid = gaussian.grid_for_basis(a, 24, 11)
    assert a.scalar.primitives == b.scalar.primitives != tuple(prims)
    for matrix in (lambda sc: sc.overlap_matrix(),
                   lambda sc: sc.grad_dot_matrix(),
                   lambda sc: sc.potential_matrix(mu)):
        assert np.array_equal(matrix(a.scalar), matrix(b.scalar))
    c = grid.weights / (1.8 + charges.potential_grid(mu, grid.points))
    psi = np.random.default_rng(7).normal(size=(a.size, 2)) @ [1, 1j]
    ev_a, ev_b = (gaussian.GridEvaluation(x, grid) for x in bases)
    for ch_a, ch_b in zip(ev_a._chunks, ev_b._chunks):
        for u, v in zip(ch_a.vals, ch_b.vals):
            assert np.array_equal(u, v)
    (dot_a, cross_a), (dot_b, cross_b) = (ev.weighted_grad_blocks(c)
                                          for ev in (ev_a, ev_b))
    assert np.array_equal(dot_a, dot_b)
    assert np.array_equal(cross_a, cross_b)
    assert np.array_equal(ev_a.sigma_grad_density(psi),
                          ev_b.sigma_grad_density(psi))
    assert np.array_equal(ev_a.grad_density(psi.real[::2]),
                          ev_b.grad_density(psi.real[::2]))
    assert np.array_equal(ev_a.weighted_overlap(c), ev_b.weighted_overlap(c))
    assert_chunks_match_oracle(ev_a)
    cfg = multicenter.GapSolveConfig(n_radial=24, angular_order=11)
    assert (multicenter.solve_gap(a, mu, grid, cfg).lambda1
            == multicenter.solve_gap(b, mu, grid, cfg).lambda1)


def test_weighted_overlap_is_exactly_symmetric_and_checks_weights():
    basis = interleaved_pair()
    grid = gaussian.grid_for_basis(basis, n_radial=24, angular_order=9)
    ev = gaussian.GridEvaluation(basis, grid)
    vals, _ = oracles.values_and_gradients(basis.scalar, grid.points, 0.0)
    got = ev.weighted_overlap(grid.weights)
    assert np.array_equal(got, got.T)
    want = vals.T @ (grid.weights[:, None] * vals)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13 * np.max(want))
    c = grid.weights.copy()
    c[3] = -1e-300
    with pytest.raises(ValueError):
        ev.weighted_overlap(c)


def test_weighted_sigma_grad_is_the_spinor_gram_form(monkeypatch):
    # any psi on the full lab-frame grid; on the reduced (axial) grid the
    # psi = phi (x) chi with (sigma.axis) chi = chi that the solver forms
    monkeypatch.setattr(gaussian, "BLOCK", 500)
    basis = two_center_basis(n_s=4)
    n = basis.scalar.n
    reduced = gaussian.grid_for_basis(basis, n_radial=48, angular_order=17)
    lab = gaussian.build_grid(basis.scalar.sites, 48, 17,
                              *gaussian.radial_window(basis))
    rng = np.random.default_rng(11)
    phi = rng.normal(size=n) + 1j * rng.normal(size=n)
    for grid, psi in (
            (lab, rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)),
            (reduced, np.kron(phi, gaussian.spin_along(reduced.axis)))):
        ev = gaussian.GridEvaluation(basis, grid)
        c = grid.weights / (1.0 + np.sum(grid.points ** 2, axis=1)) ** 2
        want = psi.conj() @ gaussian.spinor_matrix(
            *ev.weighted_grad_blocks(c)) @ psi
        assert abs(want.imag) <= 1e-12 * abs(want)
        assert c @ ev.sigma_grad_density(psi) == pytest.approx(want.real,
                                                               rel=1e-12)


def test_grid_for_basis_defaults_are_the_solver_defaults():
    basis = two_center_basis(n_s=3)
    cfg = multicenter.GapSolveConfig()
    a = gaussian.grid_for_basis(basis)
    b = gaussian.grid_for_basis(basis, cfg.n_radial, cfg.angular_order)
    assert (a.n_radial, a.angular_order) == (b.n_radial, b.angular_order)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def test_grid_validation():
    grid = gaussian.build_grid([(0, 0, 0)])
    assert (grid.n_radial, grid.angular_order) == (gaussian.N_RADIAL,
                                                   gaussian.ANGULAR_ORDER)
    with pytest.raises(ConfigError):
        gaussian.build_grid([(0, 0, 0)], angular_order=8)
    for n_radial in (1, 0, -3):
        with pytest.raises(ConfigError):
            gaussian.build_grid([(0, 0, 0)], n_radial=n_radial)
    with pytest.raises(ConfigError):
        gaussian.build_grid(np.empty((0, 3)))
    # a reversed window would give negative weights, r_lo = 0 a math
    # domain error
    for r_lo, r_hi in ((9.0, 2e-4), (0.0, 9.0), (-1.0, 9.0), (2e-4, 2e-4),
                       (2e-4, math.inf), (math.nan, 9.0)):
        with pytest.raises(ConfigError):
            gaussian.build_grid([(0, 0, 0)], r_lo=r_lo, r_hi=r_hi)


def test_grid_refuses_centers_closer_than_the_merge_tolerance():
    # 0.25 - 0.3 and -0.05 differ by 1.4e-17: two basis sites, whose grid
    # weights summed to 3.6e81 before the refusal
    prims = [gaussian.GaussianPrimitive((x, 0.0, 0.0), 1.0)
             for x in (0.25 - 0.3, -0.05, 1.0)]
    basis = gaussian.SpinorBasis(gaussian.ScalarBasis(prims))
    assert len(basis.scalar.sites) == 3
    with pytest.raises(ConfigError, match="farther apart"):
        gaussian.grid_for_basis(basis, 48, 17)
    with pytest.raises(ConfigError):
        gaussian.build_grid([(0, 0, 0), (0, 0, 0)])
    gaussian.build_grid([(0, 0, 0), (2 * charges.MERGE_TOL, 0, 0)], 4, 3)


# --- symmetry-reduced grids ------------------------------------------------

@pytest.mark.parametrize("sites,kind,axis", [
    ([(0.2, 0.1, -0.3)], "axial", (0, 0, 1)),
    ([(0, 0, 0), (1, 0, 0), (3, 0, 0)], "axial", (1, 0, 0)),
    ([(0, 0, 0), (0, 0, 0.5)], "axial", (0, 0, 1)),
    ([(0, 0, 0), (1, 0, 0), (0.5, 0.8, 0)], "mirror", (0, 0, 1)),
    ([(0, 0, 0), (1, 0, 0), (0.5, 1e-6, 0)], "mirror", (0, 0, 1)),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], "mirror", (0, 0, 1)),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], "full", None),
])
def test_symmetry_frame_kinds(sites, kind, axis):
    # a third atom 1e-6 off the line already breaks the axial symmetry
    got, frame = gaussian.symmetry_frame(np.array(sorted(sites)))
    assert got == kind
    if axis is None:
        assert frame is None
    else:
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-15)
        assert np.allclose(frame[2], axis, atol=1e-15)


def test_shipped_triangle_keeps_the_lab_azimuths():
    # an edge on +x in z = 0: the mirror grid is the z >= 0 half of the
    # lab grid, node for node, with the weights off the plane doubled
    d = 1.0
    mu = charges.atoms([(0, 0, 0), (d, 0, 0), (0.5 * d, 0.5 * math.sqrt(3) * d,
                                                0)], [0.15] * 3)
    basis = gaussian.default_spinor_basis(mu, n_s=3)
    sites = basis.scalar.sites
    half = gaussian.grid_for_basis(basis, 24, 9)
    lab = gaussian.build_grid(sites, 24, 9, *gaussian.radial_window(basis))
    assert half.kind == "mirror" and np.array_equal(half.axis, [0, 0, 1])
    up = lab.points[:, 2] >= sites[0, 2]
    assert np.array_equal(half.points, lab.points[up])
    on_plane = lab.points[up, 2] == 0.0
    assert np.array_equal(half.weights,
                          np.where(on_plane, 1.0, 2.0) * lab.weights[up])


def _laid_out(name):
    """A molecule placed so that its reduced grid is the lab grid's
    (on z, or in z = 0 with an edge on +x), its basis, and both grids."""
    positions = {"one_atom": [(0, 0, 0)],
                 "pair": [(0, 0, -0.3), (0, 0, 0.7)],
                 "triangle": [(0, 0, 0), (1.1, 0, 0), (0.4, 0.8, 0)]}[name]
    mu = charges.atoms(positions, [0.45 / len(positions)] * len(positions))
    basis = gaussian.default_spinor_basis(mu, n_s=5, alpha0=0.05, beta=3.0)
    reduced = gaussian.grid_for_basis(basis, 32, 11)
    # an axial rule of order o is the azimuth-0 ring of the order 2o + 1 rule
    order = 23 if reduced.kind == "axial" else 11
    lab = gaussian.build_grid(basis.scalar.sites, 32, order,
                              *gaussian.radial_window(basis))
    return mu, basis, reduced, lab


@pytest.mark.parametrize("name", ["one_atom", "pair", "triangle"])
def test_reduced_gram_equals_the_lab_gram(name):
    mu, basis, reduced, lab = _laid_out(name)
    assert reduced.kind == ("mirror" if name == "triangle" else "axial")
    assert np.array_equal(reduced.axis, [0, 0, 1])
    assert reduced.size < lab.size
    grams = []
    for grid in (reduced, lab):
        c = grid.weights / (1.8 + charges.potential_grid(mu, grid.points))
        grams.append(gaussian.GridEvaluation(basis, grid)
                     .weighted_grad_blocks(c))
    (dot_r, cross_r), (dot_l, cross_l) = grams
    tol = 1e-12 * np.max(np.abs(dot_l))
    assert np.max(np.abs(dot_r - dot_l)) <= tol
    # the axis (z) part agrees; the perpendicular ones the reduced grid
    # leaves out are 0 on it and round-off on the lab grid
    assert np.max(np.abs(cross_r[2] - cross_l[2])) <= tol
    for k in (0, 1):
        assert not np.any(cross_r[k])
        assert np.max(np.abs(cross_l[k])) <= tol
