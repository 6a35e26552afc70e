"""3D gap solver: effective operator, cross-check, and flags."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from diraclab import charges, gaussian, hardy, multicenter
from diraclab.errors import ConfigError, NoGapEigenvalueError


def basis_for(mu, **kw):
    return gaussian.default_spinor_basis(mu, **kw)


def weighted_w(lam, basis, mu, grid):
    """W(lam): the spinor gradient Gram weighted by 1/(1 + lam + v)."""
    c = grid.weights / (1.0 + lam + charges.potential_grid(mu, grid.points))
    dot, cross = gaussian.GridEvaluation(basis, grid).weighted_grad_blocks(c)
    return gaussian.spinor_matrix(dot, cross)


def test_assemble_w_free_case_scales_like_grad_gram():
    # with no potential the weight is constant 1/(1+lam)
    mu = charges.atom((0, 0, 0), 0.5)
    basis = basis_for(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis)
    zero_v = charges.ChargeDistribution()  # no charge at all
    for lam in (-0.5, 0.0, 0.7):
        w = weighted_w(lam, basis, zero_v, grid)
        want = (gaussian.spinor_matrix(basis.scalar.grad_dot_matrix())
                / (1.0 + lam))
        assert np.max(np.abs(w - want)) <= 1e-6 * np.max(np.abs(want))


def test_assemble_w_decreases_with_lambda():
    mu = charges.atom((0, 0, 0), 0.5)
    basis = basis_for(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis)
    rng = np.random.default_rng(5)
    g = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    vals = []
    for lam in (-0.9, -0.3, 0.2, 0.8):
        w = weighted_w(lam, basis, mu, grid)
        vals.append(float((g.conj() @ w @ g).real))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    engine = multicenter._GapEngine(basis, mu, grid)
    with pytest.raises(ValueError):
        engine.mu_min(-1.0)


def test_assemble_w_grid_self_convergence():
    mu = charges.atom((0, 0, 0), 0.5)
    basis = basis_for(mu, n_s=8)
    coarse = gaussian.grid_for_basis(basis, n_radial=96, angular_order=29)
    fine = gaussian.grid_for_basis(basis, n_radial=192, angular_order=35)
    w_c = weighted_w(0.3, basis, mu, coarse)
    w_f = weighted_w(0.3, basis, mu, fine)
    scale = np.max(np.abs(w_f))
    assert np.max(np.abs(w_c - w_f)) <= 1e-7 * scale


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.7])
def test_single_center_matches_closed_form(nu):
    mu = charges.atom((0, 0, 0), nu)
    res = multicenter.solve_gap(basis_for(mu), mu)
    assert res.lambda1 == pytest.approx(oracles.point_dirac_lambda(nu),
                                        abs=5e-3)
    assert res.converged and not res.below_gap
    assert res.flags == ()


def test_translation_invariance():
    mu0 = charges.atom((0.0, 0.0, 0.0), 0.5)
    mu1 = charges.atom((0.7, -0.3, 1.1), 0.5)
    l0 = multicenter.solve_gap(basis_for(mu0), mu0).lambda1
    l1 = multicenter.solve_gap(basis_for(mu1), mu1).lambda1
    assert abs(l0 - l1) <= 1e-8


@st.composite
def small_molecules(draw, sizes=(2, 3)):
    """2-3 atoms (or as many as `sizes` allows) of strength 0.1-0.3, at
    least 0.3 apart, within 1.5."""
    coord = st.floats(min_value=-1.5, max_value=1.5)
    atoms = draw(st.lists(st.tuples(st.tuples(coord, coord, coord),
                                    st.floats(min_value=0.1, max_value=0.3)),
                          min_size=sizes[0], max_size=sizes[-1]))
    xyz = np.array([pos for pos, _ in atoms])
    assume(min(np.linalg.norm(a - b) for i, a in enumerate(xyz)
               for b in xyz[i + 1:]) >= 0.3)
    return charges.atoms([pos for pos, _ in atoms], [t for _, t in atoms])


def small_lambda1(mu):
    """lambda1 with n_s = 6 on a 48 x 17 grid."""
    basis = basis_for(mu, n_s=6)
    return multicenter.solve_gap(
        basis, mu, gaussian.grid_for_basis(basis, 48, 17)).lambda1


INVARIANCE = settings(max_examples=6, derandomize=True, deadline=None)


@given(mu=small_molecules(),
       offset=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3))
@INVARIANCE
def test_translation_moves_lambda1_by_roundoff_only(mu, offset):
    # basis and grid move with the atoms, so only roundoff changes
    moved = charges.pushforward(mu, np.eye(3), 1.0, offset)
    assert abs(small_lambda1(moved) - small_lambda1(mu)) <= 1e-12


def three_solver_values(mu):
    """lambda1, the Hardy eta_min and the Schrodinger energy with n_s = 6,
    the first two on a 48 x 17 grid."""
    basis = basis_for(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis, 48, 17)
    return (multicenter.solve_gap(basis, mu, grid).lambda1,
            hardy.hardy_quotient_min(basis, mu, grid).eta_min,
            multicenter.schrodinger_ground_gaussian(basis, mu)[0])


@given(mu=small_molecules(), order=st.permutations(range(3)))
@INVARIANCE
def test_permutation_leaves_lambda1_unchanged(mu, order):
    # the charge stores its atoms in one canonical order, so every 3D
    # solver gives the same bits for any listing of the atoms
    order = [i for i in order if i < len(mu.points)]
    assume(order != sorted(order))
    listed = charges.ChargeDistribution(points=[mu.points[i] for i in order])
    assert three_solver_values(listed) == three_solver_values(mu)


def rotated(mu, axis, angle):
    a = np.asarray(axis)
    assume(np.linalg.norm(a) >= 0.1)
    k = np.cross(np.eye(3), a / np.linalg.norm(a))
    rot = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * k @ k
    return charges.pushforward(mu, rot, 1.0)


ROTATIONS = {"axis": st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3),
             "angle": st.floats(min_value=0.0, max_value=2.0 * math.pi)}


@given(mu=small_molecules(sizes=(2,)), **ROTATIONS)
@INVARIANCE
def test_rotation_moves_pair_lambda1_by_roundoff_only(mu, axis, angle):
    # A pair's axial grid turns with it, and its one azimuth may sit
    # anywhere around the axis.  In three runs of 140 random draws
    # lambda1 moved by at most 3.1e-15; the bound leaves 30x margin.
    turned = rotated(mu, axis, angle)
    assert abs(small_lambda1(turned) - small_lambda1(mu)) <= 1e-13


# apex of 50 degrees (strength 0.2) at the origin: the two legs tie for
# the longest edge
HALF_APEX = math.radians(25.0)
ISOSCELES = charges.atoms(
    [(0.0, 0.0, 0.0), (math.cos(HALF_APEX), math.sin(HALF_APEX), 0.0),
     (math.cos(HALF_APEX), -math.sin(HALF_APEX), 0.0)], [0.2, 0.1, 0.15])


@given(mu=small_molecules(sizes=(3,)), **ROTATIONS)
@example(mu=ISOSCELES, axis=(1.0, 1.0, 1.0), angle=1.0)
@INVARIANCE
def test_rotation_moves_triangle_lambda1_by_roundoff_only(mu, axis, angle):
    # A triangle's mirror grid turns with its plane and lays azimuth 0
    # along its longest edge, or along the bisector of its two legs where
    # those tie for longest (the isosceles example, whose lambda1 moved by
    # 9.2e-8 when the tie went by site order), so the quadrature error of
    # this coarse 48 x 17 grid turns with the triangle and cancels:
    # lambda1 moves by round-off only.  In three runs of 300 random draws
    # of 2-3 atoms (384 triangles) the move was at most 2.9e-15; the bound
    # leaves 30x margin, where the old in-plane azimuth needed 2e-4.
    turned = rotated(mu, axis, angle)
    assert abs(small_lambda1(turned) - small_lambda1(mu)) <= 1e-13


@pytest.mark.parametrize("name", ["one_atom", "pair", "triangle"])
def test_reduced_solve_equals_the_lab_solve(name):
    # the n x n block of the reduced grid against the 2n spinor pencil of
    # the lab grid, for a molecule laid on z or in z = 0
    mu = {"one_atom": charges.atom((0, 0, 0), 0.4),
          "pair": charges.atoms([(0, 0, -0.3), (0, 0, 0.7)], [0.2, 0.2]),
          "triangle": charges.atoms([(0, 0, 0), (1.1, 0, 0), (0.4, 0.8, 0)],
                                    [0.15] * 3)}[name]
    basis = basis_for(mu, n_s=6)
    reduced = gaussian.grid_for_basis(basis, 32, 11)
    order = 23 if reduced.kind == "axial" else 11
    lab = gaussian.build_grid(basis.scalar.sites, 32, order,
                              *gaussian.radial_window(basis))
    assert lab.kind == "full"
    got = multicenter.solve_gap(basis, mu, reduced)
    want = multicenter.solve_gap(basis, mu, lab)
    assert got.converged and want.converged
    assert abs(got.lambda1 - want.lambda1) <= 1e-12
    # the Hardy pencil and the 4-spinor matrix split the same way; the
    # reduced cross-check counts each Kramers pair of the lab one once
    c_got = hardy.hardy_quotient_min(basis, mu, reduced).c_mu
    c_want = hardy.hardy_quotient_min(basis, mu, lab).c_mu
    assert abs(c_got - c_want) <= 1e-12 * c_want
    evs = multicenter.rkb_cross_check(basis, mu, reduced)
    lab_evs = multicenter.rkb_cross_check(basis, mu, lab)
    assert len(evs) > 0 and len(lab_evs) == 2 * len(evs)
    assert np.max(np.abs(evs - lab_evs[::2])) <= 1e-12
    # psi = phi (x) chi solves the 2n pencil of the reduced grid as well
    engine = multicenter._GapEngine(basis, mu, reduced)
    mu_min, psi = engine.mu_min(got.lambda1)
    s = gaussian.spinor_matrix(basis.scalar.overlap_matrix())
    a = weighted_w(got.lambda1, basis, mu, reduced) + s + gaussian.spinor_matrix(
        basis.scalar.potential_matrix(mu))
    assert np.linalg.norm(a @ psi - mu_min * (s @ psi)) <= 1e-9 * np.linalg.norm(
        a @ psi)


def test_solve_trace_is_monotone_and_short():
    mu = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.3, 0.3])
    res = multicenter.solve_gap(basis_for(mu, n_s=10), mu)
    samples = sorted(res.trace)
    for (l1, h1), (l2, h2) in zip(samples, samples[1:]):
        assert h1 > h2
    assert res.iterations <= 40
    for w1, w2 in zip(res.widths, res.widths[1:]):
        assert w2 <= 0.5 * w1 + 1e-15


@pytest.mark.parametrize("m", [2, 3, 4])
def test_slope_matches_central_differences(m):
    # atoms off the coordinate planes: a reflection symmetry through one
    # would hide a wrong sign in the sigma_y or sigma_x terms
    mu = charges.atoms([(0, 0, 0), (0.9, 0.3, -0.4), (0.2, 0.7, 0.5),
                        (-0.5, 0.4, -0.6)][:m], [0.45 / m] * m)
    basis = basis_for(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis, 48, 17)
    assert grid.kind == {2: "axial", 3: "mirror", 4: "full"}[m]
    engine = multicenter._GapEngine(basis, mu, grid)
    eps = 1e-4
    for lam in (0.3, 0.9):
        diff = (engine.mu_min(lam + eps)[0]
                - engine.mu_min(lam - eps)[0]) / (2 * eps)
        slope = engine.slope(lam, engine.mu_min(lam)[1])
        assert slope == pytest.approx(diff, rel=1e-6)
        assert slope < 0.0


def test_two_atom_solve_builds_at_most_three_grams(monkeypatch):
    calls = []
    gram = gaussian.GridEvaluation.weighted_grad_blocks

    def counted(self, *args, **kwargs):
        calls.append(args)
        return gram(self, *args, **kwargs)

    monkeypatch.setattr(gaussian.GridEvaluation, "weighted_grad_blocks",
                        counted)
    mu = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.2, 0.2])
    basis = basis_for(mu, n_s=8)
    res = multicenter.solve_gap(basis, mu,
                                gaussian.grid_for_basis(basis, 64, 17))
    assert res.converged and res.vector is not None
    # one Gram per sample; the eigenvector of lambda1 needs none of its own
    assert len(calls) == res.iterations <= 3


def test_eigenvector_satisfies_pencil_equation():
    mu = charges.atom((0, 0, 0), 0.5)
    basis = basis_for(mu)
    grid = gaussian.grid_for_basis(basis)
    res = multicenter.solve_gap(basis, mu, grid)
    s = gaussian.spinor_matrix(basis.scalar.overlap_matrix())
    m_v = gaussian.spinor_matrix(basis.scalar.potential_matrix(mu))
    a = weighted_w(res.lambda1, basis, mu, grid) + s + m_v
    c = res.vector
    r = a @ c - res.lambda1 * (s @ c)
    # the Rayleigh residual inherits the root residual, not machine eps
    denom = float(np.real(c.conj() @ s @ c))
    assert np.linalg.norm(r) / denom <= 1e-6


def test_far_pair_dominated_by_heavier_atom():
    mu = charges.atoms([(0, 0, 0), (50, 0, 0)], [0.9, 0.1])
    res = multicenter.solve_gap(basis_for(mu), mu)
    assert res.lambda1 == pytest.approx(math.sqrt(1 - 0.81), abs=1e-2)


def test_far_equal_pair_matches_isolated_atom():
    mu = charges.atoms([(0, 0, 0), (50, 0, 0)], [0.25, 0.25])
    res = multicenter.solve_gap(basis_for(mu), mu)
    assert res.lambda1 == pytest.approx(math.sqrt(1 - 0.0625), abs=5e-3)


def test_merged_pair_approaches_combined_charge_from_above():
    mu = charges.atoms([(0, 0, 0), (0.05, 0, 0)], [0.2, 0.2])
    res = multicenter.solve_gap(basis_for(mu), mu)
    merged = math.sqrt(1 - 0.16)
    assert res.lambda1 == pytest.approx(merged, abs=1e-2)
    assert res.lambda1 >= merged - 1e-6


def test_cross_check_agreement_single_center():
    for nu in (0.3, 0.5):
        mu = charges.atom((0, 0, 0), nu)
        cfg = multicenter.GapSolveConfig(crosscheck=True)
        res = multicenter.solve_gap(basis_for(mu), mu, config=cfg)
        assert res.crosscheck_lambda1 is not None
        assert res.crosscheck_gap <= 1e-3
        assert multicenter.POLLUTION_FLAG not in res.flags


def test_cross_check_agreement_two_center():
    mu = charges.atoms([(0, 0, 0), (2, 0, 0)], [0.25, 0.25])
    cfg = multicenter.GapSolveConfig(crosscheck=True)
    res = multicenter.solve_gap(basis_for(mu), mu, config=cfg)
    assert res.crosscheck_gap <= 1e-3


def test_cross_check_reuses_the_solve_tabulation(monkeypatch):
    built = []

    class CountingEvaluation(gaussian.GridEvaluation):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(multicenter, "GridEvaluation", CountingEvaluation)
    mu = charges.atom((0, 0, 0), 0.3)
    basis = basis_for(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis, 48, 17)
    cfg = multicenter.GapSolveConfig(crosscheck=True)
    res = multicenter.solve_gap(basis, mu, grid, cfg)
    assert len(built) == 1
    # a fresh tabulation gives the same cross-check value, bit for bit
    assert res.crosscheck_lambda1 == float(
        multicenter.rkb_cross_check(basis, mu, grid)[0])


def test_cross_check_rejects_heavy_total():
    mu = charges.atoms([(0, 0, 0), (2, 0, 0)], [0.5, 0.5])
    with pytest.raises(ConfigError):
        multicenter.rkb_cross_check(basis_for(mu, n_s=6), mu)


def test_rkb_free_basis_has_empty_gap():
    mu = charges.atom((0, 0, 0), 0.5)
    basis = basis_for(mu, n_s=6)
    evs = multicenter.rkb_cross_check(basis, charges.ChargeDistribution())
    assert len(evs) == 0  # free operator: nothing inside (-1, 1)


def test_near_critical_atom_is_flagged():
    mu = charges.atom((0, 0, 0), 0.95)
    res = multicenter.solve_gap(basis_for(mu), mu)
    assert multicenter.ACCURACY_FLAG in res.flags
    # still a genuine solve, just on thinner numerical ice
    assert res.lambda1 == pytest.approx(math.sqrt(1 - 0.95 ** 2), abs=5e-2)


def test_no_root_when_bracket_excludes_eigenvalue():
    # a weak atom in a small, compact basis: mu_min(1 - 1e-12) stays above
    # 1 - 1e-12, so no eigenvalue has entered the gap
    mu = charges.atom((0, 0, 0), 0.05)
    with pytest.raises(NoGapEigenvalueError):
        multicenter.solve_gap(basis_for(mu, n_s=4, alpha0=2.0), mu)


def test_below_gap_status_when_root_under_bracket():
    # two strong atoms almost merged (total 2 > 1) dive below the gap
    mu = charges.atoms([(0, 0, 0), (0.05, 0, 0)], [1.0, 1.0])
    res = multicenter.solve_gap(basis_for(mu, n_s=6), mu)
    assert res.below_gap and not res.converged
    assert res.vector is None


def test_layered_charge_is_rejected():
    mu = charges.shell(0.5, 1.0)
    basis = basis_for(charges.atom((0, 0, 0), 0.5), n_s=4)
    with pytest.raises(ConfigError):
        multicenter.solve_gap(basis, mu)


def test_config_validation():
    with pytest.raises(ConfigError):
        multicenter.GapSolveConfig(lam_tol=0.0)
    with pytest.raises(ConfigError):
        multicenter.GapSolveConfig(max_iterations=2)
    # grid orders are checked where the grid is built
    mu = charges.atom((0, 0, 0), 0.5)
    basis = basis_for(mu, n_s=4)
    for grid in ({"n_radial": 1}, {"n_radial": 0}, {"n_radial": -3},
                 {"angular_order": 8}, {"angular_order": 0},
                 {"angular_order": -3}):
        with pytest.raises(ConfigError):
            multicenter.solve_gap(basis, mu,
                                  config=multicenter.GapSolveConfig(**grid))


def test_result_json_fields():
    mu = charges.atom((0, 0, 0), 0.5)
    out = multicenter.solve_gap(basis_for(mu, n_s=6), mu).to_json()
    assert set(out) == {"lambda1", "residual", "iterations", "below_gap",
                        "crosscheck_lambda1", "flags", "converged"}
    assert out["converged"] is True
    assert out["crosscheck_lambda1"] is None
    assert out["flags"] == []


def test_schrodinger_gaussian_point_and_unbound():
    mu = charges.atom((0, 0, 0), 1.0)
    basis = basis_for(mu)
    energy, bound = multicenter.schrodinger_ground_gaussian(basis, mu)
    assert bound
    assert energy == pytest.approx(oracles.hydrogenic_energy(1.0), abs=1e-4)
    # no charge at all: nothing to bind
    energy, bound = multicenter.schrodinger_ground_gaussian(
        basis, charges.ChargeDistribution())
    assert not bound and energy == 0.0


def test_schrodinger_gaussian_two_center_bound():
    mu = charges.atoms([(0, 0, 0), (2, 0, 0)], [0.5, 0.5])
    energy, bound = multicenter.schrodinger_ground_gaussian(basis_for(mu), mu)
    assert bound
    assert -0.5 <= energy < 0.0
