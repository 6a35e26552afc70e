"""3D gap solver: effective operator, cross-check, and flags."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_molecules
from diraclab import (_rootfind, charges, configio, experiments, gaussian,
                      hardy, multicenter, radial)
from diraclab.errors import ConfigError, NoGapEigenvalueError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    engine = multicenter.GapProblem(basis, mu, grid)
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


def raised(mu, k, extra):
    """mu with the strength of its atom k (mod the atom count) raised by
    extra."""
    k %= len(mu.points)
    return charges.atoms([p.position for p in mu.points],
                         [p.strength + extra * (i == k)
                          for i, p in enumerate(mu.points)])


@given(mu=small_molecules(), k=st.integers(min_value=0, max_value=2),
       extra=st.floats(min_value=0.005, max_value=0.1))
@INVARIANCE
def test_raising_a_charge_never_raises_lambda1(mu, k, extra):
    # On one basis and grid a heavier atom lowers both the weight
    # 1/(1 + lam + v) of the gradient Gram and S + M_V, so mu_min(lam)
    # and its root can only fall.  As h = mu_min - lam has slope <= -1,
    # each lambda1 lies within its residual of its root.
    basis = basis_for(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis, 48, 17)
    light, heavy = (multicenter.solve_gap(basis, nu, grid)
                    for nu in (mu, raised(mu, k, extra)))
    assert light.converged and heavy.converged
    slack = multicenter.GapSolveConfig().lam_tol + light.residual \
        + heavy.residual
    assert heavy.lambda1 <= light.lambda1 + slack


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
    engine = multicenter.GapProblem(basis, mu, reduced)
    evs = multicenter.rkb_cross_check(engine)
    lab_evs = multicenter.rkb_cross_check(
        multicenter.GapProblem(basis, mu, lab))
    assert len(evs) > 0 and len(lab_evs) == 2 * len(evs)
    assert np.max(np.abs(evs - lab_evs[::2])) <= 1e-12
    # psi = phi (x) chi solves the 2n pencil of the reduced grid as well
    mu_min, psi = engine.mu_min(got.lambda1)
    s = gaussian.spinor_matrix(basis.scalar.overlap_matrix())
    a = weighted_w(got.lambda1, basis, mu, reduced) + s + gaussian.spinor_matrix(
        basis.scalar.potential_matrix(mu))
    assert np.linalg.norm(a @ psi - mu_min * (s @ psi)) <= 1e-9 * np.linalg.norm(
        a @ psi)


def test_reduced_grid_refuses_an_atom_or_site_off_its_centers():
    # an atom off the axis of the pair's grid breaks its symmetry: solved
    # on it anyway (n_s = 10, default grid) lambda1 read 0.825366 against
    # 0.829459 on the full grid of the same centers, and Hardy c_mu
    # 1.0173 against 1.2108
    pair = charges.atoms([(0, 0, 0), (0, 0, 1)], [0.2, 0.2])
    mu = charges.atoms([(0, 0, 0), (0, 0, 1), (0.8, 0, 0.5)], [0.2] * 3)
    basis = basis_for(pair, n_s=4)
    axial = gaussian.grid_for_basis(basis, 24, 9)
    assert axial.kind == "axial"
    for solve in (multicenter.solve_gap, hardy.hardy_quotient_min):
        with pytest.raises(ConfigError, match="atom at .* axial grid"):
            solve(basis, mu, axial)
        with pytest.raises(ConfigError, match="basis site at .* axial"):
            solve(basis_for(mu, n_s=4), pair, axial)
    # with the atom a center of a mirror grid, the symmetry holds
    sites = [p.position for p in mu.points]
    kind, frame = gaussian.symmetry_frame(sites)
    mirror = gaussian.build_grid(sites, 24, 9, *gaussian.radial_window(basis),
                                 kind=kind, frame=frame)
    assert mirror.kind == "mirror"
    assert multicenter.solve_gap(basis, mu, mirror).converged
    assert hardy.hardy_quotient_min(basis, mu, mirror).c_mu > 0.0


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
    engine = multicenter.GapProblem(basis, mu, grid)
    eps = 1e-4
    for lam in (0.3, 0.9):
        diff = (engine.mu_min(lam + eps)[0]
                - engine.mu_min(lam - eps)[0]) / (2 * eps)
        slope = engine.slope(lam, engine.mu_min(lam)[1])
        assert slope == pytest.approx(diff, rel=1e-6)
        assert slope < 0.0


def test_two_atom_solve_builds_at_most_two_grams(monkeypatch):
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
    assert len(calls) == res.iterations <= 2


def shipped_triangle():
    """The d = 1 row of the shipped conjecture_m3 scan: its charge, basis
    and grid."""
    cfg = experiments.config_from_doc(
        configio.load_config(CONFIG_DIR / "conjecture_m3.cfg"))
    mu = dict(experiments._scan_family(cfg))[1.0]
    basis = basis_for(mu, **cfg.basis)
    return mu, basis, gaussian.grid_for_basis(basis, cfg.gap.n_radial,
                                              cfg.gap.angular_order)


def test_shipped_triangle_row_takes_two_grams_and_one_slope(monkeypatch):
    calls = {"gram": 0, "slope": 0}
    gram = gaussian.GridEvaluation.weighted_grad_blocks
    slope = multicenter.GapProblem.slope
    start = multicenter.GapProblem.start

    def counted_gram(self, *args):
        calls["gram"] += 1
        return gram(self, *args)

    def counted_slope(self, *args):
        calls["slope"] += 1
        return slope(self, *args)

    def gramless_start(self):
        before = calls["gram"]
        out = start(self)
        assert calls["gram"] == before
        return out

    monkeypatch.setattr(gaussian.GridEvaluation, "weighted_grad_blocks",
                        counted_gram)
    monkeypatch.setattr(multicenter.GapProblem, "slope", counted_slope)
    monkeypatch.setattr(multicenter.GapProblem, "start", gramless_start)
    mu, basis, grid = shipped_triangle()
    res = multicenter.solve_gap(basis, mu, grid)
    assert res.converged
    assert res.trace[0][0] != mu.merged_lambda
    assert calls == {"gram": 2, "slope": 1} and res.iterations == 2


def test_start_is_the_root_of_the_ground_vector_quotient():
    # f(lam) = phi^T (S + M_V) phi + psi^+ W(lam) psi with psi = phi (x)
    # chi, here from the spinor Gram rather than the sigma.grad density
    mu, basis, grid = shipped_triangle()
    problem = multicenter.GapProblem(basis, mu, grid)
    start = problem.start()
    assert type(start) is float
    x = basis.orthogonalizer
    phi = x @ np.linalg.eigh(multicenter._schrodinger_matrix(
        basis, basis.scalar.potential_matrix(mu)))[1][:, 0]
    psi = np.kron(phi, problem.spin)
    f = phi @ problem.bstat @ phi + (
        psi.conj() @ weighted_w(start, basis, mu, grid) @ psi).real
    assert f == pytest.approx(start, abs=1e-12)
    # it misses lambda1 by about 5e-4, where the merged value misses it
    # by 8e-3
    lambda1 = multicenter.solve_gap(basis, mu, grid).lambda1
    assert 0.0 < start - lambda1 < 1e-3 < lambda1 - mu.merged_lambda


@pytest.mark.parametrize("kind,positions", [
    ("axial", [(0, 0, -0.3), (0, 0, 0.7)]),
    ("mirror", [(0, 0, 0), (1.1, 0, 0), (0.4, 0.8, 0)]),
    ("full", [(0.1, -0.2, 0.3), (1.2, 0.5, -0.4), (-0.3, 0.9, 0.7),
              (0.4, 0.3, -0.9)])])
def test_scalar_start_density_is_the_spinor_density(kind, positions,
                                                    monkeypatch):
    # |grad phi|^2 from one row per site against |sigma.grad (phi chi)|^2
    # from four, for the start's ground vector and a random real phi
    mu = charges.atoms(positions, [0.15] * len(positions))
    basis = basis_for(mu, n_s=6)
    problem = multicenter.GapProblem(basis, mu,
                                     gaussian.grid_for_basis(basis, 32, 11))
    assert problem.grid.kind == kind
    ev = problem.evaluation
    chi = np.array([1.0, 0.0]) if problem.spin is None else problem.spin
    ground = basis.orthogonalizer @ np.linalg.eigh(
        multicenter._schrodinger_matrix(basis, problem.potential))[1][:, 0]
    for phi in (ground, np.random.default_rng(17).normal(size=len(ground))):
        got = ev.grad_density(phi)
        want = ev.sigma_grad_density(np.kron(phi, chi))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    start = problem.start()
    monkeypatch.setattr(ev, "grad_density", lambda phi: (
        ev.sigma_grad_density(np.kron(phi, chi))))
    assert abs(problem.start() - start) <= 1e-13


@given(mu=small_molecules())
@settings(max_examples=12, derandomize=True, deadline=None)
def test_start_is_an_upper_end_of_the_bracket(mu):
    # the pencil's quotient at phi (x) chi bounds mu_min from above, so
    # its root, the start, lies on or above lambda1 and h(start) <= 0
    basis = basis_for(mu, n_s=6)
    res = multicenter.solve_gap(basis, mu,
                                gaussian.grid_for_basis(basis, 48, 17))
    (start, h_start), lambda1 = res.trace[0], res.lambda1
    assert start != mu.merged_lambda
    assert start >= lambda1 - 1e-12
    assert h_start <= 1e-12
    assert res.converged and res.iterations <= 3


@pytest.mark.parametrize("mu", [
    charges.atom((0.3, -0.2, 1.1), 0.4),
    charges.atoms([(0, 0, 0), (0, 0, 0)], [0.3, 0.35])],
    ids=["atom", "coincident"])
def test_single_site_starts_at_the_merged_value(mu):
    # sqrt(1 - nu^2) is exact for one site; the solve is the root find
    # started there, sample for sample
    basis = basis_for(mu, n_s=8)
    grid = gaussian.grid_for_basis(basis, 64, 17)
    res = multicenter.solve_gap(basis, mu, grid)
    assert res.trace[0][0] == mu.merged_lambda
    problem = multicenter.GapProblem(basis, mu, grid)
    want = _rootfind.solve_monotone_gap(
        problem.mu_min, *multicenter._BRACKET,
        config=multicenter.GapSolveConfig(), start=mu.merged_lambda,
        slope=problem.slope)
    assert res.trace == want.trace and res.lambda1 == want.lambda1


def test_start_outside_the_bracket_falls_back_to_the_merged_value(
        monkeypatch):
    mu = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.2, 0.2])
    basis = basis_for(mu, n_s=8)
    problem = multicenter.GapProblem(basis, mu,
                                     gaussian.grid_for_basis(basis, 64, 17))
    start = problem.start()
    assert start != mu.merged_lambda
    monkeypatch.setattr(multicenter, "_BRACKET", (-1.0 + 1e-6, start))
    assert problem.start() == mu.merged_lambda


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
    # a fresh problem gives the same cross-check value, bit for bit
    assert res.crosscheck_lambda1 == float(
        multicenter.rkb_cross_check(multicenter.GapProblem(basis, mu, grid))[0])


def test_cross_check_integrates_on_the_evaluation_grid():
    # the weights and potential come from the problem's own grid, not
    # from the default 96 x 29 one
    mu = charges.atoms([(0, 0, 0), (1.5, 0, 0)], [0.25, 0.25])
    basis = basis_for(mu, n_s=6)
    grid = gaussian.grid_for_basis(basis, 48, 17)
    cfg = multicenter.GapSolveConfig(crosscheck=True)
    res = multicenter.solve_gap(basis, mu, grid, cfg)
    problem = multicenter.GapProblem(basis, mu, grid)
    assert res.crosscheck_lambda1 == float(
        multicenter.rkb_cross_check(problem)[0])


def test_cross_check_rejects_heavy_total():
    mu = charges.atoms([(0, 0, 0), (2, 0, 0)], [0.5, 0.5])
    basis = basis_for(mu, n_s=6)
    problem = multicenter.GapProblem(basis, mu, gaussian.grid_for_basis(
        basis, 32, 11))
    with pytest.raises(ConfigError):
        multicenter.rkb_cross_check(problem)


def test_solve_refuses_a_heavy_cross_check_before_the_root_find(
        monkeypatch):
    # the refusal comes before any weighted Gram is built
    calls = []
    mu_min = multicenter.GapProblem.mu_min
    monkeypatch.setattr(multicenter.GapProblem, "mu_min",
                        lambda self, lam: calls.append(lam)
                        or mu_min(self, lam))
    mu = charges.atoms([(0, 0, 0), (2, 0, 0)], [0.5, 0.5])
    cfg = multicenter.GapSolveConfig(crosscheck=True)
    with pytest.raises(ConfigError, match="cross-check"):
        multicenter.solve_gap(basis_for(mu, n_s=6), mu, config=cfg)
    assert calls == []


def test_rkb_free_basis_has_empty_gap():
    mu = charges.atom((0, 0, 0), 0.5)
    basis = basis_for(mu, n_s=6)
    problem = multicenter.GapProblem(basis, charges.ChargeDistribution(),
                                     gaussian.grid_for_basis(basis))
    evs = multicenter.rkb_cross_check(problem)
    assert len(evs) == 0  # free operator: nothing inside (-1, 1)


def test_near_critical_atom_is_flagged():
    mu = charges.atom((0, 0, 0), 0.95)
    res = multicenter.solve_gap(basis_for(mu), mu)
    assert multicenter.ACCURACY_FLAG in res.flags
    # still a genuine solve, just on thinner numerical ice
    assert res.lambda1 == pytest.approx(math.sqrt(1 - 0.95 ** 2), abs=5e-2)


def test_coincident_atoms_are_flagged_by_their_summed_strength():
    # 0.5 + 0.45 at one point is the atom 0.95, whose lambda1 the default
    # basis misses by more than the conjecture sweep's 5e-3 budget
    mu = charges.atoms([(0, 0, 0)] * 2, [0.5, 0.45])
    basis = basis_for(mu, n_s=6)
    res = multicenter.solve_gap(basis, mu,
                                gaussian.grid_for_basis(basis, 32, 11))
    assert multicenter.ACCURACY_FLAG in res.flags
    light = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.5, 0.45])
    basis = basis_for(light, n_s=6)
    res = multicenter.solve_gap(basis, light,
                                gaussian.grid_for_basis(basis, 32, 11))
    assert multicenter.ACCURACY_FLAG not in res.flags


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
    # no charge at all: nothing to bind; the radial solver's result type
    # and unbound rule report it
    unbound = multicenter.schrodinger_ground_gaussian(
        basis, charges.ChargeDistribution())
    assert isinstance(unbound, radial.SchrodingerResult)
    assert unbound == radial.SchrodingerResult.from_energy(0.0)
    assert not unbound.bound and unbound.energy == 0.0


def test_schrodinger_gaussian_two_center_bound():
    mu = charges.atoms([(0, 0, 0), (2, 0, 0)], [0.5, 0.5])
    energy, bound = multicenter.schrodinger_ground_gaussian(basis_for(mu), mu)
    assert bound
    assert -0.5 <= energy < 0.0
