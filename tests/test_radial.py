"""Radial gap solver and nonrelativistic comparison integrator."""
import functools
import importlib.util
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from diraclab import charges, radial
from diraclab.configio import load_config
from diraclab.errors import (ConfigError, NoGapEigenvalueError,
                             UncertifiedEigenvalueError)

SQ75 = math.sqrt(0.75)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def point(nu):
    return charges.atom((0.0, 0.0, 0.0), nu)


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
def test_point_charge_matches_closed_form(nu):
    res = radial.lowest_gap_eigenvalue_radial(point(nu))
    assert res.lambda1 == pytest.approx(oracles.point_dirac_lambda(nu),
                                        abs=1e-6)
    assert res.converged and not res.below_gap
    assert res.kappa == -1


def test_point_charge_near_critical():
    res = radial.lowest_gap_eigenvalue_radial(point(0.99))
    assert res.lambda1 == pytest.approx(oracles.point_dirac_lambda(0.99),
                                        abs=1e-4)


def test_point_charge_critical_needs_finer_grid():
    # at nu = 1 the eigenfunction barely decays at the origin; the
    # default window leaves a visible cut, a tighter one reaches 2e-3
    grid = radial.RadialGrid(1e-8, 100.0, 8000)
    res = radial.lowest_gap_eigenvalue_radial(point(1.0), grid=grid)
    assert res.lambda1 == pytest.approx(0.0, abs=2e-3)
    assert res.converged and not res.below_gap


@pytest.mark.parametrize("n", [7996, 7998, 8000, 8002, 8004, 8010])
def test_point_charge_critical_converges_through_noise(n):
    # h is noisiest near this root (it scatters by about 4e-14); Newton
    # steps converge within the radial residual_tol on every nearby grid
    grid = radial.RadialGrid(1e-8, 100.0, n)
    res = radial.lowest_gap_eigenvalue_radial(point(1.0), grid=grid)
    assert res.converged and res.residual <= 1e-11
    assert res.iterations <= 4


def test_free_charge_has_no_gap_eigenvalue():
    # the start sqrt(1 - 0^2) = 1 is the upper end of the bracket, so it
    # is ignored and both ends are sampled
    with pytest.raises(NoGapEigenvalueError):
        radial.lowest_gap_eigenvalue_radial(charges.ChargeDistribution())


# small, mildly graded grid on which a dense generalized eigensolve is
# accurate to roundoff
SMALL = radial.RadialGrid(1e-3, 50.0, 200)
SLICE_CHARGES = {"free": charges.ChargeDistribution(), "nu=0.5": point(0.5),
                 "nu=0.99": point(0.99), "shell": charges.shell(0.5, 1.0)}


def band_to_dense(ab):
    """The symmetric matrix whose (5, n) upper band storage is ab."""
    dense = np.diag(ab[4])
    for k in range(1, 5):
        dense += np.diag(ab[4 - k, k:], k) + np.diag(ab[4 - k, k:], -k)
    return dense


def table_to_dense(table):
    """The n x n matrix D with D[j, j + o] = table[o + 3, j]."""
    n = table.shape[1]
    dense = np.zeros((n, n))
    for o in range(-3, 4):
        j = np.arange(max(0, -o), min(n, n - o))
        dense[j, j + o] = table[o + 3, j]
    return dense


def sliced_pencils(mu, channel):
    """(pencil, its sliced lowest eigenvalue) for a Dirac channel kappa at
    four lam, or for the Schroedinger pencil seeded at -nu^2/2 as
    schrodinger_ground_radial seeds it; each pencil is the band, the mass
    diagonal and the energy that _pencil returns."""
    if channel == "schrodinger":
        pencil = radial._schrodinger_pencil(
            radial._ChannelProblem(mu, -1, SMALL))
        return [(pencil,
                 radial._lowest(*pencil, -0.5 * mu.total_charge ** 2)[0])]
    prob = radial._ChannelProblem(mu, channel, SMALL)
    return [(prob.pencil(lam), prob.mu_min(lam)[0])
            for lam in (-1.0 + 1e-9, 0.0, 0.9, 1.0)]


@pytest.mark.parametrize("name", sorted(SLICE_CHARGES))
@pytest.mark.parametrize("kappa", [-2, -1, 1, 2, "schrodinger"])
def test_mu_min_is_lowest_dense_eigenvalue(name, kappa):
    for (B, mdiag, _), lowest in sliced_pencils(SLICE_CHARGES[name], kappa):
        dense = sla.eigh(band_to_dense(B), np.diag(mdiag),
                         eigvals_only=True)
        assert lowest == pytest.approx(dense[0], rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("name", ["nu=0.5", "shell"])
@pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
def test_band_pencil_matches_dense_product(name, kappa):
    # the band assembly against A^T diag(c) A built densely from the one
    # stencil source, plus the diagonal of the mass and potential terms
    prob = radial._ChannelProblem(SLICE_CHARGES[name], kappa, SMALL)
    lam = 0.3
    n = SMALL.n
    A = table_to_dense(radial.derivative_matrix(n, SMALL.h)) \
        + kappa * np.eye(n)
    A = A[:, :-1]
    c = SMALL.w / (SMALL.r * (1.0 + lam + prob.vpot))
    bdiag = prob.mass[:-1] * (1.0 - prob.vpot[:-1])
    bdiag[0] += prob.stub_terms(lam)[1]
    dense = A.T @ np.diag(c) @ A + np.diag(bdiag)
    ab, _, _ = prob.pencil(lam)
    np.testing.assert_allclose(band_to_dense(ab), dense, rtol=1e-13,
                               atol=1e-13 * np.abs(dense).max())


@pytest.mark.parametrize("name", ["nu=0.5", "shell"])
@pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
def test_seed_changes_speed_only(name, kappa):
    # a seed off by 1e-6 or far from the eigenvalue gives the certified
    # eigenvalue of the slice seeded at lam, and an M-normalised vector
    prob = radial._ChannelProblem(SLICE_CHARGES[name], kappa, SMALL)
    for lam in (0.0, 0.9):
        ab, mdiag, energy = prob.pencil(lam)
        mu, _ = radial._lowest(ab, mdiag, energy, lam)
        for guess in (mu - 10.0, mu - 1e-6, mu + 1e-6, mu + 10.0):
            again, v = radial._lowest(ab, mdiag, energy, guess)
            assert again == pytest.approx(mu, rel=1e-12)
            assert v @ (mdiag * v) == pytest.approx(1.0, rel=1e-12)


class _CountingLapack:
    """radial's LAPACK binding as _lowest sees it, counting banded
    factorisations and, for the pencil (ab, mdiag) when given, recording
    each one's shift sigma, recovered from B - sigma M by least squares
    before dpbtrf overwrites it, and whether it held."""

    def __init__(self, ab=None, mdiag=None):
        self.factorisations = 0
        self.shifts: list[tuple[float, bool]] = []
        self.ab, self.mdiag = ab, mdiag
        self.lapack = radial._lapack()

    def dpbtrf(self, shifted, *args, **kwargs):
        self.factorisations += 1
        if self.ab is not None:
            m = self.mdiag
            sigma = float((self.ab[-1] - shifted[-1]) @ m / (m @ m))
        chol, info = self.lapack.dpbtrf(shifted, *args, **kwargs)
        if self.ab is not None:
            self.shifts.append((sigma, info == 0))
        return chol, info

    def __getattr__(self, name):
        return getattr(self.lapack, name)

    def install(self, monkeypatch):
        monkeypatch.setattr(radial, "_lapack", lambda: self)
        return self


def margin(mu):
    """The certificate margin delta below a returned mu."""
    return radial._CERT_REL * max(1.0, abs(mu))


def near_seed_pencils(name, channel):
    """(pencil, dense lowest eigenvalue) on SMALL: the Schroedinger pencil,
    or a Dirac channel's pencils at lam = 0 and 0.9."""
    prob = radial._ChannelProblem(SLICE_CHARGES[name],
                                  -1 if channel == "schrodinger" else channel,
                                  SMALL)
    pencils = ([radial._schrodinger_pencil(prob)] if channel == "schrodinger"
               else [prob.pencil(lam) for lam in (0.0, 0.9)])
    return [((B, mdiag, energy),
             sla.eigh(band_to_dense(B), np.diag(mdiag), eigvals_only=True)[0])
            for B, mdiag, energy in pencils]


@pytest.mark.parametrize("name", ["nu=0.5", "nu=0.99", "shell"])
@pytest.mark.parametrize("channel", [-2, -1, 1, 2, "schrodinger"])
def test_seeded_slices_are_dense_and_certified(monkeypatch, name, channel):
    # seeds at the eigenvalue, half a margin or two margins off either way,
    # and far off: each gives the dense lowest eigenvalue, and some
    # factorisation that held sits at sigma >= mu - delta, whether it is
    # the slice's lower end or a last one; a seed at the eigenvalue is
    # certified by its first factorisation
    for pencil, dense in near_seed_pencils(name, channel):
        delta = margin(dense)
        for seed in (dense, dense - 0.5 * delta, dense + 0.5 * delta,
                     dense - 2.0 * delta, dense + 2.0 * delta, dense - 1e-6,
                     dense + 1e-3, dense - 10.0, dense + 10.0):
            counter = _CountingLapack(*pencil[:2]).install(monkeypatch)
            mu, _ = radial._lowest(*pencil, seed)
            assert mu == pytest.approx(dense, rel=1e-11, abs=1e-11)
            held = [sigma for sigma, ok in counter.shifts if ok]
            # the recovered sigma is exact to about 1e-16, far inside delta
            assert max(held) >= mu - margin(mu) * (1.0 + 1e-4)
            if seed == dense:
                assert counter.factorisations == 1


WORKLOAD_GRID = radial.RadialGrid(1e-6, 100.0, 4000)
# the charges of the benchmark's radial workload
WORKLOAD_CHARGES = {f"nu={nu}": point(nu)
                    for nu in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)}
WORKLOAD_CHARGES["radial_shell"] = load_config(
    CONFIG_DIR / "radial_shell.cfg").charge()


@pytest.mark.parametrize("name", sorted(WORKLOAD_CHARGES))
def test_factorisation_budget(monkeypatch, name):
    # measured: seeded at the root a slice takes 1 factorisation, which
    # certifies it (4-5 while its first probe sat 1e-6 below the seed and a
    # last factorisation at mu - delta certified it; 31 when each call
    # bisected from a cold bracket), at lam = -1, 0 or 1 6-17 (7-16), and
    # the Schroedinger slice seeded at -nu^2/2 1-6 (4-7 with the 1e-6 probe,
    # 9-17 when it started cold from the smallest diagonal ratio of its
    # pencil)
    mu = WORKLOAD_CHARGES[name]
    root = radial.lowest_gap_eigenvalue_radial(mu, grid=WORKLOAD_GRID)
    prob = radial._ChannelProblem(mu, -1, WORKLOAD_GRID)
    counter = _CountingLapack().install(monkeypatch)

    def factorisations(solve):
        counter.factorisations = 0
        solve()
        return counter.factorisations

    # a count of 0 would mean radial factorised past the counter
    assert factorisations(lambda: prob.mu_min(root.lambda1)) == 1
    for lam in (-1.0 + 1e-9, 0.0, 1.0):
        assert 1 <= factorisations(lambda: prob.mu_min(lam)) <= 20
    assert 1 <= factorisations(
        lambda: radial.schrodinger_ground_radial(mu, WORKLOAD_GRID)) <= 7


def test_workload_solves_factorisation_total(monkeypatch):
    # measured: the seven solves of the radial benchmark take 31
    # factorisations together (54 while a slice's first probe sat 1e-6
    # below its seed and a last factorisation certified it)
    counter = _CountingLapack().install(monkeypatch)
    for mu in WORKLOAD_CHARGES.values():
        radial.lowest_gap_eigenvalue_radial(mu, grid=WORKLOAD_GRID)
    assert 7 <= counter.factorisations <= 36


class _RecordingLapack(_CountingLapack):
    """The binding, keeping each dpbtrf input (copied before it is
    overwritten) with its factor and info, and each dpbtrs call."""

    def __init__(self):
        super().__init__()
        self.factors, self.solves = [], []

    def dpbtrf(self, shifted, *args, **kwargs):
        before = np.array(shifted)
        chol, info = self.lapack.dpbtrf(shifted, *args, **kwargs)
        self.factors.append((before, np.array(chol), info))
        return chol, info

    def dpbtrs(self, chol, b, *args, **kwargs):
        rhs = np.array(b)
        x, info = self.lapack.dpbtrs(chol, b, *args, **kwargs)
        self.solves.append((np.array(chol), rhs, np.array(x)))
        return x, info


@pytest.mark.parametrize("name", ["nu=0.5", "radial_shell"])
def test_binding_matches_scipy_banded_cholesky(monkeypatch, name):
    # every factor and solve of two workload slices, seeded at lam = 0
    # and 1 so that factorisations both hold and fail, is bit for bit
    # what scipy.linalg's cholesky_banded and cho_solve_banded give
    prob = radial._ChannelProblem(WORKLOAD_CHARGES[name], -1, WORKLOAD_GRID)
    recorder = _RecordingLapack().install(monkeypatch)
    prob.mu_min(0.0)
    prob.mu_min(1.0)
    infos = [info for _, _, info in recorder.factors]
    assert 0 in infos and max(infos) > 0
    for shifted, chol, info in recorder.factors:
        if info == 0:
            assert np.array_equal(chol, sla.cholesky_banded(shifted))
        else:
            assert info > 0
            with pytest.raises(sla.LinAlgError):
                sla.cholesky_banded(shifted)
    assert recorder.solves
    for chol, rhs, x in recorder.solves:
        assert np.array_equal(x, sla.cho_solve_banded((chol, False), rhs))


def test_fallback_loader_gives_the_same_bits(monkeypatch):
    # with the file lookup failing, the functions come from
    # scipy.linalg.lapack, and the solves give the same lambda1 bits
    solve = functools.partial(radial.lowest_gap_eigenvalue_radial,
                              grid=WORKLOAD_GRID)
    want = [solve(WORKLOAD_CHARGES[name]).lambda1
            for name in ("nu=0.5", "radial_shell")]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda *args: None)
    assert radial._lapack() is sla.lapack
    assert [solve(WORKLOAD_CHARGES[name]).lambda1
            for name in ("nu=0.5", "radial_shell")] == want


@pytest.mark.parametrize("where", ["band", "mass", "seed"])
def test_non_finite_pencil_is_refused(where):
    # LAPACK's dpbtrf reports success on a band holding a nan and returns
    # a nan factor; the slice raises instead of certifying a nan
    prob = radial._ChannelProblem(point(0.5), -1, SMALL)
    ab, mdiag, energy = prob.pencil(0.9)
    ab, mdiag, seed = ab.copy(), mdiag.copy(), 0.9
    if where == "band":
        ab[3, 7] = math.nan  # off the diagonal, which the shift never meets
    elif where == "mass":
        mdiag[7] = math.inf
    else:
        seed = math.nan
    with pytest.raises(ValueError):
        radial._lowest(ab, mdiag, energy, seed)


# the charges of acceptance criterion 03: five bases and their mixtures
CONCAVITY_BASES = (point(0.6), point(1.0), charges.shell(0.8, 0.5),
                   charges.shell(1.0, 2.0), charges.ball(0.9, 1.0))
CONCAVITY_CHARGES = CONCAVITY_BASES + tuple(
    charges.mix(a, b, 0.5)
    for a, b in itertools.combinations(CONCAVITY_BASES, 2))


@pytest.mark.parametrize("index", range(len(CONCAVITY_CHARGES)))
def test_schrodinger_slice_budget(monkeypatch, index):
    # measured: seeded at -nu^2/2 a slice takes 1-7 factorisations on
    # these charges (1 on the point charges, whose seed is their
    # eigenvalue; 4-8 with a first probe 1e-6 below the seed), 9-11 when
    # it started cold
    counter = _CountingLapack().install(monkeypatch)
    radial.schrodinger_ground_radial(CONCAVITY_CHARGES[index], WORKLOAD_GRID)
    assert 1 <= counter.factorisations <= 8


layer_lists = st.lists(
    st.tuples(st.sampled_from(["sphere-shell", "uniform-ball"]),
              st.floats(min_value=0.05, max_value=2.0),
              st.floats(min_value=0.05, max_value=0.3)),
    min_size=1, max_size=3)
MONOTONE_GRID = radial.RadialGrid(1e-6, 100.0, 1000)


@given(layers=layer_lists, k=st.integers(min_value=0, max_value=2),
       extra=st.floats(min_value=0.005, max_value=0.1))
@settings(max_examples=20, derandomize=True, deadline=None)
def test_raising_a_layer_never_raises_lambda1(layers, k, extra):
    # On one grid a heavier shell or ball raises v, and with no point
    # charge the origin stub keeps gamma = 1, so every term of the
    # pencil falls and so do mu_min(lam) and its root; as h = mu_min - lam
    # has slope <= -1, each lambda1 lies within its residual of its root.
    k %= len(layers)
    light = charges.ChargeDistribution(
        layers=tuple(charges.RadialLayer(*l) for l in layers))
    heavy = charges.ChargeDistribution(layers=tuple(
        charges.RadialLayer(kind, r, s + extra * (i == k))
        for i, (kind, r, s) in enumerate(layers)))
    lo, hi = (radial.lowest_gap_eigenvalue_radial(mu, grid=MONOTONE_GRID)
              for mu in (light, heavy))
    assert lo.converged and hi.converged
    slack = radial.RadialSolveConfig().lam_tol + lo.residual + hi.residual
    assert hi.lambda1 <= lo.lambda1 + slack


@pytest.mark.parametrize("name", ["nu=0.5", "nu=0.99", "shell", "ball"])
@pytest.mark.parametrize("kappa", [-2, -1, 1])
def test_slope_matches_central_differences(name, kappa):
    mu = {**SLICE_CHARGES, "ball": charges.ball(0.9, 1.0)}[name]
    prob = radial._ChannelProblem(mu, kappa, SMALL)
    eps = 1e-5
    signs = []
    # one lam on each side of the root
    for lam in (0.0, 0.99):
        mu_lam, g = prob.mu_min(lam)
        signs.append(mu_lam > lam)
        diff = (prob.mu_min(lam + eps)[0]
                - prob.mu_min(lam - eps)[0]) / (2 * eps)
        assert prob.slope(lam, g) == pytest.approx(diff, rel=1e-7)
        assert prob.slope(lam, g) < 0.0
    assert signs == [True, False]


def test_mu_min_is_deterministic():
    prob = radial._ChannelProblem(point(0.5), -1, SMALL)
    first = [prob.mu_min(lam)[0] for lam in (0.0, 0.9)]
    assert [prob.mu_min(lam)[0] for lam in (0.0, 0.9)] == first
    again = radial._ChannelProblem(point(0.5), -1, SMALL)
    assert [again.mu_min(lam)[0] for lam in (0.0, 0.9)] == first


@pytest.mark.parametrize("channel", ["dirac", "schrodinger"])
def test_mu_min_refuses_an_uncertified_value(monkeypatch, channel):
    # a negative margin asks the inertia test to confirm that nothing lies
    # below mu + 1e-6, which the lowest eigenvalue mu itself contradicts;
    # the first probe still sits below the seed
    prob = radial._ChannelProblem(point(0.5), -1, SMALL)
    if channel == "dirac":
        pencil, seed = prob.pencil(0.9), 0.9
        solve = lambda: prob.mu_min(0.9)  # noqa: E731
    else:
        pencil, seed = radial._schrodinger_pencil(prob), -0.125
        solve = lambda: radial.schrodinger_ground_radial(  # noqa: E731
            point(0.5), SMALL)
    counter = _CountingLapack(*pencil[:2]).install(monkeypatch)
    monkeypatch.setattr(radial, "_CERT_REL", -1e-6)
    with pytest.raises(UncertifiedEigenvalueError):
        solve()
    assert counter.shifts[0][0] < seed


def test_trace_h_values_strictly_decrease():
    # not a point charge: its start sqrt(1 - nu^2) is the root already
    res = radial.lowest_gap_eigenvalue_radial(charges.shell(0.5, 1.0))
    samples = sorted(res.trace)
    assert len(samples) >= 3
    for (l1, h1), (l2, h2) in zip(samples, samples[1:]):
        assert h1 > h2
    assert res.iterations <= 40


@pytest.mark.parametrize("mu", [point(0.5), charges.shell(0.5, 1.0)],
                         ids=["point", "shell"])
def test_solve_runs_one_eigen_step_per_sample(monkeypatch, mu):
    # the slope and the result reuse each sample's eigenvector
    calls = []
    lowest = radial._lowest

    def counted(*args):
        calls.append(args)
        return lowest(*args)

    monkeypatch.setattr(radial, "_lowest", counted)
    res = radial.lowest_gap_eigenvalue_radial(mu, grid=SMALL)
    assert res.converged and len(res.vector) == SMALL.n - 1
    assert len(calls) == res.iterations


def test_shell_lambda_above_point_bound_and_monotone():
    lams = []
    for rho in (0.1, 1.0, 10.0):
        res = radial.lowest_gap_eigenvalue_radial(charges.shell(0.5, rho))
        # Newton's bound: spreading the charge can only weaken binding
        assert res.lambda1 >= SQ75 - 1e-8
        lams.append(res.lambda1)
    assert lams[0] < lams[1] < lams[2]


def test_shell_approaches_point_limit():
    res = radial.lowest_gap_eigenvalue_radial(charges.shell(0.5, 0.01))
    assert res.lambda1 == pytest.approx(SQ75, abs=1e-4)


def test_ball_between_shell_and_point():
    lam_point = radial.lowest_gap_eigenvalue_radial(point(0.5)).lambda1
    lam_ball = radial.lowest_gap_eigenvalue_radial(
        charges.ball(0.5, 1.0)).lambda1
    lam_shell = radial.lowest_gap_eigenvalue_radial(
        charges.shell(0.5, 1.0)).lambda1
    # the ball concentrates more charge near 0 than its boundary shell
    assert lam_point < lam_ball < lam_shell


def test_channel_sweep_ground_channel_wins():
    results = [radial.lowest_gap_eigenvalue_radial(point(0.6), kappa)
               for kappa in (-2, -1, 1, 2)]
    assert [res.kappa for res in results] == [-2, -1, 1, 2]
    best = min(results, key=lambda res: res.lambda1)
    assert best.kappa == -1
    assert best.lambda1 == pytest.approx(math.sqrt(1 - 0.36), abs=1e-6)


@pytest.mark.parametrize("kappa", [
    -2, -1,
    *(pytest.param(k, marks=pytest.mark.xfail(
        strict=True, reason="kappa > 0 converges to the kappa = -|kappa| "
                            "level, not its own")) for k in (1, 2))])
def test_channel_matches_the_point_charge_level(kappa):
    # the lowest level of channel kappa for a point charge of 0.6 in closed
    # form: 0.8 and 0.9539392 for kappa = -1, -2, but 0.9486833 and
    # 0.9793692 for kappa = +1, +2, where the solver reads 0.8000037 and
    # 0.9539392, the kappa = -1 and -2 values
    res = radial.lowest_gap_eigenvalue_radial(point(0.6), kappa)
    assert res.lambda1 == pytest.approx(
        oracles.point_dirac_level(0.6, kappa), abs=1e-5)


def test_derivative_matrix_matches_stencil_loop():
    for n, h in ((16, 0.3), (41, 0.01)):
        ref = np.zeros((n, n))
        ref[0, 0:3] = np.array([-1.5, 2.0, -0.5]) / h
        skew = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0]) / h
        ref[1, 0:5] = skew
        interior = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        for k in range(2, n - 2):
            ref[k, k - 2:k + 3] = interior
        ref[n - 2, n - 5:n] = -skew[::-1]
        ref[n - 1, n - 3:n] = np.array([0.5, -2.0, 1.5]) / h
        table = radial.derivative_matrix(n, h)
        assert table.shape == (7, n)
        assert np.array_equal(table_to_dense(table), ref)
        # nothing in the table falls outside the matrix
        assert np.count_nonzero(table) == np.count_nonzero(ref)


def test_channel_validation():
    with pytest.raises(ConfigError):
        radial.lowest_gap_eigenvalue_radial(point(0.5), kappa=0)


TRIAL_CHARGES = {**{f"nu={nu}": point(nu) for nu in (0.1, 0.5, 0.9, 0.99)},
                 "shell": charges.shell(0.5, 1.0),
                 "ball": charges.ball(0.9, 1.0)}


@functools.lru_cache(maxsize=None)
def trial_solve(name, kappa):
    """The solve of TRIAL_CHARGES[name] in channel kappa on WORKLOAD_GRID
    and h(lambda1) of the sample it returns."""
    res = radial.lowest_gap_eigenvalue_radial(TRIAL_CHARGES[name], kappa,
                                              WORKLOAD_GRID)
    return res, dict(res.trace)[res.lambda1]


@pytest.mark.parametrize("name", sorted(TRIAL_CHARGES))
@pytest.mark.parametrize("kappa", [-2, -1, 1])
def test_trial_form_is_the_solved_pencil(name, kappa):
    # Q(lam, g) = g^T B(lam) g - lam g^T M g of the pencil solved, origin
    # stub included, so at lambda1 the returned M-normalised vector reads
    # that sample's h, and as h' <= -1 the form is positive 1e-6 below (a
    # form without the stub read 4.7e-2 there at nu = 0.99)
    mu = TRIAL_CHARGES[name]
    res, h = trial_solve(name, kappa)
    q = radial.q_form_radial(res.lambda1, res.vector, kappa, mu,
                             WORKLOAD_GRID)
    assert q == pytest.approx(h, abs=1e-13)
    below = radial.q_form_radial(res.lambda1 - 1e-6, res.vector, kappa, mu,
                                 WORKLOAD_GRID)
    assert 0.0 < below < 1e-5


@pytest.mark.parametrize("name", sorted(TRIAL_CHARGES))
@pytest.mark.parametrize("kappa", [-2, -1, 1])
@given(power=st.floats(min_value=0.1, max_value=3.0),
       decay=st.floats(min_value=0.1, max_value=20.0),
       weight=st.floats(min_value=-1e3, max_value=1e3),
       noise=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=10, derandomize=True, deadline=None)
def test_trial_form_is_positive_below_lambda1(name, kappa, power, decay,
                                              weight, noise, seed):
    # min over g of Q(lam, g) / g^T M g is h(lam) > 0 below the root: any
    # smooth r^p e^{-r/s} trial, mixed with the solve's vector and with
    # nodal noise, keeps Q(lambda1 - 1e-6, g) positive
    mu = TRIAL_CHARGES[name]
    res, _ = trial_solve(name, kappa)
    r = WORKLOAD_GRID.r[:-1]
    rng = np.random.default_rng(seed)
    g = (r ** power * np.exp(-r / decay) + weight * res.vector
         + noise * rng.standard_normal(len(r)))
    assert radial.q_form_radial(res.lambda1 - 1e-6, g, kappa, mu,
                                WORKLOAD_GRID) > 0.0


def test_trial_form_validation():
    mu = point(0.5)
    with pytest.raises(ValueError, match="199 nodal values"):
        radial.q_form_radial(0.5, np.ones(SMALL.n), -1, mu, SMALL)
    with pytest.raises(ValueError, match="zero"):
        radial.q_form_radial(0.5, np.zeros(SMALL.n - 1), -1, mu, SMALL)
    with pytest.raises(ValueError, match="lam > -1"):
        radial.q_form_radial(-1.0, np.ones(SMALL.n - 1), -1, mu, SMALL)
    with pytest.raises(ConfigError):
        radial.q_form_radial(0.5, np.ones(SMALL.n - 1), 0, mu, SMALL)


@pytest.mark.parametrize("name", ["nu=0.5", "shell"])
@pytest.mark.parametrize("kappa", [-1, 2])
def test_trial_form_assembles_no_band(monkeypatch, name, kappa):
    # q_form_radial reads the energy and mass of the solved pencil, bit for
    # bit, without assembling its band
    mu, lam = SLICE_CHARGES[name], 0.3
    g = SMALL.r[:-1] * np.exp(-SMALL.r[:-1])
    _, mdiag, energy = radial._ChannelProblem(mu, kappa, SMALL).pencil(lam)
    want = energy(g) - lam * float(g @ (mdiag * g))

    def refuse(self, c):
        raise AssertionError("q_form_radial assembled the band")

    monkeypatch.setattr(radial._BandOperator, "gram", refuse)
    assert radial.q_form_radial(lam, g, kappa, mu, SMALL) == want


def test_quadratic_form_root_consistency():
    # Q(., g) is strictly decreasing, so its sign at the solved minimum
    # places the trial's root at or above it, and a sign change below 1
    # shows the root lies in the gap
    mu = point(0.5)
    grid = radial.RadialGrid(1e-6, 100.0, 1200)
    g = np.exp(-grid.r) * grid.r ** 0.9
    best = radial.lowest_gap_eigenvalue_radial(mu, grid=grid).lambda1
    assert radial.q_form_radial(best - 1e-10, g[:-1], -1, mu, grid) > 0.0
    assert radial.q_form_radial(1.0, g[:-1], -1, mu, grid) < 0.0


def _run_fresh(code):
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_import_leaves_scipy_optimize_out():
    _run_fresh("import sys, diraclab; "
               "assert 'scipy.optimize' not in sys.modules")


def test_radial_solves_leave_scipy_linalg_unloaded():
    # radial loads scipy's compiled LAPACK wrapper by file: neither
    # scipy.linalg's package init nor scipy.sparse runs
    _run_fresh("""
import sys
from diraclab import charges, cli, radial
atom = charges.atom((0.0, 0.0, 0.0), 0.5)
assert radial.lowest_gap_eigenvalue_radial(atom).converged
assert radial.schrodinger_ground_radial(atom).bound
assert cli.main(["radial", "--nu", "0.5"]) == 0
assert "scipy.linalg._flapack" in sys.modules
loaded = {"scipy.linalg", "scipy.sparse"} & set(sys.modules)
assert not loaded, loaded
""")


def test_first_load_under_threads_loads_the_file_once():
    # threads that all make the first call load the file once and get
    # the one registered module
    _run_fresh("""
import sys, threading
from diraclab import radial
loads = []
by_file = radial._flapack_by_file
radial._flapack_by_file = lambda name: loads.append(name) or by_file(name)
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4)
got = []
def load():
    barrier.wait(timeout=30)
    got.append(radial._lapack())
threads = [threading.Thread(target=load) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=30)
assert not any(t.is_alive() for t in threads)
assert len(loads) == 1, loads
assert len(got) == 4 and all(m is sys.modules["scipy.linalg._flapack"]
                             for m in got), got
""")


def test_later_scipy_linalg_import_reuses_the_binding():
    # an import of scipy.linalg after a radial solve reuses the module
    # radial loaded, and its banded Cholesky gives radial's factor
    _run_fresh("""
import sys
import numpy as np
from diraclab import charges, radial
prob = radial._ChannelProblem(charges.atom((0.0, 0.0, 0.0), 0.5), -1,
                              radial.RadialGrid())
mu, _ = prob.mu_min(0.5)
ab, mdiag, _ = prob.pencil(0.5)
shifted = ab.copy(order="F")
shifted[-1] -= (mu - 1e-3) * mdiag
assert "scipy.linalg" not in sys.modules
chol, info = radial._lapack().dpbtrf(shifted)
assert info == 0
import scipy.linalg
assert scipy.linalg.lapack.dpbtrf is radial._lapack().dpbtrf
assert np.array_equal(scipy.linalg.cholesky_banded(shifted), chol)
""")


def test_3d_commands_leave_scipy_unloaded(tmp_path):
    # a 3D command loads numpy alone, no scipy module at all (F_0 takes
    # math.erf, not scipy.special); the first radial solve after it
    # loads only scipy's compiled LAPACK wrapper and still meets the
    # closed form, and neither the gap solve nor the Schroedinger solve
    # loads scipy.sparse
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text((CONFIG_DIR / "conjecture_m2.cfg").read_text()
                     .replace("separations = 0.25 0.5 1 2 4 8",
                              "separations = 1"))
    hardy = tmp_path / "hardy.cfg"
    hardy.write_text((CONFIG_DIR / "hardy_sweep.cfg").read_text()
                     .replace("separations = 0.5 1 2 4", "separations = 1"))
    schrodinger = tmp_path / "schrodinger.cfg"
    schrodinger.write_text((CONFIG_DIR / "schrodinger.cfg").read_text()
                           .replace("separations = 0.5 1 2 4",
                                    "separations = 1"))
    pair = CONFIG_DIR / "multicenter_example.cfg"
    _run_fresh(f"""
import math, sys
from diraclab import charges, cli, radial
assert cli.main(["multicenter", "--config", {str(pair)!r},
                 "--out", {str(tmp_path / "pair.json")!r}]) == 0
assert cli.main(["conjecture-sweep", "--config", {str(sweep)!r},
                 "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
assert cli.main(["hardy-sweep", "--config", {str(hardy)!r},
                 "--out", {str(tmp_path / "hardy.csv")!r}]) == 0
assert cli.main(["schrodinger", "--config", {str(schrodinger)!r},
                 "--out", {str(tmp_path / "schrodinger.csv")!r}]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
atom = charges.atom((0.0, 0.0, 0.0), 0.5)
res = radial.lowest_gap_eigenvalue_radial(atom)
assert abs(res.lambda1 - math.sqrt(1.0 - 0.5 ** 2)) < 1e-6, res.lambda1
assert radial.schrodinger_ground_radial(atom).bound
assert "scipy.sparse" not in sys.modules
""")
    for name in ("sweep.csv", "hardy.csv", "schrodinger.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 2


def test_schrodinger_point_matches_hydrogenic():
    res = radial.schrodinger_ground_radial(point(1.0))
    assert res.bound
    assert res.energy == pytest.approx(oracles.hydrogenic_energy(1.0),
                                       abs=1e-8)


def test_schrodinger_scaling_in_nu():
    for nu in (0.4, 0.7):
        res = radial.schrodinger_ground_radial(point(nu))
        assert res.energy == pytest.approx(oracles.hydrogenic_energy(nu),
                                           abs=1e-8)


def test_schrodinger_shell_weaker_than_point():
    e_point = radial.schrodinger_ground_radial(point(1.0)).energy
    e_shell = radial.schrodinger_ground_radial(charges.shell(1.0, 1.0)).energy
    assert e_point < e_shell <= 0.0


def test_schrodinger_concavity_on_measure_pairs():
    # ground energy is concave in the measure: E(mix) >= mean of E
    pairs = [(point(1.0), charges.shell(1.0, rho))
             for rho in (0.3, 1.0, 3.0)]
    pairs += [(charges.shell(1.0, 0.5), charges.ball(1.0, 2.0))]
    for mu_a, mu_b in pairs:
        e_a = radial.schrodinger_ground_radial(mu_a).energy
        e_b = radial.schrodinger_ground_radial(mu_b).energy
        e_mix = radial.schrodinger_ground_radial(
            charges.mix(mu_a, mu_b, 0.5)).energy
        assert e_mix >= 0.5 * (e_a + e_b) - 1e-8


def test_grid_validation():
    with pytest.raises(ConfigError):
        radial.RadialGrid(0.0, 100.0, 1000)
    with pytest.raises(ConfigError):
        radial.RadialGrid(1.0, 0.5, 1000)


@pytest.mark.parametrize("r_min,r_max", [
    (1e-6, math.inf), (1e-6, math.nan), (math.nan, 100.0),
    (-math.inf, 100.0)])
def test_grid_refuses_non_finite_bounds(r_min, r_max):
    # an infinite r_max would give a nan grid that fails later in scipy
    with pytest.raises(ConfigError, match="finite"):
        radial.RadialGrid(r_min, r_max, 100)


def test_result_json_fields():
    res = radial.lowest_gap_eigenvalue_radial(point(0.5))
    out = res.to_json()
    assert set(out) == {"lambda1", "residual", "iterations", "below_gap",
                        "kappa", "converged"}
    assert out["converged"] is True
