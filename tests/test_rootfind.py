"""Clamped monotone root solve on synthetic eigenvalue curves.

The solver contract is mu(lam) nonincreasing with a fixed point inside
the bracket; h(lam) = mu(lam) - lam then has slope <= -1, so residual
control implies eigenvalue control.  Each synthetic sample's vector is
its own lam, and every slope checks that it received that vector.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import _rootfind

CFG = _rootfind.SolveConfig(lam_tol=1e-10, residual_tol=1e-12,
                            max_iterations=60)
LO, HI = -0.99, 0.999


def tagged(mu, dmu):
    """Solver callables for the curve mu with slope dmu: a sample's
    vector is its lam, and the slope accepts only the vector of its own
    sample."""
    def slope(lam, vector):
        assert vector == lam
        return dmu(lam)

    return dict(mu_of_lambda=lambda lam: (mu(lam), lam), slope=slope)


def affine(root, slope):
    # nonincreasing for slope <= 0; with its exact slope
    return tagged(lambda lam: root + slope * (lam - root), lambda lam: slope)


def stiff(root):
    # near-step transition much narrower than the bracket; |h'| ~ 8e3
    # near the root
    return tagged(
        lambda lam: root - 0.8 * math.tanh((lam - root) / 1e-4),
        lambda lam: -8e3 * (1.0 - math.tanh((lam - root) / 1e-4) ** 2))


def check_halving(widths):
    for w1, w2 in zip(widths, widths[1:]):
        assert w2 <= 0.5 * w1 + 1e-15


def check_trace_monotone(trace):
    samples = sorted(trace)
    for (l1, h1), (l2, h2) in zip(samples, samples[1:]):
        assert l1 < l2
        assert h1 > h2


@pytest.mark.parametrize("slope", [0.0, -0.5, -5.0])
@pytest.mark.parametrize("root", [-0.7, 0.0, 0.4, 0.93])
def test_affine_curves_converge(root, slope):
    res = _rootfind.solve_monotone_gap(lo=-0.99, hi=0.999, start=0.5,
                                       **affine(root, slope), config=CFG)
    assert res.status == _rootfind.OK
    assert res.converged
    assert res.lambda1 == pytest.approx(root, abs=1e-10)
    assert res.residual <= 1e-12
    check_halving(res.widths)
    check_trace_monotone(res.trace)


def test_stiff_curve():
    # the reachable residual scales with |h'| ~ 8e3
    root = 0.1234567
    for start in (0.0, 0.1234, 0.9):
        res = _rootfind.solve_monotone_gap(
            lo=-0.99, hi=0.999, start=start, **stiff(root),
            config=_rootfind.SolveConfig(lam_tol=1e-10, residual_tol=1e-9))
        assert res.converged
        assert res.lambda1 == pytest.approx(root, abs=1e-10)
        assert res.iterations <= 40
        check_halving(res.widths)


def test_root_at_bracket_ends():
    hi = 0.999
    res = _rootfind.solve_monotone_gap(lo=-0.99, hi=hi, start=0.0,
                                       **affine(hi, 0.0), config=CFG)
    assert res.converged and res.lambda1 == hi

    lo = -0.99
    res = _rootfind.solve_monotone_gap(lo=lo, hi=0.999, start=0.0,
                                       **affine(lo, 0.0), config=CFG)
    assert res.converged and res.lambda1 == lo


def test_below_gap_and_no_root_statuses():
    # a start anywhere, or on a gap end (where it is ignored), changes
    # neither status
    for start in (-0.99, -0.5, 0.0, 0.9, 0.999):
        res = _rootfind.solve_monotone_gap(
            lo=-0.99, hi=0.999, start=start, **affine(-2.0, 0.0),
            config=CFG)
        assert res.status == _rootfind.BELOW_GAP
        assert not res.converged and res.trace[-1][0] == -0.99

        res = _rootfind.solve_monotone_gap(
            lo=-0.99, hi=0.999, start=start, **affine(2.0, 0.0),
            config=CFG)
        assert res.status == _rootfind.NO_ROOT
        assert not res.converged and res.trace[-1][0] == 0.999


@pytest.mark.parametrize("curve,status", [
    (affine(0.4, -0.5), _rootfind.OK),
    (tagged(lambda lam: 0.3 - 2.0 * (lam - 0.3) ** 3,
            lambda lam: -6.0 * (lam - 0.3) ** 2), _rootfind.OK),
    (affine(-2.0, 0.0), _rootfind.BELOW_GAP),
    (affine(2.0, 0.0), _rootfind.NO_ROOT)])
def test_samples_vectors_and_slopes_follow_the_contract(curve, status):
    samples, slopes = [], []

    def mu_of_lambda(lam):
        samples.append(lam)
        return curve["mu_of_lambda"](lam)

    def slope(lam, vector):
        slopes.append((lam, vector))
        return curve["slope"](lam, vector)

    res = _rootfind.solve_monotone_gap(mu_of_lambda, LO, HI, start=0.0,
                                       slope=slope, config=CFG)
    assert res.status == status
    # one evaluation per trace entry, none repeated
    assert samples == [lam for lam, _ in res.trace]
    assert res.iterations == len(samples) == len(set(samples))
    # each slope gets the vector of its own, earlier sample
    assert all(vector == lam and lam in samples for lam, vector in slopes)
    if status == _rootfind.OK:
        assert slopes and res.vector == res.lambda1
    else:
        assert res.vector is None
    assert res.below_gap == (status == _rootfind.BELOW_GAP)


def test_iteration_budget_is_respected():
    # the stiff curve needs about 18 samples from this start
    res = _rootfind.solve_monotone_gap(
        lo=-0.99, hi=0.999, start=0.9, **stiff(0.3),
        config=_rootfind.SolveConfig(lam_tol=1e-10, residual_tol=1e-12,
                                     max_iterations=7))
    assert res.iterations <= 7 and not res.converged


def test_width_count_matches_bisection_bound():
    # halving alone reaches lam_tol in ceil(log2(width/tol)) passes
    res = _rootfind.solve_monotone_gap(lo=-0.99, hi=0.999, start=0.9,
                                       **affine(0.2, -1.0), config=CFG)
    budget = math.ceil(math.log2(2.0 / CFG.lam_tol)) + 2
    assert len(res.widths) <= budget


@given(root=st.floats(min_value=-0.9, max_value=0.95),
       slope=st.floats(min_value=-20.0, max_value=0.0),
       curve=st.floats(min_value=0.0, max_value=5.0),
       start=st.floats(min_value=-0.98, max_value=0.998))
@settings(max_examples=120, deadline=None)
def test_random_monotone_curves(root, slope, curve, start):
    # Newton on the exact slope from a start
    mu = lambda lam: root + slope * (lam - root) - curve * (lam - root) ** 3
    dmu = lambda lam: slope - 3.0 * curve * (lam - root) ** 2
    res = _rootfind.solve_monotone_gap(lo=LO, hi=HI, start=start,
                                       **tagged(mu, dmu), config=CFG)
    assert res.status == _rootfind.OK
    assert res.converged
    assert res.lambda1 == pytest.approx(root, abs=2e-10)
    assert res.iterations <= 40
    check_halving(res.widths)
    check_trace_monotone(res.trace)
    # one sample certifies each side its clamp closes
    sampled = {lam for lam, _ in res.trace}
    assert res.trace[0][0] == start
    assert (LO in sampled) == (mu(start) <= LO)
    assert (HI in sampled) == (mu(start) >= HI)
