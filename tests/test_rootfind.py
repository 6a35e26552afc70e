"""Clamped monotone root solve on synthetic eigenvalue curves.

The solver contract is mu(lam) nonincreasing with a fixed point inside
the bracket; h(lam) = mu(lam) - lam then has slope <= -1, so residual
control implies eigenvalue control.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import _rootfind

TOL = dict(lam_tol=1e-10, residual_tol=1e-12, max_iter=60)
LO, HI = -0.99, 0.999


def affine(root, slope):
    # nonincreasing for slope <= 0
    return lambda lam: root + slope * (lam - root)


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
    res = _rootfind.solve_monotone_gap(affine(root, slope), -0.99, 0.999,
                                       **TOL)
    assert res.status == _rootfind.OK
    assert res.converged
    assert res.lam == pytest.approx(root, abs=1e-10)
    assert res.residual <= 1e-12
    check_halving(res.widths)
    check_trace_monotone(res.trace)


def test_stiff_curve():
    # near-step transition much narrower than the bracket; |h'| ~ 8e3
    # near the root, so the reachable residual scales accordingly
    root = 0.1234567
    mu = lambda lam: root - 0.8 * math.tanh((lam - root) / 1e-4)
    dmu = lambda lam: -8e3 * (1.0 - math.tanh((lam - root) / 1e-4) ** 2)
    for start in (None, 0.0, 0.1234):
        res = _rootfind.solve_monotone_gap(
            mu, -0.99, 0.999, lam_tol=1e-10, residual_tol=1e-9, max_iter=60,
            start=start, slope=None if start is None else dmu)
        assert res.converged
        assert res.lam == pytest.approx(root, abs=1e-10)
        assert res.iterations <= 40
        check_halving(res.widths)


def test_root_at_bracket_ends():
    hi = 0.999
    res = _rootfind.solve_monotone_gap(lambda lam: hi, -0.99, hi, **TOL)
    assert res.converged and res.lam == hi

    lo = -0.99
    res = _rootfind.solve_monotone_gap(lambda lam: lo, lo, 0.999, **TOL)
    assert res.converged and res.lam == lo


def test_below_gap_and_no_root_statuses():
    # a start on either side of the gap ends changes neither status
    for start in (None, -0.5, 0.0, 0.9):
        slope = None if start is None else (lambda lam: 0.0)
        res = _rootfind.solve_monotone_gap(
            lambda lam: -2.0, -0.99, 0.999, start=start, slope=slope, **TOL)
        assert res.status == _rootfind.BELOW_GAP
        assert not res.converged and res.trace[-1][0] == -0.99

        res = _rootfind.solve_monotone_gap(
            lambda lam: 2.0, -0.99, 0.999, start=start, slope=slope, **TOL)
        assert res.status == _rootfind.NO_ROOT
        assert not res.converged and res.trace[-1][0] == 0.999


def test_start_and_slope_come_together():
    for kw in ({"start": 0.0}, {"slope": lambda lam: 0.0}):
        with pytest.raises(ValueError):
            _rootfind.solve_monotone_gap(affine(0.2, -1.0), LO, HI,
                                         **kw, **TOL)


def test_iteration_budget_is_respected():
    root = 0.3
    mu = lambda lam: root - 3.0 * (lam - root)
    res = _rootfind.solve_monotone_gap(mu, -0.99, 0.999, lam_tol=1e-10,
                                       residual_tol=1e-12, max_iter=7)
    assert res.iterations <= 7


def test_width_count_matches_bisection_bound():
    # halving alone reaches lam_tol in ceil(log2(width/tol)) passes
    res = _rootfind.solve_monotone_gap(affine(0.2, -1.0), -0.99, 0.999, **TOL)
    budget = math.ceil(math.log2(2.0 / TOL["lam_tol"])) + 2
    assert len(res.widths) <= budget


@given(root=st.floats(min_value=-0.9, max_value=0.95),
       slope=st.floats(min_value=-20.0, max_value=0.0),
       curve=st.floats(min_value=0.0, max_value=5.0),
       start=st.none() | st.floats(min_value=-0.98, max_value=0.998))
@settings(max_examples=120, deadline=None)
def test_random_monotone_curves(root, slope, curve, start):
    # the two call patterns: secant from both ends (radial), and Newton
    # on the exact slope from a start (3D)
    mu = lambda lam: root + slope * (lam - root) - curve * (lam - root) ** 3
    dmu = lambda lam: slope - 3.0 * curve * (lam - root) ** 2
    res = _rootfind.solve_monotone_gap(
        mu, LO, HI, start=start, slope=None if start is None else dmu, **TOL)
    assert res.status == _rootfind.OK
    assert res.converged
    assert res.lam == pytest.approx(root, abs=2e-10)
    assert res.iterations <= 40
    check_halving(res.widths)
    check_trace_monotone(res.trace)
    sampled = {lam for lam, _ in res.trace}
    if start is None:
        assert {LO, HI} <= sampled
    else:
        # one sample certifies each side its clamp closes
        assert res.trace[0][0] == start
        assert (LO in sampled) == (mu(start) <= LO)
        assert (HI in sampled) == (mu(start) >= HI)
