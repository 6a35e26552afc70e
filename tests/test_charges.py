"""Charge distributions: validation, potentials, transport maps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from diraclab import charges
from diraclab.errors import (ChargeModelError, MergedAtomTooHeavyError,
                             SingularLocationError)


def test_point_strength_must_be_in_unit_interval():
    with pytest.raises(ChargeModelError):
        charges.atom((0, 0, 0), 0.0)
    with pytest.raises(ChargeModelError):
        charges.atom((0, 0, 0), -0.3)
    with pytest.raises(ChargeModelError):
        charges.atom((0, 0, 0), 1.0 + 1e-12)
    # the critical coupling itself is allowed
    assert charges.atom((0, 0, 0), 1.0).total_charge == 1.0


def test_layer_validation():
    with pytest.raises(ChargeModelError):
        charges.shell(0.5, -1.0)
    with pytest.raises(ChargeModelError):
        charges.shell(-0.5, 1.0)
    with pytest.raises(ChargeModelError):
        charges.ChargeDistribution(
            layers=(charges.RadialLayer("point", 1.0, 0.5),))
    with pytest.raises(ChargeModelError):
        charges.ChargeDistribution(
            layers=(charges.RadialLayer("wedge", 1.0, 0.5),))


def test_total_charge_and_symmetry_flags():
    mu = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.3, 0.4])
    assert mu.total_charge == pytest.approx(0.7, abs=1e-15)
    assert not mu.radially_symmetric
    assert charges.shell(0.5, 2.0).radially_symmetric
    assert charges.atom((0, 0, 0), 0.5).radially_symmetric


def test_point_potential_matches_coulomb_law():
    mu = charges.atoms([(0, 0, 0), (2, 0, 0)], [0.3, 0.5])
    x = (0.5, 0.5, 0.0)
    expect = 0.3 / np.linalg.norm(x) + 0.5 / np.linalg.norm((1.5, -0.5, 0.0))
    got = charges.potential_grid(mu, np.array([x]))[0]
    assert got == pytest.approx(expect, rel=1e-14)


def test_potential_singular_at_atom():
    mu = charges.atom((1, 0, 0), 0.5)
    with pytest.raises(SingularLocationError):
        charges.potential_grid(mu, np.array([(1.0, 0.0, 0.0)]))


def test_shell_potential_against_quadrature_oracle():
    rho = 1.7
    mu = charges.shell(0.5, rho)
    for r in (0.3, 1.0, 2.5, 40.0):
        ref = oracles.shell_potential_reference(r, rho, 0.5)
        assert charges.radial_profile(mu, r) == pytest.approx(ref, rel=1e-12)
        got = charges.potential_grid(
            mu, np.array([(0.0, r / math.sqrt(2), r / math.sqrt(2))]))[0]
        assert got == pytest.approx(ref, rel=1e-12)


def test_ball_potential_against_quadrature_oracle():
    rho = 2.0
    mu = charges.ball(0.8, rho)
    for r in (0.5, 1.0, 1.9, 3.0, 10.0):
        ref = oracles.ball_potential_reference(r, rho, 0.8)
        assert charges.radial_profile(mu, r) == pytest.approx(ref, rel=1e-10)


@given(r=st.floats(min_value=0.01, max_value=1e3),
       rho=st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_radial_potential_newton_bound(r, rho):
    # a radial charge never beats the same total charge concentrated at 0
    mu = charges.combine(charges.shell(0.3, rho), charges.ball(0.2, 1.0))
    nu = mu.total_charge
    v = float(charges.radial_profile(mu, r))
    assert 0.0 < v <= nu / r * (1.0 + 1e-12)


def test_radial_profile_rejects_asymmetric_and_nonpositive_r():
    mu = charges.atom((1, 0, 0), 0.5)
    with pytest.raises(ChargeModelError):
        charges.radial_profile(mu, 1.0)
    with pytest.raises(ChargeModelError):
        charges.radial_profile(charges.shell(0.5, 1.0), 0.0)


def test_pushforward_rotation_preserves_geometry():
    mu = charges.atoms([(1, 0, 0), (-1, 0, 0)], [0.2, 0.3])
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    img = charges.pushforward(mu, rot, 1.0)
    pos = sorted(p.position for p in img.points)
    assert np.allclose(pos, [(0, -1, 0), (0, 1, 0)])
    assert img.total_charge == pytest.approx(0.5, abs=1e-15)


def test_pushforward_full_contraction_merges():
    mu = charges.atoms([(1, 0, 0), (-1, 0, 0)], [0.2, 0.3])
    img = charges.pushforward(mu, np.eye(3), 0.0)
    assert len(img.points) == 1
    assert img.points[0].position == (0.0, 0.0, 0.0)
    assert img.points[0].strength == pytest.approx(0.5, abs=1e-15)


def test_pushforward_rejects_overweight_merge():
    mu = charges.atoms([(1, 0, 0), (-1, 0, 0)], [0.6, 0.6])
    with pytest.raises(MergedAtomTooHeavyError):
        charges.pushforward(mu, np.eye(3), 0.0)
    # merging to exactly 1 is the boundary case and allowed
    ok = charges.pushforward(
        charges.atoms([(1, 0, 0), (-1, 0, 0)], [0.5, 0.5]), np.eye(3), 0.0)
    assert ok.total_charge == pytest.approx(1.0, abs=1e-15)


def test_pushforward_rejects_bad_maps():
    mu = charges.atom((1, 0, 0), 0.5)
    with pytest.raises(ChargeModelError):
        charges.pushforward(mu, 2.0 * np.eye(3), 1.0)
    with pytest.raises(ChargeModelError):
        charges.pushforward(mu, np.eye(3), 1.5)
    with pytest.raises(ChargeModelError):
        charges.pushforward(charges.shell(0.5, 1.0), np.eye(3), 0.5)


@given(scale=st.floats(min_value=0.0, max_value=1.0),
       theta=st.floats(min_value=0.05, max_value=0.45))
@settings(max_examples=40, deadline=None)
def test_pushforward_preserves_total_charge(scale, theta):
    mu = charges.atoms([(2, 0, 0), (0, 1, 0)], [theta, theta])
    img = charges.pushforward(mu, np.eye(3), scale)
    assert img.total_charge == pytest.approx(mu.total_charge, abs=1e-14)


def test_mix_and_combine():
    a = charges.atom((0, 0, 0), 0.8)
    b = charges.shell(0.4, 1.0)
    mixed = charges.mix(a, b, 0.25)
    assert mixed.total_charge == pytest.approx(0.25 * 0.8 + 0.75 * 0.4,
                                               abs=1e-15)
    with pytest.raises(ChargeModelError):
        charges.mix(a, b, 0.0)
    both = charges.combine(a, b)
    assert len(both.points) == 1 and len(both.layers) == 1


def test_near_coincident_atoms_are_refused():
    # 1e-17 apart they stay two basis sites, and the grid's partition
    # weights divide by their distance
    with pytest.raises(ChargeModelError, match="closer than"):
        charges.atoms([(0, 0, 0), (1e-17, 0, 0)], [0.2, 0.2])
    with pytest.raises(ChargeModelError):
        charges.atoms([(1, 1, 1), (1, 1, 1 + 0.5 * charges.MERGE_TOL)],
                      [0.2, 0.2])
    # coincident atoms, and atoms just beyond the tolerance, are kept
    assert len(charges.atoms([(0, 0, 0)] * 2, [0.2, 0.2]).points) == 2
    assert len(charges.atoms([(0, 0, 0), (2 * charges.MERGE_TOL, 0, 0)],
                             [0.2, 0.2]).points) == 2


def test_point_mass_at_one_position_may_not_sum_above_one():
    with pytest.raises(MergedAtomTooHeavyError):
        charges.atoms([(0, 0, 0)] * 2, [0.6, 0.6])
    # point layers count at the origin, with the atoms there
    with pytest.raises(MergedAtomTooHeavyError):
        charges.combine(charges.atom((0, 0, 0), 0.6), charges.ChargeDistribution(
            layers=(charges.RadialLayer("point", 0.0, 0.6),)))
    kept = charges.atoms([(0, 0, 0)] * 2 + [(1, 0, 0)], [0.5, 0.5, 0.6])
    assert kept.site_strengths == {(0.0, 0.0, 0.0): 1.0, (1.0, 0.0, 0.0): 0.6}


def test_charge_stores_one_canonical_order():
    a = charges.atoms([(1, 0, 0), (0, 0, 0)], [0.2, 0.3])
    b = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.3, 0.2])
    assert a == b and a.points == b.points
    assert [p.position for p in a.points] == [(0, 0, 0), (1, 0, 0)]
    layers = (charges.RadialLayer("uniform-ball", 2.0, 0.1),
              charges.RadialLayer("sphere-shell", 1.0, 0.2))
    assert (charges.ChargeDistribution(layers=layers).layers
            == charges.ChargeDistribution(layers=layers[::-1]).layers
            == layers[::-1])
