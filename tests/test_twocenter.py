"""Two-center Coulomb ground energies and the screened-interaction floor."""

import math

import numpy as np
import pytest

from coulomb4 import twocenter
from coulomb4.effpot import InteractionDecomposition
from coulomb4.ecg_solver import BasisConditionError
from coulomb4.twocenter import (
    FloorCheckResult,
    floor_check,
    saturating_probe,
    two_center_ground,
)


def test_united_limit():
    # coinciding centers: hydrogen-like with doubled coupling, E = -2 A^2 mu
    res = two_center_ground(1.0, 0.375, 0.0)
    exact = -0.75
    assert abs(res.energy - exact) <= 1e-4 * abs(exact)
    assert res.energy >= exact - 1e-12  # bound from above
    assert res.basis_size == 16
    assert res.condition < 1e12


def test_united_limit_is_scale_free():
    for coupling, mu in ((0.5, 0.1), (2.0, 0.375), (1.0, 1.0), (3.0, 0.02)):
        res = two_center_ground(coupling, mu, 0.0)
        exact = -2.0 * coupling * coupling * mu
        assert abs(res.energy - exact) <= 1e-4 * abs(exact)
        assert res.energy >= exact


def test_separated_limit():
    # far apart: the particle sits in one well, E -> -A^2 mu / 2
    res = two_center_ground(1.0, 0.375, 1.0e5)
    exact = -0.1875
    assert abs(res.energy - exact) <= 1e-3 * abs(exact)


def test_energy_monotone_in_separation():
    energies = []
    for d in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        energies.append(two_center_ground(1.0, 0.375, d).energy)
    slack = 1e-4 * 0.375
    for lo, hi in zip(energies, energies[1:]):
        assert hi >= lo - slack
    assert energies[0] == pytest.approx(-0.75, rel=1e-4)
    assert energies[-1] > energies[0]


def test_scaling_law_collapses_parameters():
    # E(A, mu, d) = A^2 mu E(1, 1, A mu d): a cross-check tying every
    # parameter combination to the single canonical curve
    rng = np.random.default_rng(21)
    for _ in range(12):
        coupling = 10.0 ** rng.uniform(-0.5, 0.5)
        mu = 10.0 ** rng.uniform(-1.5, 0.0)
        # scaled separations near zero are excluded: the three-site ladder
        # basis is deliberately rejected there by the condition cap
        d = rng.uniform(0.3, 6.0) / (coupling * mu)
        full = two_center_ground(coupling, mu, d).energy
        canon = two_center_ground(1.0, 1.0, coupling * mu * d).energy
        assert full == pytest.approx(coupling * coupling * mu * canon, rel=1e-6)


def test_energy_improves_with_denser_ladder():
    # geomspace(lo, hi, 2n-1) contains geomspace(lo, hi, n) as every other
    # rung, so the larger basis is a superset and must do at least as well
    for d in (0.0, 1.5, 6.0):
        coarse = two_center_ground(1.0, 0.375, d, n_widths=8).energy
        dense = two_center_ground(1.0, 0.375, d, n_widths=15).energy
        assert dense <= coarse + 1e-10


def test_condition_cap_enforced():
    with pytest.raises(BasisConditionError):
        two_center_ground(1.0, 0.375, 1.0, cond_cap=10.0)
    # tiny nonzero separation: three nearly coincident ladders
    with pytest.raises(BasisConditionError):
        two_center_ground(1.0, 0.375, 1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        two_center_ground(0.0, 0.375, 1.0)
    with pytest.raises(ValueError):
        two_center_ground(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        two_center_ground(1.0, 0.375, -1.0)


def test_floor_without_attraction():
    # zero coupling leaves only the kinetic quotient, which is nonnegative
    res = floor_check(0.0, 0.1, samples=10)
    assert isinstance(res, FloorCheckResult)
    assert res.floor == 0.0
    assert res.minimum >= 0.0
    assert res.passed


def test_floor_kinetic_quotients_are_closed_forms():
    # without attraction each quotient is the trial's kinetic quotient:
    # 3 / (4 mu s^2) for a Gaussian, 1 / (2 mu s^2) for an exponential
    res = floor_check(0.0, 0.1, samples=10)
    assert {s.trial_kind for s in res.samples} == {"gaussian", "exponential"}
    for s in res.samples:
        scale = s.trial_scale
        want = 3.0 / (4.0 * 0.1 * scale * scale) if s.trial_kind == "gaussian" else 1.0 / (2.0 * 0.1 * scale * scale)
        assert s.quotient == want
    with pytest.raises(ValueError):
        twocenter._floor_quotient(
            InteractionDecomposition(0.5, 0.5), np.ones(3), np.ones(3), 1.0, 0.1, "lorentzian", 1.0, np.zeros(3), 1e-3
        )


def test_floor_holds_under_random_audit():
    res = floor_check(1.0, 0.1, samples=100)
    assert res.floor == pytest.approx(-0.2, rel=1e-15)
    assert res.passed
    assert res.minimum >= res.floor - res.tolerance
    assert len(res.samples) == 100
    # quadrature error stays well below the pass tolerance
    assert max(s.error for s in res.samples) <= 2.0 * res.tolerance
    print(f"floor audit minimum {res.minimum:.6f} vs floor {res.floor}")


def test_floor_audit_is_deterministic():
    r1 = floor_check(1.0, 0.1, samples=5, seed=3)
    r2 = floor_check(1.0, 0.1, samples=5, seed=3)
    assert r1.minimum == r2.minimum
    assert [s.quotient for s in r1.samples] == [s.quotient for s in r2.samples]


def test_floor_is_approached_by_saturating_geometry():
    # antiparallel internal vectors with balanced weights stack both
    # attractive singularities at the origin; the gap closes like 2A/|y|
    gaps = []
    for magnitude in (50.0, 100.0, 200.0):
        quotient, floor, err = saturating_probe(1.0, 0.1, magnitude)
        assert floor == pytest.approx(-0.2, rel=1e-15)
        gap = quotient - floor
        assert gap > 0.0
        assert gap == pytest.approx(2.0 / magnitude, rel=1e-3)
        assert err < 1e-6
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_saturating_probe_validation():
    with pytest.raises(ValueError):
        saturating_probe(1.0, 0.1, 50.0, a=1.0)
    with pytest.raises(ValueError):
        saturating_probe(1.0, 0.1, 0.0)


def test_floor_check_validation():
    with pytest.raises(ValueError):
        floor_check(-1.0, 0.1, samples=1)
    with pytest.raises(ValueError):
        floor_check(1.0, 0.0, samples=1)
