"""Each benchmark check accepts the library's real output and rejects a
perturbed one; the tracer restores the library and counts consistently.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from coulomb4 import classify, effpot, twocenter  # noqa: E402
from coulomb4.core import FourBodySystem, build_jacobi, threshold_energy  # noqa: E402
from coulomb4.effpot import InteractionDecomposition, StabilityTrial  # noqa: E402
from spans import Tracer  # noqa: E402

A, B = 0.35, 0.6
Y = np.array([0.4, -0.3, 1.1])
R = np.array([1.2, 0.5, -0.4])


@pytest.fixture(scope="module")
def screened():
    decomp = InteractionDecomposition(A, B)
    total = effpot.veff(decomp, Y, R, which="total", rel_tol=0.05)
    w1 = effpot.veff(decomp, Y, R, which="w1", rel_tol=1e-8).value
    w2 = effpot.veff(decomp, Y, R, which="w2", rel_tol=1e-8).value
    mean, se = checks.mc_screened_average(A, B, Y, R, np.random.default_rng(5), 400_000)
    return total, w1, w2, mean, se


def test_independent_w_matches_library():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1000, 3))
    want = InteractionDecomposition(A, B).w(x, Y, R)
    assert np.allclose(checks.cross_potential(A, B, x, Y, R), want, rtol=1e-12, atol=1e-14)


def test_gamma_sampler_moments():
    r = checks.gamma3_radii(np.random.default_rng(2), 200_000)
    assert np.mean(r) == pytest.approx(0.75, abs=3.0 * math.sqrt(3.0 / 16.0 / 200_000))
    assert np.var(r) == pytest.approx(3.0 / 16.0, rel=0.02)


def test_screened_checks(screened):
    total, w1, w2, mean, se = screened
    assert checks.check_screened(total.value, total.error, w1, w2) == []
    assert checks.check_against_mc(total.value, total.error, mean, se) == []
    assert se < 0.01 * total.value  # the comparison resolves a 1% error
    assert checks.check_screened(-1e-6, total.error, w1, w2)
    assert checks.check_screened(w1 + w2 + 3.0 * total.error + 1e-6, total.error, w1, w2)
    shifted = total.value + 5.0 * se + total.error
    assert checks.check_against_mc(shifted, total.error, mean, se)


def test_floor_checks():
    (s,) = twocenter.floor_check(1.0, 0.1, samples=1, seed=10, rel_tol=1e-3).samples
    assert checks.check_floor(s.quotient, s.error, 1.0, 0.1, 1e-4) == []
    assert checks.check_floor(-0.2 - 2e-4, s.error, 1.0, 0.1, 1e-4)
    assert checks.check_floor(s.quotient, 2.1e-4, 1.0, 0.1, 1e-4)


def test_quotient_checks():
    trial = StabilityTrial("exponential", 0.3, 0.5)
    (q,) = effpot.stability_functional_check(
        InteractionDecomposition(0.5, 0.5), 0.05, np.array([0.0, 0.0, 1.0]), [trial]
    )
    args = ("exponential", 0.5, 0.05)
    assert checks.check_quotient(*args, q.kinetic, q.potential, q.quotient) == []
    assert checks.check_quotient(*args, q.kinetic * (1.0 + 1e-9), q.potential, q.quotient)
    assert checks.check_quotient(*args, q.kinetic, -q.potential, q.quotient)
    assert checks.check_quotient(*args, q.kinetic, q.potential, -1e-3)


def test_solver_checks():
    # E0 values the solver reaches at the benchmark's budgets and seeds
    assert checks.check_ps2(-0.515007655, True) == []
    assert checks.check_ps2(-0.5161, True)
    assert checks.check_ps2(-0.509, True)
    assert checks.check_ps2(-0.515007655, False)
    assert checks.check_psm(-0.261993400) == []
    assert checks.check_psm(-0.2621)
    assert checks.check_psm(-0.2614)
    assert checks.check_trace("t", [-0.1, -0.2, -0.2]) == []
    assert checks.check_trace("t", [-0.1, -0.2, -0.15])
    threshold, unstable = checks.four_body_reference((1836.152672, 1.0, 1.0, 1836.152672))
    assert unstable
    assert checks.check_above_line("h", threshold, threshold) == []
    assert checks.check_above_line("h", threshold - 1e-3, threshold)


def test_mass_reference_agrees_with_library():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        masses = tuple(float(v) for v in 10.0 ** rng.uniform(-1.0, 3.0, size=4))
        threshold, unstable = checks.four_body_reference(masses)
        system = FourBodySystem(*masses)
        assert threshold == pytest.approx(threshold_energy(build_jacobi(system)), rel=1e-12)
        assert unstable == classify(system).proven_unstable


def test_tracer_counts_and_restores():
    original = effpot.InteractionDecomposition.w
    tracer = Tracer()
    with tracer.installed(0):
        effpot.veff(InteractionDecomposition(A, B), Y, R, which="total", rel_tol=0.05)
    assert effpot.InteractionDecomposition.w is original
    assert tracer.w_points_match_evals()
    layer = tracer.layer_metrics()
    assert layer["cubature.negative_part_average.calls"] == 1
    assert layer["effpot.w.points"] == layer["cubature.negative_part_average.evals_per_value"]
    own = tracer.self_times()
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1], rel=1e-9)
