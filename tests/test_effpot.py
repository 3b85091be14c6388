"""Screened cross-pair potential: distances, splits, averages, envelopes."""

import math

import mpmath
import numpy as np
import pytest

from coulomb4 import cubature, effpot
from coulomb4.cubature import QuadratureError
from coulomb4.effpot import (
    GroundPairDensity,
    InteractionDecomposition,
    StabilityTrial,
    negative_part,
    pair_distance_oracle,
    stability_functional_check,
    veff,
    veff_bound_check,
)
from coulomb4.chain_verify import chain_coefficient

PAIRS = [(1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4)]


def _random_decomp(rng):
    return InteractionDecomposition(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))


# -- geometry ---------------------------------------------------------------


def test_distances_match_position_reconstruction():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        m = 10.0 ** rng.uniform(-1.5, 3.0, size=4)
        decomp = InteractionDecomposition(m[1] / (m[0] + m[1]), m[3] / (m[2] + m[3]))
        x, y, R = rng.normal(0.0, 2.0, size=(3, 3))
        got = decomp.distances(x, y, R)
        want = pair_distance_oracle(m, x, y, R)
        for pair in PAIRS:
            assert got[pair] == pytest.approx(want[pair], rel=1e-12, abs=1e-15)


def _oracle_w(masses, x, y, R):
    d = pair_distance_oracle(masses, x, y, R)
    return 1.0 / d[(1, 3)] + 1.0 / d[(2, 4)] - 1.0 / d[(1, 4)] - 1.0 / d[(2, 3)]


def test_w_kernel_matches_position_reconstruction():
    # the cubature varies x (veff) or R (floor audit) over a point batch
    rng = np.random.default_rng(124)
    for _ in range(200):
        m = 10.0 ** rng.uniform(-1.5, 3.0, size=4)
        decomp = InteractionDecomposition(m[1] / (m[0] + m[1]), m[3] / (m[2] + m[3]))
        x, y, R = rng.normal(0.0, 2.0, size=(3, 3))
        batch = rng.normal(0.0, 2.0, size=(50, 3))
        for args in ((batch, y, R), (x, y, batch), (x, y, R)):
            got = decomp.w(*args)
            want = _oracle_w(m, *args)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_collapsed_pairs_geometry():
    decomp = InteractionDecomposition(0.5, 0.5)
    d = decomp.distances(np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    for pair in ((1, 3), (1, 4), (2, 3), (2, 4)):
        assert d[pair] == pytest.approx(1.0, rel=1e-15)
    assert d[(1, 2)] == 0.0 and d[(3, 4)] == 0.0
    # both pairs sitting on top of each other: the cross terms cancel exactly
    w = decomp.w(np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    assert abs(float(w)) <= 1e-15


def test_symmetric_configuration_pairs_up():
    decomp = InteractionDecomposition(0.5, 0.5)
    x = np.array([0.3, -0.2, 0.7])
    d = decomp.distances(x, x, np.zeros(3))
    assert d[(1, 4)] == pytest.approx(d[(2, 3)], rel=1e-15)
    assert d[(1, 3)] == pytest.approx(d[(2, 4)], rel=1e-15)


def test_decomposition_rejects_boundary_weights():
    for a, b in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(ValueError):
            InteractionDecomposition(a, b)


# -- split bookkeeping --------------------------------------------------------


def test_negative_part_examples():
    out = negative_part(np.array([1.0, -2.0, 0.0, -1e-9]))
    assert out.tolist() == [0.0, 2.0, 0.0, 1e-9]


def test_split_groups_sum_to_full_interaction():
    rng = np.random.default_rng(8)
    for _ in range(500):
        decomp = _random_decomp(rng)
        x, y, R = rng.normal(0.0, 1.5, size=(3, 3))
        w = float(decomp.w(x, y, R))
        w1 = float(decomp.w1(x, y, R))
        w2 = float(decomp.w2(x, y, R))
        assert w == pytest.approx(w1 + w2, rel=1e-12, abs=1e-13)


def test_positive_negative_split_identities():
    rng = np.random.default_rng(9)
    decomp = InteractionDecomposition(0.4, 0.7)
    pts = rng.normal(0.0, 2.0, size=(4000, 3))
    y = np.array([0.1, 0.0, 0.9])
    R = np.array([0.0, 0.4, 1.1])
    w = decomp.w(pts, y, R)
    wm = negative_part(w)
    wp = w + wm
    assert np.all(wp >= 0.0) and np.all(wm >= 0.0)
    assert np.max(np.abs(wp - wm - w)) <= 1e-14
    assert np.max(np.abs(wp * wm)) == 0.0


def test_pointwise_subadditivity_of_negative_parts():
    rng = np.random.default_rng(10)
    for _ in range(200):
        decomp = _random_decomp(rng)
        pts = rng.normal(0.0, 2.0, size=(200, 3))
        y, R = rng.normal(0.0, 1.5, size=(2, 3))
        total = negative_part(decomp.w(pts, y, R))
        split = negative_part(decomp.w1(pts, y, R)) + negative_part(decomp.w2(pts, y, R))
        assert np.all(total <= split + 1e-13)


# -- ground-pair density -------------------------------------------------------


def test_density_is_normalized():
    assert abs(GroundPairDensity().norm_residual()) <= 1e-8


def test_density_sampler_matches_radial_law():
    rng = np.random.default_rng(77)
    r = GroundPairDensity().sample_radii(rng, 200_000)
    # Gamma(3, 1/4): mean 3/4, variance 3/16
    assert np.mean(r) == pytest.approx(0.75, abs=3.0 * math.sqrt(3.0 / 16.0 / 200_000))
    pts = GroundPairDensity().sample_points(rng, 50_000)
    assert np.linalg.norm(np.mean(pts, axis=0)) <= 0.02


# -- averaged potentials --------------------------------------------------------


def test_split_average_matches_monte_carlo():
    decomp = InteractionDecomposition(0.5, 0.5)
    y = np.array([0.0, 0.0, 1.0])
    R = np.array([0.0, 0.0, 2.0])
    quadrature = veff(decomp, y, R, which="w1", rel_tol=1e-8)
    rng = np.random.default_rng(11)
    n = 20_000_000
    pts = GroundPairDensity().sample_points(rng, n)
    vals = negative_part(decomp.w1(pts, y, R))
    mc = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(n))
    assert abs(quadrature.value - mc) <= 3.0 * se
    assert se < 1e-4  # the comparison has actual resolving power


def test_split_average_reflection_symmetry():
    # the two groups mirror into each other: the first group of (a, b) at
    # offset R + (1-b) y equals the second group of (1-a, b) at R' = R + y,
    # which shares that offset
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b = rng.uniform(0.1, 0.9, size=2)
        y, R = rng.normal(0.0, 1.2, size=(2, 3))
        v1 = veff(InteractionDecomposition(a, b), y, R, which="w1", rel_tol=1e-9)
        v2 = veff(InteractionDecomposition(1.0 - a, b), y, R + y, which="w2", rel_tol=1e-9)
        assert v1.value == pytest.approx(v2.value, rel=1e-8, abs=1e-12)


def test_total_average_within_split_sum():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(1000):
        decomp = _random_decomp(rng)
        y = rng.normal(0.0, 1.0, size=3)
        R = rng.normal(0.0, 1.0, size=3)
        y *= 10.0 ** rng.uniform(-0.3, 0.7) / max(np.linalg.norm(y), 1e-12)
        R *= 10.0 ** rng.uniform(-0.3, 0.7) / max(np.linalg.norm(R), 1e-12)
        total = veff(decomp, y, R, which="total", rel_tol=0.05)
        v1 = veff(decomp, y, R, which="w1", rel_tol=1e-8)
        v2 = veff(decomp, y, R, which="w2", rel_tol=1e-8)
        assert total.value <= v1.value + v2.value + 3.0 * total.error
        assert total.value >= -1e-12
        checked += 1
    assert checked == 1000


# veff(total, rel_tol=0.05) before the W kernel, point layout and root
# finder were rewritten: (a, b, y, R, value, error, scan + panel
# evaluations).  The last six put y parallel to R, so W does not depend on
# the azimuth and no root is refined.
PINNED_TOTAL_AVERAGES = (
    (0.833, 0.171, (-0.606, 0.44, 0.401), (-1.488, 1.889, -1.243), 0.009747384219164476, 1.5897500448459973e-06, 876375),
    (0.946, 0.402, (-1.086, 0.538, 1.203), (1.721, 0.293, -0.668), 0.08719399823653967, 0.0007855600170239452, 527803),
    (0.373, 0.716, (-2.328, 0.533, 0.854), (-0.416, 0.053, 2.031), 0.04841242912044976, 3.861681698306475e-05, 836930),
    (0.876, 0.481, (-0.689, 1.711, -1.093), (3.313, 0.984, -0.795), 0.00809273148016312, 4.862392830426696e-06, 830500),
    (0.214, 0.545, (0.237, -0.305, 0.418), (-1.309, -3.484, -1.752), 0.0015443509688677502, 2.677217697259172e-07, 813690),
    (0.21, 0.902, (0.456, -0.344, 0.319), (0.507, 0.395, 1.581), 0.037062428958969364, 1.0233362183718418e-05, 793080),
    (0.061, 0.351, (1.575, 0.515, -1.165), (-2.647, -0.208, 0.145), 0.04860223265767134, 1.8601775781322327e-05, 806275),
    (0.665, 0.782, (1.349, 1.865, -1.305), (0.545, -2.754, -0.557), 0.01956171625860958, 4.3887036875576115e-06, 794320),
    (0.424, 0.122, (-0.531, -0.241, -0.668), (2.698, -0.037, 2.574), 0.00810814715275619, 3.2059981929234536e-06, 838995),
    (0.832, 0.438, (0.282, -2.351, -1.866), (-0.786, 0.698, 0.699), 0.17520701315918435, 0.0012670598215295814, 796570),
    (0.652, 0.241, (0.318, -0.35, 0.94), (2.918, 2.087, 1.496), 0.0038269187811211234, 1.4768983045399538e-06, 850280),
    (0.238, 0.49, (0.406, 0.33, -0.017), (0.974, -0.165, -0.428), 0.09298213319491197, 2.7968450538368176e-05, 782400),
    (0.629, 0.165, (-0.381, 0.835, 0.305), (0.232, 0.434, -1.249), 0.06642446818496131, 7.205850862664889e-05, 829855),
    (0.707, 0.79, (0.152, 0.092, 1.645), (-1.113, 0.119, 0.588), 0.10831932633272577, 0.00017353476327424137, 847070),
    (0.3, 0.6, (0.0, 0.0, 1.3), (0.0, 0.0, 2.1), 0.07513159353708741, 0.00023624487966925184, 598185),
    (0.5, 0.5, (0.0, 0.0, 1.0), (0.0, 0.0, 1.5), 0.1280006997972312, 0.00023321375031357014, 519776),
    (0.2, 0.7, (0.0, 0.0, 0.8), (0.0, 0.0, -1.2), 0.13905750433388184, 8.048473284291774e-05, 707745),
    (0.7, 0.35, (0.0, 0.0, 2.5), (0.0, 0.0, 0.6), 1.489360241385585, 0.005558909314944961, 687835),
    (0.45, 0.55, (0.869, 0.6732, -0.0132), (1.501, 1.1628, -0.0228), 0.074787898710021, 9.805871365181419e-05, 624200),
    (0.6, 0.25, (0.553, 0.4284, -0.0084), (-1.896, -1.4688, 0.0288), 0.02433498519099933, 1.6710547078299564e-05, 609020),
)


def test_total_average_matches_pinned_values(monkeypatch):
    root_evals = []
    refine = cubature._AzimuthalIntegrator._refine_roots

    def counting(self, *args):
        roots, n = refine(self, *args)
        root_evals.append(n)
        return roots, n

    monkeypatch.setattr(cubature._AzimuthalIntegrator, "_refine_roots", counting)
    for a, b, y, R, value, error, scan_and_panel in PINNED_TOTAL_AVERAGES:
        root_evals.clear()
        res = veff(InteractionDecomposition(a, b), np.array(y), np.array(R), which="total", rel_tol=0.05)
        assert abs(res.value - value) <= res.error + error
        assert res.n_evals - sum(root_evals) <= scan_and_panel


def test_root_refinement_brackets_and_count():
    # on circles of radius r in the e1-e2 plane, g = cos(phi) - (r - 2) has
    # its roots at +-arccos(r - 2); the scan brackets both, and the Illinois
    # steps close each bracket to the bisection width in far fewer than the
    # 44 evaluations bisection takes
    radii = np.array([1.03, 1.5, 2.0, 2.3, 2.8, 2.999])

    def signed_and_weight(pts, rr):
        return pts[..., 0] / rr - (rr - 2.0), np.ones_like(rr)

    basis = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    inner = cubature._AzimuthalIntegrator(signed_and_weight, basis, [], inner_rel=1e-9)
    phi = cubature._SCAN_PHI
    g = np.cos(phi)[None, :] - (radii[:, None] - 2.0)
    neg = g < 0.0
    node, k = np.nonzero(neg != np.roll(neg, -1, axis=1))
    assert len(node) == 2 * len(radii)
    step = 2.0 * math.pi / len(phi)
    r = radii[node]
    roots, n_evals = inner._refine_roots(
        r, np.ones_like(r), np.zeros_like(r), phi[k], phi[k] + step, g[node, k], g[node, (k + 1) % len(phi)]
    )
    half = np.arccos(r - 2.0)
    want = np.where(k < len(phi) // 2, half, 2.0 * math.pi - half)
    assert np.all(np.abs(roots - want) <= 1e-13)
    assert np.all((roots >= phi[k]) & (roots <= phi[k] + step))
    assert n_evals <= 10 * len(node)


def test_unknown_selector_rejected():
    with pytest.raises(ValueError):
        veff(InteractionDecomposition(0.5, 0.5), np.zeros(3), np.ones(3), which="w3")


def test_total_average_budget_exhaustion():
    decomp = InteractionDecomposition(0.5, 0.5)
    with pytest.raises(QuadratureError) as exc:
        veff(decomp, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 2.0]),
             which="total", rel_tol=1e-12, max_evals=2000)
    assert exc.value.n_evals >= 2000
    assert math.isfinite(exc.value.value)


# -- split groups: closed pieces and the fixed Gauss-Kronrod rule -------------------


def test_gauss_kronrod_rule_degrees():
    # Kronrod 15 is exact through degree 23, its Gauss 7 subset through 13
    for deg in range(24):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert effpot._GK_W @ effpot._GK_X ** deg == pytest.approx(exact, abs=1e-15)
        if deg < 14:
            assert effpot._G7_W @ effpot._GK_X ** deg == pytest.approx(exact, abs=1e-15)
    assert abs(effpot._G7_W @ effpot._GK_X ** 14 - 2.0 / 15.0) > 1e-6


def _split_reference(c, a):
    """V1(c, a) at 30 digits from the angular closed form with both square
    roots and the clipped cap (not the form the library integrates), split
    at c/a, c/(1-a), the cap edge 2c/|1-2a| and at c 2^j below r = 1."""
    with mpmath.workdps(30):
        c, a = mpmath.mpf(c), mpmath.mpf(a)

        def integrand(r):
            mu_bar = r * (1 - 2 * a) / (2 * c)
            if r == 0 or mu_bar <= -1:
                return mpmath.mpf(0)
            mu = min(mu_bar, mpmath.mpf(1))
            s1 = mpmath.sqrt(c * c + (a * r) ** 2 + 2 * a * c * r * mu) - abs(c - a * r)
            s2 = c + (1 - a) * r - mpmath.sqrt(c * c + ((1 - a) * r) ** 2 - 2 * (1 - a) * c * r * mu)
            return 16 * r * r * mpmath.exp(-4 * r) * (s1 / (a * c * r) - s2 / ((1 - a) * c * r))

        r_max = min(max(14, c / a + 4, c / (1 - a) + 4), 60)
        breaks = {c / a, c / (1 - a), 1, 2, 4, 8}
        if a != mpmath.mpf(0.5):
            breaks.add(2 * c / abs(1 - 2 * a))
        breaks |= {c * 2 ** j for j in range(60) if c * 2 ** j < 1}
        edges = [0] + sorted(p for p in breaks if 0 < p < r_max) + [r_max]
        value, error = mpmath.quad(integrand, edges, error=True)
        assert error < mpmath.mpf(10) ** -25 * value
        return float(value)


SPLIT_A = (0.5, 0.5 + 1e-13, 0.5 - 1e-13, 0.3, 0.7, 0.001, 0.999)
SPLIT_C = (1e-5, 1e-4, 3e-4, 0.01, 0.3, 1.0, 5.0, 60.0)


@pytest.fixture(scope="module")
def split_reference():
    return {(a, c): _split_reference(c, a) for a in SPLIT_A for c in SPLIT_C}


def test_split_values_match_mpmath_reference(split_reference):
    for a in SPLIT_A:
        values, _ = effpot._split_values(np.array(SPLIT_C), a)
        for c, value in zip(SPLIT_C, values):
            want = split_reference[(a, c)]
            assert abs(value - want) <= 1e-11 * want, (a, c, value, want)
    # below c = 1e-12 the c -> 0 limit 2 (1/a - 1/(1-a))^+ is used
    for a in SPLIT_A:
        values, errors = effpot._split_values(np.array([0.0, 5e-13]), a)
        gap = 1.0 / a - 1.0 / (1.0 - a)
        assert values.tolist() == [max(2.0 * gap, 0.0)] * 2
        assert errors.tolist() == [0.0, 0.0]


def test_split_errors_bound_measured_errors(split_reference):
    for a in SPLIT_A:
        values, errors = effpot._split_values(np.array(SPLIT_C), a)
        for c, value, error in zip(SPLIT_C, values, errors):
            want = split_reference[(a, c)]
            assert abs(value - want) <= error + 1e-13 * want, (a, c, value, want, error)
            assert error <= 1e-8 * want


def test_split_values_are_batch_independent():
    # a batch is evaluated in fixed-size chunks; each offset's value must
    # not depend on which others share its call
    rng = np.random.default_rng(15)
    c = 10.0 ** rng.uniform(-6.0, 2.0, size=3 * effpot._SPLIT_CHUNK + 5)
    c[::7] = 0.0
    for a in (0.2, 0.5, 0.85):
        values, errors = effpot._split_values(c, a)
        for k in rng.choice(len(c), size=8, replace=False):
            (one,), (err,) = effpot._split_values(c[k:k + 1], a)
            assert one == pytest.approx(values[k], rel=1e-14, abs=0.0)
            # |Kronrod - Gauss| is rounding noise once the rules agree
            assert err == pytest.approx(errors[k], rel=1e-12, abs=1e-15 * values[k])


# -- envelopes -------------------------------------------------------------------


def _stratified_geometries(rng, n):
    out = []
    for i in range(n):
        stratum = i % 5
        if stratum == 0:  # generic
            a, b = rng.uniform(0.1, 0.9, size=2)
            y, R = rng.normal(0.0, 1.0, size=(2, 3))
        elif stratum == 1:  # collinear y and R
            a, b = rng.uniform(0.1, 0.9, size=2)
            z = np.array([0.0, 0.0, 1.0])
            y = z * rng.uniform(0.2, 3.0)
            R = z * rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        elif stratum == 2:  # lopsided internal weights
            a, b = 0.999, 0.001
            y, R = rng.normal(0.0, 1.0, size=(2, 3))
        elif stratum == 3:  # small offsets
            a, b = rng.uniform(0.3, 0.7, size=2)
            y = rng.normal(0.0, 0.1, size=3)
            R = rng.normal(0.0, 0.1, size=3)
        else:  # far separations
            a, b = rng.uniform(0.1, 0.9, size=2)
            y = rng.normal(0.0, 0.5, size=3)
            R = rng.normal(0.0, 8.0, size=3)
        decomp = InteractionDecomposition(a, b)
        if np.linalg.norm(decomp.centre_first(y, R)) < 1e-6:
            continue
        if np.linalg.norm(decomp.centre_second(y, R)) < 1e-6:
            continue
        out.append((decomp, y, R))
    return out


def test_envelope_bounds_split_averages():
    rng = np.random.default_rng(13)
    geoms = _stratified_geometries(rng, 1000)
    assert len(geoms) > 950
    worst = math.inf
    for decomp, y, R in geoms:
        check = veff_bound_check(decomp, y, R)
        worst = min(worst, check.residual_w1, check.residual_w2)
        assert check.passed, (decomp, y, R)
    assert worst >= -1e-6


def test_envelope_bound_is_approached():
    # sup of value / bound over offsets should come close to 1
    decomp = InteractionDecomposition(0.5, 0.5)
    best = 0.0
    for c in np.geomspace(0.05, 20.0, 40):
        y = np.array([0.0, 0.0, 1e-9])
        R = np.array([0.0, 0.0, float(c)])
        check = veff_bound_check(decomp, y, R)
        best = max(best, check.value_w1 / check.bound_w1)
    assert 0.99 < best <= 1.0 + 1e-9


def test_split_average_decays_with_separation():
    decomp = InteractionDecomposition(0.5, 0.5)
    y = np.array([0.0, 0.0, 0.6])
    values = []
    for dist in (2.0, 5.0, 10.0, 20.0):
        R = np.array([0.0, 0.0, dist])
        check = veff_bound_check(decomp, y, R)
        values.append(check.value_w1)
        assert check.value_w1 <= check.bound_w1
    assert all(b < a for a, b in zip(values, values[1:]))


def test_envelope_rejects_zero_offset():
    decomp = InteractionDecomposition(0.5, 0.5)
    y = np.array([0.0, 0.0, 2.0])
    R = -0.5 * y  # centre_first exactly zero
    with pytest.raises(ValueError):
        veff_bound_check(decomp, y, R)


# -- screened relative-motion quotients -------------------------------------------


def _trial_family():
    trials = []
    for kind in ("gaussian", "exponential"):
        for offset in (0.0, 0.3, 1.0, 3.0, 10.0):
            for scale in (0.2, 0.5, 1.0, 2.5, 6.0, 15.0, 40.0, 100.0, 250.0, 600.0):
                trials.append(StabilityTrial(kind, offset, scale))
    return trials


def test_quotients_nonnegative_below_critical_mass():
    decomp = InteractionDecomposition(0.5, 0.5)
    quotients = stability_functional_check(
        decomp, 0.05, np.array([0.0, 0.0, 1.0]), _trial_family()
    )
    assert len(quotients) == 100
    worst = min(q.quotient for q in quotients)
    assert worst >= -1e-6, worst


# stability_functional_check(..., potential="split") before the split groups
# were batched, when each node made two scipy quad calls:
# ((a, b), y, (kind, offset, scale), potential), all at mu_R = 0.05
PINNED_SPLIT_POTENTIALS = (
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("gaussian", 0.0, 0.5), 0.7592394345815894),
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("exponential", 0.0, 0.5), 0.6099335269634065),
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("gaussian", 1.0, 5.0), 0.01610782354200563),
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("exponential", 3.0, 5.0), 0.015687885975993857),
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("gaussian", 10.0, 50.0), 0.00015801950977761755),
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("exponential", 10.0, 500.0), 8.485178315963432e-07),
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("gaussian", 0.3, 500.0), 1.4524281949852273e-06),
    ((0.5, 0.5), (0.0, 0.0, 1.0), ("exponential", 10.0, 1.0), 0.003832187873798453),
    ((0.3, 0.6), (0.2, -0.4, 1.1), ("gaussian", 0.0, 2.5), 0.06417378787059512),
    ((0.3, 0.6), (0.2, -0.4, 1.1), ("exponential", 3.0, 0.5), 0.05350690525322934),
    ((0.8, 0.35), (0.0, 0.7, -0.3), ("gaussian", 10.0, 15.0), 0.005734019433553815),
    ((0.8, 0.35), (0.0, 0.7, -0.3), ("exponential", 0.0, 50.0), 8.481133271377253e-05),
)


def test_split_potentials_match_pinned_values():
    for (a, b), y, (kind, offset, scale), potential in PINNED_SPLIT_POTENTIALS:
        (q,) = stability_functional_check(
            InteractionDecomposition(a, b), 0.05, np.array(y), [StabilityTrial(kind, offset, scale)]
        )
        assert q.potential == pytest.approx(potential, rel=1e-8, abs=0.0)


def test_quotients_recorded_above_critical_mass():
    # above the critical mass the bound gives no sign; record, don't assert
    decomp = InteractionDecomposition(0.5, 0.5)
    trials = [StabilityTrial("gaussian", 0.0, s) for s in (0.5, 1.0, 2.0, 5.0)]
    quotients = stability_functional_check(decomp, 0.3, np.array([0.0, 0.0, 1.0]), trials)
    values = [q.quotient for q in quotients]
    assert all(math.isfinite(v) for v in values)
    print(f"relative-motion quotients at mass 0.3: min {min(values):.6f}")


def test_quotient_assembly():
    decomp = InteractionDecomposition(0.5, 0.5)
    trial = StabilityTrial("gaussian", 0.0, 2.0)
    (q,) = stability_functional_check(decomp, 0.05, np.array([0.0, 0.0, 1.0]), [trial])
    assert q.kinetic == pytest.approx(3.0 / (4.0 * 0.05 * 4.0), rel=1e-15)
    assert q.quotient == pytest.approx(
        q.kinetic - chain_coefficient(0.05) * q.potential, rel=1e-12
    )
    assert q.potential > 0.0


def test_trial_validation():
    with pytest.raises(ValueError):
        StabilityTrial("lorentzian", 0.0, 1.0)
    with pytest.raises(ValueError):
        StabilityTrial("gaussian", 0.0, 0.0)
    with pytest.raises(ValueError):
        stability_functional_check(
            InteractionDecomposition(0.5, 0.5), 0.05, np.zeros(3),
            [StabilityTrial("gaussian", 0.0, 1.0)], potential="bogus",
        )
