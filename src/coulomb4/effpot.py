"""Effective potentials from averaging the cross-pair Coulomb terms.

With the tight pair frozen in its ground state (density rho(x) = (8/pi)
exp(-4|x|) after canonical rescaling), the four cross interactions between
the pairs reduce to a screened potential in the remaining coordinates
(y, R).  Only the attractive part of that average matters for lower
bounds, so the module exposes

  * the signed cross-interaction W(x, y, R) and its split W1 + W2 into the
    two three-distance groups,
  * veff: the density average of the negative part, either of the full W
    (adaptive cubature) or of one split group (closed-form angular
    reduction; the radial integral is closed-form past the polar-cap edge
    and a fixed Gauss-Kronrod rule before it, evaluated for many offsets
    at once),
  * envelope checks against the 3/16 / distance^2 bounds,
  * a Rayleigh-quotient probe of the screened two-body operator on
    explicit trial states.

Distances are validated against direct particle-position reconstruction in
pair_distance_oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammainc

from .chain_verify import chain_coefficient, pair_ground_state
from .core import FourBodySystem, JacobiFrame, build_jacobi
from .cubature import QuadratureError, negative_part_average, orthonormal_basis

__all__ = [
    "GroundPairDensity",
    "InteractionDecomposition",
    "VeffResult",
    "EnvelopeCheck",
    "QuadratureError",
    "negative_part",
    "pair_distance_oracle",
    "veff",
    "veff_bound_check",
    "stability_functional_check",
    "StabilityTrial",
    "TrialQuotient",
]


def negative_part(values: np.ndarray) -> np.ndarray:
    """max(0, -v), elementwise; the attractive content of a signed potential."""
    return np.maximum(0.0, -np.asarray(values, dtype=float))


@dataclass(frozen=True)
class GroundPairDensity:
    """Probability density of the rescaled tight-pair ground state.

    |phi(x)|^2 = (8/pi) exp(-4|x|); radial law r^2 exp(-4r) up to
    normalisation, i.e. a Gamma(3, 1/4) radius.
    """

    def __call__(self, r):
        return pair_ground_state(r) ** 2

    def sample_radii(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(shape=3.0, scale=0.25, size=n)

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        r = self.sample_radii(rng, n)
        u = rng.uniform(-1.0, 1.0, n)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        s = np.sqrt(1.0 - u * u)
        return np.column_stack([r * s * np.cos(phi), r * s * np.sin(phi), r * u])

    def norm_residual(self) -> float:
        """Int_0^40 4 pi r^2 rho dr - 1 = -e^{-160} (1 + 160 + 160^2 / 2)."""
        return -math.exp(-160.0) * (1.0 + 160.0 + 160.0 ** 2 / 2.0)


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(v, dtype=float) ** 2, axis=-1))


def _inverse_distance(x, y, R, alpha: float, beta: float) -> np.ndarray:
    """1 / |alpha x + R + beta y|, broadcast over the leading axes.

    The squared norm is accumulated one Cartesian component at a time, so
    no (..., 3) temporaries are formed; each component is rounded exactly
    as the vector expression R + alpha x + beta y in distances is.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    R = np.asarray(R, dtype=float)
    c0 = alpha * x[..., 0] + R[..., 0] + beta * y[..., 0]
    c1 = alpha * x[..., 1] + R[..., 1] + beta * y[..., 1]
    c2 = alpha * x[..., 2] + R[..., 2] + beta * y[..., 2]
    return 1.0 / np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


@dataclass(frozen=True)
class InteractionDecomposition:
    """Cross-pair Coulomb terms for internal weights a (tight pair) and b.

    Particle positions relative to the pair centres are -a x, (1-a) x for
    the first pair and -b y, (1-b) y for the second; R joins the centres.
    The four cross distances then are

        d13 = |R + a x - b y|        (+ charge product)
        d14 = |R + a x + (1-b) y|    (-)
        d23 = |R - (1-a) x - b y|    (-)
        d24 = |R - (1-a) x + (1-b) y|(+)

    W = 1/d13 + 1/d24 - 1/d14 - 1/d23.  The split bounds group the terms
    by their common y-offset: W1 = 1/d24 - 1/d14 shares the centre
    c = R + (1-b) y, and W2 = 1/d13 - 1/d23 shares the centre d = R - b y.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0) or not (0.0 < self.b < 1.0):
            raise ValueError("internal mass weights must lie strictly inside (0, 1)")

    @classmethod
    def from_frame(cls, frame: JacobiFrame) -> "InteractionDecomposition":
        return cls(a=frame.a, b=frame.b)

    # -- pair separations ------------------------------------------------
    def distances(self, x, y, R) -> dict:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        R = np.asarray(R, dtype=float)
        a, b = self.a, self.b
        return {
            (1, 2): _norms(x),
            (3, 4): _norms(y),
            (1, 3): _norms(R + a * x - b * y),
            (1, 4): _norms(R + a * x + (1.0 - b) * y),
            (2, 3): _norms(R - (1.0 - a) * x - b * y),
            (2, 4): _norms(R - (1.0 - a) * x + (1.0 - b) * y),
        }

    def w(self, x, y, R) -> np.ndarray:
        a, b = self.a, self.b
        return (
            _inverse_distance(x, y, R, a, -b)
            + _inverse_distance(x, y, R, a - 1.0, 1.0 - b)
            - _inverse_distance(x, y, R, a, 1.0 - b)
            - _inverse_distance(x, y, R, a - 1.0, -b)
        )

    def w1(self, x, y, R) -> np.ndarray:
        """Terms with y-offset (1-b): repulsive 24 against attractive 14."""
        a, b = self.a, self.b
        return _inverse_distance(x, y, R, a - 1.0, 1.0 - b) - _inverse_distance(x, y, R, a, 1.0 - b)

    def w2(self, x, y, R) -> np.ndarray:
        """Terms with y-offset -b: repulsive 13 against attractive 23."""
        a, b = self.a, self.b
        return _inverse_distance(x, y, R, a, -b) - _inverse_distance(x, y, R, a - 1.0, -b)

    # -- geometric anchors ----------------------------------------------
    def centre_first(self, y, R) -> np.ndarray:
        """c = R + (1-b) y, the common offset of the W1 group."""
        return np.asarray(R, dtype=float) + (1.0 - self.b) * np.asarray(y, dtype=float)

    def centre_second(self, y, R) -> np.ndarray:
        """d = R - b y, the common offset of the W2 group."""
        return np.asarray(R, dtype=float) - self.b * np.asarray(y, dtype=float)


def pair_distance_oracle(masses: Sequence[float], x, y, R) -> dict:
    """Six separations via explicit particle positions (centre of mass at 0).

    Independent of the formula route in InteractionDecomposition.distances:
    reconstructs r_i from the Jacobi vectors and takes norms.
    """
    m1, m2, m3, m4 = (float(m) for m in masses)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    R = np.asarray(R, dtype=float)
    m12 = m1 + m2
    m34 = m3 + m4
    total = m12 + m34
    a = m2 / m12
    b = m4 / m34
    c12 = -(m34 / total) * R
    c34 = (m12 / total) * R
    r1 = c12 - a * x
    r2 = c12 + (1.0 - a) * x
    r3 = c34 - b * y
    r4 = c34 + (1.0 - b) * y
    pos = {1: r1, 2: r2, 3: r3, 4: r4}
    out = {}
    for i in (1, 2, 3):
        for j in range(i + 1, 5):
            out[(i, j)] = _norms(pos[i] - pos[j])
    return out


# ---------------------------------------------------------------------------
# Screened potential of one split group: closed angular reduction.
#
# The W1 group pairs the repulsive d24 = |c - (1-a) x| with the attractive
# d14 = |c + a x|, both offset by c = R + (1-b) y.  Averaging the negative
# part of W1 over the isotropic density gives, with c = |c|,
#
#   V1(c, a) = 16 Int_0^r_max r^2 e^{-4 r} I(r, c, a) dr,
#
# where the angular integral I has a closed form: the integrand
# max(0, 1/|c + a r n| - 1/|c - (1-a) r n|) is supported on the polar cap
# mu <= mu*(r) = clip(r (1 - 2a) / (2c), -1, 1) and integrates to
# antiderivatives of the two inverse distances.  V2(d, b-group) equals
# V1(d, 1-a) by the x -> -x reflection.  r_max = min(60, max(14, c/a + 4,
# c/(1-a) + 4)); below c = 1e-12 the c -> 0 limit is used.
#
# The radial integrand changes form only at c/a and at the cap edge
# 2c/|1-2a|, where mu* reaches +-1:
#
#   * Before the cap edge (every r when a = 1/2) both square roots equal
#     S = sqrt(c^2 + a(1-a) r^2), and with u = 2c + (1-2a) r
#
#       I = u min(r, u) / (c (S + |c - a r|) (S + c + (1-a) r)),
#
#     whose factors are all positive.  Splitting it instead into r S e^{-4r}
#     and polynomial pieces would cancel terms of size 1/c.  This stretch is
#     integrated by one fixed Gauss-Kronrod 7/15 rule on panels with edges
#     c 2^j (below r = 1, since the branch points of S sit at
#     +-i c / sqrt(a(1-a))), then at 1, 2, ..., 12 and at c/a, and one
#     panel for the negligible tail.  |Kronrod - Gauss| per panel is the
#     error estimate.
#   * Past the cap edge I = 0 when a > 1/2; when a < 1/2,
#     I = 2/c - 2/((1-a) r) below c/a and 2(1-2a) / (a(1-a) r) above it, so
#     the integrand is a polynomial times e^{-4r}, integrated in closed form
#     with lower incomplete gamma functions (all terms positive).
#
# The result is close to full precision, so the split groups take no
# tolerance.
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7/15 (QUADPACK dqk15): the nonnegative Kronrod abscissae,
# their Kronrod weights, and the Gauss weights at abscissae 1, 3, 5 and 7
_GK_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GK_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_GK_X = np.concatenate([-_GK_XK[:-1], _GK_XK[::-1]])
_GK_W = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
_G7_W = np.concatenate([_GK_WG[:-1], _GK_WG[::-1]])

_SPLIT_CHUNK = 32  # offsets per batch; bounds the temporaries
_GRADED_EDGES = 2.0 ** np.arange(40)  # times c: reaches 1 for every c >= 1e-12
_UNIT_EDGES = np.arange(1.0, 13.0)


def _exp_moments(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Int_p^q r e^{-4r} dr and Int_p^q r^2 e^{-4r} dr, for 0 <= p <= q.

    Expanded about p: e^{-4p} sum_j binom(n, j) p^{n-j} gamma(j+1, 4h) /
    4^{j+1} with h = q - p, whose terms are all nonnegative.
    """
    x = 4.0 * (q - p)
    g1 = -np.expm1(-x)
    g2 = gammainc(2.0, x)
    g3 = 2.0 * gammainc(3.0, x)
    scale = np.exp(-4.0 * p)
    m1 = scale * (p * g1 / 4.0 + g2 / 16.0)
    m2 = scale * (p * p * g1 / 4.0 + p * g2 / 8.0 + g3 / 64.0)
    return m1, m2


def _split_chunk(c: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """V1(c, a) and its error for offsets c >= 1e-12 (see the block above)."""
    n = len(c)
    k = a * (1.0 - a)
    tilt = 1.0 - 2.0 * a
    r_max = np.clip(c / min(a, 1.0 - a) + 4.0, 14.0, 60.0)
    kink = c / a
    open_end = np.minimum(2.0 * c / abs(tilt), r_max) if tilt != 0.0 else r_max

    # before the cap edge: Gauss-Kronrod panels, flattened over all offsets
    edges = np.concatenate(
        [
            np.minimum(c[:, None] * _GRADED_EDGES, 1.0),
            np.broadcast_to(_UNIT_EDGES, (n, len(_UNIT_EDGES))),
            kink[:, None],
            open_end[:, None],
        ],
        axis=1,
    )
    hi = np.sort(np.minimum(edges, open_end[:, None]), axis=1)
    lo = np.concatenate([np.zeros((n, 1)), hi[:, :-1]], axis=1)
    live = hi > lo
    owner = np.nonzero(live)[0]
    half = 0.5 * (hi[live] - lo[live])
    r = (0.5 * (hi[live] + lo[live]))[:, None] + half[:, None] * _GK_X
    cc = c[owner][:, None]
    u = 2.0 * cc + tilt * r
    s = np.sqrt(cc * cc + k * r * r)
    f = (16.0 * r * r * np.exp(-4.0 * r)) * u * np.minimum(r, u) / (
        cc * (s + np.abs(cc - a * r)) * (s + cc + (1.0 - a) * r)
    )
    kronrod = half * (f @ _GK_W)
    values = np.bincount(owner, kronrod, minlength=n)
    errors = np.bincount(owner, np.abs(kronrod - half * (f @ _G7_W)), minlength=n)

    # past the cap edge (a < 1/2): polynomial times e^{-4r}, in closed form
    if tilt > 0.0:
        mid = np.clip(kink, open_end, r_max)
        m1, m2 = _exp_moments(open_end, mid)
        values += 32.0 * m2 / c - 32.0 * m1 / (1.0 - a)
        m1, _ = _exp_moments(mid, r_max)
        values += 32.0 * tilt / k * m1
    return values, errors + 50.0 * np.finfo(float).eps * values


def _split_values(c, a: float) -> tuple[np.ndarray, np.ndarray]:
    """V1(c, a) and error bounds for an array of offsets c, in fixed-size batches."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    values = np.empty_like(c)
    errors = np.zeros_like(c)
    tiny = c < 1e-12
    gap = 1.0 / a - 1.0 / (1.0 - a)
    values[tiny] = 2.0 * gap if gap > 0.0 else 0.0
    rest = np.flatnonzero(~tiny)
    for start in range(0, len(rest), _SPLIT_CHUNK):
        sel = rest[start:start + _SPLIT_CHUNK]
        values[sel], errors[sel] = _split_chunk(c[sel], a)
    return values, errors


@dataclass(frozen=True)
class VeffResult:
    value: float
    error: float
    n_evals: int
    which: str


def veff(
    decomp: InteractionDecomposition,
    y,
    R,
    which: str = "total",
    rel_tol: float = 1e-6,
    max_evals: int = 40_000_000,
) -> VeffResult:
    """Average of the attractive part of W (or one split group) over the
    tight-pair ground density, as a function of (y, R).

    which: "total" uses adaptive 3-d cubature of max(0, -W); "w1" / "w2"
    use the exact angular reduction of the corresponding group, evaluated
    close to full precision whatever rel_tol says.  Raises QuadratureError
    (carrying the running estimate) if the evaluation budget is exhausted
    before the tolerance is met.
    """
    y = np.asarray(y, dtype=float)
    R = np.asarray(R, dtype=float)
    key = which.lower()
    if key in ("w1", "1"):
        val, err = _split_values(_norms(decomp.centre_first(y, R)), decomp.a)
        return VeffResult(float(val[0]), float(err[0]), 0, "w1")
    if key in ("w2", "2"):
        val, err = _split_values(_norms(decomp.centre_second(y, R)), 1.0 - decomp.a)
        return VeffResult(float(val[0]), float(err[0]), 0, "w2")
    if key != "total":
        raise ValueError(f"unknown veff selector: {which!r}")

    a = decomp.a
    c_vec = decomp.centre_first(y, R)
    d_vec = decomp.centre_second(y, R)
    # attractive singular x-points: 1/|c + a x| at -c/a, 1/|d - (1-a) x| at d/(1-a)
    sing = [-c_vec / a, d_vec / (1.0 - a)]
    # repulsive kink radii (W crosses 0 nearby): centres of the + terms
    extras = [float(_norms(d_vec)) / a, float(_norms(c_vec)) / (1.0 - a)]
    radii = [float(_norms(p)) for p in sing]
    r_max = min(40.0, max(14.0, 1.2 * max(radii) + 2.0))
    extras = [e for e in extras if e < r_max]

    def signed_and_weight(pts: np.ndarray, rr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = decomp.w(pts, y, R)
        rho = (8.0 / math.pi) * np.exp(-4.0 * rr)
        return w, rr * rr * rho

    res = negative_part_average(
        signed_and_weight,
        r_max,
        singular_points=sing,
        extra_radii=extras,
        rel_tol=rel_tol,
        abs_floor=1e-14,
        max_evals=max_evals,
    )
    return VeffResult(res.value, res.error, res.n_evals, "total")


@dataclass(frozen=True)
class EnvelopeCheck:
    value_w1: float
    bound_w1: float
    value_w2: float
    bound_w2: float

    @property
    def residual_w1(self) -> float:
        return self.bound_w1 - self.value_w1

    @property
    def residual_w2(self) -> float:
        return self.bound_w2 - self.value_w2

    @property
    def passed(self) -> bool:
        return self.residual_w1 >= -1e-9 and self.residual_w2 >= -1e-9


def veff_bound_check(decomp: InteractionDecomposition, y, R, rel_tol: float = 1e-8) -> EnvelopeCheck:
    """Compare each split average against its envelope (3/16) / offset^2.

    The split averages are evaluated close to full precision; rel_tol is
    accepted for compatibility and does not change them.
    """
    c = float(_norms(decomp.centre_first(y, R)))
    d = float(_norms(decomp.centre_second(y, R)))
    if c < 1e-12 or d < 1e-12:
        raise ValueError("envelope bound is singular at zero pair-centre offset")
    (v1,), _ = _split_values(c, decomp.a)
    (v2,), _ = _split_values(d, 1.0 - decomp.a)
    return EnvelopeCheck(float(v1), 3.0 / (16.0 * c * c), float(v2), 3.0 / (16.0 * d * d))


# ---------------------------------------------------------------------------
# Rayleigh-quotient probe of  p^2 / (2 mu_R) - C(mu_R) Veff(y, .)
# on explicit, documented trial states.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityTrial:
    """Trial wavefunction for the screened relative-motion operator.

    kind "gaussian": chi(R) = exp(-|R - off yhat|^2 / (2 scale^2)),
    kinetic quotient 3 / (4 mu scale^2).
    kind "exponential": chi(R) = exp(-|R - off yhat| / scale),
    kinetic quotient 1 / (2 mu scale^2).
    """

    kind: str
    offset: float
    scale: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "exponential"):
            raise ValueError(f"unknown trial kind: {self.kind!r}")
        if self.scale <= 0.0:
            raise ValueError("trial scale must be positive")

    def kinetic_quotient(self, mu_r: float) -> float:
        if self.kind == "gaussian":
            return 3.0 / (4.0 * mu_r * self.scale * self.scale)
        return 1.0 / (2.0 * mu_r * self.scale * self.scale)

    def weight(self, dist: np.ndarray) -> np.ndarray:
        if self.kind == "gaussian":
            return np.exp(-(dist * dist) / (self.scale * self.scale))
        return np.exp(-2.0 * dist / self.scale)


@dataclass(frozen=True)
class TrialQuotient:
    trial: StabilityTrial
    kinetic: float
    potential: float
    quotient: float


def stability_functional_check(
    decomp: InteractionDecomposition,
    mu_r: float,
    y,
    trials: Sequence[StabilityTrial],
    potential: str = "split",
    rel_tol: float = 1e-6,
    n_axial: int = 16,
    n_radial: int = 10,
) -> list[TrialQuotient]:
    """Rayleigh quotients of p^2/(2 mu_R) - C(mu_R) Veff on the given trials.

    Veff is axisymmetric about the y direction, so the expectation reduces
    to a 2-d cylindrical quadrature.  potential="split" replaces Veff by
    the group sum V1 + V2, which can only overstate the attraction
    (negative parts are subadditive): a nonnegative quotient then still
    certifies that the trial fails to bind.  Both groups are evaluated for
    all nodes of a trial at once, close to full precision; rel_tol is not
    used.  potential="total" uses the full adaptive Veff at
    max(rel_tol, 1e-4), one node at a time (much slower per node).
    """
    y = np.asarray(y, dtype=float)
    coeff = chain_coefficient(mu_r)
    if potential not in ("split", "total"):
        raise ValueError(f"unknown potential selector: {potential!r}")
    if _norms(y) < 1e-14:
        axis = np.array([0.0, 0.0, 1.0])
    else:
        axis = y / _norms(y)
    e1, _, e3 = orthonormal_basis(axis)

    gl_z, gw_z = np.polynomial.legendre.leggauss(n_axial)
    gl_r, gw_r = np.polynomial.legendre.leggauss(n_radial)

    out = []
    for trial in trials:
        span = 7.0 * trial.scale if trial.kind == "gaussian" else 9.0 * trial.scale
        z, rho = np.meshgrid(trial.offset + span * gl_z, 0.5 * span * (gl_r + 1.0), indexing="ij")
        wgt = trial.weight(np.hypot(z - trial.offset, rho)) * rho * (span * gw_z)[:, None] * (0.5 * span * gw_r)
        keep = wgt >= 1e-18
        wgt = wgt[keep]
        R_nodes = z[keep][:, None] * e3 + rho[keep][:, None] * e1
        if potential == "split":
            v1, _ = _split_values(_norms(decomp.centre_first(y, R_nodes)), decomp.a)
            v2, _ = _split_values(_norms(decomp.centre_second(y, R_nodes)), 1.0 - decomp.a)
            v = v1 + v2
        else:
            v = np.array(
                [veff(decomp, y, R, which="total", rel_tol=max(rel_tol, 1e-4)).value for R in R_nodes]
            )
        mean_v = float(wgt @ v) / float(np.sum(wgt))
        kin = trial.kinetic_quotient(mu_r)
        out.append(TrialQuotient(trial, kin, mean_v, kin - coeff * mean_v))
    return out
