"""One particle bound by two attractive Coulomb centers, plus energy floors.

Two related certificates for the heavy-coordinate motion live here.  The
spectral side solves  -(1/(2 mu)) Lap - A/|r - c1| - A/|r - c2|  in a
Gaussian basis: its ground energy interpolates between -2 A^2 mu at zero
separation (the two wells merge into one of doubled strength) and
-A^2 mu / 2 at infinite separation, and is monotone increasing in the
separation.  The floor side checks the pointwise operator bound: for any
screened four-center interaction produced by an InteractionDecomposition,
the Rayleigh quotient of kinetic energy plus coupling times the attractive
part of the potential never drops below -2 A^2 mu, whatever the internal
geometry, because at worst both attractive singularities coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .cubature import negative_part_average
from .ecg_solver import BasisConditionError, generalized_lowest
from .effpot import InteractionDecomposition, StabilityTrial

__all__ = [
    "TwoCenterResult",
    "two_center_ground",
    "FloorSample",
    "FloorCheckResult",
    "floor_check",
    "saturating_probe",
    "WIDTH_SPAN",
]

# geometric width ladder, in units of (2 A mu)^2: wide enough to cover the
# merged-well exponent 2 A mu and the isolated-well exponent A mu at once
WIDTH_SPAN = (0.03, 6000.0)


@dataclass(frozen=True)
class TwoCenterResult:
    energy: float
    basis_size: int
    condition: float


def _f0(t: np.ndarray) -> np.ndarray:
    """Boys function of order zero, stable near t = 0."""
    t = np.asarray(t, dtype=float)
    small = t < 1e-12
    safe = np.where(small, 1.0, t)
    out = 0.5 * np.sqrt(np.pi / safe) * erf(np.sqrt(safe))
    return np.where(small, 1.0 - t / 3.0, out)


def _pencil(widths: np.ndarray, centers: np.ndarray, coupling: float, mu_r: float, wells: np.ndarray):
    """Normalized (H, S) for s-Gaussians exp(-w |r - c|^2).

    widths (n,), centers (n, 3); wells (2, 3) are the attractive sites.
    """
    w = widths
    p = w[:, None] + w[None, :]
    q = np.outer(w, w) / p
    diff = centers[:, None, :] - centers[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    s_raw = (np.pi / p) ** 1.5 * np.exp(-q * d2)
    kin = q * (3.0 - 2.0 * q * d2) * s_raw / mu_r
    barycenter = (w[:, None, None] * centers[:, None, :] + w[None, :, None] * centers[None, :, :]) / p[:, :, None]
    pot = np.zeros_like(s_raw)
    for well in wells:
        shift = barycenter - well[None, None, :]
        t = p * np.sum(shift * shift, axis=-1)
        pot -= coupling * (2.0 * np.pi / p) * np.exp(-q * d2) * _f0(t)
    h_raw = kin + pot
    norm = np.sqrt(np.diag(s_raw))
    s = s_raw / np.outer(norm, norm)
    h = h_raw / np.outer(norm, norm)
    return h, s


def two_center_ground(
    coupling: float,
    mu_r: float,
    separation: float,
    n_widths: int = 16,
    cond_cap: float = 1e12,
) -> TwoCenterResult:
    """Variational ground energy of two equal attractive Coulomb centers.

    The basis places a geometric width ladder on each center and on their
    midpoint (one copy only at zero separation, where the sites coincide).
    Raises BasisConditionError when the overlap matrix is conditioned
    beyond cond_cap, which happens for tiny nonzero separations where the
    three ladders nearly coincide.
    """
    if coupling <= 0.0 or mu_r <= 0.0:
        raise ValueError("coupling and reduced mass must be positive")
    if separation < 0.0:
        raise ValueError("separation must be nonnegative")
    kappa = 2.0 * coupling * mu_r
    ladder = kappa * kappa * np.geomspace(WIDTH_SPAN[0], WIDTH_SPAN[1], n_widths)
    half = 0.5 * separation * np.array([0.0, 0.0, 1.0])
    wells = np.stack([-half, half])
    if separation == 0.0:
        sites = np.zeros((1, 3))
    else:
        sites = np.stack([-half, half, np.zeros(3)])
    widths = np.tile(ladder, len(sites))
    centers = np.repeat(sites, len(ladder), axis=0)
    h, s = _pencil(widths, centers, coupling, mu_r, wells)
    energy, _, condition = generalized_lowest(h, s, cond_cap=cond_cap)
    return TwoCenterResult(energy=energy, basis_size=len(widths), condition=condition)


# ---------------------------------------------------------------------------
# Pointwise floor of the screened interaction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloorSample:
    a: float
    b: float
    x: tuple[float, float, float]
    y: tuple[float, float, float]
    trial_kind: str
    trial_scale: float
    trial_center: tuple[float, float, float]
    quotient: float
    error: float


@dataclass(frozen=True)
class FloorCheckResult:
    floor: float
    minimum: float
    tolerance: float
    passed: bool
    samples: tuple[FloorSample, ...]


def _attractive_average(
    decomp: InteractionDecomposition,
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    scale: float,
    center: np.ndarray,
    rel_tol: float,
):
    """<trial| max(0, -W) |trial> integrated over the heavy coordinate."""
    a, b = decomp.a, decomp.b
    z1 = -a * x - (1.0 - b) * y  # attractive singularity of the 1-4 term
    z2 = (1.0 - a) * x + b * y  # attractive singularity of the 2-3 term
    rep1 = -a * x + b * y
    rep2 = (1.0 - a) * x - (1.0 - b) * y
    if kind == "gaussian":
        r_max = 6.5 * scale

        def density(rr):
            return np.exp(-(rr / scale) ** 2) / (math.pi ** 1.5 * scale ** 3)

    else:
        r_max = 19.0 * scale

        def density(rr):
            return np.exp(-2.0 * rr / scale) / (math.pi * scale ** 3)

    sing = [z1 - center, z2 - center]
    extras = [float(np.linalg.norm(rep1 - center)), float(np.linalg.norm(rep2 - center))]

    def signed_and_weight(pts: np.ndarray, rr: np.ndarray):
        w = decomp.w(x, y, center + pts)
        return w, rr * rr * density(rr)

    res = negative_part_average(
        signed_and_weight,
        r_max,
        singular_points=sing,
        extra_radii=[e for e in extras if e < r_max],
        rel_tol=rel_tol,
        abs_floor=1e-12,
    )
    return res.value, res.error


def _floor_quotient(
    decomp: InteractionDecomposition,
    x: np.ndarray,
    y: np.ndarray,
    coupling: float,
    mu_r: float,
    kind: str,
    scale: float,
    center: np.ndarray,
    rel_tol: float,
):
    # the kinetic quotient does not depend on where the trial is centred
    kinetic = StabilityTrial(kind, 0.0, scale).kinetic_quotient(mu_r)
    if coupling == 0.0:
        return kinetic, 0.0
    value, err = _attractive_average(decomp, x, y, kind, scale, center, rel_tol)
    return kinetic - coupling * value, coupling * err


def floor_check(
    coupling: float,
    mu_r: float,
    samples: int = 100,
    seed: int = 0,
    rel_tol: float = 1e-3,
    tolerance: float = 1e-4,
) -> FloorCheckResult:
    """Randomized audit of the -2 A^2 mu floor.

    Draws random internal geometries (a, b, x, y) and random trial states
    for the heavy coordinate, centered near the attractive singularities
    where the quotient is lowest, and verifies every Rayleigh quotient
    stays above the floor up to the stated tolerance.  Any trial state is
    admissible, so randomization cannot produce a false failure beyond
    quadrature error.
    """
    if coupling < 0.0 or mu_r <= 0.0:
        raise ValueError("coupling must be nonnegative and reduced mass positive")
    floor = -2.0 * coupling * coupling * mu_r
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x7F00D)))
    out = []
    scale0 = 1.0 / (2.0 * coupling * mu_r) if coupling > 0 else 1.0
    for _ in range(samples):
        a, b = rng.uniform(0.1, 0.9, size=2)
        decomp = InteractionDecomposition(a, b)
        x = rng.normal(size=3)
        x *= 10.0 ** rng.uniform(-0.3, 0.9) / np.linalg.norm(x)
        y = rng.normal(size=3)
        y *= 10.0 ** rng.uniform(-0.3, 0.9) / np.linalg.norm(y)
        z1 = -a * x - (1.0 - b) * y
        z2 = (1.0 - a) * x + b * y
        center = (z1, z2, 0.5 * (z1 + z2))[rng.integers(0, 3)]
        kind = ("gaussian", "exponential")[rng.integers(0, 2)]
        scale = scale0 * 10.0 ** rng.uniform(-0.3, 0.3)
        quotient, err = _floor_quotient(decomp, x, y, coupling, mu_r, kind, scale, center, rel_tol)
        out.append(
            FloorSample(
                a=float(a),
                b=float(b),
                x=tuple(x),
                y=tuple(y),
                trial_kind=kind,
                trial_scale=float(scale),
                trial_center=tuple(center),
                quotient=float(quotient),
                error=float(err),
            )
        )
    minimum = min(s.quotient for s in out) if out else math.inf
    return FloorCheckResult(
        floor=floor,
        minimum=minimum,
        tolerance=tolerance,
        passed=minimum >= floor - tolerance,
        samples=tuple(out),
    )


def saturating_probe(
    coupling: float,
    mu_r: float,
    magnitude: float,
    a: float = 0.5,
    rel_tol: float = 1e-5,
):
    """Quotient along the geometry family that attains the floor in the limit.

    With b = 1 - a and x = -y both attractive singularities sit at the
    origin while the repulsive centers recede to distance |y|; the trial
    exp(-2 A mu r) then gives kinetic 2 A^2 mu against potential close to
    -4 A^2 mu, overshooting the floor by about 2 A / |y|.  Returns
    (quotient, floor, quadrature error): quotient - floor decays like
    2 A / magnitude.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if magnitude <= 0.0:
        raise ValueError("magnitude must be positive")
    decomp = InteractionDecomposition(a, 1.0 - a)
    y = np.array([0.0, 0.0, float(magnitude)])
    x = -y
    scale = 1.0 / (2.0 * coupling * mu_r)
    quotient, err = _floor_quotient(
        decomp, x, y, coupling, mu_r, "exponential", scale, np.zeros(3), rel_tol
    )
    return quotient, -2.0 * coupling * coupling * mu_r, err
