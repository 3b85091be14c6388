"""Variational ground-state bounds from explicitly correlated Gaussians.

Basis functions are exp(-xi^T (A otimes I3) xi) over Jacobi coordinates xi,
with A symmetric positive-definite; all matrix elements (overlap, kinetic,
pairwise Coulomb) have closed forms, and the lowest generalized eigenvalue
of the (H, S) pencil is a rigorous upper bound on the ground energy.  The
basis grows stochastically: each step draws a pool of candidate matrices
built from random pair-distance scales, scores every candidate by the exact
rank-one bordering of the current pencil, and keeps the best.

Certification logic: an upper bound E0 below the dissociation threshold by
more than a configured margin certifies binding; no variational value can
certify its absence.  A certificate for a system the closed-form criterion
proves unstable is a hard internal inconsistency and raises immediately.

All particles are treated as distinguishable, with spherically symmetric
(L = 0) Gaussians only; for the systems exercised here the physical ground
state lies in the sector this ansatz reaches, so the bounds are valid and
tight in practice.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FourBodySystem
from .criterion import Classification, Verdict, classify

__all__ = [
    "BasisConditionError",
    "StabilityContradictionError",
    "GrowthStallWarning",
    "CoulombSystem",
    "GaussianBasisElement",
    "MatrixElements",
    "SpectralResult",
    "ProbeResult",
    "MassFamily",
    "ScanRow",
    "matrix_elements",
    "generalized_lowest",
    "svm_grow",
    "stability_probe",
    "probe_from_growth",
    "mass_ratio_scan",
    "save_basis",
    "load_basis",
    "CERT_MARGIN_REL",
    "CERT_MARGIN_ABS",
    "certification_margin",
]

CERT_MARGIN_REL = 1e-6
CERT_MARGIN_ABS = 5e-5
DEFAULT_CONDITION_CAP = 1e12


class BasisConditionError(RuntimeError):
    """Overlap condition number above the configured cap."""

    def __init__(self, condition: float, cap: float):
        super().__init__(f"overlap condition {condition:.3e} exceeds cap {cap:.3e}")
        self.condition = condition
        self.cap = cap


class StabilityContradictionError(RuntimeError):
    """A binding certificate for a system proven unstable: internal bug."""


class GrowthStallWarning(UserWarning):
    """No admissible candidate in a pool; growth returned a partial basis."""


def certification_margin(threshold: float) -> float:
    """Absolute energy margin required below threshold to certify binding."""
    return max(CERT_MARGIN_REL * abs(threshold), CERT_MARGIN_ABS)


@dataclass(frozen=True)
class CoulombSystem:
    """2-, 3-, or 4-body system of unit charges interacting by Coulomb law."""

    masses: tuple[float, ...]
    charges: tuple[int, ...]

    def __post_init__(self):
        n = len(self.masses)
        if n not in (2, 3, 4) or len(self.charges) != n:
            raise ValueError("system needs 2, 3, or 4 masses with matching charges")
        if any(m <= 0 or not math.isfinite(m) for m in self.masses):
            raise ValueError("masses must be positive and finite")
        if any(q not in (-1, 1) for q in self.charges):
            raise ValueError("charges must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.masses)

    def scaled(self, factor: float) -> "CoulombSystem":
        return CoulombSystem(tuple(factor * m for m in self.masses), self.charges)


def _pair_reduced(masses: Sequence[float], i: int, j: int) -> float:
    return masses[i] * masses[j] / (masses[i] + masses[j])


class _Layout:
    """Jacobi tree, reduced masses, pair geometry, and threshold for a system."""

    def __init__(self, system: CoulombSystem):
        self.system = system
        m = np.asarray(system.masses, dtype=float)
        q = system.charges
        n = system.n
        U = np.zeros((n, n))
        if n == 2:
            if q[0] * q[1] >= 0:
                raise ValueError("two-body system must be oppositely charged")
            U[0, 0], U[0, 1] = -1.0, 1.0
            self.threshold = 0.0
        elif n == 3:
            attract = [(i, j) for i in range(3) for j in range(i + 1, 3) if q[i] * q[j] < 0]
            if not attract:
                raise ValueError("three-body system needs at least one attractive pair")
            i, j = max(attract, key=lambda p: (_pair_reduced(m, *p), -p[0], -p[1]))
            k = ({0, 1, 2} - {i, j}).pop()
            mij = m[i] + m[j]
            U[0, i], U[0, j] = -1.0, 1.0
            U[1, i], U[1, j], U[1, k] = -m[i] / mij, -m[j] / mij, 1.0
            self.threshold = float(-0.5 * max(_pair_reduced(m, a, b) for a, b in attract))
        else:
            plus = [i for i in range(4) if q[i] > 0]
            minus = [i for i in range(4) if q[i] < 0]
            if len(plus) != 2:
                raise ValueError("four-body system must carry two positive and two negative charges")
            options = []
            for swap in (False, True):
                mn = minus if not swap else minus[::-1]
                pairs = ((plus[0], mn[0]), (plus[1], mn[1]))
                musum = sum(_pair_reduced(m, *p) for p in pairs)
                options.append((musum, pairs))
            _, pairs = max(options, key=lambda t: t[0])
            (i1, j1), (i2, j2) = pairs
            m12 = m[i1] + m[j1]
            m34 = m[i2] + m[j2]
            U[0, i1], U[0, j1] = -1.0, 1.0
            U[1, i2], U[1, j2] = -1.0, 1.0
            U[2, i1], U[2, j1] = -m[i1] / m12, -m[j1] / m12
            U[2, i2], U[2, j2] = m[i2] / m34, m[j2] / m34
            self.threshold = float(-0.5 * (_pair_reduced(m, i1, j1) + _pair_reduced(m, i2, j2)))
        U[n - 1, :] = m / m.sum()
        self.U = U
        self.dim = n - 1
        self.mu = 1.0 / np.array([np.sum(U[k, :] ** 2 / m) for k in range(n - 1)])
        self.lam = np.diag(1.0 / (2.0 * self.mu))
        V = np.linalg.inv(U)
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pair_w = np.array([V[j, : n - 1] - V[i, : n - 1] for (i, j) in self.pairs])
        self.pair_qq = np.array([float(q[i] * q[j]) for (i, j) in self.pairs])
        self.pair_mu = np.array([_pair_reduced(m, i, j) for (i, j) in self.pairs])


@dataclass(frozen=True, eq=False)
class GaussianBasisElement:
    """One correlated Gaussian exp(-xi^T (A otimes I3) xi).

    matrix must be symmetric positive-definite; provenance records how the
    element was generated (seed and growth step) for reproducibility audits.
    """

    matrix: np.ndarray
    provenance: tuple = ()

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ValueError("correlation matrix must be symmetric")
        if np.linalg.eigvalsh(a)[0] <= 0.0:
            raise ValueError("correlation matrix must be positive-definite")
        object.__setattr__(self, "matrix", a)


# ---------------------------------------------------------------------------
# Closed-form matrix elements, batched over stacks of correlation matrices.
# Conventions: elements are normalized (diagonal overlap = 1); kinetic is
# sum_k p_k^2 / (2 mu_k); Coulomb values are <1/r_pair> times the overlap.
# ---------------------------------------------------------------------------


def _norm_factors(stack: np.ndarray) -> np.ndarray:
    return np.linalg.det(2.0 * stack) ** 0.75


def _cross_blocks(a_stack, b_stack, layout: _Layout):
    """Overlap, kinetic, and per-pair Coulomb blocks between two stacks."""
    nu_a = _norm_factors(a_stack)
    nu_b = _norm_factors(b_stack)
    M = a_stack[:, None, :, :] + b_stack[None, :, :, :]
    det_m = np.linalg.det(M)
    inv_m = np.linalg.inv(M)
    S = (nu_a[:, None] * nu_b[None, :]) / det_m ** 1.5
    GA = a_stack @ layout.lam  # (na, d, d)
    T1 = np.einsum("aij,bjk->abik", GA, b_stack)
    kin_q = 6.0 * np.einsum("abik,abki->ab", T1, inv_m)
    c_pair = np.einsum("pi,abij,pj->pab", layout.pair_w, inv_m, layout.pair_w)
    inv_r = 2.0 / np.sqrt(math.pi * c_pair)  # (npairs, na, nb)
    return S, kin_q * S, inv_r * S[None, :, :]


def _hamiltonian_blocks(a_stack, b_stack, layout: _Layout):
    S, kin, inv_r = _cross_blocks(a_stack, b_stack, layout)
    V = np.einsum("p,pab->ab", layout.pair_qq, inv_r)
    return S, kin + V


@dataclass(frozen=True)
class MatrixElements:
    overlap: float
    kinetic: float
    coulomb: dict  # pair (i, j) -> <1/r_pair> * overlap, charge factors not applied

    def hamiltonian(self, charges: Sequence[int]) -> float:
        v = sum(charges[i] * charges[j] * val for (i, j), val in self.coulomb.items())
        return self.kinetic + v


def matrix_elements(elem_i: GaussianBasisElement, elem_j: GaussianBasisElement, system: CoulombSystem) -> MatrixElements:
    """Normalized closed-form elements between two basis functions."""
    layout = _Layout(system)
    a = elem_i.matrix[None, :, :]
    b = elem_j.matrix[None, :, :]
    S, kin, inv_r = _cross_blocks(a, b, layout)
    cou = {pair: float(inv_r[p, 0, 0]) for p, pair in enumerate(layout.pairs)}
    return MatrixElements(float(S[0, 0]), float(kin[0, 0]), cou)


def generalized_lowest(h: np.ndarray, s: np.ndarray, cond_cap: float = DEFAULT_CONDITION_CAP):
    """Lowest eigenpair of the symmetric-definite pencil (H, S).

    Raises BasisConditionError when the overlap condition number exceeds the
    cap: with Gaussian overlaps this signals near linear dependence, and
    eigenvalues computed past that point can dip below the true variational
    minimum.
    """
    h = np.asarray(h, dtype=float)
    s = np.asarray(s, dtype=float)
    vals, vecs = np.linalg.eigh(s)
    if vals[0] <= 0.0:
        raise BasisConditionError(math.inf, cond_cap)
    condition = float(vals[-1] / vals[0])
    if condition > cond_cap:
        raise BasisConditionError(condition, cond_cap)
    x = vecs / np.sqrt(vals)
    ht = x.T @ h @ x
    d, y = np.linalg.eigh(ht)
    z = x @ y
    return float(d[0]), z[:, 0], condition


def _full_spectrum(h: np.ndarray, s: np.ndarray, cond_cap: float):
    vals, vecs = np.linalg.eigh(s)
    if vals[0] <= 0.0:
        raise BasisConditionError(math.inf, cond_cap)
    condition = float(vals[-1] / vals[0])
    if condition > cond_cap:
        raise BasisConditionError(condition, cond_cap)
    x = vecs / np.sqrt(vals)
    d, y = np.linalg.eigh(x.T @ h @ x)
    return d, x @ y, condition


def _secular_lowest(d: np.ndarray, s_t: np.ndarray, h_t: np.ndarray, hc: np.ndarray):
    """Ground eigenvalue of each rank-one bordered pencil, vectorized.

    d: current spectrum (n,); s_t, h_t: candidate cross vectors rotated into
    the eigenbasis, shape (n, m); hc: candidate diagonal energies (m,).
    Returns the new ground energies (m,); candidates that do not couple give
    back d[0].
    """
    n, m = s_t.shape
    d0 = d[0]

    def g(e):  # e shape (m,)
        num = h_t - e[None, :] * s_t
        return hc - e - np.sum(num * num / (d[:, None] - e[None, :]), axis=0)

    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.full(m, d0 - 1e-14 * (1.0 + abs(d0)))
        lo = np.minimum(np.full(m, d0), hc) - 1.0
        for _ in range(80):
            bad = g(lo) <= 0.0
            if not bad.any():
                break
            lo[bad] = d0 - 2.0 * (d0 - lo[bad])
        root_exists = g(hi) < 0.0
        lo = np.where(root_exists, lo, d0)
        hi = np.where(root_exists, hi, d0)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            pos = g(mid) > 0.0
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
    return np.where(root_exists, 0.5 * (lo + hi), d0)


@dataclass(frozen=True)
class SpectralResult:
    e0: float
    basis_size: int
    condition: float
    threshold: float
    margin: float  # threshold - e0; positive means below threshold
    trace: tuple[float, ...]


def _matrices_from_exponents(layout: _Layout, exponents: np.ndarray) -> np.ndarray:
    """Pair-form correlation matrices from log10 pair-distance offsets.

    Each row gives one candidate: distance scale 10**e / mu_pair per pair,
    matrix sum_pairs w w^T / (2 d^2).  Always SPD since the pair vectors of
    any single coordinate span the Jacobi space.
    """
    d_pair = (10.0 ** exponents) / layout.pair_mu[None, :]
    c_pair = 1.0 / (2.0 * d_pair ** 2)
    w = layout.pair_w  # (npairs, dim)
    return np.einsum("kp,pi,pj->kij", c_pair, w, w)


def _candidate_exponents(layout: _Layout, rng: np.random.Generator, pool: int, kept: list) -> tuple[np.ndarray, int]:
    """Fresh log-uniform draws plus mutations of already accepted elements.

    Returns (exponents, n_fresh); rows past n_fresh are mutation moves,
    which refine scales the growth has already found productive.
    """
    npairs = len(layout.pairs)
    n_mut = pool // 3 if kept else 0
    n_fresh = pool - n_mut
    rows = [rng.uniform(-2.0, 2.0, size=(n_fresh, npairs))]
    if n_mut:
        idx = rng.integers(0, len(kept), size=n_mut)
        base = np.stack([kept[i] for i in idx])
        rows.append(np.clip(base + rng.normal(0.0, 0.3, size=base.shape), -2.0, 2.0))
    return np.vstack(rows), n_fresh


def _ladder_matrices(layout: _Layout, pool: int) -> np.ndarray:
    """Deterministic geometric width ladder for the one-coordinate case.

    A single relative coordinate has a one-parameter basis, and an
    even-tempered ladder converges fast and reproducibly; random scales
    would only add noise here.
    """
    mu = layout.mu[0]
    w = mu * mu * np.geomspace(1e-4, 3e4, pool)
    return w[:, None, None]


def svm_grow(
    system: CoulombSystem,
    target: int,
    seed: int = 0,
    pool: int = 48,
    cond_cap: float = DEFAULT_CONDITION_CAP,
):
    """Grow a basis to the target size, greedily keeping the best candidate
    of each random pool; returns (elements, SpectralResult).

    Fully deterministic for fixed (system, target, seed, pool).  Candidates
    whose Gram residual against the current basis is below 1/cond_cap are
    rejected before scoring, which keeps the overlap condition bounded and
    the variational property intact.  If a pool yields no admissible
    candidate, a GrowthStallWarning is issued and the partial basis
    returned.
    """
    if target < 1:
        raise ValueError("target basis size must be at least 1")
    layout = _Layout(system)
    ss = np.random.SeedSequence(entropy=(int(seed), 0x5C9A1B))
    children = ss.spawn(target)
    deterministic = layout.dim == 1

    mats: list[np.ndarray] = []
    kept_exps: list[np.ndarray] = []
    provenance: list[tuple] = []
    trace: list[float] = []
    d_spec = None
    z = None
    s_full = np.zeros((0, 0))
    h_full = np.zeros((0, 0))
    e0 = math.inf
    condition = 1.0

    for step in range(target):
        if deterministic:
            cands = _ladder_matrices(layout, max(pool, target + 12, 24))
            n_fresh = len(cands)
            exps = None
        else:
            rng = np.random.default_rng(children[step])
            exps, n_fresh = _candidate_exponents(layout, rng, pool, kept_exps)
            cands = _matrices_from_exponents(layout, exps)
        s_cc, h_cc = _hamiltonian_blocks(cands, cands, layout)
        hc = np.diag(h_cc).copy()

        if not mats:
            best = int(np.argmin(hc))
        else:
            a_stack = np.stack(mats)
            s_cross, h_cross = _hamiltonian_blocks(a_stack, cands, layout)
            s_t = z.T @ s_cross  # rotate into current eigenbasis
            h_t = z.T @ h_cross
            gram_residual = 1.0 - np.sum(s_t * s_t, axis=0)
            admissible = gram_residual > 1.0 / cond_cap
            if deterministic:
                # the fixed ladder re-offers accepted widths; drop exact repeats
                for m_known in mats:
                    admissible &= np.abs(cands[:, 0, 0] - m_known[0, 0]) > 1e-30
            if not admissible.any():
                warnings.warn(
                    f"no admissible candidate at step {step}; returning partial basis",
                    GrowthStallWarning,
                )
                break
            roots = _secular_lowest(d_spec, s_t, h_t, hc)
            roots = np.where(admissible, roots, math.inf)
            best = int(np.argmin(roots))

        chosen = cands[best]
        tentative_s = np.zeros((len(mats) + 1, len(mats) + 1))
        tentative_h = np.zeros_like(tentative_s)
        if mats:
            tentative_s[:-1, :-1] = s_full
            tentative_h[:-1, :-1] = h_full
            tentative_s[:-1, -1] = s_cross[:, best]
            tentative_s[-1, :-1] = s_cross[:, best]
            tentative_h[:-1, -1] = h_cross[:, best]
            tentative_h[-1, :-1] = h_cross[:, best]
        tentative_s[-1, -1] = 1.0
        tentative_h[-1, -1] = hc[best]
        try:
            d_new, z_new, condition = _full_spectrum(tentative_h, tentative_s, cond_cap)
        except BasisConditionError:
            warnings.warn(
                f"accepted candidate broke the condition cap at step {step}; "
                "returning partial basis",
                GrowthStallWarning,
            )
            break
        mats.append(chosen)
        if deterministic:
            provenance.append((seed, step, "ladder"))
        else:
            kept_exps.append(exps[best])
            provenance.append((seed, step, "pool" if best < n_fresh else "mutate"))
        s_full, h_full = tentative_s, tentative_h
        d_spec, z = d_new, z_new
        e0 = min(e0, float(d_spec[0]))
        trace.append(e0)

    elements = [GaussianBasisElement(m, p) for m, p in zip(mats, provenance)]
    result = SpectralResult(
        e0=e0,
        basis_size=len(mats),
        condition=condition,
        threshold=layout.threshold,
        margin=layout.threshold - e0,
        trace=tuple(trace),
    )
    return elements, result


@dataclass(frozen=True)
class ProbeResult:
    e0: float
    threshold: float
    certified_bound: bool
    margin: float
    epsilon: float
    basis_size: int
    verdict: Verdict | None


def probe_from_growth(system: CoulombSystem, result: SpectralResult) -> ProbeResult:
    """Test a grown basis's spectrum for a certified bound state below threshold.

    certified_bound is True only when E0 < E_th - eps with eps well above
    the worst eigenvalue error at the condition cap, so a certificate is
    trustworthy.  For four-body systems the closed-form classification is
    consulted: a certificate on a proven-unstable system raises
    StabilityContradictionError, because one of the two routes must be
    wrong.
    """
    eps = certification_margin(result.threshold)
    certified = bool(result.e0 < result.threshold - eps)
    verdict = None
    if system.n == 4:
        verdict = classify(FourBodySystem(*system.masses))
        if certified and verdict.classification is Classification.PROVEN_UNSTABLE:
            raise StabilityContradictionError(
                f"solver certified E0 = {result.e0:.9f} < threshold {result.threshold:.9f} - {eps:.1e} "
                "for a system the mass criterion proves unstable"
            )
    return ProbeResult(
        e0=result.e0,
        threshold=result.threshold,
        certified_bound=certified,
        margin=result.margin,
        epsilon=eps,
        basis_size=result.basis_size,
        verdict=verdict,
    )


def stability_probe(
    system: CoulombSystem,
    target: int = 200,
    seed: int = 0,
    pool: int = 48,
    cond_cap: float = DEFAULT_CONDITION_CAP,
) -> ProbeResult:
    """Run the solver and test for a certified bound state below threshold.

    Grows a basis with svm_grow and passes its spectrum to
    probe_from_growth.
    """
    _, result = svm_grow(system, target, seed=seed, pool=pool, cond_cap=cond_cap)
    return probe_from_growth(system, result)


@dataclass(frozen=True)
class MassFamily:
    """One-parameter family of four-body systems for criterion/solver maps."""

    name: str
    builder: Callable[[float], tuple[float, float, float, float]]
    charges: tuple[int, int, int, int] = (1, -1, 1, -1)

    def system(self, value: float) -> CoulombSystem:
        return CoulombSystem(tuple(float(m) for m in self.builder(value)), self.charges)


TWO_PLUS_TWO = MassFamily("two-heavy-two-light", lambda m: (m, m, 1.0, 1.0))


@dataclass(frozen=True)
class ScanRow:
    value: float
    ratio: float
    classification: str
    e0: float | None
    threshold: float | None
    margin: float | None
    certified_bound: bool | None
    error: str | None


def mass_ratio_scan(
    family: MassFamily,
    values: Sequence[float],
    target: int = 120,
    seed: int = 0,
    pool: int = 48,
) -> list[ScanRow]:
    """Criterion verdict and solver margin across a mass family.

    Per-point failures are recorded in the row and the scan continues; the
    criterion columns are exact, the solver columns are variational

    upper-bound data only.
    """
    rows = []
    for k, value in enumerate(values):
        try:
            system = family.system(value)
            verdict = classify(FourBodySystem(*system.masses))
            probe = stability_probe(system, target=target, seed=seed + k, pool=pool)
            rows.append(
                ScanRow(
                    value=float(value),
                    ratio=verdict.ratio,
                    classification=verdict.classification.value,
                    e0=probe.e0,
                    threshold=probe.threshold,
                    margin=probe.margin,
                    certified_bound=probe.certified_bound,
                    error=None,
                )
            )
        except StabilityContradictionError:
            raise
        except Exception as exc:  # noqa: BLE001 - per-point robustness is the contract
            try:
                verdict = classify(FourBodySystem(*family.builder(value)))
                ratio, cls = verdict.ratio, verdict.classification.value
            except Exception:
                ratio, cls = math.nan, "error"
            rows.append(ScanRow(float(value), ratio, cls, None, None, None, None, repr(exc)))
    return rows


def save_basis(path: str, system: CoulombSystem, elements: Sequence[GaussianBasisElement], result: SpectralResult) -> None:
    """Persist a grown basis as JSON (masses, charges, matrices, E0 trace)."""
    doc = {
        "masses": [repr(m) for m in system.masses],
        "charges": list(system.charges),
        "e0": result.e0,
        "threshold": result.threshold,
        "condition": result.condition,
        "trace": list(result.trace),
        "elements": [
            {
                "matrix": [[float(v) for v in row] for row in el.matrix],
                "provenance": list(el.provenance),
            }
            for el in elements
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_basis(path: str):
    """Inverse of save_basis: returns (system, elements, stored SpectralResult)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    system = CoulombSystem(tuple(float(m) for m in doc["masses"]), tuple(int(q) for q in doc["charges"]))
    elements = [
        GaussianBasisElement(np.asarray(e["matrix"], dtype=float), tuple(e.get("provenance", ())))
        for e in doc["elements"]
    ]
    result = SpectralResult(
        e0=float(doc["e0"]),
        basis_size=len(elements),
        condition=float(doc["condition"]),
        threshold=float(doc["threshold"]),
        margin=float(doc["threshold"]) - float(doc["e0"]),
        trace=tuple(float(v) for v in doc["trace"]),
    )
    return system, elements, result
