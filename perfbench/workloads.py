"""The four benchmark workloads: inputs, operations and output checks.

A workload is a list of rounds; a round is a fixed list of operations of
the same kinds, each one library call on one generated input.  Inputs come
only from the benchmark seed (see each make_* function); the library gets
the generated values, never the seed.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from coulomb4 import ecg_solver, effpot, twocenter
from coulomb4.ecg_solver import CoulombSystem
from coulomb4.effpot import InteractionDecomposition, StabilityTrial

M_P = 1836.152672  # proton mass, electron masses
MU_MUON = 206.768283


@dataclass(frozen=True)
class Op:
    kind: str
    fn: Callable[[Any], Any]
    arg: Any


@dataclass(frozen=True)
class Workload:
    name: str
    round_s: float  # one round's duration on the reference machine (README)
    make_round: Callable[[np.random.Generator], list[Op]]
    warmup: Callable[[], Any]
    check: Callable[[list[Op], list[Any], np.random.Generator], list[str]]


# -- screened-scan -----------------------------------------------------------
# veff(total) at rel_tol 0.05: one outer pass, no refinement, so the cost is
# the cubature's fixed part (W kernel, azimuthal scan, bisection).

SCAN_PER_ROUND = 10
SCAN_MC_SUBSET = 6
SCAN_MC_SAMPLES = 400_000


def _veff_total(g):
    a, b, y, R = g
    return effpot.veff(InteractionDecomposition(a, b), y, R, which="total", rel_tol=0.05)


def _scan_geometry(rng):
    """Drawn the way the repository's split-sum test draws its geometries."""
    a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
    y = rng.normal(0.0, 1.0, size=3)
    R = rng.normal(0.0, 1.0, size=3)
    y *= 10.0 ** rng.uniform(-0.3, 0.7) / max(np.linalg.norm(y), 1e-12)
    R *= 10.0 ** rng.uniform(-0.3, 0.7) / max(np.linalg.norm(R), 1e-12)
    return (float(a), float(b), y, R)


def make_scan_round(rng):
    return [Op("veff_total", _veff_total, _scan_geometry(rng)) for _ in range(SCAN_PER_ROUND)]


def warm_scan():
    return _veff_total((0.5, 0.5, np.array([0.0, 0.0, 1.0]), np.array([0.3, 0.0, 1.5])))


def check_scan(ops, results, rng):
    out = []
    for op, res in zip(ops, results):
        if res is None:
            continue
        a, b, y, R = op.arg
        decomp = InteractionDecomposition(a, b)
        w1 = effpot.veff(decomp, y, R, which="w1", rel_tol=1e-8).value
        w2 = effpot.veff(decomp, y, R, which="w2", rel_tol=1e-8).value
        out += checks.check_screened(res.value, res.error, w1, w2)
    done = [k for k, r in enumerate(results) if r is not None]
    for k in rng.choice(done, size=min(SCAN_MC_SUBSET, len(done)), replace=False):
        a, b, y, R = ops[k].arg
        mean, se = checks.mc_screened_average(a, b, y, R, rng, SCAN_MC_SAMPLES)
        out += checks.check_against_mc(results[k].value, results[k].error, mean, se)
    return out


# -- floor-audit ---------------------------------------------------------------
# One sample of floor_check(1.0, 0.1, rel_tol=1e-3): trial states sit on the
# Coulomb singularities, so negative_part_average refines its outer boxes
# several times per value.  Sample costs span 0.3 s to 9 s, so a seeded
# draw of the few samples a run can hold would set wall_s by the draw, not
# by the code.  The panel is therefore fixed (floor_check seeds 0-4, five to
# seven refinement rounds per value); the benchmark seed sets their order.

FLOOR = dict(coupling=1.0, mu_r=0.1, rel_tol=1e-3, tolerance=1e-4)
FLOOR_PANEL = (0, 1, 2, 3, 4)
FLOOR_WARMUP_SEED = 10  # one outer round per value


def _floor_sample(sample_seed):
    return twocenter.floor_check(samples=1, seed=sample_seed, **FLOOR)


def make_floor_round(rng):
    return [Op("floor_sample", _floor_sample, int(s)) for s in rng.permutation(FLOOR_PANEL)]


def warm_floor():
    return _floor_sample(FLOOR_WARMUP_SEED)


def check_floor(ops, results, rng):
    out = []
    for res in results:
        if res is None:
            continue
        if len(res.samples) != 1:
            out.append(f"floor_check returned {len(res.samples)} samples, expected 1")
        for s in res.samples:
            out += checks.check_floor(s.quotient, s.error, FLOOR["coupling"], FLOOR["mu_r"], FLOOR["tolerance"])
    return out


# -- split-quotients -----------------------------------------------------------
# One trial of stability_functional_check(potential="split") at mu_R = 0.05,
# decomposition (0.5, 0.5), y = z, like the repository's quotient test.
# A trial's cost is set by its kind and scale, which fix how many of the 160
# quadrature nodes keep a weight (68 to 160, two _split_value calls each).
# Each round therefore holds both kinds at scales a decade apart, 0.5 to
# 500, each moved by a seeded factor within 10^(+-0.15), with a seeded
# offset in [0, 3] (narrow trials far out cost up to twice as much).

SPLIT_MU_R = 0.05
SPLIT_DECOMP = InteractionDecomposition(0.5, 0.5)
SPLIT_Y = np.array([0.0, 0.0, 1.0])
SPLIT_SCALES = (0.5, 5.0, 50.0, 500.0)


def _split_trial(trial):
    return effpot.stability_functional_check(SPLIT_DECOMP, SPLIT_MU_R, SPLIT_Y, [trial], potential="split")


def make_split_round(rng):
    ops = []
    for scale in SPLIT_SCALES:
        for kind in ("gaussian", "exponential"):
            trial = StabilityTrial(kind, rng.uniform(0.0, 3.0), scale * 10.0 ** rng.uniform(-0.15, 0.15))
            ops.append(Op("split_trial", _split_trial, trial))
    return ops


def warm_split():
    return _split_trial(StabilityTrial("gaussian", 0.0, 0.2))


def check_split(ops, results, rng):
    out = []
    for op, res in zip(ops, results):
        if res is None:
            continue
        (q,) = res
        t = op.arg
        out += checks.check_quotient(t.kind, t.scale, SPLIT_MU_R, q.kinetic, q.potential, q.quotient)
    return out


# -- svm-growth ------------------------------------------------------------------
# Fixed systems at the acceptance gate's budgets (large bases: dense eigen
# step) plus seeded random four-body systems at budget 60 (small bases:
# candidate scoring and the secular solve).  The random systems are 24 of
# the 28 operations, so the median op is a central one of theirs.

SVM_RANDOM_PER_FIXED = 6
PS2 = CoulombSystem((1.0, 1.0, 1.0, 1.0), (1, -1, 1, -1))
PSM = CoulombSystem((1.0, 1.0, 1.0), (-1, 1, -1))
HHBAR = CoulombSystem((M_P, 1.0, 1.0, M_P), (1, -1, 1, -1))
MUONIC = CoulombSystem((M_P, MU_MUON, 1.0, 1.0), (1, -1, 1, -1))


def _probe(arg):
    system, target, seed = arg
    return ecg_solver.stability_probe(system, target=target, seed=seed)


def _grow(arg):
    system, target, seed = arg
    return ecg_solver.svm_grow(system, target, seed=seed)


def make_svm_round(rng):
    # random systems sit between the fixed ones, so that a slow stretch of
    # machine time cannot cover all of the operations that set the median
    ops = []
    for fixed in (
        Op("ps2", _probe, (PS2, 200, 42)),
        Op("ps-", _grow, (PSM, 150, 0)),
        Op("hydrogen-antihydrogen", _grow, (HHBAR, 200, 3)),
        Op("muonic", _grow, (MUONIC, 200, 3)),
    ):
        ops.append(fixed)
        for _ in range(SVM_RANDOM_PER_FIXED):
            masses = tuple(float(m) for m in 10.0 ** rng.uniform(-1.0, 3.0, size=4))
            seed = int(rng.integers(0, 2**31))
            ops.append(Op("random", _probe, (CoulombSystem(masses, (1, -1, 1, -1)), 60, seed)))
    return ops


def warm_svm():
    return _grow((PS2, 20, 0))


def check_svm(ops, results, rng):
    out = []
    for op, res in zip(ops, results):
        if res is None:
            continue
        system = op.arg[0]
        if op.kind == "ps2":
            out += checks.check_ps2(res.e0, res.certified_bound)
        elif op.kind == "ps-":
            out += checks.check_psm(res[1].e0)
            out += checks.check_trace(op.kind, res[1].trace)
        elif op.kind in ("hydrogen-antihydrogen", "muonic"):
            threshold, unstable = checks.four_body_reference(system.masses)
            if not unstable:
                out.append(f"{op.kind}: expected a proven-unstable system")
            out += checks.check_trace(op.kind, res[1].trace)
            out += checks.check_above_line(op.kind, min(res[1].trace), threshold)
        else:
            # the trace is a running minimum, so E0 below the line is the
            # only way any size could cross it
            threshold, unstable = checks.four_body_reference(system.masses)
            if abs(res.threshold - threshold) > 1e-12 * abs(threshold):
                out.append(f"random {system.masses}: threshold {res.threshold!r} != {threshold!r}")
            if res.verdict.proven_unstable != unstable:
                out.append(f"random {system.masses}: verdict disagrees with the mass criterion")
            if unstable:
                out += checks.check_above_line(f"random {system.masses}", res.e0, threshold)
    return out


def ps2_e0(ops, results) -> float:
    for op, res in zip(ops, results):
        if op.kind == "ps2" and res is not None:
            return res.e0
    return math.nan


WORKLOADS = {
    w.name: w
    for w in (
        Workload("screened-scan", 3.4, make_scan_round, warm_scan, check_scan),
        Workload("floor-audit", 12.0, make_floor_round, warm_floor, check_floor),
        Workload("split-quotients", 12.0, make_split_round, warm_split, check_split),
        Workload("svm-growth", 22.0, make_svm_round, warm_svm, check_svm),
    )
}
