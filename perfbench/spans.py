"""Spans around the library's layer entry points, and the per-layer metrics.

The tracer replaces module and class attributes of coulomb4 with wrappers
while it is installed.  Library code looks these names up at call time
(module globals and class attributes), so calls made inside the library
are traced too.  Each span records its name, start, end, parent span, the
benchmark operation it belongs to, and a few counts taken at the boundary.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from coulomb4 import cubature, ecg_solver, effpot, twocenter


def _w_points(args, result):
    _, x, y, R = args
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(R))[:-1]
    return {"points": math.prod(shape)}


def _veff_which(args, result):
    return {"which": result.which}


def _n_evals(args, result):
    return {"n_evals": result.n_evals}


def _nodes(args, result):
    return {"nodes": len(args[1])}


def _trials(args, result):
    return {"trials": len(result)}


def _samples(args, result):
    return {"samples": len(result.samples)}


def _pairs(args, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _candidates(args, result):
    return {"candidates": int(np.shape(args[1])[1])}


def _growth(args, result):
    res = result[1]
    return {"steps": len(res.trace), "condition": res.condition}


# (owner, attribute, span name, boundary counts).  A function imported by
# name into several modules is wrapped in each of them.
LAYERS = (
    (effpot.InteractionDecomposition, "w", "effpot.w", _w_points),
    (cubature, "negative_part_average", "cubature.negative_part_average", _n_evals),
    (effpot, "negative_part_average", "cubature.negative_part_average", _n_evals),
    (twocenter, "negative_part_average", "cubature.negative_part_average", _n_evals),
    (cubature._AzimuthalIntegrator, "integrate", "cubature.integrate", _nodes),
    (effpot, "veff", "effpot.veff", _veff_which),
    (effpot, "stability_functional_check", "effpot.stability_functional_check", _trials),
    (twocenter, "floor_check", "twocenter.floor_check", _samples),
    (ecg_solver, "_hamiltonian_blocks", "ecg_solver.hamiltonian_blocks", _pairs),
    (ecg_solver, "_secular_lowest", "ecg_solver.secular_lowest", _candidates),
    (ecg_solver, "_full_spectrum", "ecg_solver.full_spectrum", None),
    (ecg_solver, "svm_grow", "ecg_solver.svm_grow", _growth),
    (ecg_solver, "stability_probe", "ecg_solver.stability_probe", None),
    (ecg_solver, "classify", "criterion.classify", None),
    (effpot, "chain_coefficient", "chain_verify.chain_coefficient", None),
)


# units of the per-layer metrics, as listed in BENCHMARK.json
UNITS = {
    "effpot.w.calls": "count",
    "effpot.w.points": "count",
    "effpot.w.self_s": "s",
    "effpot.w.mpoints_per_s": "Mpoint/s",
    "cubature.negative_part_average.calls": "count",
    "cubature.negative_part_average.self_s": "s",
    "cubature.negative_part_average.evals_per_value": "count",
    "cubature.negative_part_average.rounds_per_value": "count",
    "cubature.integrate.calls": "count",
    "cubature.integrate.nodes_per_call": "count",
    "cubature.integrate.self_s": "s",
    "effpot.veff_total.s_per_call": "s",
    "effpot.veff_split.calls": "count",
    "effpot.veff_split.us_per_call": "us",
    "effpot.stability_functional_check.s_per_trial": "s",
    "twocenter.floor_check.s_per_sample": "s",
    "ecg_solver.hamiltonian_blocks.calls": "count",
    "ecg_solver.hamiltonian_blocks.self_s": "s",
    "ecg_solver.hamiltonian_blocks.pairs_per_s": "1/s",
    "ecg_solver.secular_lowest.calls": "count",
    "ecg_solver.secular_lowest.self_s": "s",
    "ecg_solver.secular_lowest.candidates": "count",
    "ecg_solver.full_spectrum.calls": "count",
    "ecg_solver.full_spectrum.self_s": "s",
    "ecg_solver.svm_grow.steps_per_s": "1/s",
    "ecg_solver.ps2_e0_gap_mEh": "mEh",
    "ecg_solver.max_condition": "ratio",
    "criterion.classify.self_s": "s",
    "chain_verify.chain_coefficient.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._origin = perf_counter()

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, op: int):
        """Trace every layer call made inside the block as part of operation op."""
        self.op = op
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in LAYERS]
        try:
            for (owner, attr, name, count), (_, _, fn) in zip(LAYERS, saved):
                setattr(owner, attr, self._wrap(name, fn, count))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path, **header) -> None:
        t0 = self._origin
        rows = [[n, s - t0, e - t0, p, op, c] for n, s, e, p, op, c in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": rows}, fh)
            fh.write("\n")

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct child spans."""
        own = [e - s for _, s, e, _, _, _ in self.spans]
        for _, s, e, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= e - s
        return own

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        span_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        cond = 0.0
        for (name, s, e, _, _, c), t in zip(self.spans, own):
            if name == "effpot.veff":
                name = "effpot.veff_total" if c["which"] == "total" else "effpot.veff_split"
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + t
            span_s[name] = span_s.get(name, 0.0) + (e - s)
            for key, v in (c or {}).items():
                if key == "condition":
                    cond = max(cond, v)
                elif key != "which":
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v

        def n(name):
            return calls.get(name, 0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        w_pts = counts.get("effpot.w.points", 0)
        npa = "cubature.negative_part_average"
        integ = "cubature.integrate"
        hb = "ecg_solver.hamiltonian_blocks"
        sec = "ecg_solver.secular_lowest"
        full = "ecg_solver.full_spectrum"
        return {
            "effpot.w.calls": n("effpot.w"),
            "effpot.w.points": w_pts,
            "effpot.w.self_s": self_s.get("effpot.w", 0.0),
            "effpot.w.mpoints_per_s": ratio(w_pts, self_s.get("effpot.w", 0.0), 1e-6),
            f"{npa}.calls": n(npa),
            f"{npa}.self_s": self_s.get(npa, 0.0),
            f"{npa}.evals_per_value": ratio(counts.get(f"{npa}.n_evals", 0), n(npa)),
            f"{npa}.rounds_per_value": ratio(n(integ), n(npa)),
            f"{integ}.calls": n(integ),
            f"{integ}.nodes_per_call": ratio(counts.get(f"{integ}.nodes", 0), n(integ)),
            f"{integ}.self_s": self_s.get(integ, 0.0),
            "effpot.veff_total.s_per_call": ratio(span_s.get("effpot.veff_total", 0.0), n("effpot.veff_total")),
            "effpot.veff_split.calls": n("effpot.veff_split"),
            "effpot.veff_split.us_per_call": ratio(
                span_s.get("effpot.veff_split", 0.0), n("effpot.veff_split"), 1e6
            ),
            "effpot.stability_functional_check.s_per_trial": ratio(
                span_s.get("effpot.stability_functional_check", 0.0),
                counts.get("effpot.stability_functional_check.trials", 0),
            ),
            "twocenter.floor_check.s_per_sample": ratio(
                span_s.get("twocenter.floor_check", 0.0), counts.get("twocenter.floor_check.samples", 0)
            ),
            f"{hb}.calls": n(hb),
            f"{hb}.self_s": self_s.get(hb, 0.0),
            f"{hb}.pairs_per_s": ratio(counts.get(f"{hb}.pairs", 0), self_s.get(hb, 0.0)),
            f"{sec}.calls": n(sec),
            f"{sec}.self_s": self_s.get(sec, 0.0),
            f"{sec}.candidates": counts.get(f"{sec}.candidates", 0),
            f"{full}.calls": n(full),
            f"{full}.self_s": self_s.get(full, 0.0),
            "ecg_solver.svm_grow.steps_per_s": ratio(
                counts.get("ecg_solver.svm_grow.steps", 0), span_s.get("ecg_solver.svm_grow", 0.0)
            ),
            "ecg_solver.max_condition": cond,
            "criterion.classify.self_s": self_s.get("criterion.classify", 0.0),
            "chain_verify.chain_coefficient.self_s": self_s.get("chain_verify.chain_coefficient", 0.0),
        }

    def w_points_match_evals(self) -> bool:
        """Points seen by the W kernel equal the n_evals cubature reported."""
        pts = evals = 0
        for name, _, _, _, _, c in self.spans:
            if name == "effpot.w":
                pts += c["points"]
            elif name == "cubature.negative_part_average":
                evals += c["n_evals"]
        return pts == evals
