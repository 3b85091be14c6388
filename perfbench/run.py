"""coulomb4 benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  A run
builds floor(S / round_s) rounds of inputs from the seed (at least one),
warms up with one untimed operation, runs every operation once and checks
the outputs.  The last line of stdout is the result JSON; the line before
it is the machine block.  With --trace 1 each operation runs once without
and once with layer spans, the spans go to perfbench/out/, and the result
holds the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

_T0 = perf_counter()


def _process_age() -> float:
    """Seconds since this process started (10 ms ticks), 0 if unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_T0 = _process_age()

# one BLAS/OpenMP thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library():
    if not (SRC / "coulomb4" / "__init__.py").is_file():
        sys.exit(f"coulomb4 sources not found under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import coulomb4

    if Path(coulomb4.__file__).resolve().parent != (SRC / "coulomb4").resolve():
        sys.exit(f"imported coulomb4 from {coulomb4.__file__}, not from {SRC}")


def _machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _attempt(op, failures: list[str]):
    """Run one operation; a raised numerical error or a stalled growth is a failure."""
    from coulomb4.cubature import QuadratureError
    from coulomb4.ecg_solver import BasisConditionError, GrowthStallWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GrowthStallWarning)
        try:
            result = op.fn(op.arg)
        except (QuadratureError, BasisConditionError) as exc:
            failures.append(f"{op.kind}: {exc}")
            return None
    stalls = [w for w in caught if issubclass(w.category, GrowthStallWarning)]
    if stalls:
        failures.append(f"{op.kind}: {stalls[0].message}")
        return None
    return result


def _fingerprint(result) -> str:
    # svm_grow returns (elements, SpectralResult); the result record holds E0 and the trace
    return repr(result[1] if isinstance(result, tuple) else result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import numpy as np

    import checks
    import workloads
    from spans import UNITS, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    tag = zlib.crc32(wl.name.encode())
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, tag, 0]))
    check_rng = np.random.default_rng(np.random.SeedSequence([args.seed, tag, 1]))
    rounds = max(1, int(args.seconds // wl.round_s))
    ops = [op for _ in range(rounds) for op in wl.make_round(rng)]
    wl.warmup()
    setup_s = _AGE_AT_T0 + perf_counter() - _T0

    failures: list[str] = []  # operations that raised or stalled
    errors: list[str] = []  # outputs that failed a check
    results = []
    op_s = []
    tracer = Tracer() if args.trace else None
    traced_s = 0.0
    wall_start = perf_counter()
    for k, op in enumerate(ops):
        t = perf_counter()
        results.append(_attempt(op, failures))
        op_s.append(perf_counter() - t)
        if tracer is not None:
            t = perf_counter()
            with tracer.installed(k):
                again = _attempt(op, [])
            traced_s += perf_counter() - t
            if results[-1] is not None and _fingerprint(again) != _fingerprint(results[-1]):
                errors.append(f"{op.kind}: output changed under tracing")
    wall_s = perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_failed = sum(r is None for r in results)
    errors += wl.check(ops, results, check_rng)
    if tracer is not None and not tracer.w_points_match_evals():
        errors.append("points through the W kernel differ from the summed n_evals")
    for line in failures + errors:
        print(f"{wl.name}: {line}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{wl.name}-seed{args.seed}.json", workload=wl.name, seed=args.seed)
        e0 = workloads.ps2_e0(ops, results)
        layer = tracer.layer_metrics()
        layer["ecg_solver.ps2_e0_gap_mEh"] = 0.0 if np.isnan(e0) else 1e3 * (e0 - checks.PS2_EXACT)
        layer["trace.overhead_s"] = traced_s - sum(op_s)
        metrics = {name: (value, UNITS[name]) for name, value in layer.items()}

    print(json.dumps({"machine": _machine(), "workload": wl.name, "seed": args.seed, "rounds": rounds}))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(ops),
                "failed": n_failed,
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
