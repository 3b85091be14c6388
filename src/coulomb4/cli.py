"""Command-line surface: reproducible JSON/CSV reports over the library.

Commands
  criterion  classify a four-body system file; exit 0 = ProvenUnstable,
             1 = Indeterminate, 2 = input error
  chain      run the inequality-chain verification suite at one canonical
             heavy-coordinate mass; exit 0 iff every record passes
  veff       tabulate screened-attraction averages at sampled geometries (CSV)
  twocenter  tabulate the two-center ground energy over a separation grid (CSV)
  solve      variational solver probe on a system file (JSON)
  map        criterion verdict and solver margin across a mass family (CSV)

Every report embeds the package version and the effective run configuration,
floats are emitted with 15 significant digits, and identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 negative verdict or failed
checks, 2 input/domain error, 3 numerical failure, 4 certified contradiction
between the solver and the closed-form criterion.

A JSON config file named by the COULOMB4_CONFIG environment variable
supplies defaults for seed/tol/budget/cond_cap/format; command-line flags
override it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .chain_verify import GridConvergenceError, run_chain_suite
from .core import FourBodySystem, build_jacobi
from .criterion import classify
from .cubature import QuadratureError
from .ecg_solver import (
    TWO_PLUS_TWO,
    BasisConditionError,
    CoulombSystem,
    StabilityContradictionError,
    mass_ratio_scan,
    probe_from_growth,
    save_basis,
    svm_grow,
)
from .effpot import InteractionDecomposition, veff
from .twocenter import two_center_ground

CONFIG_ENV = "COULOMB4_CONFIG"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONTRADICTION = 4

_DEFAULT_MAP_GRID = "1,2,5,10,100,1836.152672"


class SystemFileError(ValueError):
    """Unreadable or malformed system file."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol: float = 1e-3
    budget: int = 200
    cond_cap: float = 1e12
    fmt: str = ""  # filled per command with its natural format

    def as_report(self) -> dict:
        return {
            "seed": self.seed,
            "tol": self.tol,
            "budget": self.budget,
            "cond_cap": self.cond_cap,
        }


def _f15(x: float) -> float:
    """Round to 15 significant digits for stable, diffable output."""
    return float(f"{float(x):.15g}")


def _s15(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _f15(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(_round_floats(doc), indent=2) + "\n", out)


def _emit_csv(comments: list[str], header: list[str], rows: list[list], out: str | None) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_s15(v) for v in row))
    _emit("\n".join(lines) + "\n", out)


def _error_record(exc: BaseException, exit_code: int) -> int:
    doc = {
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "exit_code": exit_code,
        "version": __version__,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return exit_code


def _load_env_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemFileError(f"config file {path!r} unreadable: {exc}") from exc
    if not isinstance(doc, dict):
        raise SystemFileError(f"config file {path!r} must hold a JSON object")
    return doc


def _build_config(args: argparse.Namespace, natural_format: str) -> RunConfig:
    """Layer, lowest first: RunConfig, the command's built-in defaults
    (_default_seed / _default_budget), the config file, the flags."""
    cfg = RunConfig(fmt=natural_format)
    for key in ("seed", "budget"):
        if hasattr(args, f"_default_{key}"):
            cfg = replace(cfg, **{key: getattr(args, f"_default_{key}")})
    env = _load_env_config()
    picks = {}
    for key, caster in (("seed", int), ("tol", float), ("budget", int), ("cond_cap", float), ("format", str)):
        if key in env:
            try:
                picks["fmt" if key == "format" else key] = caster(env[key])
            except (TypeError, ValueError) as exc:
                raise SystemFileError(f"config key {key!r} invalid: {env[key]!r}") from exc
    cfg = replace(cfg, **picks)
    for attr, flag in (("seed", "seed"), ("tol", "tol"), ("budget", "budget"), ("cond_cap", "cond_cap")):
        val = getattr(args, flag, None)
        if val is not None:
            cfg = replace(cfg, **{attr: val})
    fmt = getattr(args, "format", None)
    if fmt:
        cfg = replace(cfg, fmt=fmt)
    if cfg.fmt != natural_format:
        raise SystemFileError(
            f"this command emits {natural_format}; --format {cfg.fmt!r} is not supported"
        )
    return cfg


def read_system_file(path: str) -> FourBodySystem:
    """Parse a SystemFile: JSON {"masses": [four decimal strings], ...}.

    Masses are decimal strings so input precision survives to the full
    binary64 resolution; optional "labels" (four strings) and a free-text
    "unit" tag are carried through untouched.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemFileError(f"system file {path!r} unreadable: {exc}") from exc
    if not isinstance(doc, dict) or "masses" not in doc:
        raise SystemFileError(f"system file {path!r} needs a 'masses' array")
    masses = doc["masses"]
    if not isinstance(masses, list) or len(masses) != 4:
        raise SystemFileError(f"system file {path!r} needs exactly four masses")
    labels = doc.get("labels")
    try:
        return FourBodySystem.from_strings([str(m) for m in masses], labels)
    except ValueError as exc:
        raise SystemFileError(f"system file {path!r}: {exc}") from exc


def _system_block(system: FourBodySystem) -> dict:
    block = {"masses": [float(m) for m in system.masses]}
    if system.labels:
        block["labels"] = list(system.labels)
    return block


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_criterion(args: argparse.Namespace) -> int:
    cfg = _build_config(args, "json")
    system = read_system_file(args.system)
    verdict = classify(system)
    frame = verdict.frame
    doc = {
        "command": "criterion",
        "version": __version__,
        "config": cfg.as_report(),
        "system": _system_block(system),
        "mu_x": frame.mu_x,
        "mu_y": frame.mu_y,
        "mu_R": frame.mu_R,
        "a": frame.a,
        "b": frame.b,
        "ratio": verdict.ratio,
        "critical": verdict.critical,
        "verdict": verdict.classification.value,
        "margin": verdict.margin,
    }
    _emit_json(doc, args.out)
    return EXIT_OK if verdict.proven_unstable else EXIT_NEGATIVE


def cmd_chain(args: argparse.Namespace) -> int:
    cfg = _build_config(args, "json")
    if args.mu_r is not None and args.system:
        raise SystemFileError("give either --mu-r or --system, not both")
    if args.mu_r is not None:
        mu_r = float(args.mu_r)
        source = {"mu_r": mu_r}
    elif args.system:
        system = read_system_file(args.system)
        mu_r = build_jacobi(system).canonical_mu_r
        source = {"system": _system_block(system), "mu_r": mu_r}
    else:
        raise SystemFileError("chain needs --mu-r or --system")
    if not 0.0 < mu_r < 0.375:
        raise SystemFileError(f"canonical mu_R must lie in (0, 3/8), got {mu_r!r}")
    evaluation = run_chain_suite(mu_r, seed=cfg.seed or 20260816)
    doc = {
        "command": "chain",
        "version": __version__,
        "config": cfg.as_report(),
        "input": source,
        "state": {
            "alpha": evaluation.alpha,
            "beta": evaluation.beta,
            "lam": evaluation.lam,
            "coupling": evaluation.coupling,
            "coefficient": evaluation.coefficient,
        },
        "records": [
            {
                "name": r.name,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "params": r.params,
            }
            for r in evaluation.records
        ],
        "all_passed": evaluation.all_passed,
    }
    _emit_json(doc, args.out)
    return EXIT_OK if evaluation.all_passed else EXIT_NEGATIVE


def cmd_veff(args: argparse.Namespace) -> int:
    cfg = _build_config(args, "csv")
    system = read_system_file(args.system)
    frame = build_jacobi(system)
    decomp = InteractionDecomposition.from_frame(frame)
    which = args.which
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0xE44F)))
    rows = []
    for _ in range(args.samples):
        y_mag = float(10.0 ** rng.uniform(-0.3, 0.7))
        r_mag = float(10.0 ** rng.uniform(-0.3, 0.7))
        res = veff(
            decomp,
            y_mag * np.array([0.0, 0.0, 1.0]),
            r_mag * np.array([0.0, 0.0, 1.0]),
            which=which,
            rel_tol=cfg.tol,
        )
        rows.append([y_mag, r_mag, res.value, res.error])
    comments = [
        f"coulomb4 {__version__} veff",
        "masses=" + ";".join(_s15(float(m)) for m in system.masses),
        f"a={_s15(frame.a)} b={_s15(frame.b)} which={which}",
        f"seed={cfg.seed} tol={_s15(cfg.tol)} samples={args.samples}",
    ]
    _emit_csv(comments, ["y", "R", "value", "error"], rows, args.out)
    return EXIT_OK


def cmd_twocenter(args: argparse.Namespace) -> int:
    cfg = _build_config(args, "csv")
    coupling = float(args.coupling)
    mu_r = float(args.mu_r)
    if coupling <= 0 or mu_r <= 0:
        raise SystemFileError("coupling and --mu-r must be positive")
    if args.grid:
        try:
            grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError as exc:
            raise SystemFileError(f"bad --grid: {exc}") from exc
    else:
        unit = 1.0 / (coupling * mu_r)
        grid = [0.0, 0.6 * unit, 1.2 * unit, 2.5 * unit, 5.0 * unit, 10.0 * unit]
    rows = []
    for d in grid:
        res = two_center_ground(coupling, mu_r, d, n_widths=args.n_widths, cond_cap=cfg.cond_cap)
        rows.append([d, res.energy, res.basis_size, res.condition])
    comments = [
        f"coulomb4 {__version__} twocenter",
        f"coupling={_s15(coupling)} mu_r={_s15(mu_r)} n_widths={args.n_widths}",
        f"cond_cap={_s15(cfg.cond_cap)}",
    ]
    _emit_csv(comments, ["d", "energy", "basis_size", "condition"], rows, args.out)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _build_config(args, "json")
    system4 = read_system_file(args.system)
    system = CoulombSystem(system4.masses, FourBodySystem.CHARGES)
    elements, result = svm_grow(system, cfg.budget, seed=cfg.seed, pool=args.pool, cond_cap=cfg.cond_cap)
    probe = probe_from_growth(system, result)
    if args.save_basis:
        save_basis(args.save_basis, system, elements, result)
    doc = {
        "command": "solve",
        "version": __version__,
        "config": {**cfg.as_report(), "pool": args.pool},
        "system": _system_block(system4),
        "e0": probe.e0,
        "threshold": probe.threshold,
        "certified_bound": probe.certified_bound,
        "margin": probe.margin,
        "epsilon": probe.epsilon,
        "basis_size": probe.basis_size,
        "verdict": probe.verdict.classification.value if probe.verdict else None,
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    cfg = _build_config(args, "csv")
    try:
        grid = [float(tok) for tok in args.m_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise SystemFileError(f"bad --m-grid: {exc}") from exc
    if not grid:
        raise SystemFileError("--m-grid must name at least one mass value")
    rows_raw = mass_ratio_scan(TWO_PLUS_TWO, grid, target=cfg.budget, seed=cfg.seed, pool=args.pool)
    rows = [
        [r.value, r.ratio, r.classification, r.e0, r.threshold, r.margin, r.certified_bound, r.error or ""]
        for r in rows_raw
    ]
    comments = [
        f"coulomb4 {__version__} map",
        f"family={TWO_PLUS_TWO.name}",
        f"seed={cfg.seed} budget={cfg.budget} pool={args.pool}",
    ]
    _emit_csv(
        comments,
        ["m", "ratio", "classification", "e0", "threshold", "margin", "certified_bound", "error"],
        rows,
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, system: bool = False, system_required: bool = False) -> None:
    if system or system_required:
        sub.add_argument("--system", required=system_required, help="path to a SystemFile (JSON)")
    sub.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    sub.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    sub.add_argument("--budget", type=int, default=None, help="basis budget for solver commands")
    sub.add_argument("--cond-cap", dest="cond_cap", type=float, default=None, help="overlap condition cap")
    sub.add_argument("--format", default=None, help="output format (json or csv, per command)")
    sub.add_argument("--out", default=None, help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomb4",
        description="Four-body Coulomb instability criterion, verification suite, and variational solver.",
    )
    parser.add_argument("--version", action="version", version=f"coulomb4 {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("criterion", help="classify a four-body system")
    _add_common(p, system_required=True)
    p.set_defaults(func=cmd_criterion)

    p = subs.add_parser("chain", help="verify the inequality chain at one canonical mu_R")
    _add_common(p, system=True)
    p.add_argument("--mu-r", dest="mu_r", type=float, default=None, help="canonical mu_R in (0, 3/8)")
    p.set_defaults(func=cmd_chain)

    p = subs.add_parser("veff", help="tabulate screened-attraction averages (CSV)")
    _add_common(p, system_required=True)
    p.add_argument("--samples", type=int, default=6, help="number of sampled (y, R) geometries")
    p.add_argument("--which", choices=("total", "w1", "w2"), default="total")
    p.set_defaults(func=cmd_veff)

    p = subs.add_parser("twocenter", help="two-center ground-state energies over a separation grid (CSV)")
    _add_common(p)
    p.add_argument("--coupling", type=float, default=1.0, help="attraction strength A of each center")
    p.add_argument("--mu-r", dest="mu_r", type=float, default=0.1, help="reduced mass of the moving particle")
    p.add_argument("--grid", default=None, help="comma-separated separations (default: 6-point scaled grid)")
    p.add_argument("--n-widths", dest="n_widths", type=int, default=16, help="width-ladder rungs per site")
    p.set_defaults(func=cmd_twocenter)

    p = subs.add_parser("solve", help="variational stability probe on a system file (JSON)")
    _add_common(p, system_required=True)
    p.add_argument("--pool", type=int, default=48, help="candidate pool size per growth step")
    p.add_argument("--save-basis", dest="save_basis", default=None, help="also save the grown basis as JSON here")
    p.set_defaults(func=cmd_solve, _default_seed=42)

    p = subs.add_parser("map", help="criterion and solver margins across the (m, m, 1, 1) family (CSV)")
    _add_common(p)
    p.add_argument("--m-grid", dest="m_grid", default=_DEFAULT_MAP_GRID, help="comma-separated heavy masses")
    p.add_argument("--pool", type=int, default=48, help="candidate pool size per growth step")
    p.set_defaults(func=cmd_map, _default_budget=120)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemFileError as exc:
        return _error_record(exc, EXIT_INPUT)
    except (ValueError, OSError) as exc:
        return _error_record(exc, EXIT_INPUT)
    except (QuadratureError, BasisConditionError, GridConvergenceError) as exc:
        return _error_record(exc, EXIT_NUMERICAL)
    except StabilityContradictionError as exc:
        return _error_record(exc, EXIT_CONTRADICTION)


if __name__ == "__main__":
    sys.exit(main())
