"""Unified command-line entry point.

Subcommands: classify | sieve | energy | clt | fluct | audit.
Canonical output is JSON (CSV is a row projection where it makes sense);
every document carries a metadata header with the tool version, the
echoed configuration, and the wall time.  Exit codes: 0 success,
2 configuration error, 3 budget error, 1 internal failure; errors are
emitted as machine-readable JSON on stderr.

Polynomials are accepted in both supported text forms everywhere
("c0,c1,...,cd" and "x^2+1").  Seeds parse as decimal or 0x-hex.
Relative --out paths resolve under $POLYRMF_OUT_DIR when it is set.
Thread counts affect wall time only: integer outputs are identical and
float aggregates agree to 1e-9 (in practice bit-identical) for any
--threads value.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .clt_audit import check_clt_config, mcleish_audit, run_clt
from .energy import (
    DEFAULT_PAIR_BUDGET,
    ProgressionRange,
    energy,
    exponent_fit,
)
from .errors import BudgetError, ConfigError
from .fluctuations import build_grid, run_fluct
from .polynomial import classify, parse_polynomial
from .sieve import DEFAULT_FACTOR_BUDGET, factor_values, lpf_density


def to_jsonable(obj):
    """Recursively convert results to JSON-friendly structures.

    Exact rationals become "num/den" strings; complex numbers become
    [re, im] pairs; numpy scalars and arrays unwrap to Python values;
    non-finite floats become None, so documents stay strict JSON.
    """
    if hasattr(obj, "to_coeff_text"):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [to_jsonable(obj.real), to_jsonable(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    return obj


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ConfigError(f"seed {text!r} is not a decimal or hex integer",
                          field="seed") from exc


def _parse_poly(text: str):
    try:
        return parse_polynomial(text)
    except ValueError as exc:
        raise ConfigError(str(exc), field="poly") from exc


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError("--threads must be >= 1", field="threads")


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}", field="grid") from exc
    if not grid or grid != sorted(set(grid)):
        raise ConfigError("grid must be strictly ascending", field="grid")
    return grid


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("POLYRMF_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(doc: dict, out: Path | None, as_csv_rows=None) -> None:
    if out is None:
        json.dump(doc, sys.stdout, indent=2, allow_nan=False)
        sys.stdout.write("\n")
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix == ".csv" and as_csv_rows is not None:
        header, rows = as_csv_rows
        with open(out, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
    else:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")


def _document(command: str, config: dict, result, started: float) -> dict:
    return {
        "tool": "polyrmf",
        "version": __version__,
        "command": command,
        "config": to_jsonable(config),
        "wall_time_s": round(time.perf_counter() - started, 6),
        "result": to_jsonable(result),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrmf",
        description="Exact multiplicative-energy counts and Steinhaus "
        "random multiplicative function experiments over polynomial values.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--poly", required=True,
                       help='polynomial, "c0,c1,...,cd" or "x^2+1"')
        p.add_argument("--out", default=None, help="output path (.json/.csv)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate configuration and budgets, skip compute")

    p_classify = sub.add_parser("classify", help="structural classification")
    common(p_classify)

    p_sieve = sub.add_parser("sieve", help="factor P(1..N)")
    common(p_sieve)
    p_sieve.add_argument("--n", type=int, required=True)
    p_sieve.add_argument("--lpf-scale", default=None,
                         help="threshold scale for the largest-prime density "
                              "(fraction like 1/8; default 1/(2d^2))")
    p_sieve.add_argument("--format", choices=("json", "csv"), default="json")

    p_energy = sub.add_parser("energy", help="exact multiplicative energy")
    common(p_energy)
    p_energy.add_argument("--n", type=int)
    p_energy.add_argument("--q", type=int, default=1)
    p_energy.add_argument("--a", type=int, default=0)
    p_energy.add_argument("--grid", default=None,
                          help="comma list of N values for an exponent fit")
    p_energy.add_argument("--chunked", action="store_true",
                          help="sort-merge counting (memory bounded)")
    p_energy.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)

    p_clt = sub.add_parser("clt", help="Monte-Carlo normalized partial sums")
    common(p_clt)
    p_clt.add_argument("--n", type=int, required=True)
    p_clt.add_argument("--reps", type=int, required=True)
    p_clt.add_argument("--seed", required=True)
    p_clt.add_argument("--threads", type=int, default=1)
    p_clt.add_argument("--dump-samples", action="store_true")

    p_fluct = sub.add_parser("fluct", help="multi-scale split-sum experiment")
    common(p_fluct)
    p_fluct.add_argument("--x", type=int, required=True)
    p_fluct.add_argument("--k", type=int, required=True)
    p_fluct.add_argument("--ratio", required=True)
    p_fluct.add_argument("--reps", type=int, required=True)
    p_fluct.add_argument("--seed", required=True)
    p_fluct.add_argument("--conditional", action="store_true",
                         help="freeze non-A primes, resample only A-primes")
    p_fluct.add_argument("--threads", type=int, default=1)
    p_fluct.add_argument("--factor-budget", type=int,
                         default=DEFAULT_FACTOR_BUDGET)

    p_audit = sub.add_parser("audit", help="exact martingale-condition sums")
    common(p_audit)
    p_audit.add_argument("--grid", required=True,
                         help="comma list of N values, ascending")

    return parser


def _cmd_classify(args, started: float) -> int:
    poly = _parse_poly(args.poly)
    if args.dry_run:
        _emit({"dry_run": True, "poly": str(poly)}, _resolve_out(args.out))
        return 0
    result = classify(poly)
    doc = _document("classify", {"poly": str(poly)}, result, started)
    _emit(doc, _resolve_out(args.out))
    return 0


def _cmd_sieve(args, started: float) -> int:
    poly = _parse_poly(args.poly)
    if args.n < 1:
        raise ConfigError("--n must be >= 1", field="n")
    scale = Fraction(args.lpf_scale) if args.lpf_scale else None
    if args.dry_run:
        _emit({"dry_run": True, "poly": str(poly), "n": args.n},
              _resolve_out(args.out))
        return 0
    table = factor_values(poly, args.n)
    out = _resolve_out(args.out)
    if args.format == "csv" and out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as fh:
            table.write_csv(fh)
        return 0
    count, fraction = (0, Fraction(0)) if args.n < 2 else lpf_density(table, scale)
    buf = io.StringIO()
    table.write_json(buf)
    result = json.loads(buf.getvalue())
    result["lpf_density"] = {
        "threshold_scale": str(scale) if scale is not None else "1/(2d^2)",
        "count": count,
        "fraction": to_jsonable(fraction),
    }
    doc = _document("sieve", {"poly": str(poly), "n": args.n}, result, started)
    _emit(doc, out)
    return 0


def _cmd_energy(args, started: float) -> int:
    poly = _parse_poly(args.poly)
    cls = classify(poly)
    if cls.is_pure_power:
        w = cls.pure_power_witness
        raise ConfigError(
            f"polynomial {poly} is the excluded pure power w*(x+c)^d "
            f"(w={w.w}, c={w.c})", field="poly")
    if args.grid is None and args.n is None:
        raise ConfigError("one of --n or --grid is required", field="n")
    if args.q < 1 or not 0 <= args.a < args.q:
        raise ConfigError("need q >= 1 and 0 <= a < q", field="q/a")

    config = {
        "poly": str(poly), "n": args.n, "q": args.q, "a": args.a,
        "grid": args.grid, "chunked": args.chunked, "budget": args.budget,
    }
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        if args.dry_run:
            for n in grid:
                _check_pair_budget(ProgressionRange(n, args.q, args.a),
                                   args.budget, args.chunked)
            _emit({"dry_run": True, **config}, _resolve_out(args.out))
            return 0
        fit = exponent_fit(poly, grid, q=args.q, a=args.a,
                           budget=args.budget, chunked=args.chunked)
        doc = _document("energy", config, fit, started)
        rows = [(pt.N, pt.offdiag, pt.ratio) for pt in fit.points]
        _emit(doc, _resolve_out(args.out),
              as_csv_rows=(("N", "offdiag", "ratio"), rows))
        return 0

    rng = ProgressionRange(args.n, args.q, args.a)
    if rng.size < 1:
        raise ConfigError("progression has no members in [1, N]", field="a")
    if args.dry_run:
        _check_pair_budget(rng, args.budget, args.chunked)
        _emit({"dry_run": True, **config}, _resolve_out(args.out))
        return 0
    report = energy(poly, rng, budget=args.budget, chunked=args.chunked)
    doc = _document("energy", config, report, started)
    _emit(doc, _resolve_out(args.out))
    return 0


def _check_pair_budget(rng: ProgressionRange, budget: int, chunked: bool) -> None:
    m = rng.size
    est = m * (m + 1) // 2
    if est > budget and not chunked:
        raise BudgetError(
            f"{est} canonical pair products exceed the budget of {budget}; "
            "enable --chunked or raise --budget")


def _cmd_clt(args, started: float) -> int:
    poly = _parse_poly(args.poly)
    seed = _parse_seed(args.seed)
    _check_threads(args.threads)
    check_clt_config(poly, args.n, args.reps)
    config = {"poly": str(poly), "n": args.n, "reps": args.reps,
              "seed": seed, "threads": args.threads}
    if args.dry_run:
        _emit({"dry_run": True, **config}, _resolve_out(args.out))
        return 0
    run = run_clt(poly, args.n, args.reps, seed, threads=args.threads)
    result = {"stats": run.stats}
    if args.dump_samples:
        result["samples"] = run.samples
    doc = _document("clt", config, result, started)
    _emit(doc, _resolve_out(args.out))
    return 0


def _cmd_fluct(args, started: float) -> int:
    poly = _parse_poly(args.poly)
    seed = _parse_seed(args.seed)
    try:
        ratio = Fraction(args.ratio)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad ratio {args.ratio!r}", field="ratio") from exc
    if args.reps < 1:
        raise ConfigError("--reps must be >= 1", field="reps")
    _check_threads(args.threads)
    config = {"poly": str(poly), "x": args.x, "k": args.k,
              "ratio": str(ratio), "reps": args.reps, "seed": seed,
              "conditional": args.conditional, "threads": args.threads,
              "factor_budget": args.factor_budget}
    # validates X/k/ratio and the factorization budget
    build_grid(args.x, args.k, ratio, factor_budget=args.factor_budget)
    if args.dry_run:
        _emit({"dry_run": True, **config}, _resolve_out(args.out))
        return 0
    report = run_fluct(poly, args.x, args.k, ratio, args.reps, seed,
                       conditional=args.conditional, threads=args.threads,
                       factor_budget=args.factor_budget)
    result = to_jsonable(report)
    # replicate-level matrices stay out of the document; quantiles and
    # per-scale summaries carry the reportable content
    result.pop("s1_matrix")
    result.pop("s2_matrix")
    result.pop("partial_matrix")
    result.pop("max_stats")
    doc = _document("fluct", config, result, started)
    _emit(doc, _resolve_out(args.out))
    return 0


def _cmd_audit(args, started: float) -> int:
    poly = _parse_poly(args.poly)
    grid = _parse_grid(args.grid)
    config = {"poly": str(poly), "grid": grid}
    if args.dry_run:
        _emit({"dry_run": True, **config}, _resolve_out(args.out))
        return 0
    table = factor_values(poly, max(grid))
    audit = mcleish_audit(poly, table, grid)
    doc = _document("audit", config, audit, started)
    _emit(doc, _resolve_out(args.out))
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "sieve": _cmd_sieve,
    "energy": _cmd_energy,
    "clt": _cmd_clt,
    "fluct": _cmd_fluct,
    "audit": _cmd_audit,
}


def _error_json(kind: str, exit_code: int, message: str,
                field: str | None = None) -> None:
    payload = {"error": {"kind": kind, "exit_code": exit_code,
                         "message": message}}
    if field:
        payload["error"]["field"] = field
    json.dump(payload, sys.stderr, allow_nan=False)
    sys.stderr.write("\n")


def dispatch(args) -> int:
    started = time.perf_counter()
    try:
        return _COMMANDS[args.command](args, started)
    except ConfigError as exc:
        _error_json("config", 2, str(exc), exc.field)
        return 2
    except BudgetError as exc:
        _error_json("budget", 3, str(exc))
        return 3
    except ValueError as exc:
        _error_json("config", 2, str(exc))
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _error_json("internal", 1, f"{type(exc).__name__}: {exc}")
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return dispatch(args)


if __name__ == "__main__":
    raise SystemExit(main())
