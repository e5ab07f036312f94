"""Unified command-line entry point.

Subcommands: classify | sieve | energy | clt | fluct | audit.
Canonical output is JSON (CSV is a row projection where it makes sense);
every document carries a metadata header with the tool version, the
echoed configuration, and the wall time.  Exit codes: 0 success,
2 configuration error naming its field, 3 budget error, 1 any other
failure; errors are emitted as machine-readable JSON on stderr.
``--dry-run`` runs the library check that the real run starts with.

Polynomials are accepted in both supported text forms everywhere
("c0,c1,...,cd" and "x^2+1").  Seeds parse as decimal or 0x-hex.
Relative --out paths resolve under $POLYRMF_OUT_DIR when it is set.
Thread counts affect wall time only: integer outputs are identical and
float aggregates agree to 1e-9 (in practice bit-identical) for any
--threads value from 1 to rmf.MAX_THREADS.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .clt_audit import check_clt_config, mcleish_audit, run_clt
from .energy import DEFAULT_PAIR_BUDGET, check_energy_config, energy, exponent_fit
from .errors import BudgetError, ConfigError
from .fluctuations import check_fluct_config, run_fluct
from .polynomial import classify, parse_polynomial
from .sieve import (DEFAULT_FACTOR_BUDGET, FactorTable, check_factor_budget,
                    check_grid, dump_json, factor_values, lpf_density)


def to_jsonable(obj):
    """Recursively convert results to JSON-friendly structures.

    Exact rationals become "num/den" strings; complex numbers become
    [re, im] pairs; numpy scalars and arrays unwrap to Python values;
    non-finite floats become None, so documents stay strict JSON.  A
    FactorTable stays as it is: ``dump_json`` writes its rows.
    """
    if (obj is None or type(obj) in (int, str, bool)
            or isinstance(obj, FactorTable)):
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
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
    return obj


def _parse_seed(text: str) -> int:
    # streams see seed mod 2^64; a longer hex seed would overflow the JSON echo
    try:
        seed = int(text, 0)
    except ValueError as exc:
        raise ConfigError(f"seed {text!r} is not a decimal or hex integer",
                          field="seed") from exc
    if abs(seed) >= 1 << 64:
        raise ConfigError(f"seed {text!r} does not fit in 64 bits", field="seed")
    return seed


def _parse_poly(text: str):
    try:
        return parse_polynomial(text)
    except ValueError as exc:
        raise ConfigError(str(exc), field="poly") from exc


def _parse_fraction(text: str, field: str) -> Fraction:
    # Fraction("1e999999999") builds a billion-digit integer: no exponents
    try:
        if "e" in text.lower():
            raise ValueError("exponent notation")
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"bad {field} {text!r}", field=field) from exc
    return value


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}", field="grid") from exc
    check_grid(grid)
    return grid


def _parse_sizes(n: int | None, grid: str | None) -> list[int]:
    if (grid is None) == (n is None):
        raise ConfigError("exactly one of --n or --grid is required", field="n")
    return [n] if grid is None else _parse_grid(grid)


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("POLYRMF_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _prepare_out(out: Path) -> None:
    """Make the directory of ``out`` and check that ``out`` can be written
    there, before any computation; the file is written after it."""
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.access(out if out.exists() else out.parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror}",
                          field="out") from exc


def _open_out(out: Path, newline: str | None = None):
    try:
        return open(out, "w", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror}",
                          field="out") from exc


def _emit(doc: dict, out: Path | None, as_csv_rows=None) -> None:
    if out is None:
        dump_json(doc, sys.stdout)
        sys.stdout.write("\n")
    elif out.suffix == ".csv" and as_csv_rows is not None:
        header, rows = as_csv_rows
        with _open_out(out, newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
    else:
        with _open_out(out) as fh:
            dump_json(doc, fh)
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


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors raise ConfigError instead of printing a
    usage text, so they reach the JSON error line like every other."""

    def error(self, message):
        # "argument --n: ..." and "the following arguments are required:
        # --seed, ..." name an option; "unrecognized arguments: ..." none
        named = re.match(r"argument (\S+):|.*required: ([^,\s]+)", message)
        option = named and (named[1] or named[2]).split("/")[-1]
        field = option.lstrip("-").replace("-", "_") if option else "argv"
        raise ConfigError(message, field=field)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no
    state between calls."""
    parser = _Parser(
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
                          help="lift the pair budget (counting memory is "
                               "bounded either way)")
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


def _cmd_classify(args):
    poly = _parse_poly(args.poly)
    return {"poly": str(poly)}, None if args.dry_run else classify(poly)


def _cmd_sieve(args):
    poly = _parse_poly(args.poly)
    scale = (None if args.lpf_scale is None
             else _parse_fraction(args.lpf_scale, "lpf_scale"))
    if scale is not None and args.format == "csv":
        raise ConfigError("--lpf-scale has no place in CSV output",
                          field="lpf_scale")
    config = {"poly": str(poly), "n": args.n}
    if args.dry_run:
        check_factor_budget(args.n)
        return config, None
    table = factor_values(poly, args.n)
    out = _resolve_out(args.out)
    if args.format == "csv":
        if out is None:
            table.write_csv(sys.stdout)
        else:
            with _open_out(out, newline="") as fh:
                table.write_csv(fh)
        return config, None
    count, fraction = lpf_density(table, scale)
    # dump_json writes the table's rows where it stands
    return config, {
        "polynomial": poly.to_coeff_text(),
        "N": table.N,
        "rows": table,
        "lpf_density": {
            "threshold_scale": str(scale) if scale is not None else "1/(2d^2)",
            "count": count,
            "fraction": to_jsonable(fraction),
        },
    }


def _cmd_energy(args):
    poly = _parse_poly(args.poly)
    sizes = _parse_sizes(args.n, args.grid)
    budget = None if args.chunked else args.budget
    # energy() counts pure powers too; the CLI refuses them for --n as well
    ranges = check_energy_config(poly, sizes, q=args.q, a=args.a, budget=budget)
    config = {
        "poly": str(poly), "n": args.n, "q": args.q, "a": args.a,
        "grid": args.grid, "chunked": args.chunked, "budget": args.budget,
    }
    if args.dry_run:
        return config, None
    if args.grid is None:
        return config, energy(poly, ranges[0], budget=budget)
    fit = exponent_fit(poly, sizes, q=args.q, a=args.a, budget=budget)
    rows = [(pt.N, pt.offdiag, pt.ratio) for pt in fit.points]
    return config, fit, (("N", "offdiag", "ratio"), rows)


def _cmd_clt(args):
    poly = _parse_poly(args.poly)
    seed = _parse_seed(args.seed)
    config = {"poly": str(poly), "n": args.n, "reps": args.reps,
              "seed": seed, "threads": args.threads}
    if args.dry_run:
        check_clt_config(poly, args.n, args.reps, args.threads)
        return config, None
    run = run_clt(poly, args.n, args.reps, seed, threads=args.threads)
    result = {"stats": run.stats}
    if args.dump_samples:
        result["samples"] = run.samples
    return config, result


def _cmd_fluct(args):
    poly = _parse_poly(args.poly)
    seed = _parse_seed(args.seed)
    ratio = _parse_fraction(args.ratio, "ratio")
    config = {"poly": str(poly), "x": args.x, "k": args.k,
              "ratio": str(ratio), "reps": args.reps, "seed": seed,
              "conditional": args.conditional, "threads": args.threads,
              "factor_budget": args.factor_budget}
    if args.dry_run:
        check_fluct_config(args.x, args.k, ratio, args.reps, args.threads,
                           factor_budget=args.factor_budget)
        return config, None
    report = run_fluct(poly, args.x, args.k, ratio, args.reps, seed,
                       conditional=args.conditional, threads=args.threads,
                       factor_budget=args.factor_budget)
    # replicate-level matrices stay out of the document; quantiles and
    # per-scale summaries carry the reportable content
    skip = {"s1_matrix", "s2_matrix", "partial_matrix", "max_stats"}
    return config, {f.name: to_jsonable(getattr(report, f.name))
                    for f in dataclasses.fields(report) if f.name not in skip}


def _cmd_audit(args):
    poly = _parse_poly(args.poly)
    grid = _parse_grid(args.grid)
    config = {"poly": str(poly), "grid": grid}
    if args.dry_run:
        check_factor_budget(grid[-1])
        return config, None
    table = factor_values(poly, grid[-1])
    return config, mcleish_audit(table, grid)


_COMMANDS = {
    "classify": _cmd_classify,
    "sieve": _cmd_sieve,
    "energy": _cmd_energy,
    "clt": _cmd_clt,
    "fluct": _cmd_fluct,
    "audit": _cmd_audit,
}


def _error_json(kind: str, exit_code: int, message: str,
                field: str | None = None) -> int:
    payload = {"error": {"kind": kind, "exit_code": exit_code,
                         "message": message}}
    if field:
        payload["error"]["field"] = field
    json.dump(payload, sys.stderr, allow_nan=False)
    sys.stderr.write("\n")
    return exit_code


def dispatch(args) -> int:
    started = time.perf_counter()
    try:
        out = _resolve_out(args.out)
        if out is not None:
            _prepare_out(out)
        # a handler returns (config, result[, csv rows]); a result of None
        # is a dry run or output the handler wrote itself
        config, result, *csv_rows = _COMMANDS[args.command](args)
        if args.dry_run:
            _emit({"dry_run": True, **config}, out)
        elif result is not None:
            _emit(_document(args.command, config, result, started), out, *csv_rows)
        return 0
    except ConfigError as exc:
        return _error_json("config", 2, str(exc), exc.field)
    except BudgetError as exc:
        return _error_json("budget", 3, str(exc))
    except Exception as exc:
        return _error_json("internal", 1, f"{type(exc).__name__}: {exc}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        return _error_json("config", 2, str(exc), exc.field)
    return dispatch(args)


if __name__ == "__main__":
    raise SystemExit(main())
