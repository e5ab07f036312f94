"""Independent correctness checks on the CLI's outputs.

Nothing here imports polyrmf.  Values are recomputed from the job's own
coefficients; factorizations and primality come from sympy; the angle hash
and ``derive_seed`` are re-implemented from the contract in README.md.

A job ends in one of three states:

* ``ok`` -- it exited as expected and every check passed;
* ``failed`` -- wrong exit code, exceeded its cap, raised, or wrote an
  output that is missing or not strict JSON;
* ``incorrect`` -- it produced a well-formed output that a check refutes.

Both non-ok states count as failed jobs; ``incorrect`` also makes the run
incorrect.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import log, pi, sqrt

import numpy as np
from sympy import factorint, isprime

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
TOL = 1e-9
PRIME_SAMPLE_ROWS = 25
BRUTE_ENERGY_M = 16
BRUTE_AUDIT_N = 250


class Refuted(Exception):
    """A check disagreed with the program's output."""


class Malformed(Exception):
    """The output is missing, not strict JSON, or lacks required fields."""


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise Malformed(str(exc)) from exc


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Refuted(message)


def peval(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


class Factorizer:
    """Memoized sympy factorizations of |P(n)|, shared across jobs."""

    def __init__(self):
        self._memo: dict[int, dict[int, int]] = {}

    def __call__(self, v: int) -> dict[int, int]:
        v = abs(v)
        if v <= 1:
            return {}
        got = self._memo.get(v)
        if got is None:
            got = self._memo[v] = factorint(v)
        return got


# ------------------------------------------------------------- angle contract

def mix64(z: int) -> int:
    z &= M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def stream_key(seed: int, replicate: int | None) -> int:
    """Hash key of the base stream (replicate None) or of replicate r."""
    if replicate is None:
        return mix64(seed)
    return mix64(mix64((seed + (replicate + 1) * GOLDEN) & M64))


def angle(key: int, p: int) -> float:
    return (mix64((key + p * GOLDEN) & M64) >> 11) * 2.0 ** -53


def f_value(factors: dict[int, int], theta) -> complex:
    phase = sum(e * theta(p) for p, e in sorted(factors.items())) % 1.0
    return cmath.exp(2j * pi * phase)


# ------------------------------------------------------------ exact counting

def energy_total(values: list[int]) -> int:
    """#{(a1,a2,a3,a4) : v1 v2 = v3 v4} over ordered quadruples."""
    m = len(values)
    if m <= BRUTE_ENERGY_M:
        return sum(1 for a, b, c, d in product(values, repeat=4) if a * b == c * d)
    big = max(abs(v) for v in values)
    if big * big < 2 ** 62:
        v = np.array(values, dtype=np.int64)
        _, counts = np.unique(np.multiply.outer(v, v).ravel(), return_counts=True)
        return int(np.sum(counts.astype(np.int64) ** 2))
    pairs: Counter = Counter()
    for i, a in enumerate(values):
        pairs[a * a] += 1
        for b in values[i + 1:]:
            pairs[a * b] += 2
    return sum(c * c for c in pairs.values())


def lpf_groups(values: list[int], fac: Factorizer) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for v in values:
        f = fac(v)
        if f:
            groups.setdefault(max(f), []).append(abs(v))
    return groups


def audit_brute(groups: dict[int, list[int]], n: int):
    """(variance_sum, lindeberg_sum, cross_term) straight from definitions."""
    eq = c22 = c31 = 0
    for g in groups.values():
        eq += sum(1 for a in g for b in g if a == b)
        c22 += sum(1 for a, b, c, d in product(g, repeat=4) if a * b == c * d)
        c31 += sum(1 for a, b, c, d in product(g, repeat=4) if a * b * c == d)
    ordered = {p: [(a, b) for a in g for b in g] for p, g in groups.items()}
    d_count = a_count = 0
    for p, vs in ordered.items():
        for q, ws in ordered.items():
            if p == q:
                continue
            for v1, v2 in vs:
                for w1, w2 in ws:
                    d_count += v1 * w1 == v2 * w2
                    a_count += v1 * v2 * w1 == w2
    return (Fraction(eq, n), Fraction(6 * c22 + 8 * c31, 4 * n * n),
            Fraction(d_count + 2 * a_count, n * n))


# ---------------------------------------------------------------- per command

def check_sieve(job, text: str, fac: Factorizer) -> None:
    coeffs, n_max = job.params["coeffs"], job.params["n"]
    if job.params["format"] == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["n", "value", "factorization", "largest_prime"]:
            raise Malformed("bad CSV header")
        table = []
        for n, value, fs, lpf in rows[1:]:
            factors = [] if fs == "1" else [
                [int(t) for t in term.split("^")] for term in fs.split("*")]
            table.append((int(n), int(value), factors, int(lpf)))
        density = None
    else:
        doc = strict_json(text)
        res = doc["result"]
        expect(res["N"] == n_max, "N differs from --n")
        table = [(r["n"], int(r["value"]), r["factors"], r["largest_prime"])
                 for r in res["rows"]]
        density = res["lpf_density"]
    expect(len(table) == n_max, f"{len(table)} rows for N={n_max}")
    rng = random.Random(job.id)
    sample = set(rng.sample(range(n_max), min(PRIME_SAMPLE_ROWS, n_max)))
    lpfs = []
    for i, (n, value, factors, lpf) in enumerate(table):
        expect(n == i + 1, f"row {i} has n={n}")
        expect(value == peval(coeffs, n), f"P({n}) is {peval(coeffs, n)}, not {value}")
        primes = [p for p, _ in factors]
        expect(primes == sorted(set(primes)), f"n={n}: primes not ascending")
        expect(all(e >= 1 for _, e in factors), f"n={n}: zero exponent")
        if abs(value) <= 1:
            expect(not factors and lpf == 0, f"n={n}: |P(n)|<=1 has factors")
        else:
            prod_ = 1
            for p, e in factors:
                prod_ *= p ** e
            expect(prod_ == abs(value), f"n={n}: factors do not rebuild |P(n)|")
            expect(lpf == primes[-1], f"n={n}: largest_prime is not the last prime")
        if i in sample:
            expect(all(isprime(p) for p in primes), f"n={n}: composite factor")
        lpfs.append(lpf)
    if density is not None and n_max >= 2:
        d = len(coeffs) - 1
        scale = float(Fraction(1, 2 * d * d))
        count = sum(1 for n in range(2, n_max + 1) if lpfs[n - 1] >= scale * n * log(n))
        expect(density["count"] == count, "lpf_density count differs")
        frac = Fraction(count, n_max - 1)
        expect(density["fraction"] == f"{frac.numerator}/{frac.denominator}",
               "lpf_density fraction differs")


def _header(doc: dict, command: str) -> dict:
    if doc.get("tool") != "polyrmf" or doc.get("command") != command \
            or "result" not in doc:
        raise Malformed("missing document header")
    return doc["result"]


def check_energy(job, doc: dict) -> dict:
    res = _header(doc, "energy")
    coeffs = job.params["coeffs"]
    if "grid" in job.params:
        offdiag = {}
        for pt, n in zip(res["points"], job.params["grid"]):
            expect(pt["N"] == n, "grid point order differs")
            values = [peval(coeffs, x) for x in range(1, n + 1)]
            want = energy_total(values) - (2 * n * n - n)
            expect(pt["offdiag"] == want, f"N={n}: offdiag {pt['offdiag']} != {want}")
            offdiag[n] = pt["offdiag"]
        expect(len(res["points"]) == len(job.params["grid"]), "missing grid points")
        return offdiag
    n = job.params["n"]
    values = [peval(coeffs, x) for x in range(1, n + 1)]
    total = energy_total(values)
    expect(res["total"] == total, f"total {res['total']} != {total}")
    if "pinned_total" in job.params:
        expect(total == job.params["pinned_total"], "pinned count differs")
    diag = 2 * n * n - n
    counts = Counter(values).values()
    s2 = sum(c * c for c in counts)
    vd = 2 * s2 * s2 - sum(c ** 4 for c in counts)
    expect(res["diagonal_arg"] == diag and res["main_term"] == diag,
           "argument-diagonal count differs")
    expect(res["value_diagonal"] == vd - diag, "value-diagonal count differs")
    expect(res["nontrivial"] == total - vd, "nontrivial count differs")
    expect(res["zero_value_count"] == values.count(0), "zero count differs")
    expect(res["has_negative_values"] == any(v < 0 for v in values),
           "negative-value flag differs")
    return {n: total - diag}


def check_audit(job, doc: dict, fac: Factorizer) -> None:
    res = _header(doc, "audit")
    coeffs, grid = job.params["coeffs"], job.params["grid"]
    scales = res["scales"]
    expect([s["N"] for s in scales] == grid, "audit scales differ from grid")
    values = [peval(coeffs, x) for x in range(1, grid[-1] + 1)]
    for s in scales:
        n = s["N"]
        vs = values[:n]
        groups = lpf_groups(vs, fac)
        expect(s["small_value_count"] == sum(1 for v in vs if abs(v) <= 1),
               f"N={n}: small-value count differs")
        eq = sum(c * c for g in groups.values() for c in Counter(g).values())
        expect(Fraction(s["variance_sum"]) == Fraction(eq, n),
               f"N={n}: variance_sum differs")
        if n <= BRUTE_AUDIT_N:
            _, lind, cross = audit_brute(groups, n)
            expect(Fraction(s["lindeberg_sum"]) == lind, f"N={n}: lindeberg differs")
            expect(Fraction(s["cross_term"]) == cross, f"N={n}: cross term differs")


def check_clt(job, doc: dict, capture: dict | None, fac: Factorizer) -> bool:
    """Returns False when no replicate capture was available."""
    st = _header(doc, "clt")["stats"]
    coeffs, n, reps, seed = (job.params[k] for k in ("coeffs", "n", "reps", "seed"))
    values = [peval(coeffs, x) for x in range(1, n + 1)]
    expect(st["n_samples"] == reps, "n_samples differs from --reps")
    expect(st["zero_value_count"] == values.count(0), "zero count differs")
    expect(st["small_value_count"] == sum(1 for v in values if abs(v) == 1),
           "small-value count differs")
    sq = sum(c * c for c in Counter(abs(v) for v in values if v).values())
    expect(Fraction(st["exact_second_moment"]) == Fraction(sq, n),
           "exact second moment differs")
    if not capture or "clt" not in capture:
        return False
    cap = capture["clt"]
    facs = [fac(v) for v in values]
    for r, (re_, im_) in zip(cap["rows"], cap["values"]):
        key = stream_key(seed, r)
        acc = sum(f_value(f, lambda p: angle(key, p))
                  for f, v in zip(facs, values) if v != 0)
        x = acc / sqrt(n)
        expect(abs(x - complex(re_, im_)) <= TOL,
               f"replicate {r}: {complex(re_, im_)} != {x}")
    return True


def check_fluct(job, doc: dict, capture: dict | None, fac: Factorizer) -> bool:
    res = _header(doc, "fluct")
    p = job.params
    ratio = Fraction(p["ratio"])
    points = [round(p["x"] * ratio ** i) for i in range(p["k"])]
    expect(res["grid"]["points"] == points, "scale grid differs")
    expect(len(res["scales"]) == p["k"], "scale count differs")
    q = res["max_stat_quantiles"]
    expect(q["min"] <= q["q25"] <= q["median"] <= q["q75"] <= q["max"],
           "quantiles out of order")
    if not capture or "fluct" not in capture or "a_sets" not in capture:
        return False
    a_sets = [set(a) for a in capture["a_sets"]]
    expect(sum(map(len, a_sets)) == len(set().union(*a_sets)), "A-sets overlap")
    scale_of = {prime: i for i, a in enumerate(a_sets) for prime in a}
    x1 = points[0]
    values = [peval(p["coeffs"], x) for x in range(1, x1 + 1)]
    facs = [fac(v) for v in values]
    labels = []
    for f in facs:
        hits = [scale_of[q_] for q_ in f if q_ in scale_of]
        expect(hits.count(0) <= 1, "two A_1 primes divide one P(n)")
        labels.append(0 if not hits else 1 if hits == [0] else 2)
    base = stream_key(p["seed"], None)
    cap = capture["fluct"]
    for j, r in enumerate(cap["rows"]):
        key = stream_key(p["seed"], r)

        def theta(prime, key=key):
            if p["conditional"] and prime not in scale_of:
                return angle(base, prime)
            return angle(key, prime)

        sums = [0j, 0j, 0j]  # partial, S1, S2 at the first scale
        for f, v, lab in zip(facs, values, labels):
            if v == 0:
                continue
            z = f_value(f, theta)
            sums[0] += z
            if lab:
                sums[lab] += z
        for name, got in zip(("partial", "s1", "s2"), sums):
            want = complex(*cap[name][j][0])
            expect(abs(got - want) <= TOL,
                   f"replicate {r}: {name} at x={x1} is {want}, recomputed {got}")
    return True


# ------------------------------------------------------------------- driver

def _error_doc(job, stderr: str) -> None:
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise Malformed("expected one JSON error line on stderr")
    err = strict_json(lines[0]).get("error", {})
    kind = {2: "config", 3: "budget"}[job.expect_rc]
    if err.get("kind") != kind or err.get("exit_code") != job.expect_rc:
        raise Malformed(f"error document {err} does not match exit {job.expect_rc}")


def check_job(job, records: list[dict], out_text: str | None,
              capture: dict | None, fac: Factorizer) -> dict:
    """Verdict for one job: {"status", "reason", "replicates_checked", ...}."""
    verdict = {"status": "ok", "reason": "", "replicates_checked": None,
               "offdiag": None}
    first = records[0]
    try:
        for rec in records:
            if rec["timeout"]:
                raise Malformed(f"exceeded the {job.cap_s:g} s cap")
            if rec["error"]:
                raise Malformed(rec["error"])
            if rec["rc"] != job.expect_rc:
                raise Malformed(f"exit {rec['rc']}, expected {job.expect_rc}")
        if job.expect_rc != 0:
            _error_doc(job, first["stderr"])
            return verdict
        if out_text is None:
            raise Malformed("no output file")
        if first["stdout"].strip():
            strict_json(first["stdout"])
        cmd = job.params["command"]
        if cmd == "sieve":
            check_sieve(job, out_text, fac)
            return verdict
        doc = strict_json(out_text)
        if cmd == "energy":
            verdict["offdiag"] = check_energy(job, doc)
        elif cmd == "audit":
            check_audit(job, doc, fac)
        elif cmd == "clt":
            verdict["replicates_checked"] = check_clt(job, doc, capture, fac)
        elif cmd == "fluct":
            verdict["replicates_checked"] = check_fluct(job, doc, capture, fac)
    except Malformed as exc:
        verdict.update(status="failed", reason=str(exc))
    except Refuted as exc:
        verdict.update(status="incorrect", reason=str(exc))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        verdict.update(status="failed",
                       reason=f"unexpected document shape: {type(exc).__name__}: {exc}")
    return verdict


def check_twins(jobs, verdicts: dict[str, dict]) -> None:
    """Direct and chunked counts of the same polynomial and N must agree."""
    seen: dict[tuple, tuple[str, int]] = {}
    for job in jobs:
        v = verdicts[job.id]
        if job.params["command"] != "energy" or v["status"] != "ok" or not v["offdiag"]:
            continue
        for n, off in v["offdiag"].items():
            key = (tuple(job.params["coeffs"]), n)
            if key in seen and seen[key][1] != off:
                other = seen[key][0]
                for jid in (job.id, other):
                    verdicts[jid].update(
                        status="incorrect",
                        reason=f"direct and chunked counts disagree at N={n}")
            seen.setdefault(key, (job.id, off))
