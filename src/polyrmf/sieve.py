"""Factorization tables for polynomial values P(1..N).

Rather than factoring each |P(n)| independently, small primes are removed
with a root sieve: for each prime p up to B = min(``DEFAULT_TRIAL_BOUND``,
isqrt(max|P(n)|)), the roots of P mod p are found once and p is divided
out of every P(n) with n = root (mod p).  Only the residues
0..min(p, N+1)-1 are evaluated, since no n <= N reaches the others, so
the root search costs O(min(p, N)) per prime rather than O(p).

The division runs in numpy over the hits alone: the root classes expand
into the indices n = r (mod p), p is peeled off each hit's value while it
divides (``//`` and ``%`` over the hits still live), and each residual is
divided once by its p^e (``np.floor_divide.at``).  The residuals are
int64 when max|P(n)| < 2^63 and Python ints (dtype ``object``) otherwise;
the same expressions serve both.  A cofactor m left after the division
has no prime factor <= B, so 1 < m < (B+1)^2 is prime and is taken as it
is; this covers every cofactor once B = isqrt(max|P(n)|).  Only
cofactors >= (B+1)^2 go to ``_factor_rough``, which tests each once with
deterministic Miller-Rabin and splits the composite ones with Brent rho.

The table is the signed ``values`` P(n) and one integer CSR matrix of
the exponents of |P(n)| over the ascending ``primes``; the per-prime
columns and largest primes are views of it, and ``dump_json`` writes
the rows straight from it.  Rows with |P(n)| <= 1 are empty, with
largest prime 0; they belong to no per-prime group downstream.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import isqrt, log
from typing import IO

import numpy as np
from scipy import sparse

from .errors import BudgetError, ConfigError
from .polynomial import IntPolynomial
from .primes import sieve_primes, _factor_rough

# the root sieve's largest prime; the table is the same for any bound
DEFAULT_TRIAL_BOUND = 10_000
# largest N that factor_values accepts unless fluct passes --factor-budget
DEFAULT_FACTOR_BUDGET = 2_000_000


def check_factor_budget(n_max: int, budget: int = DEFAULT_FACTOR_BUDGET) -> None:
    """ConfigError(field="n") below N = 1, BudgetError when more than
    ``budget`` values would be factored."""
    if n_max < 1:
        raise ConfigError("N must be >= 1", field="n")
    if n_max > budget:
        raise BudgetError(f"{n_max} values exceed the factorization "
                          f"budget of {budget} values")


def check_grid(grid: list[int]) -> None:
    """ConfigError(field="grid") unless the N values ascend strictly from 1."""
    if not grid or grid[0] < 1 or list(grid) != sorted(set(grid)):
        raise ConfigError("grid must be strictly ascending values >= 1",
                          field="grid")


@dataclass(eq=False)
class FactorTable:
    """Complete factorizations of P(n) for n = 1..N.

    Row n-1 of the N x len(primes) CSR ``exponents`` holds the exponents
    of |P(n)|, its columns in ascending prime order; ``primes`` are
    Python ints, so primes >= 2^64 fit.
    """

    polynomial: IntPolynomial
    N: int
    values: list[int]
    primes: list[int]
    exponents: sparse.csr_matrix

    @cached_property
    def by_prime(self) -> sparse.csc_matrix:
        """``exponents`` as CSC: column j holds the n-1 with primes[j] | P(n)."""
        return self.exponents.tocsc()

    def largest_primes(self) -> list[int]:
        """P+(P(n)) for n = 1..N from each row's last column (0 if empty)."""
        ptr = self.exponents.indptr
        cols = np.full(self.N, len(self.primes))  # an empty row reads the 0
        full = ptr[1:] > ptr[:-1]
        cols[full] = self.exponents.indices[ptr[1:][full] - 1]
        return np.array(self.primes + [0], dtype=object)[cols].tolist()

    def write_csv(self, fh: IO[str]) -> None:
        """Columns: n, value, factorization "p1^e1*p2^e2*...", largest_prime.

        The factorization string is "1" for |value| <= 1.
        """
        m = self.exponents
        ptr = m.indptr.tolist()
        terms = [f"{self.primes[c]}^{e}"
                 for c, e in zip(m.indices.tolist(), m.data.tolist())]
        w = csv.writer(fh)
        w.writerow(["n", "value", "factorization", "largest_prime"])
        for n, value, a, b, lpf in zip(range(1, self.N + 1), self.values, ptr,
                                       ptr[1:], self.largest_primes()):
            w.writerow([n, value, "*".join(terms[a:b]) or "1", lpf])

    def write_json(self, fh: IO[str]) -> None:
        """The table as indent-2 JSON: polynomial, N and one object per row
        (n, value as a decimal string, [prime, exponent] factors,
        largest_prime)."""
        dump_json({"polynomial": self.polynomial.to_coeff_text(), "N": self.N,
                   "rows": self}, fh)

    def _write_rows(self, fh: IO[str], pad: int) -> None:
        """The rows array as json.dump(indent=2) writes it under a key
        ``pad`` spaces in, from the CSR a block of rows at a time."""
        row_in, key_in = "\n" + " " * (pad + 2), "\n" + " " * (pad + 4)
        pair_in, num_in = key_in + "  ", key_in + "    "
        row = (f'{row_in}{{{{{key_in}"n": {{}},{key_in}"value": "{{}}",'
               f'{key_in}"factors": {{}},{key_in}"largest_prime": {{}}{row_in}}}}}')
        pair = f"{pair_in}[{num_in}{{}},{num_in}{{}}{pair_in}]"
        m = self.exponents
        fh.write("[")
        for lo in range(0, self.N, 4096):  # bounds the strings held at once
            hi = min(lo + 4096, self.N)
            a, b = m.indptr[lo], m.indptr[hi]
            ptr = (m.indptr[lo:hi + 1] - a).tolist()
            ps = [self.primes[c] for c in m.indices[a:b].tolist()]
            terms = [pair.format(p, e) for p, e in zip(ps, m.data[a:b].tolist())]
            fh.write("," * (lo > 0) + ",".join(
                row.format(n, v, f"[{','.join(terms[x:y])}{key_in}]", ps[y - 1])
                if y > x else row.format(n, v, "[]", 0)
                for n, v, x, y in zip(range(lo + 1, hi + 1), self.values[lo:hi],
                                      ptr, ptr[1:])))
        fh.write(f"\n{' ' * pad}]")


def dump_json(doc: dict, fh: IO[str]) -> None:
    """``json.dump(doc, fh, indent=2, allow_nan=False)``, where a
    FactorTable value stands for its rows array: ``json.dumps`` writes the
    rest and each table writes its rows from the CSR, the same bytes
    without a dict per row."""
    tables = []

    def defer(obj):
        if not isinstance(obj, FactorTable):
            raise TypeError(f"Object of type {type(obj).__name__} "
                            "is not JSON serializable")
        tables.append(obj)
        return "\0rows"  # dumped as "\u0000rows", which no other text is

    text = json.dumps(doc, indent=2, allow_nan=False, default=defer)
    *heads, tail = text.split('"\\u0000rows"')
    for head, table in zip(heads, tables, strict=True):
        fh.write(head)
        line = head[head.rfind("\n") + 1:]
        table._write_rows(fh, len(line) - len(line.lstrip(" ")))
    fh.write(tail)


def _roots_mod_p(coeffs: tuple[int, ...], p: int, n_max: int) -> np.ndarray:
    """Residues r in [0, min(p, n_max + 1)) with P(r) = 0 (mod p)."""
    width = min(p, n_max + 1)
    cs = [c % p for c in reversed(coeffs)]
    if not any(cs):
        return np.arange(width)
    # Horner in place: acc, x < p keep acc * x + c below p^2 + p
    dtype = np.int32 if p * p + p < 2**31 else np.int64
    xs = np.arange(width, dtype=dtype)
    acc = np.full(width, cs[0], dtype=dtype)
    for c in cs[1:]:
        acc *= xs
        acc += c
        acc %= p
    return np.flatnonzero(acc == 0)


def factor_values(
    poly: IntPolynomial, n_max: int, *, budget: int = DEFAULT_FACTOR_BUDGET,
) -> FactorTable:
    """Factor |P(n)| completely for every n = 1..n_max <= budget."""
    check_factor_budget(n_max, budget)
    values = [poly(n) for n in range(1, n_max + 1)]
    v_max = max(map(abs, values))
    # sieve only up to isqrt(max|P(n)|): a larger prime leaves a cofactor
    # below (bound + 1)^2, which the prime test below takes as it is
    bound = max(0, min(DEFAULT_TRIAL_BOUND, isqrt(v_max)))
    residual = np.array([abs(v) for v in values],
                        dtype=np.int64 if v_max < 2**63 else object)

    # the root classes n = r (mod p), expanded into their hits n <= n_max
    sieve = sieve_primes(bound)
    roots = [_roots_mod_p(poly.coeffs, p, n_max) for p in sieve]
    cls_p = np.repeat(np.array(sieve, dtype=np.int64), [len(r) for r in roots])
    cls_n = np.concatenate([np.zeros(0, np.int64), *roots])
    cls_n = np.where(cls_n == 0, cls_p, cls_n)
    count = (n_max - cls_n) // cls_p + 1
    step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    hit_p = np.repeat(cls_p, count)
    hit_row = np.repeat(cls_n - 1, count) + step * hit_p
    nonzero = residual[hit_row] != 0  # every p divides P(n) = 0
    hit_p, hit_row = hit_p[nonzero], hit_row[nonzero]

    # p divides every hit; peel p off the hits it still divides
    hit_e = np.zeros(len(hit_p), dtype=np.int64)
    m = residual[hit_row]
    live = np.arange(len(hit_p))
    while live.size:
        p, v = hit_p[live], m[live]
        divides = v % p == 0
        live = live[divides]
        m[live] = v[divides] // p[divides]
        hit_e[live] += 1
    np.floor_divide.at(residual, hit_row, hit_p.astype(residual.dtype) ** hit_e)

    # every prime <= bound is divided out, so a composite cofactor is at
    # least (bound + 1)^2
    rest = np.flatnonzero(residual > 1)
    prime = residual[rest] < (bound + 1) ** 2
    rough_row, rough_p, rough_e = [], [], []
    for i in rest[~prime].tolist():
        rough: dict[int, int] = {}
        _factor_rough(int(residual[i]), rough)
        rough_row += [i] * len(rough)
        rough_p += rough
        rough_e += rough.values()

    # ascending primes put each row's rough factors after its sieve primes
    rows = np.concatenate([hit_row, rest[prime], np.array(rough_row, np.int64)])
    primes, cols = np.unique(
        np.concatenate([hit_p.astype(residual.dtype), residual[rest[prime]],
                        np.array(rough_p, residual.dtype)]),
        return_inverse=True)
    exps = np.concatenate([hit_e, np.ones(prime.sum(), np.int64),
                           np.array(rough_e, np.int64)])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_max))])
    exponents = sparse.csr_matrix((exps[order], cols[order], indptr),
                                  shape=(n_max, len(primes)))
    return FactorTable(polynomial=poly, N=n_max, values=values,
                       primes=primes.tolist(), exponents=exponents)


def lpf_density(
    table: FactorTable, threshold_scale: Fraction | float | None = None
) -> tuple[int, Fraction]:
    """How often the largest prime factor of P(n) beats scale * n * ln(n).

    Counts 2 <= n <= N with P+(P(n)) >= threshold_scale * n * ln(n) and
    returns (count, count/(N-1)), or (0, 0) at N = 1; scale 1/(2 d^2) by default.
    """
    if threshold_scale is None:
        d = table.polynomial.degree
        threshold_scale = Fraction(1, 2 * d * d)
    scale = float(threshold_scale)
    lpf = table.largest_primes()
    count = sum(1 for n in range(2, table.N + 1)
                if lpf[n - 1] >= scale * n * log(n))
    return count, Fraction(count, max(1, table.N - 1))
