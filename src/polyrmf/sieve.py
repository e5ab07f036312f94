"""Factorization tables for polynomial values P(1..N).

Rather than factoring each |P(n)| independently, small primes are removed
with a root sieve: for each prime p up to a trial bound B, the roots of
P mod p are found once and p is divided out of every P(n) with
n = root (mod p).  Only the residues 0..min(p, N+1)-1 are evaluated,
since no n <= N reaches the others, so the root search costs
O(min(p, N)) per prime rather than O(p).  A cofactor m left after
trial division has no prime factor <= B, so 1 < m < B^2 is prime and
is taken as it is; only cofactors >= B^2 go to ``_factor_rough``, which
tests each once with deterministic Miller-Rabin and splits the composite
ones with Brent rho.

The table is the signed ``values`` P(n) and one integer CSR matrix of
the exponents of |P(n)| over the ascending ``primes``; the per-prime
columns, largest primes and ``FactoredValue`` rows are views of it.
Rows with |P(n)| <= 1 are empty, with largest prime 0; they belong to
no per-prime group downstream.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import log
from typing import IO

import numpy as np
from scipy import sparse

from .errors import BudgetError, ConfigError
from .polynomial import IntPolynomial
from .primes import sieve_primes, _factor_rough

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


@dataclass(frozen=True)
class FactoredValue:
    n: int
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending
    largest_prime: int  # 0 when |value| <= 1


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

    def _rows(self, lo: int = 0, hi: int | None = None):
        """(n, value, factors, largest prime) of n = lo+1..hi, from the CSR."""
        m = self.exponents[lo:hi]
        ptr = m.indptr.tolist()
        pairs = list(zip([self.primes[c] for c in m.indices.tolist()],
                         m.data.tolist()))
        for n, a, b in zip(range(lo + 1, self.N + 1), ptr, ptr[1:]):
            f = tuple(pairs[a:b])
            yield n, self.values[n - 1], f, f[-1][0] if f else 0

    def row(self, n: int) -> FactoredValue:
        if not 1 <= n <= self.N:
            raise IndexError(f"n={n} outside table range 1..{self.N}")
        return FactoredValue(*next(self._rows(n - 1, n)))

    @cached_property
    def rows(self) -> list[FactoredValue]:
        return [FactoredValue(*r) for r in self._rows()]

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

    def json_doc(self) -> dict:
        """The table as JSON-ready plain values (values as decimal strings)."""
        return {
            "polynomial": self.polynomial.to_coeff_text(),
            "N": self.N,
            "rows": [
                {
                    "n": n,
                    "value": str(value),
                    "factors": [[p, e] for p, e in factors],
                    "largest_prime": lpf,
                }
                for n, value, factors, lpf in self._rows()
            ],
        }

    def write_json(self, fh: IO[str]) -> None:
        json.dump(self.json_doc(), fh)


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
    poly: IntPolynomial, n_max: int, trial_bound: int = DEFAULT_TRIAL_BOUND,
    *, budget: int = DEFAULT_FACTOR_BUDGET,
) -> FactorTable:
    """Factor |P(n)| completely for every n = 1..n_max <= budget."""
    check_factor_budget(n_max, budget)
    # every prime <= trial_bound is divided out, so a composite cofactor
    # is at least (the next prime)^2 > trial_bound^2
    prime_below = max(trial_bound, 0) ** 2
    values = [poly(n) for n in range(1, n_max + 1)]
    residual = [abs(v) for v in values]
    fac_lists: list[list[tuple[int, int]]] = [[] for _ in range(n_max)]

    for p in sieve_primes(trial_bound):
        for r in _roots_mod_p(poly.coeffs, p, n_max):
            start = int(r) if r >= 1 else p
            for n in range(start, n_max + 1, p):
                m = residual[n - 1]
                if m == 0:
                    continue
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if e:
                    residual[n - 1] = m
                    fac_lists[n - 1].append((p, e))

    for i in range(n_max):
        m = residual[i]
        if m > 1:
            if m < prime_below:
                fac_lists[i].append((m, 1))
            else:
                rough: dict[int, int] = {}
                _factor_rough(m, rough)
                fac_lists[i].extend(sorted(rough.items()))

    # sieve primes come in ascending order and every rough factor exceeds
    # them, so each row already lists its primes in ascending order
    flat = [pe for fac in fac_lists for pe in fac]
    primes = sorted({p for p, _ in flat})
    column = {p: j for j, p in enumerate(primes)}
    indptr = np.cumsum([0] + [len(fac) for fac in fac_lists])
    exponents = sparse.csr_matrix(
        (np.array([e for _, e in flat], dtype=np.int64),
         np.array([column[p] for p, _ in flat], dtype=np.int64), indptr),
        shape=(n_max, len(primes)),
    )
    return FactorTable(polynomial=poly, N=n_max, values=values, primes=primes,
                       exponents=exponents)


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
