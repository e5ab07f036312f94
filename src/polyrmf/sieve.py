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

Rows with |P(n)| <= 1 carry an empty factor list and largest_prime 0;
they belong to no per-prime group downstream.  Values are factored by
absolute value; the sign is kept on the ``value`` field.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import IO

import numpy as np

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

    def abs_value(self) -> int:
        return abs(self.value)


@dataclass
class FactorTable:
    """Complete factorizations of P(n) for n = 1..N.

    ``prime_to_indices`` maps each prime appearing in some factorization
    to the ascending list of n with p | P(n).
    """

    polynomial: IntPolynomial
    N: int
    rows: list[FactoredValue]
    prime_to_indices: dict[int, list[int]]

    def row(self, n: int) -> FactoredValue:
        if not 1 <= n <= self.N:
            raise IndexError(f"n={n} outside table range 1..{self.N}")
        return self.rows[n - 1]

    def write_csv(self, fh: IO[str]) -> None:
        """Columns: n, value, factorization "p1^e1*p2^e2*...", largest_prime.

        The factorization string is "1" for |value| <= 1.
        """
        w = csv.writer(fh)
        w.writerow(["n", "value", "factorization", "largest_prime"])
        for row in self.rows:
            fac = "*".join(f"{p}^{e}" for p, e in row.factors) or "1"
            w.writerow([row.n, row.value, fac, row.largest_prime])

    def json_doc(self) -> dict:
        """The table as JSON-ready plain values (values as decimal strings)."""
        return {
            "polynomial": self.polynomial.to_coeff_text(),
            "N": self.N,
            "rows": [
                {
                    "n": r.n,
                    "value": str(r.value),
                    "factors": [[p, e] for p, e in r.factors],
                    "largest_prime": r.largest_prime,
                }
                for r in self.rows
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

    rows: list[FactoredValue] = []
    prime_to_indices: dict[int, list[int]] = {}
    for i in range(n_max):
        m = residual[i]
        if m > 1:
            if m < prime_below:
                fac_lists[i].append((m, 1))
            else:
                rough: dict[int, int] = {}
                _factor_rough(m, rough)
                fac_lists[i].extend(sorted(rough.items()))
        factors = tuple(fac_lists[i])
        lpf = factors[-1][0] if factors else 0
        rows.append(
            FactoredValue(n=i + 1, value=values[i], factors=factors, largest_prime=lpf)
        )
        for p, _ in factors:
            prime_to_indices.setdefault(p, []).append(i + 1)

    return FactorTable(
        polynomial=poly, N=n_max, rows=rows, prime_to_indices=prime_to_indices
    )


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
    count = 0
    for n in range(2, table.N + 1):
        if table.rows[n - 1].largest_prime >= scale * n * log(n):
            count += 1
    return count, Fraction(count, max(1, table.N - 1))
