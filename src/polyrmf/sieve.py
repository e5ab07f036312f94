"""Factorization tables for polynomial values P(1..N).

Rather than factoring each |P(n)| independently, small primes are removed
with a root sieve: for each prime p up to a trial bound, the roots of
P mod p are found once and p is divided out of every P(n) with
n = root (mod p).  Rough cofactors (all prime factors above the bound)
are finished with deterministic Miller-Rabin plus Brent rho.

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

from .polynomial import IntPolynomial
from .primes import is_prime, sieve_primes, _factor_rough

DEFAULT_TRIAL_BOUND = 10_000
# largest N that clt factors and that fluct's top grid point may reach
DEFAULT_FACTOR_BUDGET = 2_000_000


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

    def first_index(self, p: int) -> int:
        """Smallest n with p | P(n)."""
        return self.prime_to_indices[p][0]

    def write_csv(self, fh: IO[str]) -> None:
        """Columns: n, value, factorization "p1^e1*p2^e2*...", largest_prime.

        The factorization string is "1" for |value| <= 1.
        """
        w = csv.writer(fh)
        w.writerow(["n", "value", "factorization", "largest_prime"])
        for row in self.rows:
            fac = "*".join(f"{p}^{e}" for p, e in row.factors) or "1"
            w.writerow([row.n, row.value, fac, row.largest_prime])

    def write_json(self, fh: IO[str]) -> None:
        doc = {
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
        json.dump(doc, fh)


def _roots_mod_p(coeffs: tuple[int, ...], p: int) -> np.ndarray:
    """All residues r in [0, p) with P(r) = 0 (mod p)."""
    cs = np.array([c % p for c in reversed(coeffs)], dtype=np.int64)
    if not cs.any():
        return np.arange(p, dtype=np.int64)
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in cs:
        acc = (acc * xs + c) % p
    return np.flatnonzero(acc == 0)


def factor_values(
    poly: IntPolynomial, n_max: int, trial_bound: int = DEFAULT_TRIAL_BOUND
) -> FactorTable:
    """Factor |P(n)| completely for every n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = [poly(n) for n in range(1, n_max + 1)]
    residual = [abs(v) for v in values]
    fac_lists: list[list[tuple[int, int]]] = [[] for _ in range(n_max)]

    for p in sieve_primes(trial_bound):
        for r in _roots_mod_p(poly.coeffs, p):
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
            if is_prime(m):
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
    returns (count, count/(N-1)).  The default scale is 1/(2 d^2).
    """
    if table.N < 2:
        raise ValueError("need N >= 2 for a density")
    if threshold_scale is None:
        d = table.polynomial.degree
        threshold_scale = Fraction(1, 2 * d * d)
    scale = float(threshold_scale)
    count = 0
    for n in range(2, table.N + 1):
        if table.rows[n - 1].largest_prime >= scale * n * log(n):
            count += 1
    return count, Fraction(count, table.N - 1)
