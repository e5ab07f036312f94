"""Monte-Carlo and exact audits of the Gaussian limit for sums of f(P(n)).

The Monte-Carlo side draws R independent replicates of
X = N^(-1/2) * sum_{n<=N} f(P(n)) and reports moment statistics plus
Kolmogorov-Smirnov distances of Re X and Im X against a mean-0,
variance-1/2 normal.

The deterministic side audits the three martingale-CLT conditions for
the pieces M_p = Re[(N/2)^(-1/2) * sum_{n<=N, lpf(P(n))=p} f(P(n))]
as exact rational counts.  Expectations of products of f-values reduce,
by orthogonality of independent unit-circle phases, to counting
solutions of multiplicative equations among the |P(n)|: a product of
f's and conjugates has expectation 1 exactly when the unconjugated and
conjugated value products agree, else 0.  All surviving orthogonality
classes are enumerated, so the rational outputs are exact:

* variance_sum   = sum_p E M_p^2
                 = (1/N) * #{(n1,n2) in group_p^2 : |P(n1)| = |P(n2)|}
* lindeberg_sum  = sum_p E M_p^4
                 = sum_p (6*C22_p + 8*C31_p) / (4 N^2)
  with C22 = #{v1 v2 = v3 v4} and C31 = #{v1 v2 v3 = v4} inside group p
  (the all-unconjugated class #{v1 v2 v3 v4 = 1} vanishes: group values
  are >= 2),
* cross_term     = sum_{p != q} E M_p^2 M_q^2
                 = (D + 2 A) / N^2
  where D counts v1 w1 = v2 w2 with v's in group p, w's in group q,
  p != q, and A counts the rarer class v1 v2 w1 = w2 across distinct
  groups (its mirror contributes the factor 2).

The groups g of |P(n)| are read off the factor table's CSR exponent
matrix: each nonempty row is tagged by its last column, the column of
its largest prime, and a grid point N takes the rows n <= N.  Every
count is a square sum S(X) = sum_k x_k^2 over the keys k of the ordered
pairs inside the groups (``energy.group_pair_counts``), R_g and Pi_g
counting the pairs of g^2 by ratio and by product, R and Pi their sums
over g.  The equal pairs of g are R_g(1), C22 = sum_m Pi_g(m)^2
and sum_g C22 + D = sum_r R(r)^2, as v1 v2 = v3 v4 iff v1/v3 = v4/v2.
C31 = sum_m Pi_g(m) R_g(m), as v1 v2 v3 = v4 iff v4/v3 = v1 v2, and
sum_g C31 + A = sum_m Pi(m) R(m), inner products by polarization,
sum_k x_k y_k = (S(X+Y) - S(X) - S(Y))/2, of products and ratios m/1.

Normalization convention: the summation pieces themselves are raw
complex sums; every 1/sqrt(N) or 1/sqrt(N/2) factor is applied here at
the audit layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import erf, sqrt

import numpy as np

from .polynomial import IntPolynomial, require_not_pure_power
from .energy import group_pair_counts, value_pair_count
from .rmf import PhaseTable, check_replicates, replicate_sums
from .sieve import FactorTable, check_factor_budget, check_grid, factor_values


def normal_cdf_half_variance(x: float) -> float:
    """CDF of N(0, 1/2); the variance makes this (1 + erf(x)) / 2."""
    return 0.5 * (1.0 + erf(x))


def ks_statistic(samples: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance against N(0, 1/2)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    cdf_vals = np.array([normal_cdf_half_variance(x) for x in xs])
    upper = np.max(np.arange(1, n + 1) / n - cdf_vals)
    lower = np.max(cdf_vals - np.arange(0, n) / n)
    return float(max(upper, lower))


@dataclass(frozen=True)
class CltStats:
    n_samples: int
    mean_re: float
    mean_im: float
    var_re: float
    var_im: float
    cov_re_im: float
    abs2_mean: float
    abs2_se: float
    abs4_mean: float
    abs4_se: float
    ks_re: float
    ks_im: float
    exact_second_moment: Fraction  # #{(n1,n2): |P(n1)|=|P(n2)|, nonzero} / N
    small_value_count: int  # n <= N with |P(n)| = 1 (f = 1 there); zeros excluded
    zero_value_count: int


@dataclass(frozen=True)
class CltRun:
    polynomial: IntPolynomial
    N: int
    reps: int
    seed: int
    samples: np.ndarray
    stats: CltStats


def check_clt_config(poly: IntPolynomial, n_max: int, reps: int,
                     threads: int = 1) -> None:
    """The checks ``run_clt`` runs first; they raise ConfigError or BudgetError."""
    check_factor_budget(n_max)
    require_not_pure_power(poly)
    check_replicates(reps, threads, minimum=100)


def sample_normalized_sums(
    pt: PhaseTable, n_max: int, seed: int, reps: int, *, threads: int = 1
) -> np.ndarray:
    """R replicates of N^(-1/2) sum_{n<=N} f(P(n)), reproducibly; the
    replicate engine with a single all-ones selector row."""
    ones = np.ones((1, pt.n_max), dtype=bool)
    return replicate_sums(pt, seed, reps, ones, threads=threads)[0] / sqrt(n_max)


def run_clt(
    poly: IntPolynomial,
    n_max: int,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> CltRun:
    """Monte-Carlo sample of the normalized partial sums with statistics,
    over the table of P(1..n_max) that it factors itself."""
    check_clt_config(poly, n_max, reps, threads)
    table = factor_values(poly, n_max)
    samples = sample_normalized_sums(PhaseTable(table), n_max, seed, reps,
                                     threads=threads)

    re, im = samples.real, samples.imag
    abs2 = re * re + im * im
    abs4 = abs2 * abs2
    values = [abs(v) for v in table.values]
    nonzero = [v for v in values if v]
    exact_second = Fraction(value_pair_count(nonzero), n_max)
    small = values.count(1)
    zeros = len(values) - len(nonzero)
    stats = CltStats(
        n_samples=reps,
        mean_re=float(np.mean(re)),
        mean_im=float(np.mean(im)),
        var_re=float(np.var(re, ddof=1)),
        var_im=float(np.var(im, ddof=1)),
        cov_re_im=float(
            np.sum((re - np.mean(re)) * (im - np.mean(im))) / (reps - 1)
        ),
        abs2_mean=float(np.mean(abs2)),
        abs2_se=float(np.std(abs2, ddof=1) / sqrt(reps)),
        abs4_mean=float(np.mean(abs4)),
        abs4_se=float(np.std(abs4, ddof=1) / sqrt(reps)),
        ks_re=ks_statistic(re),
        ks_im=ks_statistic(im),
        exact_second_moment=exact_second,
        small_value_count=small,
        zero_value_count=zeros,
    )
    return CltRun(
        polynomial=poly, N=n_max, reps=reps, seed=seed, samples=samples, stats=stats
    )


@dataclass(frozen=True)
class McLeishScale:
    N: int
    variance_sum: Fraction
    lindeberg_sum: Fraction
    cross_term: Fraction
    small_value_count: int  # n <= N with |P(n)| <= 1, zeros included: no group


@dataclass(frozen=True)
class McLeishAudit:
    polynomial: IntPolynomial
    scales: tuple[McLeishScale, ...]


def mcleish_audit(table: FactorTable, grid: list[int]) -> McLeishAudit:
    """Exact martingale-condition sums at each N of the grid; each nonempty
    row of the table's CSR is grouped by its last column, its largest prime."""
    check_grid(grid)
    if grid[-1] > table.N:
        raise ValueError("table does not cover the requested range")
    ptr = table.exponents.indptr[:grid[-1] + 1]
    rows = np.flatnonzero(ptr[1:] > ptr[:-1])
    tags = table.exponents.indices[ptr[rows + 1] - 1]
    mags = [abs(table.values[r]) for r in rows.tolist()]
    scales = []
    for n_max in grid:
        m = int(np.searchsorted(rows, n_max))  # the rows n <= n_max
        equal, same, total, c31, triples = group_pair_counts(mags[:m], tags[:m])
        scales.append(McLeishScale(
            N=n_max, variance_sum=Fraction(equal, n_max),
            lindeberg_sum=Fraction(6 * same + 8 * c31, 4 * n_max * n_max),
            cross_term=Fraction(total - same + 2 * (triples - c31), n_max**2),
            small_value_count=n_max - m))
    return McLeishAudit(polynomial=table.polynomial, scales=tuple(scales))
