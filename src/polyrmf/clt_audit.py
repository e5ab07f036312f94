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

Every count comes from exact pair histograms (``energy.pair_histogram``)
of the |P(n)| in each group.  C22 is the sum of squared product
multiplicities, and D is the distinct-prime part of the ratio-histogram
count that ``energy.paired_prime_count`` shares with the energy layer.
C31 and A come from one divisor pass per group g: each (u, t) in g^2
with u | t and m = t / u adds the pair count of m inside g to C31 and
the pair count of m over all other groups to A, so the pass costs
O(|g|^2) instead of the O(|g|^3) of a direct triple loop.

Normalization convention: the summation pieces themselves are raw
complex sums; every 1/sqrt(N) or 1/sqrt(N/2) factor is applied here at
the audit layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import erf, sqrt

import numpy as np
from scipy import sparse

from .errors import BudgetError, ConfigError
from .polynomial import IntPolynomial, classify
from .energy import lpf_groups, pair_histogram, paired_prime_count
from .rmf import PhaseTable, replicate_sums
from .sieve import DEFAULT_FACTOR_BUDGET, FactorTable, factor_values


def normal_cdf_half_variance(x: float) -> float:
    """CDF of N(0, 1/2); the variance makes this (1 + erf(x)) / 2."""
    return 0.5 * (1.0 + erf(x))


def ks_statistic(samples: np.ndarray, cdf=normal_cdf_half_variance) -> float:
    """One-sample Kolmogorov-Smirnov distance against a reference CDF."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    cdf_vals = np.array([cdf(x) for x in xs])
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
    small_value_count: int  # n <= N with |P(n)| <= 1 (contribute constant 1)
    zero_value_count: int


@dataclass(frozen=True)
class CltRun:
    polynomial: IntPolynomial
    N: int
    reps: int
    seed: int
    samples: np.ndarray
    stats: CltStats


def check_clt_config(poly: IntPolynomial, n_max: int, reps: int) -> None:
    """Reject a clt request: ConfigError names the field, BudgetError
    flags an N beyond the factorization budget."""
    if n_max < 1:
        raise ConfigError("N must be >= 1", field="n")
    cls = classify(poly)
    if not cls.clt_admissible:
        if cls.is_pure_power:
            w = cls.pure_power_witness
            raise ConfigError(
                f"polynomial {poly} is the excluded pure power w*(x+c)^d "
                f"(w={w.w}, c={w.c}); its normalized sums degenerate",
                field="poly")
        raise ConfigError("degree must be >= 2", field="poly")
    if reps < 100:
        raise ConfigError("need at least 100 replicates", field="reps")
    if n_max > DEFAULT_FACTOR_BUDGET:
        raise BudgetError(
            f"N={n_max} exceeds the factorization budget of "
            f"{DEFAULT_FACTOR_BUDGET}")


def sample_normalized_sums(
    pt: PhaseTable, n_max: int, seed: int, reps: int, *, threads: int = 1
) -> np.ndarray:
    """R replicates of N^(-1/2) sum_{n<=N} f(P(n)), reproducibly; the
    replicate engine with a single all-ones selector row."""
    ones = sparse.csr_matrix(np.ones((1, pt.n_max)))
    return replicate_sums(pt, seed, reps, ones, threads=threads)[0] / sqrt(n_max)


def run_clt(
    poly: IntPolynomial,
    n_max: int,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
    table: FactorTable | None = None,
) -> CltRun:
    """Monte-Carlo sample of the normalized partial sums with statistics."""
    check_clt_config(poly, n_max, reps)
    if table is None:
        table = factor_values(poly, n_max)
    pt = PhaseTable(table, n_max)
    samples = sample_normalized_sums(pt, n_max, seed, reps, threads=threads)

    re, im = samples.real, samples.imag
    abs2 = re * re + im * im
    abs4 = abs2 * abs2
    counts = Counter(
        abs(row.value) for row in table.rows[:n_max] if row.value != 0
    )
    exact_second = Fraction(sum(c * c for c in counts.values()), n_max)
    small = sum(1 for row in table.rows[:n_max] if abs(row.value) == 1)
    zeros = sum(1 for row in table.rows[:n_max] if row.value == 0)
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
    small_value_count: int


@dataclass(frozen=True)
class McLeishAudit:
    polynomial: IntPolynomial
    scales: tuple[McLeishScale, ...]


def mcleish_audit(
    poly: IntPolynomial, table: FactorTable, grid: list[int]
) -> McLeishAudit:
    """Exact martingale-condition sums at each N of the grid."""
    if max(grid) > table.N:
        raise ValueError("table does not cover the audit grid")
    scales = []
    for n_max in grid:
        groups = {
            p: [abs(v) for v in values]
            for p, values in lpf_groups(table, n_max).items()
        }
        pair_counts = {p: pair_histogram(vs) for p, vs in groups.items()}
        pair_all: Counter = Counter()
        for ctr in pair_counts.values():
            pair_all.update(ctr)
        eq_total = c22 = c31 = a_count = 0
        for p, vs in groups.items():
            counts = Counter(vs)
            own = pair_counts[p]
            eq_total += sum(c * c for c in counts.values())
            c22 += sum(c * c for c in own.values())
            # (u, t) in g^2 with u | t: C31 takes v*w = t/u inside g, A
            # takes it from the pairs of every other group
            for u, cu in counts.items():
                for t, ct in counts.items():
                    if t % u == 0:
                        m = t // u
                        c31 += cu * ct * own[m]
                        a_count += cu * ct * (pair_all[m] - own[m])
        d_count = paired_prime_count(groups).distinct_prime
        lindeberg = Fraction(6 * c22 + 8 * c31, 4 * n_max * n_max)
        cross = Fraction(d_count + 2 * a_count, n_max * n_max)
        small = sum(
            1 for row in table.rows[:n_max] if abs(row.value) <= 1
        )
        scales.append(
            McLeishScale(
                N=n_max,
                variance_sum=Fraction(eq_total, n_max),
                lindeberg_sum=lindeberg,
                cross_term=cross,
                small_value_count=small,
            )
        )
    return McLeishAudit(polynomial=poly, scales=tuple(scales))
