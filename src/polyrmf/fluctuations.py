"""Multi-scale prime sets and split partial sums for fluctuation studies.

A geometric scale grid x_1 < ... < x_k stands in for the astronomically
spaced grids of the asymptotic theory (that substitution is flagged in
every report: the constructions are scale-local, only the size constants
of the prime sets degrade, and those are measured rather than assumed).

Per scale i, with threshold t_i = x_i ln(x_i) / (2 d^2):

  E_i = {p >= t_i : p | P(n) for some n <= x_i}
          minus {p >= t_i : p | P(n) for some n <= x_{i-1}}     (x_0 = 0)
  F_1 = E_1,  F_{i+1} = E_{i+1} minus E_i,  so F_i = E_i: each prime's
        first n with p | P(n) lies in one window (x_{i-1}, x_i]
  A_i = greedy subset of F_i (ascending primes) such that no two chosen
        primes divide a common P(n) with n <= x_i.

The A_i are pairwise disjoint and the union A = union_j A_j splits each
partial sum sum_{n<=x_i} f(P(n)) = S1 + S2 + S3 by the A-primes dividing
P(n): exactly one, in A_i (S1); at least one outside A_i (S2); none
(S3).  Disjointness makes Re S1 across distinct scales exactly
uncorrelated, and the exact second-moment and variance-floor counts
below quantify the conditional-variance picture.

The sets are built in the factor table's columns: ``build_prime_sets``
reads each prime's column off ``by_prime`` and records ``a_scale``, the
scale of every column's A_i (-1 outside A).  The labels, the S2 moment counts,
the variance floors and the conditional freeze all read ``a_scale``
against the table's CSR rows.  The S1 rows of scale i are the union of
the variance-floor sets T_{i,p}, p in A_i: the n whose only A-prime is p.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import log, nan, sqrt

import numpy as np

from .energy import value_pair_count
from .errors import ConfigError
from .polynomial import IntPolynomial, classify
from .rmf import PhaseTable, check_replicates, replicate_sums
from .sieve import (DEFAULT_FACTOR_BUDGET, FactorTable, check_factor_budget,
                    factor_values)


@dataclass(frozen=True)
class ScaleGrid:
    X: int
    points: tuple[int, ...]


def build_grid(
    x_base: int,
    k: int,
    ratio,
    *,
    factor_budget: int = DEFAULT_FACTOR_BUDGET,
) -> ScaleGrid:
    """Geometric grid x_i = round(X * ratio^(i-1)), i = 1..k, strictly
    ascending for X >= 100 and ratio >= 2; a huge k stops at the first
    point beyond the factorization budget."""
    if x_base < 100:
        raise ConfigError("X must be >= 100", field="x")
    if k < 2:
        raise ConfigError("k must be >= 2", field="k")
    r = Fraction(ratio)
    if r < 2:
        raise ConfigError("ratio must be >= 2", field="ratio")
    points = []
    for i in range(k):
        points.append(round(x_base * r ** i))
        check_factor_budget(points[-1], factor_budget)
    return ScaleGrid(X=x_base, points=tuple(points))


def check_fluct_config(x_base: int, k: int, ratio, reps: int, threads: int = 1,
                       *, factor_budget: int = DEFAULT_FACTOR_BUDGET) -> ScaleGrid:
    """The checks ``run_fluct`` runs first; returns the scale grid."""
    check_replicates(reps, threads)
    return build_grid(x_base, k, ratio, factor_budget=factor_budget)


@dataclass(frozen=True)
class PrimeSetFamily:
    grid: ScaleGrid
    thresholds: tuple[float, ...]
    e_sets: tuple[frozenset[int], ...]
    f_sets: tuple[frozenset[int], ...]
    a_sets: tuple[frozenset[int], ...]
    # a_scale[j] = i when the table's primes[j] is in A_{i+1}, else -1
    a_scale: np.ndarray = field(repr=False, compare=False)


def build_prime_sets(table: FactorTable, grid: ScaleGrid) -> PrimeSetFamily:
    """Thresholded new-prime sets and a greedy conflict-free selection.

    The greedy pass walks F_i in ascending prime order and accepts a prime
    unless it shares a divided P(n), n <= x_i, with one already accepted;
    deterministic by construction.  Empty A_i are reported, not an error.
    """
    if grid.points[-1] > table.N:
        raise ValueError("table does not cover the top grid point")
    d = table.polynomial.degree
    thresholds = tuple(x * log(x) / (2 * d * d) for x in grid.points)
    csc = table.by_prime
    first = csc.indices[csc.indptr[:-1]]  # smallest n - 1 with p | P(n)

    e_cols = []
    prev_x = 0
    for x, thr in zip(grid.points, thresholds):
        lo = bisect_left(table.primes, thr)
        e_cols.append(np.flatnonzero((first[lo:] >= prev_x) & (first[lo:] < x)) + lo)
        prev_x = x

    a_scale = np.full(len(table.primes), -1)
    rows, ptr = csc.indices.tolist(), csc.indptr.tolist()
    for i, (x, cols) in enumerate(zip(grid.points, e_cols)):
        claimed: set[int] = set()
        for col in cols.tolist():
            hits = [r for r in rows[ptr[col]:ptr[col + 1]] if r < x]
            if claimed.isdisjoint(hits):
                a_scale[col] = i
                claimed.update(hits)

    def primes(cols) -> frozenset[int]:
        return frozenset(table.primes[j] for j in cols.tolist())

    e_sets = tuple(map(primes, e_cols))
    return PrimeSetFamily(
        grid=grid,
        thresholds=thresholds,
        e_sets=e_sets,
        f_sets=e_sets,
        a_sets=tuple(primes(np.flatnonzero(a_scale == i))
                     for i in range(len(grid.points))),
        a_scale=a_scale,
    )


def _a_entries(table: FactorTable, family: PrimeSetFamily,
               x: int) -> tuple[np.ndarray, np.ndarray]:
    """(n - 1, table column) of every A-prime dividing P(n), n <= x, in
    ascending n."""
    m = table.exponents
    cols = m.indices[:m.indptr[x]]
    rows = np.repeat(np.arange(x), np.diff(m.indptr[:x + 1]))
    hit = family.a_scale[cols] >= 0
    return rows[hit], cols[hit]


def classification_labels(
    table: FactorTable, family: PrimeSetFamily
) -> list[np.ndarray]:
    """Per scale i: int8 labels over n = 1..x_i (1 = S1, 2 = S2, 0 = S3)."""
    points = family.grid.points
    rows, cols = _a_entries(table, family, points[-1])
    scale = family.a_scale[cols]
    # the greedy pass lets no two primes of A_i divide one P(n), n <= x_i
    own = (rows * len(points) + scale)[rows < np.take(points, scale)]
    if np.unique(own).size < own.size:
        raise AssertionError("two primes of one A_i divide one P(n), n <= x_i")
    count = np.bincount(rows, minlength=points[-1])
    only = np.full(points[-1], -1)  # the scale of P(n)'s only A-prime
    one = count[rows] == 1
    only[rows[one]] = scale[one]
    return [np.where(count[:x] == 0, 0, np.where(only[:x] == i, 1, 2)).astype(np.int8)
            for i, x in enumerate(points)]


def s2_second_moment(table: FactorTable, family: PrimeSetFamily, i: int) -> int:
    """#{n <= x_i : some prime of A_1..A_{i-1} divides P(n)}."""
    rows, cols = _a_entries(table, family, family.grid.points[i])
    return len(np.unique(rows[family.a_scale[cols] < i]))


@dataclass(frozen=True)
class VarianceFloor:
    mu: Fraction  # (1/2x_i) sum_p #{(n,n') in T_{i,p}^2 : |P(n)| = |P(n')|}
    lower_bound: Fraction  # (1/2x_i) sum_p |T_{i,p}|
    t_sizes: dict[int, int]


def variance_floor(
    table: FactorTable, family: PrimeSetFamily, i: int
) -> VarianceFloor:
    """Exact per-scale variance count over the isolated-prime sets T_{i,p}.

    T_{i,p} collects n <= x_i with p | P(n) and no other A-prime dividing
    P(n); value equality is taken on |P(n)| (where f lives).
    """
    x = family.grid.points[i]
    rows, cols = _a_entries(table, family, x)
    # the T_{i,p} are the label-1 rows of scale i, split by their A-prime
    keep = (np.bincount(rows, minlength=x)[rows] == 1) & (family.a_scale[cols] == i)
    rows, cols = rows[keep], cols[keep]
    a_cols = np.flatnonzero(family.a_scale == i)
    sizes = dict(zip([table.primes[j] for j in a_cols.tolist()],
                     np.bincount(cols, minlength=len(family.a_scale))[a_cols].tolist()))
    pair_count = value_pair_count([abs(table.values[r]) for r in rows.tolist()], cols)
    return VarianceFloor(
        mu=Fraction(pair_count, 2 * x),
        lower_bound=Fraction(len(rows), 2 * x),
        t_sizes=sizes,
    )


@dataclass(frozen=True)
class ScaleSummary:
    x: int
    threshold: float
    e_size: int
    f_size: int
    a_size: int
    a_over_x: float
    s2_moment_count: int
    mu: Fraction
    mu_lower_bound: Fraction
    mean_re_s1: float
    var_re_s1: float
    mc_abs_s1_sq_mean: float
    mc_abs_s1_sq_se: float
    exact_abs_s1_sq: Fraction  # = 2 x_i mu_i


@dataclass(frozen=True)
class CovarianceEntry:
    scale_i: int
    scale_j: int
    covariance: float
    standard_error: float


@dataclass(frozen=True)
class FluctReport:
    polynomial: IntPolynomial
    grid: ScaleGrid
    grid_model: str  # geometric surrogate note, always present
    seed: int
    reps: int
    conditional: bool
    fluct_admissible: bool
    scales: tuple[ScaleSummary, ...]
    covariances: tuple[CovarianceEntry, ...]
    max_stat_quantiles: dict[str, float]
    max_stat_mean: float
    max_stats: np.ndarray
    s1_matrix: np.ndarray  # complex, shape (k, reps)
    s2_matrix: np.ndarray  # complex, shape (k, reps)
    partial_matrix: np.ndarray  # complex, shape (k, reps)


def _sample_var(x: np.ndarray) -> float:
    """Unbiased sample variance; NaN (JSON null) for one replicate."""
    return float(np.var(x, ddof=1)) if len(x) > 1 else nan


def _max_stat(partials: np.ndarray, points: tuple[int, ...]) -> np.ndarray:
    k, _ = partials.shape
    scaled = np.empty_like(partials, dtype=np.float64)
    for i, x in enumerate(points):
        denom = sqrt(x * max(1.0, log(log(x))))
        scaled[i] = np.abs(partials[i]) / denom
    return scaled.max(axis=0)


def run_fluct(
    poly: IntPolynomial,
    x_base: int,
    k: int,
    ratio,
    reps: int,
    seed: int,
    *,
    conditional: bool = False,
    threads: int = 1,
    factor_budget: int = DEFAULT_FACTOR_BUDGET,
) -> FluctReport:
    """Replicated split-sum experiment over a geometric scale grid, on the
    table of P(1..x_k) that it factors itself.

    In conditional mode the stream for primes outside A stays frozen at
    the base seed and only A-primes are resampled per replicate, so S3
    is constant across replicates while S1 fluctuates.
    """
    grid = check_fluct_config(x_base, k, ratio, reps, threads,
                              factor_budget=factor_budget)
    top = grid.points[-1]
    table = factor_values(poly, top, budget=factor_budget)
    family = build_prime_sets(table, grid)
    labels = classification_labels(table, family)
    pt = PhaseTable(table)
    # three selector rows per scale: S1_i, S2_i and the prefix n <= x_i
    selector = np.zeros((3 * len(labels), top), dtype=bool)
    for i, lab in enumerate(labels):
        selector[3 * i:3 * i + 3, :len(lab)] = lab == 1, lab == 2, lab >= 0
    frozen = family.a_scale < 0 if conditional else None
    out = replicate_sums(pt, seed, reps, selector, frozen=frozen, threads=threads)
    s1_matrix, s2_matrix, partial_matrix = out[0::3], out[1::3], out[2::3]

    max_stats = _max_stat(partial_matrix, grid.points)
    qs = np.quantile(max_stats, [0.0, 0.25, 0.5, 0.75, 1.0])
    quantiles = {
        "min": float(qs[0]),
        "q25": float(qs[1]),
        "median": float(qs[2]),
        "q75": float(qs[3]),
        "max": float(qs[4]),
    }

    scales = []
    for i, x in enumerate(grid.points):
        floor = variance_floor(table, family, i)
        abs_sq = np.abs(s1_matrix[i]) ** 2
        re_s1 = s1_matrix[i].real
        scales.append(
            ScaleSummary(
                x=x,
                threshold=family.thresholds[i],
                e_size=len(family.e_sets[i]),
                f_size=len(family.f_sets[i]),
                a_size=len(family.a_sets[i]),
                a_over_x=len(family.a_sets[i]) / x,
                s2_moment_count=s2_second_moment(table, family, i),
                mu=floor.mu,
                mu_lower_bound=floor.lower_bound,
                mean_re_s1=float(np.mean(re_s1)),
                var_re_s1=_sample_var(re_s1),
                mc_abs_s1_sq_mean=float(np.mean(abs_sq)),
                mc_abs_s1_sq_se=sqrt(_sample_var(abs_sq)) / sqrt(reps),
                exact_abs_s1_sq=2 * x * floor.mu,
            )
        )

    covariances = []
    for i in range(len(grid.points)):
        for j in range(i + 1, len(grid.points)):
            xi = s1_matrix[i].real - np.mean(s1_matrix[i].real)
            xj = s1_matrix[j].real - np.mean(s1_matrix[j].real)
            prod = xi * xj
            covariances.append(
                CovarianceEntry(
                    scale_i=i,
                    scale_j=j,
                    covariance=(float(np.sum(prod) / (reps - 1)) if reps > 1
                                else nan),
                    standard_error=sqrt(_sample_var(prod)) / sqrt(reps),
                )
            )

    return FluctReport(
        polynomial=poly,
        grid=grid,
        grid_model="geometric surrogate grid (asymptotic spacing is out of reach)",
        seed=seed,
        reps=reps,
        conditional=conditional,
        fluct_admissible=classify(poly).fluct_admissible,
        scales=tuple(scales),
        covariances=tuple(covariances),
        max_stat_quantiles=quantiles,
        max_stat_mean=float(np.mean(max_stats)),
        max_stats=max_stats,
        s1_matrix=s1_matrix,
        s2_matrix=s2_matrix,
        partial_matrix=partial_matrix,
    )
