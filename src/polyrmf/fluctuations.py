"""Multi-scale prime sets and split partial sums for fluctuation studies.

A geometric scale grid x_1 < ... < x_k stands in for the astronomically
spaced grids of the asymptotic theory (that substitution is flagged in
every report: the constructions are scale-local, only the size constants
of the prime sets degrade, and those are measured rather than assumed).

Per scale i, with threshold t_i = x_i ln(x_i) / (2 d^2):

  E_i = {p >= t_i : p | P(n) for some n <= x_i}
          minus {p >= t_i : p | P(n) for some n <= x_{i-1}}     (x_0 = 0)
  F_1 = E_1,  F_{i+1} = E_{i+1} minus E_i
  A_i = greedy subset of F_i (ascending primes) such that no two chosen
        primes divide a common P(n) with n <= x_i.

The A_i are pairwise disjoint and the union A = union_j A_j splits each
partial sum sum_{n<=x_i} f(P(n)) = S1 + S2 + S3 by the A-primes dividing
P(n): exactly one, in A_i (S1); at least one outside A_i (S2); none
(S3).  Disjointness makes Re S1 across distinct scales exactly
uncorrelated, and the exact second-moment and variance-floor counts
below quantify the conditional-variance picture.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import log, sqrt

import numpy as np
from scipy import sparse

from .errors import BudgetError
from .polynomial import IntPolynomial, classify
from .rmf import PhaseTable, replicate_sums
from .sieve import DEFAULT_FACTOR_BUDGET, FactorTable, factor_values


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
    """Geometric grid x_i = round(X * ratio^(i-1)), i = 1..k."""
    if x_base < 100:
        raise ValueError("X must be >= 100")
    if k < 2:
        raise ValueError("k must be >= 2")
    r = Fraction(ratio)
    if r < 2:
        raise ValueError("ratio must be >= 2")
    points = tuple(round(x_base * r ** i) for i in range(k))
    if sorted(set(points)) != list(points):
        raise ValueError("grid points must be distinct and ascending")
    if points[-1] > factor_budget:
        raise BudgetError(
            f"top grid point {points[-1]} exceeds the factorization budget "
            f"of {factor_budget}"
        )
    return ScaleGrid(X=x_base, points=points)


@dataclass(frozen=True)
class PrimeSetFamily:
    grid: ScaleGrid
    thresholds: tuple[float, ...]
    e_sets: tuple[frozenset[int], ...]
    f_sets: tuple[frozenset[int], ...]
    a_sets: tuple[frozenset[int], ...]

    @property
    def a_union(self) -> frozenset[int]:
        out: set[int] = set()
        for a in self.a_sets:
            out |= a
        return frozenset(out)

    def scale_of_prime(self) -> dict[int, int]:
        """Map p -> i (0-based) for p in A_i; well defined by disjointness."""
        return {p: i for i, a in enumerate(self.a_sets) for p in a}


def build_prime_sets(
    poly: IntPolynomial, table: FactorTable, grid: ScaleGrid
) -> PrimeSetFamily:
    """Thresholded new-prime sets and a greedy conflict-free selection.

    The greedy pass walks F_i in ascending prime order and accepts a prime
    unless it shares a divided P(n), n <= x_i, with one already accepted;
    deterministic by construction.  Empty A_i are reported, not an error.
    """
    if grid.points[-1] > table.N:
        raise ValueError("table does not cover the top grid point")
    d = poly.degree
    thresholds = tuple(x * log(x) / (2 * d * d) for x in grid.points)

    e_sets: list[frozenset[int]] = []
    prev_x = 0
    for i, x in enumerate(grid.points):
        thr = thresholds[i]
        members = set()
        for p, indices in table.prime_to_indices.items():
            if p >= thr and indices[0] <= x and not indices[0] <= prev_x:
                members.add(p)
        e_sets.append(frozenset(members))
        prev_x = x

    f_sets: list[frozenset[int]] = [e_sets[0]]
    for i in range(1, len(e_sets)):
        f_sets.append(e_sets[i] - e_sets[i - 1])

    a_sets: list[frozenset[int]] = []
    for i, x in enumerate(grid.points):
        claimed: set[int] = set()
        accepted: set[int] = set()
        for p in sorted(f_sets[i]):
            indices = table.prime_to_indices[p]
            hits = indices[:bisect_right(indices, x)]
            if not any(n in claimed for n in hits):
                accepted.add(p)
                claimed.update(hits)
        a_sets.append(frozenset(accepted))

    return PrimeSetFamily(
        grid=grid,
        thresholds=thresholds,
        e_sets=tuple(e_sets),
        f_sets=tuple(f_sets),
        a_sets=tuple(a_sets),
    )


def _hit_scales(table: FactorTable, family: PrimeSetFamily, n_max: int) -> list[list[int]]:
    """Per n <= n_max: scale indices (0-based) of A-primes dividing P(n)."""
    hits: list[list[int]] = [[] for _ in range(n_max)]
    for i, a_set in enumerate(family.a_sets):
        for p in a_set:
            for n in table.prime_to_indices[p]:
                if n <= n_max:
                    hits[n - 1].append(i)
    return hits


def classification_labels(
    table: FactorTable, family: PrimeSetFamily
) -> list[np.ndarray]:
    """Per scale i: int8 labels over n = 1..x_i (1 = S1, 2 = S2, 0 = S3)."""
    top = family.grid.points[-1]
    hits = _hit_scales(table, family, top)
    labels = []
    for i, x in enumerate(family.grid.points):
        lab = np.zeros(x, dtype=np.int8)
        for n in range(1, x + 1):
            h = hits[n - 1]
            if not h:
                continue
            if any(j != i for j in h):
                lab[n - 1] = 2
            else:
                # all hits at scale i; two distinct A_i primes sharing an
                # n <= x_i would violate the greedy guarantee
                if len(h) != 1:
                    raise AssertionError(
                        f"n={n} divisible by {len(h)} primes of A_{i + 1}"
                    )
                lab[n - 1] = 1
        labels.append(lab)
    return labels


def s2_second_moment(
    table: FactorTable, family: PrimeSetFamily, i: int, *, normalized: bool = False
):
    """#{n <= x_i : some prime of A_1..A_{i-1} divides P(n)} (or /x_i)."""
    x = family.grid.points[i]
    earlier: set[int] = set()
    for a_set in family.a_sets[:i]:
        earlier |= a_set
    marked: set[int] = set()
    for p in earlier:
        indices = table.prime_to_indices[p]
        marked.update(indices[:bisect_right(indices, x)])
    count = len(marked)
    return Fraction(count, x) if normalized else count


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
    hits = _hit_scales(table, family, x)
    pair_count = 0
    sizes: dict[int, int] = {}
    for p in family.a_sets[i]:
        indices = table.prime_to_indices[p]
        t_set = [
            n for n in indices[:bisect_right(indices, x)]
            if hits[n - 1] == [i]
        ]
        sizes[p] = len(t_set)
        by_value: dict[int, int] = {}
        for n in t_set:
            v = abs(table.rows[n - 1].value)
            by_value[v] = by_value.get(v, 0) + 1
        pair_count += sum(c * c for c in by_value.values())
    total_t = sum(sizes.values())
    return VarianceFloor(
        mu=Fraction(pair_count, 2 * x),
        lower_bound=Fraction(total_t, 2 * x),
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

    def s3_matrix(self) -> np.ndarray:
        return self.partial_matrix - self.s1_matrix - self.s2_matrix


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
    table: FactorTable | None = None,
) -> FluctReport:
    """Replicated split-sum experiment over a geometric scale grid.

    In conditional mode the stream for primes outside A stays frozen at
    the base seed and only A-primes are resampled per replicate, so S3
    is constant across replicates while S1 fluctuates.
    """
    grid = build_grid(x_base, k, ratio, factor_budget=factor_budget)
    top = grid.points[-1]
    if table is None:
        table = factor_values(poly, top)
    family = build_prime_sets(poly, table, grid)
    labels = classification_labels(table, family)
    pt = PhaseTable(table, top)
    # three selector rows per scale: S1_i, S2_i and the prefix n <= x_i
    index_sets = []
    for lab in labels:
        index_sets += [np.flatnonzero(lab == 1), np.flatnonzero(lab == 2),
                       np.arange(len(lab))]
    indptr = np.cumsum([0] + [len(idx) for idx in index_sets])
    selector = sparse.csr_matrix(
        (np.ones(indptr[-1]), np.concatenate(index_sets), indptr),
        shape=(len(index_sets), top),
    )
    frozen = ~pt.membership_mask(family.a_union) if conditional else None
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
                var_re_s1=float(np.var(re_s1, ddof=1)),
                mc_abs_s1_sq_mean=float(np.mean(abs_sq)),
                mc_abs_s1_sq_se=float(np.std(abs_sq, ddof=1) / sqrt(reps)),
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
                    covariance=float(np.sum(prod) / (reps - 1)),
                    standard_error=float(np.std(prod, ddof=1) / sqrt(reps)),
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
