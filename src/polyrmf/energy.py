"""Exact multiplicative-energy counting for polynomial images.

The multiplicative energy of a finite set A is the number of ordered
quadruples (a1, a2, a3, a4) in A^4 with a1*a2 = a3*a4.  Here A is the
image P([N]_{a,q}) of an arithmetic progression, products are exact
signed big integers, and the count is split into

* argument-diagonal quadruples ({x1,x2} = {x1',x2'} as multisets),
  exactly 2*M^2 - M of them for M member arguments,
* value-diagonal quadruples (the value multisets coincide while the
  argument multisets differ; these appear for generalized even
  polynomials via P(x) = P(beta - x)),
* the genuinely nontrivial remainder.

Counting groups the M*(M+1)/2 canonical pair products by exact value
(ordered totals are reconstructed from weights 1 on the diagonal and 2
off it).  Products never pass through floats or Python ints: each is
keyed by its residue mod 2^64 and mod k primes q_i < 2^31, all in
machine words.  With V the largest |value|, two products that agree in
every residue differ by a multiple of 2^64 * prod(q_i), so they are
equal as long as V^2 < 2^63 * prod(q_i) (the CRT); k is the least count
that makes this hold, 0 when V^2 < 2^63, so the keys are exact for
every value size.  One counter sorts them in passes of bounded size,
each pass taking the products of one hash class, so memory stays
bounded for any M; chunked mode only lifts the pair budget, which caps
the time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, log

import numpy as np

from .errors import BudgetError, ConfigError
from .polynomial import IntPolynomial, classify, require_not_pure_power
from .primes import is_prime
from .sieve import FactorTable, check_factor_budget, check_grid

DEFAULT_PAIR_BUDGET = 80_000_000
_RUN_ITEMS = 4_000_000


@dataclass(frozen=True)
class ProgressionRange:
    """The set {x in [1, N] : x = a (mod q)}; q = 1, a = 0 gives [N]."""

    N: int
    q: int = 1
    a: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError("progression needs N >= 1", field="n")
        if self.q < 1 or not 0 <= self.a < self.q:
            raise ConfigError("need q >= 1 and 0 <= a < q", field="q/a")

    @property
    def indicator_a(self) -> int:
        return 1 if self.a == 0 else 0

    @property
    def size(self) -> int:
        if self.a == 0:
            return self.N // self.q
        return max(0, (self.N - self.a) // self.q + 1)

    def members(self) -> range:
        start = self.a if self.a >= 1 else self.q
        return range(start, self.N + 1, self.q)

    def require_members(self) -> None:
        """ConfigError(field="a") when no x in [1, N] is a mod q."""
        if self.size < 1:
            raise ConfigError("progression has no members in [1, N]", field="a")


@dataclass(frozen=True)
class EnergyReport:
    range: ProgressionRange
    polynomial: IntPolynomial
    total: int
    diagonal_arg: int
    value_diagonal: int
    nontrivial: int
    main_term: int  # 2*M^2 - M, the exact argument-diagonal baseline
    offdiag_exponent: Fraction | None
    offdiag_over_bound: float | None
    generalized_even_center: Fraction | None
    has_negative_values: bool
    zero_value_count: int
    mode: str  # "direct" or "chunked"


def error_exponent(degree: int) -> Fraction | None:
    """Off-diagonal growth exponent: 5/3 at degree 2, 2 - 1/(2(2d-1)) above."""
    if degree < 2:
        return None
    if degree == 2:
        return Fraction(5, 3)
    return 2 - Fraction(1, 2 * (2 * degree - 1))


def _crt_primes(v_max: int) -> list[int]:
    """The primes q < 2^31, descending from 2^31 - 1, that make
    v_max^2 < 2^63 * prod(q); none when v_max^2 < 2^63."""
    qs, cover, q = [], 2**63, 2**31
    while v_max * v_max >= cover:
        q -= 1
        while not is_prime(q):
            q -= 1
        qs.append(q)
        cover *= q
    return qs


def _run_starts(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sort order of the items and the first position of each run of
    equal keys; keys[0] is the uint64 low word, the rest residues.

    The order is an argsort of the low word alone unless some run of
    equal low words carries more than one residue (products that agree
    mod 2^64 but differ), in which case all keys are lexsorted.
    """

    def changes(order):
        sk = [k[order] for k in keys]
        low = sk[0][1:] != sk[0][:-1]
        any_key = low.copy()
        for s in sk[1:]:
            any_key |= s[1:] != s[:-1]
        return low, any_key

    order = np.argsort(keys[0])
    low, any_key = changes(order)
    if not np.array_equal(low, any_key):
        order = np.lexsort(keys[::-1])
        _, any_key = changes(order)
    return order, np.r_[0, np.flatnonzero(any_key) + 1]


def _pair_total(values: list[int]) -> int:
    """Sum over distinct products v*w of the squared ordered-pair count.

    The canonical pairs (i <= j) are built row by row as numpy arrays,
    weight 1 on the diagonal and 2 off it.  At most about ``_RUN_ITEMS``
    of them are sorted at once: pass k keeps the products whose mixed key
    mod ``passes`` is k, so equal products always meet in the same pass.
    A product is keyed by its residue mod 2^64 (wrapping uint64) and mod
    each prime of ``_crt_primes`` (int64, below 2^62 before reduction),
    which fix it exactly by the CRT bound of the module docstring.
    """
    m = len(values)
    low = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
    qs = _crt_primes(max(map(abs, values), default=0))
    crt = [(np.array([v % q for v in values], dtype=np.int64), q) for q in qs]
    passes = -(-(m * (m + 1) // 2) // _RUN_ITEMS)
    # the pass of v*w is (v*w mod p) * 48271 mod p mod passes, p = 2^31 - 1
    # (a MINSTD step: plain residues of polynomial values crowd into a few
    # classes), computed in int64 from the residues of v and w
    res = np.array([v % 2147483647 for v in values], dtype=np.int64)
    lead = res * 48271 % 2147483647
    total = 0
    for k in range(passes):
        rows, weights = [], []
        for i in range(m):
            row = [low[i] * low[i:]] + [r[i] * r[i:] % q for r, q in crt]
            weight = np.full(m - i, 2, dtype=np.int64)
            weight[0] = 1
            if passes > 1:
                keep = lead[i] * res[i:] % 2147483647 % passes == k
                row, weight = [key[keep] for key in row], weight[keep]
            rows.append(row)
            weights.append(weight)
        keys = [np.concatenate(column) for column in zip(*rows)]
        if keys[0].size == 0:
            continue
        order, starts = _run_starts(keys)
        sums = np.add.reduceat(np.concatenate(weights)[order], starts)
        total += int(np.dot(sums, sums))
    return total


def pair_histogram(values: list[int], *, ratio: bool = False) -> Counter:
    """Exact ordered-pair multiplicities of v*w over (v, w) in values^2.

    With ``ratio=True`` the keys are the ratios v/w instead, as reduced
    integer pairs (v//g, w//g), g = gcd(v, w), signed so that the
    denominator is positive; every w must then be nonzero.  Products are
    accumulated over the canonical pairs i <= j.
    """
    acc: Counter = Counter()
    if ratio:
        for v in values:
            for w in values:
                g = gcd(v, w) if w > 0 else -gcd(v, w)
                acc[v // g, w // g] += 1
        return acc
    for i, v in enumerate(values):
        acc[v * v] += 1
        for w in values[i + 1:]:
            acc[v * w] += 2
    return acc


def check_pair_budget(m: int, budget: int, chunked: bool = False) -> None:
    """BudgetError when m values have more than ``budget`` canonical pair
    products and chunked counting, which lifts this budget, is off."""
    est = m * (m + 1) // 2
    if est > budget and not chunked:
        raise BudgetError(
            f"{est} canonical pair products exceed the budget of {budget}; "
            "enable chunked counting (no pair budget, more passes) or raise "
            "the budget"
        )


def check_energy_config(
    poly: IntPolynomial, grid: list[int], *, q: int = 1, a: int = 0,
    budget: int = DEFAULT_PAIR_BUDGET, chunked: bool = False,
) -> list[ProgressionRange]:
    """The checks ``exponent_fit`` runs first (the CLI also runs them for
    one ``--n``); returns the progression of each N of the grid.  Every
    progression stays within the factorization budget, chunked or not."""
    require_not_pure_power(poly)
    # progressions first, so that a single N below 1 is reported as n
    ranges = [ProgressionRange(n, q, a) for n in grid]
    check_grid(grid)
    for rng in ranges:
        rng.require_members()
        check_factor_budget(rng.size)
        check_pair_budget(rng.size, budget, chunked)
    return ranges


def count_pair_products(
    values: list[int],
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    chunked: bool = False,
) -> int:
    """Sum of squared ordered-pair-product multiplicities, i.e. the energy.

    Raises BudgetError when the canonical pair count exceeds ``budget``
    and chunked mode was not requested.
    """
    check_pair_budget(len(values), budget, chunked)
    return _pair_total(values)


def energy(
    poly: IntPolynomial,
    rng: ProgressionRange,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    chunked: bool = False,
) -> EnergyReport:
    """Exact multiplicative energy of P([N]_{a,q}) with diagonal splits."""
    rng.require_members()
    members = list(rng.members())
    values = [poly(x) for x in members]
    total = count_pair_products(values, budget=budget, chunked=chunked)

    m = len(members)
    diag = 2 * m * m - m
    counts = Counter(values)
    s2 = sum(c * c for c in counts.values())
    s4 = sum(c ** 4 for c in counts.values())
    vd_total = 2 * s2 * s2 - s4  # quadruples whose value multisets coincide
    expo = error_exponent(poly.degree)
    offdiag = total - diag
    ratio = None if expo is None else offdiag / float(rng.N) ** float(expo)
    cls = classify(poly)
    return EnergyReport(
        range=rng,
        polynomial=poly,
        total=total,
        diagonal_arg=diag,
        value_diagonal=vd_total - diag,
        nontrivial=total - vd_total,
        main_term=diag,
        offdiag_exponent=expo,
        offdiag_over_bound=ratio,
        generalized_even_center=cls.generalized_even_center,
        has_negative_values=any(v < 0 for v in values),
        zero_value_count=sum(1 for v in values if v == 0),
        mode="chunked" if chunked else "direct",
    )


@dataclass(frozen=True)
class PairedPrimeCount:
    """Quadruple counts with pairwise-matching largest prime factors.

    Counts (n1, n2, n3, n4) with P+(P(n1)) = P+(P(n2)), P+(P(n3)) =
    P+(P(n4)) and P(n1)P(n3) = P(n2)P(n4), split by whether the two
    largest primes coincide.  Rows with |P(n)| <= 1 belong to no group.
    ``ratios`` is R, the sum of the groups' ratio histograms (not compared).
    """

    total: int
    same_prime: int
    distinct_prime: int
    ratios: Counter = field(compare=False, repr=False)


def lpf_groups(table: FactorTable, n_max: int | None = None) -> dict[int, list[int]]:
    """Group values P(n), n <= n_max, by largest prime factor (> 0 only)."""
    n_max = table.N if n_max is None else n_max
    if n_max > table.N:
        raise ValueError("table does not cover the requested range")
    groups: dict[int, list[int]] = {}
    for value, p in zip(table.values[:n_max], table.largest_primes()):
        if p > 0:
            groups.setdefault(p, []).append(value)
    return groups


def paired_prime_count(ratios: list[Counter]) -> PairedPrimeCount:
    """:class:`PairedPrimeCount` from the ratio histogram R_g of each group.

    (n1, n2) from group p and (n3, n4) from group q solve P(n1)P(n3) =
    P(n2)P(n4) iff ratio(n1, n2) = ratio(n4, n3), so with R = sum_g R_g
    the total is sum_r R(r)^2 and the same-prime part sum_g sum_r R_g(r)^2.
    """
    combined: Counter = Counter()
    same = 0
    for ctr in ratios:
        combined.update(ctr)
        same += sum(c * c for c in ctr.values())
    total = sum(c * c for c in combined.values())
    return PairedPrimeCount(total, same, total - same, combined)


def energy_constrained_lpf(
    table: FactorTable,
    mode: str,
    n_max: int | None = None,
) -> int | PairedPrimeCount:
    """Energy counts restricted by largest-prime-factor constraints.

    mode "same-prime-all-four": quadruples with product equality whose four
    largest primes all agree, summed over the shared prime; it equals the
    ``same_prime`` of "paired-primes", by the faster sorting pair counter.

    mode "paired-primes": :class:`PairedPrimeCount` of the ratio histograms.
    """
    groups = lpf_groups(table, n_max).values()
    if mode == "same-prime-all-four":
        return sum(_pair_total(values) for values in groups)
    if mode == "paired-primes":
        return paired_prime_count(
            [pair_histogram(values, ratio=True) for values in groups])
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ExponentFitPoint:
    N: int
    offdiag: int
    ratio: float


@dataclass(frozen=True)
class ExponentFit:
    points: tuple[ExponentFitPoint, ...]
    exponent: Fraction
    slope: float | None  # log-log least squares of offdiag vs N


def exponent_fit(
    poly: IntPolynomial,
    grid: list[int],
    *,
    q: int = 1,
    a: int = 0,
    budget: int = DEFAULT_PAIR_BUDGET,
    chunked: bool = False,
) -> ExponentFit:
    """Off-diagonal counts across a grid of N, normalized by N^exponent."""
    ranges = check_energy_config(poly, grid, q=q, a=a, budget=budget,
                                 chunked=chunked)
    expo = error_exponent(poly.degree)
    points = []
    for n, rng in zip(grid, ranges):
        rep = energy(poly, rng, budget=budget, chunked=chunked)
        offdiag = rep.total - rep.diagonal_arg
        points.append(
            ExponentFitPoint(N=n, offdiag=offdiag, ratio=offdiag / n ** float(expo))
        )
    xs = [log(pt.N) for pt in points if pt.offdiag > 0]
    ys = [log(pt.offdiag) for pt in points if pt.offdiag > 0]
    slope = None
    if len(xs) >= 2:
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        denom = sum((x - mx) ** 2 for x in xs)
        if denom > 0:
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    return ExponentFit(points=tuple(points), exponent=expo, slope=slope)
