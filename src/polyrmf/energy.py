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

Every count is a square sum S(X) = sum_k x_k^2, x_k the weight of key k
(``_square_sum``; an inner product is (S(X+Y) - S(X) - S(Y))/2): the
energy is S of the M*(M+1)/2 canonical pair products, weight 1 on the
diagonal and 2 off it.  Each product is keyed by its residue mod 2^64
and mod k primes q_i < 2^31, in machine words.  With V the largest
|value|, two products that agree in every residue differ by a multiple
of 2^64 * prod(q_i), so they are equal once V^2 < 2^63 * prod(q_i) (the
CRT); k is the least count that makes this hold, 0 when V^2 < 2^63, so
the keys are exact for every value size, as are those of a reduced
ratio's parts, at most V.  A square sum sorts the low words by value to
find those that repeat; only the items that carry one are sorted by
index, and every other item adds its weight squared.  The energy and
the audit's grouped counts build each pair once, in passes of about 4e6
pairs (at most 2^16) classed by the discrete logarithm mod 65537, so
memory stays bounded up to about 7e5 values and time grows with the
pair count; the pair budget caps that time, and a budget of None
(chunked mode) lifts it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log

import numpy as np

from .errors import BudgetError, ConfigError
from .polynomial import (IntPolynomial, generalized_even_center,
                         require_not_pure_power)
from .primes import is_prime
from .sieve import check_factor_budget, check_grid

DEFAULT_PAIR_BUDGET = 80_000_000
_RUN_ITEMS = 4_000_000
_MIX = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


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
    def size(self) -> int:
        # len(range) overflows beyond 2^63 - 1 members, and budgets see any N
        r = self.members()
        return -((r.start - r.stop) // r.step)

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


def _exact_array(values: list[int]) -> tuple[np.ndarray, list[int]]:
    """``values`` as int64 (``object`` from 2^63 on) and their ``_crt_primes``."""
    v_max = max(map(abs, values), default=0)
    return np.array(values, np.int64 if v_max < 2**63 else object), _crt_primes(v_max)


def _residue_keys(values: np.ndarray, qs: list[int]) -> list[np.ndarray]:
    """Residues of int64 or ``object`` values mod 2^64 (uint64) and mod qs."""
    low = (values & (2**64 - 1) if values.dtype == object else values).astype(np.uint64)
    return [low] + [(values % q).astype(np.int64) for q in qs]


def _square_sum(keys: list[np.ndarray], weights: np.ndarray) -> int:
    """Sum over the distinct key rows of the squared total weight of their
    items, 0 for none.  keys[0] is the uint64 low word.  Sorting its values
    finds the low words that repeat, and a multiplicative hash of them
    marks every item that may carry one; an unmarked item's key row is its
    own, and adds its weight squared.  Only the marked items are argsorted
    by their low word, or lexsorted by all keys when some run of equal low
    words carries more than one key row."""
    s = np.sort(keys[0])
    twice = s[1:][s[1:] == s[:-1]]  # every low word that repeats, and more
    if not twice.size:
        weights = weights.astype(np.int64)
        return int(np.dot(weights, weights))
    # more than min(64 t, n) flags for the t repeating words, so that few
    # other items share a flag with one of them
    bits = min(64 * twice.size, weights.size).bit_length()
    shift = np.uint64(64 - bits)
    table = np.zeros(1 << bits, dtype=bool)
    table[(twice * _MIX) >> shift] = True
    at = keys[0] * _MIX
    at >>= shift
    marked = table[at]
    once = weights[~marked].astype(np.int64)
    keys, weights = [k[marked] for k in keys], weights[marked]

    def runs(order):  # where each key changes between neighbours in order
        return [(s := k[order])[1:] != s[:-1] for k in keys]

    order = np.argsort(keys[0])
    new = runs(order)
    if any((n & ~new[0]).any() for n in new[1:]):
        order = np.lexsort(keys[::-1])
        new = runs(order)
    starts = np.r_[0, np.flatnonzero(np.logical_or.reduce(new)) + 1]
    sums = np.add.reduceat(weights[order], starts, dtype=np.int64)
    return int(np.dot(once, once)) + int(np.dot(sums, sums))


def value_pair_count(values: list[int], tags: np.ndarray | None = None) -> int:
    """#{(i, j) : values[i] = values[j]}, and tags[i] = tags[j] when tags
    are given: the square sum of the multiplicities of the (tag, value)."""
    arr, qs = _exact_array(values)
    keys = _residue_keys(arr, qs) + ([] if tags is None else [tags])
    return _square_sum(keys, np.ones(len(values), dtype=np.int64))


_LOG_PRIME = 65537  # 2^16 + 1, with primitive root 3


def _classes(values: np.ndarray, items: int) -> tuple[int, np.ndarray]:
    """``passes``, the least power of two up to 2^16 that splits ``items``
    pairs into passes of about ``_RUN_ITEMS``, and the class L(v) mod
    ``passes`` of each value v = 65537^e u (65537 not dividing u):
    L(v) = log_3(u mod 65537) is completely additive, so a product v w
    has class L(v) + L(w), and a ratio v/w, reduced or not, L(v) - L(w).
    Every value must be nonzero: the loop that strips 65537 never ends on
    a zero.  ``_pair_total`` drops the zeros, and the audit's groups hold
    |P(n)| >= 2."""
    need = -(-items // _RUN_ITEMS)
    passes = min(1 << max(need - 1, 0).bit_length(), _LOG_PRIME - 1)
    if passes == 1:
        return 1, np.zeros(len(values), dtype=np.int64)
    p = _LOG_PRIME
    while (hit := values % p == 0).any():
        values = np.where(hit, values // p, values)
    # log3[3^(256 a + b) mod p] = 256 a + b for 0 <= a, b < 256
    small = np.array([pow(3, e, p) for e in range(256)], dtype=np.int64)
    large = np.array([pow(3, 256 * e, p) for e in range(256)], dtype=np.int64)
    log3 = np.zeros(p, dtype=np.int64)
    log3[np.multiply.outer(large, small).ravel() % p] = np.arange(p - 1)
    return passes, log3[(values % p).astype(np.int64)] % passes


def _class_pairs(key, cls, passes, k, sign) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the pairs of pass k inside one group tag, the rows sorted by
    ``key`` = tag * passes + class: for sign 1 the canonical products of
    class k (j >= i where the classes tie), for -1 the ordered ratios."""
    part = sign * (k - cls) % passes  # the class each row pairs with
    rows = np.flatnonzero((cls <= part) | (sign < 0))
    part = part[rows]
    at = key[rows] - cls[rows] + part  # same tag, class part
    lo, hi = np.searchsorted(key, at), np.searchsorted(key, at, side="right")
    lo = np.where((cls[rows] == part) & (sign > 0), rows, lo)
    count = hi - lo
    j = np.arange(int(count.sum()), dtype=np.int64)
    j += np.repeat(lo - (np.cumsum(count) - count), count)
    return np.repeat(rows, count), j


def _pair_keys(keys, qs, i, j):
    """Residue keys of the products of pairs (i, j) of the values keyed by
    ``keys``, and their int8 weights: 1 where i = j, else 2."""
    prods = []
    for key, q in zip(keys, [None] + qs):
        prod = key[i]
        prod *= key[j]
        if q is not None:
            prod %= q
        prods.append(prod)
    return prods, np.where(i == j, np.int8(1), np.int8(2))


def _pair_total(values: list[int]) -> int:
    """Sum over distinct products v*w of the squared ordered-pair count:
    (M^2 - M'^2)^2 for the product 0, M' of the M values nonzero, plus
    the square sums of the canonical products (i <= j; weight 1 on the
    diagonal, 2 off it) of the nonzero values, one per class pass."""
    arr, qs = _exact_array(values)
    arr = arr[arr != 0]
    m = len(arr)
    passes, cls = _classes(arr, m * (m + 1) // 2)
    order = np.argsort(cls)
    keys = [k[order] for k in _residue_keys(arr, qs)]  # crt products stay below 2^62
    cls = cls[order]
    total = (len(values) ** 2 - m * m) ** 2
    for k in range(passes):  # nested: each pass frees its pair indices before the sort
        total += _square_sum(*_pair_keys(
            keys, qs, *_class_pairs(cls, cls, passes, k, 1)))
    return total


def check_pair_budget(m: int, budget: int | None) -> None:
    """BudgetError when m values have more than ``budget`` canonical pair
    products; a budget of None (chunked counting) lifts it."""
    est = m * (m + 1) // 2
    if budget is not None and est > budget:
        raise BudgetError(
            f"{est} canonical pair products exceed the budget of {budget}; "
            "enable chunked counting (no pair budget, more passes) or raise "
            "the budget"
        )


def check_energy_config(
    poly: IntPolynomial, grid: list[int], *, q: int = 1, a: int = 0,
    budget: int | None = DEFAULT_PAIR_BUDGET,
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
        check_pair_budget(rng.size, budget)
    return ranges


def count_pair_products(
    values: list[int], *, budget: int | None = DEFAULT_PAIR_BUDGET
) -> int:
    """Sum of squared ordered-pair-product multiplicities, i.e. the energy.

    Raises BudgetError when the canonical pair count exceeds ``budget``.
    """
    check_pair_budget(len(values), budget)
    return _pair_total(values)


def energy(
    poly: IntPolynomial,
    rng: ProgressionRange,
    *,
    budget: int | None = DEFAULT_PAIR_BUDGET,
) -> EnergyReport:
    """Exact multiplicative energy of P([N]_{a,q}) with diagonal splits."""
    rng.require_members()
    members = list(rng.members())
    values = [poly(x) for x in members]
    total = count_pair_products(values, budget=budget)

    m = len(members)
    diag = 2 * m * m - m
    counts = Counter(values)
    s2 = sum(c * c for c in counts.values())
    s4 = sum(c ** 4 for c in counts.values())
    vd_total = 2 * s2 * s2 - s4  # quadruples whose value multisets coincide
    expo = error_exponent(poly.degree)
    offdiag = total - diag
    ratio = None if expo is None else offdiag / float(rng.N) ** float(expo)
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
        generalized_even_center=generalized_even_center(poly),
        has_negative_values=any(v < 0 for v in values),
        zero_value_count=sum(1 for v in values if v == 0),
        mode="chunked" if budget is None else "direct",
    )


def group_pair_counts(values: list[int],
                      tags: np.ndarray) -> tuple[int, int, int, int, int]:
    """(equal, same, total, c31, triples) of nonzero values in groups,
    values[i] in the group of the integer tags[i] (in any order, as in
    ``value_pair_count``): the pairs with |v| = |w| inside a group, then
    sum_g C22, sum_g C22 + D, sum_g C31 and sum_g C31 + A of
    ``clt_audit``.  Pass k takes the canonical products and the ordered
    ratios of class k, so equal keys, and each product m with its ratio
    m/1, meet in one pass."""
    # for tags * passes below: a list would repeat, a narrow dtype overflow
    tags = np.asarray(tags, dtype=np.int64)
    sizes = np.unique(tags, return_counts=True)[1]
    values, qs = _exact_array(values)
    passes, cls = _classes(values, int(np.dot(sizes, 3 * sizes + 1)) // 2)
    key = tags * passes + cls
    order = np.argsort(key)
    key, cls, values = key[order], cls[order], values[order]
    keys, mag, neg = _residue_keys(values, qs), np.abs(values), values < 0

    def inner(x, y, sx):  # sum_k x_k y_k, x weighted, y of weight 1
        ones = np.ones(len(y[0]), dtype=np.int64)
        both = _square_sum([np.r_[u, v] for u, v in zip(x, y)], np.r_[weight, ones])
        return (both - sx - _square_sum(y, ones)) // 2

    counts = np.zeros(5, dtype=object)
    for k in range(passes):
        i, j = _class_pairs(key, cls, passes, k, 1)
        prods, weight = _pair_keys(keys, qs, i, j)
        prods_tag = prods + [key[i] // passes]
        # the reduced ratios v_i/v_j, and the integer ones m/1 with their tags
        i, j = _class_pairs(key, cls, passes, k, -1)
        av, aw = mag[i], mag[j]
        a, b = av // (d := np.gcd(av, aw)), aw // d
        a[neg[i] != neg[j]] *= -1
        num = _residue_keys(a, qs)
        ints = [u[b == 1] for u in num + [key[i] // passes]]
        same = _square_sum(prods_tag, weight)
        counts += [np.count_nonzero(av == aw), same,
                   _square_sum(num + _residue_keys(b, qs), np.ones(len(b), np.int64)),
                   inner(prods_tag, ints, same),
                   inner(prods, ints[:-1], _square_sum(prods, weight))]
    return tuple(map(int, counts))


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
    budget: int | None = DEFAULT_PAIR_BUDGET,
) -> ExponentFit:
    """Off-diagonal counts across a grid of N, normalized by N^exponent."""
    ranges = check_energy_config(poly, grid, q=q, a=a, budget=budget)
    expo = error_exponent(poly.degree)
    points = []
    for n, rng in zip(grid, ranges):
        rep = energy(poly, rng, budget=budget)
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
