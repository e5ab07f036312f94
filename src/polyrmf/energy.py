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

Most values never meet another: a value v_i is *lonely* when some prime p
divides it and no other nonzero member value.  In v_a v_b = v_c v_d the
p-adic valuations of the two sides are (#{a, b} = i) v_p(v_i) and
(#{c, d} = i) v_p(v_i), so i occurs as often on either side.  Removing
lonely values in rounds, a value lonely among those still kept, the
same holds by induction over the rounds: the earlier values on p's
column occur equally often on both sides, so their share of v_p
cancels.  With S the removed values, R the kept nonzero ones, m = |S| +
|R| and M the members, a quadruple holds no S value, one S value i on
either side (i v = i w with v = w in R), or the same pair of S values
on both sides, so the energy is

    (M^2 - m^2)^2 + E(R) + 2|S|^2 - |S| + 4 |S| s2(R),

s2(R) the ordered pairs of R with equal values (``value_pair_count``).
The certificates come from the sieve's small-prime stage
(``sieve_small_primes``), with no primality test: a prime p <= B with a
single kept row on its column, or a cofactor below (B+1)^2, which is
prime, that no other kept row shares and that divides no kept cofactor
of (B+1)^2 or more (``_lonely``, by ``word_hits``).  Only R goes through
the pair passes below.

Every count is a square sum S(X) = sum_k x_k^2, x_k the weight of key k
(``_square_sum``; an inner product is (S(X+Y) - S(X) - S(Y))/2): the
energy of M values is S of their M*(M+1)/2 canonical pair products,
weight 1 on the diagonal and 2 off it.  Each product is keyed by its
residue mod 2^64 and mod k primes q_i < 2^31, in machine words.  With V the largest
|value|, two products that agree in every residue differ by a multiple
of 2^64 * prod(q_i), so they are equal once V^2 < 2^63 * prod(q_i) (the
CRT); k is the least count that makes this hold, 0 when V^2 < 2^63, so
the keys are exact for every value size, as are those of a reduced
ratio's parts, at most V.  A square sum sorts the low words by value to
find those that repeat; only the items that carry one are sorted by
index, and every other item adds its weight squared.  The energy and
the audit's grouped counts build each pair once, in passes classed by
the discrete logarithm mod 65537.  A pass holds about 2^18 pairs, so
that one uint64 column of it (2 MiB) stays in a core's L2 cache, and
every pass of a call reuses the arrays of the first.  There are at most
2^16 passes, so memory stays bounded up to about 1.85e5 values (beyond,
a pass holds about M^2 / 2^17 pairs), and time grows with the pair
count; the pair budget caps that time, and a budget of None (chunked
mode) lifts it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import log

import numpy as np

from .errors import BudgetError, ConfigError
from .polynomial import (IntPolynomial, generalized_even_center,
                         require_not_pure_power)
from .primes import is_prime, word_hits
from .sieve import (_BLOCK_CELLS, SmallPrimes, check_factor_budget, check_grid,
                    sieve_small_primes)

DEFAULT_PAIR_BUDGET = 80_000_000
_RUN_ITEMS = 1 << 18  # pairs per class pass: a uint64 column of 2 MiB
_BLOCK = 8 << 20  # bytes: the least block that _Scratch allocates
_SMALL = 1 << 16  # bytes: the least array that _Scratch cuts from a block
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
    if values.dtype == object:
        low = (values & (2**64 - 1)).astype(np.uint64)
    else:
        low = values.view(np.uint64)  # the same bits
    return [low] + [(values % q).astype(np.int64, copy=False) for q in qs]


class _Scratch:
    """The work arrays of one call's class passes, each allocated at the
    first pass that needs it and reused by every later one, which writes
    into it with ``out=``: pass-sized temporaries freed and allocated again
    would fault in fresh pages on every pass.  An array holds an eighth
    more items than first asked for, as the passes of one call differ
    little in size.  Arrays of ``_SMALL`` bytes or more are cut from blocks
    of ``_BLOCK`` bytes: glibc raises its mmap threshold to the largest
    block it has unmapped, so once one call has freed its block, the
    blocks of later calls come from its heap, and their pages stay mapped
    between calls."""

    def __init__(self):
        self._arrays: dict[tuple, np.ndarray] = {}
        self._free = np.empty(0, np.uint8)  # the unused tail of the block

    def get(self, name: str, n: int, dtype) -> np.ndarray:
        """The first n items of the array ``name`` of ``dtype``."""
        a = self._arrays.get((name, dtype))
        if a is None or len(a) < n:
            a = self._arrays[name, dtype] = self._new(n + n // 8, np.dtype(dtype))
        return a[:n]

    def _new(self, size: int, dtype: np.dtype) -> np.ndarray:
        nbytes = -(-size * dtype.itemsize // 64) * 64
        # references are not bytes, and malloc keeps small arrays mapped
        if dtype.hasobject or nbytes < _SMALL:
            return np.empty(size, dtype)
        if nbytes > len(self._free):
            self._free = np.empty(max(nbytes, _BLOCK), np.uint8)
        a, self._free = self._free[:nbytes].view(dtype), self._free[nbytes:]
        return a


def _square_sum(keys: list[np.ndarray], weights: np.ndarray,
                scratch: _Scratch | None = None) -> int:
    """Sum over the distinct key rows of the squared total weight of their
    items, 0 for none.  keys[0] is the uint64 low word.  Sorting its values
    finds the low words that repeat, and a multiplicative hash of them
    marks every item that may carry one; an unmarked item's key row is its
    own, and adds its weight squared.  Only the marked items are argsorted
    by their low word, or lexsorted by all keys when some run of equal low
    words carries more than one key row.  The work arrays "low", "flag"
    and "marked" come from ``scratch``, a fresh one when None; the keys and
    weights must not be among them."""
    scratch = scratch or _Scratch()
    n = len(weights)
    s = scratch.get("low", n, np.uint64)
    np.copyto(s, keys[0])
    s.sort()
    repeats = np.equal(s[1:], s[:-1], out=scratch.get("flag", n, bool)[1:])
    twice = s[1:][repeats]  # every low word that repeats, and more
    square = s.view(np.int64)  # the sorted words are spent
    if not twice.size:
        np.copyto(square, weights)
        return int(np.dot(square, square))
    # more than min(64 t, n) flags for the t repeating words, so that few
    # other items share a flag with one of them
    bits = min(64 * twice.size, n).bit_length()
    shift = np.uint64(64 - bits)
    table = np.zeros(1 << bits, dtype=bool)
    table[(twice * _MIX) >> shift] = True
    at = np.multiply(keys[0], _MIX, out=s)
    at >>= shift
    marked = table.take(at, out=scratch.get("flag", n, bool), mode="clip")
    np.copyto(square, weights)
    np.copyto(square, 0, where=marked)
    once = int(np.dot(square, square))
    size = np.count_nonzero(marked)
    weights = weights.compress(marked, out=scratch.get("marked", size, weights.dtype))
    keys = [k.compress(marked, out=scratch.get(f"marked {c}", size, k.dtype))
            for c, k in enumerate(keys)]

    def runs(order):  # where each key changes between neighbours in order
        return [(s := k[order])[1:] != s[:-1] for k in keys]

    order = np.argsort(keys[0])
    new = runs(order)
    if any((n & ~new[0]).any() for n in new[1:]):
        order = np.lexsort(keys[::-1])
        new = runs(order)
    starts = np.r_[0, np.flatnonzero(np.logical_or.reduce(new)) + 1]
    sums = np.add.reduceat(weights[order], starts, dtype=np.int64)
    return once + int(np.dot(sums, sums))


def value_pair_count(values: list[int], tags: np.ndarray | None = None) -> int:
    """#{(i, j) : values[i] = values[j]}, and tags[i] = tags[j] when tags
    are given: the square sum of the multiplicities of the (tag, value)."""
    arr, qs = _exact_array(values)
    keys = _residue_keys(arr, qs) + ([] if tags is None else [tags])
    return _square_sum(keys, np.ones(len(values), dtype=np.int64))


_LOG_PRIME = 65537  # 2^16 + 1, with primitive root 3


@cache
def _log3_table() -> np.ndarray:
    """log3[3^e mod 65537] = e for 0 <= e < 65536 (log3[0] = 0), read-only:
    built once per process, at the first call with more than one pass."""
    p = _LOG_PRIME
    # 3^(256 a + b) for 0 <= a, b < 256
    small = np.array([pow(3, e, p) for e in range(256)], dtype=np.int64)
    large = np.array([pow(3, 256 * e, p) for e in range(256)], dtype=np.int64)
    log3 = np.zeros(p, dtype=np.int64)
    log3[np.multiply.outer(large, small).ravel() % p] = np.arange(p - 1)
    log3.flags.writeable = False
    return log3


def _classes(values: np.ndarray, items: int) -> tuple[int, np.ndarray]:
    """``passes``, the least power of two up to 2^16 that splits ``items``
    pairs into passes of about ``_RUN_ITEMS`` = 2^18 (M values have about
    M^2 / 2 canonical products, so the cap is reached at about 1.85e5
    values), and the class L(v) mod ``passes`` of each value
    v = 65537^e u (65537 not dividing u):
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
    return passes, _log3_table()[(values % p).astype(np.int64)] % passes


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


def _pair_keys(keys, qs, i, j, scratch):
    """Residue keys of the products of pairs (i, j) of the values keyed by
    ``keys``, and their int8 weights: 1 where i = j, else 2.  They are
    written into the arrays "product c" and "weight" of ``scratch``."""
    n = len(i)
    other = scratch.get("factor", n, np.int64)
    prods = []
    for c, (key, q) in enumerate(zip(keys, [None] + qs)):
        prod = key.take(i, out=scratch.get(f"product {c}", n, key.dtype), mode="clip")
        prod *= key.take(j, out=other.view(key.dtype), mode="clip")
        if q is not None:
            prod %= q
        prods.append(prod)
    weight = scratch.get("weight", n, np.int8)
    np.not_equal(i, j, out=weight.view(bool))
    weight += 1
    return prods, weight


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
    scratch = _Scratch()
    for k in range(passes):  # nested: each pass frees its pair indices before the sort
        total += _square_sum(*_pair_keys(
            keys, qs, *_class_pairs(cls, cls, passes, k, 1), scratch), scratch)
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


def _lonely(stage: SmallPrimes, size: int) -> np.ndarray:
    """The lonely rows among the first ``size`` rows of ``stage``, as a
    bool mask: removed in rounds, a row is lonely when its value is nonzero
    and has a prime that divides no other value still kept.  A certificate
    is a sieve prime whose column holds that row alone among the kept
    rows, or a cofactor q with 1 < q < (B+1)^2, prime since no p <= B
    divides it, that no other kept row has as its cofactor and that divides
    no kept cofactor >= (B+1)^2.  Such a cofactor is a product of primes
    > B, so q can divide it only when q <= cofactor / (B+1); for those q
    ``word_hits`` tests every (cofactor, q) cell.  Cofactors >= (B+1)^2 are
    never certified, as that would need a primality test."""
    square = (stage.bound + 1) ** 2
    kept = stage.values[:size] != 0
    lonely = np.zeros(size, dtype=bool)
    hit = stage.hit_row < size
    hit_p, hit_row = stage.hit_p[hit], stage.hit_row[hit]
    cofactor = stage.residual[:size]
    rough = cofactor >= square
    prime = (cofactor > 1) & ~rough
    while True:
        live = kept[hit_row]
        p, row = hit_p[live], hit_row[live]
        new = np.zeros(size, dtype=bool)
        new[row[np.bincount(p)[p] == 1]] = True
        rows = np.flatnonzero(prime & kept)
        qs, at, times = np.unique(cofactor[rows].astype(np.int64),
                                  return_index=True, return_counts=True)
        rows, qs = rows[at[times == 1]], qs[times == 1]
        blocks = cofactor[rough & kept]
        free = np.ones(len(qs), dtype=bool)
        if blocks.size:
            # a multiple of q with no prime factor <= B is at least q (B+1);
            # every q is below (B+1)^2, which keeps the bound in int64
            near = np.flatnonzero(
                qs <= min(int(blocks.max()) // (stage.bound + 1), square))
            free[near[word_hits(blocks, qs[near], _BLOCK_CELLS)[1]]] = False
        new[rows[free]] = True
        if not new.any():
            return lonely
        lonely |= new
        kept &= ~new


def _energy_total(stage: SmallPrimes, size: int) -> int:
    """The energy of the first ``size`` values of ``stage``: with the m
    nonzero ones split into the lonely S and the rest R, (M^2 - m^2)^2 +
    E(R) + 2|S|^2 - |S| + 4|S| s2(R) for M = ``size``, s2(R) the ordered
    pairs of R with equal values."""
    values = stage.values[:size]
    nonzero = values != 0
    lonely = _lonely(stage, size)
    rest = values[nonzero & ~lonely].tolist()
    m, s = int(nonzero.sum()), int(lonely.sum())
    return ((size * size - m * m) ** 2 + count_pair_products(rest, budget=None)
            + 2 * s * s - s + 4 * s * value_pair_count(rest))


def energy(
    poly: IntPolynomial,
    rng: ProgressionRange,
    *,
    budget: int | None = DEFAULT_PAIR_BUDGET,
) -> EnergyReport:
    """Exact multiplicative energy of P([N]_{a,q}) with diagonal splits."""
    rng.require_members()
    check_pair_budget(rng.size, budget)
    stage = sieve_small_primes(poly, rng.members())
    total = _energy_total(stage, rng.size)
    values = stage.values.tolist()

    m = len(values)
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
        n = len(weight) + len(ones)
        both = [np.concatenate([u, v], out=scratch.get(f"both {c}", n, u.dtype))
                for c, (u, v) in enumerate(zip(x, y))]
        both = _square_sum(both, np.concatenate(
            [weight, ones], out=scratch.get("both", n, np.int64)), scratch)
        return (both - sx - _square_sum(y, ones, scratch)) // 2

    def take(a, at, name):  # a[at] into the scratch array ``name``
        return a.take(at, out=scratch.get(name, len(at), a.dtype), mode="clip")

    scratch = _Scratch()
    counts = np.zeros(5, dtype=object)
    for k in range(passes):
        i, j = _class_pairs(key, cls, passes, k, 1)
        prods, weight = _pair_keys(keys, qs, i, j, scratch)
        tag = take(key, i, "tag")
        prods_tag = prods + [np.floor_divide(tag, passes, out=tag)]
        # the reduced ratios v_i/v_j, and the integer ones m/1 with their tags
        i, j = _class_pairs(key, cls, passes, k, -1)
        n = len(i)
        av, aw = take(mag, i, "numerator"), take(mag, j, "denominator")
        equal = np.count_nonzero(np.equal(av, aw, out=scratch.get("flag", n, bool)))
        d = np.gcd(av, aw, out=scratch.get("gcd", n, mag.dtype))
        a, b = np.floor_divide(av, d, out=av), np.floor_divide(aw, d, out=aw)
        flip = take(neg, i, "flip")
        flip ^= take(neg, j, "sign")  # the signs differ
        np.negative(a, out=a, where=flip)
        num = _residue_keys(a, qs)
        unit = np.equal(b, 1, out=scratch.get("unit", n, bool))
        ints = [u[unit] for u in num] + [key[i[unit]] // passes]
        same = _square_sum(prods_tag, weight, scratch)
        counts += [equal, same,
                   _square_sum(num + _residue_keys(b, qs),
                               np.broadcast_to(np.int64(1), n), scratch),
                   inner(prods_tag, ints, same),
                   inner(prods, ints[:-1], _square_sum(prods, weight, scratch))]
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
    # every point's members are a prefix of the top point's
    stage = sieve_small_primes(poly, ranges[-1].members())
    for n, rng in zip(grid, ranges):
        size = rng.size
        offdiag = _energy_total(stage, size) - (2 * size * size - size)
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
