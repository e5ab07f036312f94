"""Independent brute-force oracles.

Everything here recounts from first principles, sharing no code path with
the implementations under test: quadruple loops and all-pairs comparison
matrices for energy counts, literal sign-pattern enumeration for the
exact moment sums, and scalar per-row evaluation of the split sums that
the batched replicate engine computes.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from polyrmf.rmf import SteinhausSampler, _PhaseSource


def energy_quadruple_loop(values):
    """Ordered quadruples with v1*v2 = v3*v4, by four nested loops."""
    count = 0
    for a in values:
        for b in values:
            ab = a * b
            for c in values:
                for d in values:
                    if ab == c * d:
                        count += 1
    return count


def energy_allpairs(values):
    """O(M^4) brute force: compare every ordered pair product against
    every other.  No grouping, no sorting by value."""
    v = np.asarray(values, dtype=np.int64)
    assert np.all(np.abs(v) <= 3_000_000_000), "values too large for int64 oracle"
    prods = np.multiply.outer(v, v).ravel()
    total = 0
    # row blocks keep the M^2 x M^2 comparison matrix small
    for lo in range(0, len(prods), 4096):
        block = prods[lo:lo + 4096]
        total += int(np.sum(block[:, None] == prods[None, :]))
    return total


def energy_cross_loop(values1, values2):
    count = 0
    for a in values1:
        for b in values1:
            ab = a * b
            for c in values2:
                for d in values2:
                    if ab == c * d:
                        count += 1
    return count


def same_prime_quadruples_loop(rows):
    """Quadruples with product equality and all four largest primes equal,
    over FactoredValue rows; rows with largest_prime 0 never qualify."""
    count = 0
    for r1 in rows:
        for r2 in rows:
            for r3 in rows:
                for r4 in rows:
                    lp = r1.largest_prime
                    if lp == 0:
                        continue
                    if (r2.largest_prime == lp and r3.largest_prime == lp
                            and r4.largest_prime == lp
                            and r1.value * r2.value == r3.value * r4.value):
                        count += 1
    return count


def paired_prime_quadruples_loop(rows):
    """(total, same, distinct) for quadruples with lpf(1)=lpf(2) > 0,
    lpf(3)=lpf(4) > 0 and P(n1)P(n3) = P(n2)P(n4)."""
    total = same = 0
    for r1 in rows:
        p = r1.largest_prime
        if p == 0:
            continue
        for r2 in rows:
            if r2.largest_prime != p:
                continue
            for r3 in rows:
                q = r3.largest_prime
                if q == 0:
                    continue
                for r4 in rows:
                    if r4.largest_prime != q:
                        continue
                    if r1.value * r3.value == r2.value * r4.value:
                        total += 1
                        if p == q:
                            same += 1
    return total, same, total - same


def _sign_pattern_count(values):
    """#{sign patterns e in {+-1}^m : prod v_i^{e_i} = 1}, via separate
    numerator/denominator integer products."""
    count = 0
    for signs in product((1, -1), repeat=len(values)):
        num = den = 1
        for v, s in zip(values, signs):
            if s == 1:
                num *= v
            else:
                den *= v
        if num == den:
            count += 1
    return count


def _abs_groups(table, n_max):
    groups = {}
    for row in table.rows[:n_max]:
        if row.largest_prime > 0:
            groups.setdefault(row.largest_prime, []).append(abs(row.value))
    return groups


def mcleish_brute(table, n_max):
    """(variance_sum, lindeberg_sum, cross_term) by literal enumeration of
    expectation classes: E prod cos(2 pi phase_v) = 2^-m * #{sign patterns
    with balanced products}."""
    groups = _abs_groups(table, n_max)
    variance = Fraction(0)
    lindeberg = Fraction(0)
    for vs in groups.values():
        pair_hits = sum(
            _sign_pattern_count((a, b)) for a in vs for b in vs
        )
        # E M_p^2 = (2/N) * (1/4) * pair_hits
        variance += Fraction(pair_hits, 2 * n_max)
        quad_hits = sum(
            _sign_pattern_count((a, b, c, d))
            for a in vs for b in vs for c in vs for d in vs
        )
        # E M_p^4 = (4/N^2) * (1/16) * quad_hits
        lindeberg += Fraction(quad_hits, 4 * n_max * n_max)
    cross = Fraction(0)
    keys = sorted(groups)
    for p in keys:
        for q in keys:
            if p == q:
                continue
            hits = sum(
                _sign_pattern_count((a, b, c, d))
                for a in groups[p] for b in groups[p]
                for c in groups[q] for d in groups[q]
            )
            cross += Fraction(hits, 4 * n_max * n_max)
    return variance, lindeberg, cross


def s2_membership_scan(table, a_sets, i, x):
    """#{n <= x : some prime of A_1..A_{i-1} divides P(n)}, by scanning
    every row's factor list."""
    earlier = set()
    for a in a_sets[:i]:
        earlier |= a
    count = 0
    for row in table.rows[:x]:
        if any(p in earlier for p, _ in row.factors):
            count += 1
    return count


@dataclass(frozen=True)
class ConditionalSampler(_PhaseSource):
    """Two-stream scalar sampler: primes in ``resample`` follow ``inner``,
    the rest stay frozen on ``base`` (what ``fluct --conditional`` does
    to each replicate)."""

    base: SteinhausSampler
    inner: SteinhausSampler
    resample: frozenset

    def angle(self, p: int) -> float:
        src = self.inner if p in self.resample else self.base
        return src.angle(p)


@dataclass(frozen=True)
class SplitSums:
    scale_index: int  # 0-based
    s1: complex
    s2: complex
    s3: complex


def split_sums(sampler, table, family, i):
    """Three-way split of sum_{n <= x_i} f(P(n)) at scale i, one row at a
    time in ascending n, reading A-prime membership off each row's factor
    list: S1 when every A-prime dividing P(n) lies in A_i, S2 when one
    lies elsewhere, S3 when there is none."""
    scale_of = {p: j for j, a in enumerate(family.a_sets) for p in a}
    s1 = s2 = s3 = 0j
    for row in table.rows[:family.grid.points[i]]:
        if row.value == 0:
            continue
        value = sampler.f_of(row)
        hits = [scale_of[p] for p, _ in row.factors if p in scale_of]
        if not hits:
            s3 += value
        elif any(j != i for j in hits):
            s2 += value
        else:
            s1 += value
    return SplitSums(scale_index=i, s1=s1, s2=s2, s3=s3)
