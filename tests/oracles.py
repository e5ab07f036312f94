"""Independent brute-force oracles.

Everything here recounts from first principles, sharing no code path with
the implementations under test: quadruple loops and all-pairs comparison
matrices for energy counts, literal sign-pattern enumeration for the
exact moment sums, and scalar per-row evaluation of the partial, per-prime
and split sums that the batched replicate engine computes (the split
labels come from each row's factor list, ``split_labels``; ``f_of``
adds one factor's phase at a time; ``unit_values_reference`` is the
complex exponential of whole phase arrays that the engine's cos/sin
kernel must match bit for bit; ``sequential_unit_values`` and
``sequential_set_sums`` add every phase and every set sum one float at a
time, in the order whose bits the engine must reproduce), and the
prime -> n incidence rebuilt from each row's factor list
(``prime_to_indices``).  Those rows are
``FactoredValue`` records read off a table's CSR (``table_rows``,
``table_row``), and ``angle`` hashes one prime at a time, the scalar
reference for ``rmf.angles_for_key``.  The sorting pair counters are
also checked against Python ``Counter`` histograms of pair products and
reduced ratios (``pair_histogram``, ``ratio_histogram``), and the
martingale audit and the paired-prime counts of
``energy.group_pair_counts`` against the Counter engine they ran on
before they sorted machine-word keys (``group_pair_counter``, which
takes any groups, ``mcleish_counter``, ``paired_prime_counter``), which
reaches sizes beyond the brute force; their groups by largest prime are
dicts of lists built from the rows (``lpf_groups``);
so are the square sums themselves (``square_sum_counter``) and the
equal-value pair counts of ``run_clt`` and ``variance_floor``
(``clt_value_counter``, ``variance_floor_counter``).  The ``sieve``
document oracle builds one dict per row and dumps the whole document
with ``json.dump``, as the CLI did before it wrote the rows from the
CSR.
``root_classes_reference`` finds the sieve's root classes one prime at
a time with ``%``, as the sieve did before its multiply-compare test.
``lpf_density_reference`` compares each row's largest prime with its
threshold one n at a time in Python, as ``lpf_density`` did before it
compared them in numpy.
``lonely_removal_is_valid`` checks the values that ``energy`` counts in
closed form by gcds alone, with no factor table.
``energy_cross`` and ``bp_bound``, which no subcommand or report uses,
are kept here beside their tests.  ``classify_reference`` decides every
``classify`` field in exact coefficient arithmetic, as the package did
before it decided them by evaluating P: the pure-power and
generalized-even forms by composing P with a linear map
(``compose_linear``), and the rational roots by synthetic division
(``rational_roots_reference``).
"""

import cmath
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import exp, gcd, log, sqrt

import numpy as np

from polyrmf.cli import _document, to_jsonable
from polyrmf.energy import DEFAULT_PAIR_BUDGET, ProgressionRange, check_pair_budget
from polyrmf.polynomial import (IntPolynomial, PolynomialClass, PurePowerWitness,
                                 _divisors)
from polyrmf.primes import sieve_primes
from polyrmf.rmf import GOLDEN, M64, SteinhausSampler, mix64
from polyrmf.sieve import lpf_density


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


def pair_histogram(values):
    """Exact ordered-pair multiplicities of v*w over (v, w) in values^2,
    accumulated over the canonical pairs i <= j."""
    acc = Counter()
    for i, v in enumerate(values):
        acc[v * v] += 1
        for w in values[i + 1:]:
            acc[v * w] += 2
    return acc


def ratio_histogram(values):
    """Ordered-pair multiplicities of v/w over (v, w) in values^2, keyed by
    the reduced integer pair (v//g, w//g), g = gcd(v, w), signed so that
    the denominator is positive; every w must be nonzero."""
    acc = Counter()
    for v in values:
        for w in values:
            g = gcd(v, w) if w > 0 else -gcd(v, w)
            acc[v // g, w // g] += 1
    return acc


def pair_histogram_total(values):
    """Sum of squared multiplicities of the ``pair_histogram`` Counter."""
    return sum(c * c for c in pair_histogram(values).values())


def square_sum_counter(keys, weights):
    """Sum over the distinct keys of the squared total weight of their
    items, with a Counter."""
    acc = Counter()
    for key, w in zip(keys, weights):
        acc[key] += w
    return sum(c * c for c in acc.values())


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


def energy_cross(
    poly1: IntPolynomial,
    poly2: IntPolynomial,
    rng: ProgressionRange,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> int:
    """Count (x, y, X, Y) in members^4 with P1(x)P1(y) = P2(X)P2(Y)."""
    rng.require_members()
    check_pair_budget(rng.size, budget)
    members = list(rng.members())
    c1 = pair_histogram([poly1(x) for x in members])
    c2 = pair_histogram([poly2(x) for x in members])
    if len(c2) < len(c1):
        c1, c2 = c2, c1
    return sum(mult * c2[v] for v, mult in c1.items())


@dataclass(frozen=True)
class FactoredValue:
    n: int
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending
    largest_prime: int  # 0 when |value| <= 1


def root_classes_reference(residual, primes):
    """The root search of ``sieve._root_classes`` one prime at a time, by
    ``%`` over the first min(p, N) residuals: (cls_p, cls_n), ordered by p
    and then n."""
    roots = [np.flatnonzero(residual[:p] % p == 0) + 1 for p in primes]
    cls_p = np.repeat(np.array(primes, dtype=np.int64), [len(r) for r in roots])
    return cls_p, np.concatenate([np.zeros(0, np.int64), *roots])


def lonely_removal_is_valid(values, lonely):
    """True when the values marked in ``lonely`` can be removed one at a
    time, each nonzero and with a prime that divides no other value still
    kept.  A value has such a prime when something above 1 is left of it
    after every common factor with the other kept values is divided out.
    Removing values only frees others, so greedy removal decides it."""
    kept = {i for i, v in enumerate(values) if v}
    pending = {i for i, flag in enumerate(lonely) if flag}

    def private(i):
        x = abs(values[i])
        for j in kept - {i}:
            while (g := gcd(x, values[j])) > 1:
                x //= g
        return x > 1

    if not pending <= kept:
        return False
    while pending:
        i = next((i for i in sorted(pending) if private(i)), None)
        if i is None:
            return False
        pending.remove(i)
        kept.remove(i)
    return True


def table_rows(table, lo=0, hi=None):
    """The FactoredValue rows n = lo+1..hi of a FactorTable, from its CSR."""
    m = table.exponents
    ptr = m.indptr[lo:(table.N if hi is None else hi) + 1].tolist()
    pairs = list(zip([table.primes[c] for c in m.indices[ptr[0]:ptr[-1]].tolist()],
                     m.data[ptr[0]:ptr[-1]].tolist()))
    ptr = [a - ptr[0] for a in ptr]
    out = []
    for n, a, b in zip(range(lo + 1, table.N + 1), ptr, ptr[1:]):
        f = tuple(pairs[a:b])
        out.append(FactoredValue(n, table.values[n - 1], f, f[-1][0] if f else 0))
    return out


def table_row(table, n):
    """Row n of a FactorTable as a FactoredValue."""
    if not 1 <= n <= table.N:
        raise IndexError(f"n={n} outside table range 1..{table.N}")
    return table_rows(table, n - 1, n)[0]


def lpf_density_reference(table, threshold_scale=None):
    """(count, count/(N-1)) of the 2 <= n <= N with P+(P(n)) >= scale * n *
    ln(n), one Python compare per n; scale 1/(2 d^2) by default."""
    if threshold_scale is None:
        d = table.polynomial.degree
        threshold_scale = Fraction(1, 2 * d * d)
    scale = float(threshold_scale)
    count = sum(1 for row in table_rows(table)[1:]
                if row.largest_prime >= scale * row.n * log(row.n))
    return count, Fraction(count, max(1, table.N - 1))


def angle(sampler, p):
    """theta_p of a SteinhausSampler, or of the stream a ConditionalSampler
    picks for p, hashed one prime at a time."""
    if isinstance(sampler, ConditionalSampler):
        sampler = sampler.inner if p in sampler.resample else sampler.base
    z = mix64((sampler.key + p * GOLDEN) & M64)
    return (z >> 11) * 2.0 ** -53


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


@dataclass(frozen=True)
class IntegralPointBound:
    """N^(1/d) * exp(12 * sqrt(d ln N ln ln N)) with its validity flag.

    ``asymptotic_regime`` records whether N >= exp(d^6), the regime in
    which the bound is stated; below it the number is still computed as
    a trend reference.
    """

    degree: int
    N: int
    value: float
    asymptotic_regime: bool


def bp_bound(degree: int, n: int) -> IntegralPointBound:
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if n <= 15:
        raise ValueError("need N >= 16 so that ln ln N is safely positive")
    value = n ** (1.0 / degree) * exp(12.0 * sqrt(degree * log(n) * log(log(n))))
    return IntegralPointBound(
        degree=degree, N=n, value=value, asymptotic_regime=log(n) >= degree ** 6
    )


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


def lpf_groups(table, n_max=None):
    """The signed values P(n), n <= n_max (default N), grouped by largest
    prime (> 0 only), from the table's FactoredValue rows."""
    groups = {}
    for row in table_rows(table, 0, n_max):
        if row.largest_prime > 0:
            groups.setdefault(row.largest_prime, []).append(row.value)
    return groups


def _abs_groups(table, n_max):
    return {p: [abs(v) for v in vs] for p, vs in lpf_groups(table, n_max).items()}


def _merged_ratios(ratios):
    """R = sum_g R_g of the groups' ratio histograms R_g, and the
    same-prime count sum_g sum_r R_g(r)^2, with ``Counter.update``."""
    combined = Counter()
    same = 0
    for ctr in ratios:
        combined.update(ctr)
        same += sum(c * c for c in ctr.values())
    return combined, same


def paired_prime_counter(table):
    """(total, same, distinct) of the quadruples with P(n1)P(n3) =
    P(n2)P(n4) and pairwise equal largest primes, from the signed values
    of each largest-prime group: the total is sum_r R(r)^2, same the part
    where all four largest primes agree."""
    combined, same = _merged_ratios(map(ratio_histogram,
                                        lpf_groups(table).values()))
    total = sum(c * c for c in combined.values())
    return total, same, total - same


def group_pair_counter(groups):
    """(equal, same, total, c31, triples) of ``energy.group_pair_counts``
    from per-group Counter histograms of ratios R_g and products Pi_g, as
    the audit counted before it sorted machine-word keys: the pairs with
    |v| = |w| from R_g(1) and R_g(-1), C22 and D from the ratio
    histograms, C31 = sum_m Pi_g(m) R_g(m) and A = sum_m Pi(m) R(m) -
    sum_g C31.  Any nonzero signed values, in any number of groups."""
    ratios = [ratio_histogram(vs) for vs in groups]
    combined, same = _merged_ratios(ratios)
    c31 = triples = 0  # v1 v2 v3 = v4 with v1 v2 = v4/v3 = m
    for vs, own in zip(groups, ratios):
        for m, c in pair_histogram(vs).items():
            triples += c * combined.get((m, 1), 0)
            c31 += c * own.get((m, 1), 0)
    equal = sum(r[1, 1] + r[-1, 1] for r in ratios)
    return equal, same, sum(c * c for c in combined.values()), c31, triples


def mcleish_counter(table, n_max):
    """(variance_sum, lindeberg_sum, cross_term) from ``group_pair_counter``
    over the groups of |P(n)| by largest prime."""
    equal, same, total, c31, triples = group_pair_counter(
        list(_abs_groups(table, n_max).values()))
    return (Fraction(equal, n_max),
            Fraction(6 * same + 8 * c31, 4 * n_max * n_max),
            Fraction(total - same + 2 * (triples - c31), n_max**2))


def clt_value_counter(table, n_max):
    """(pairs, small, zeros) of ``run_clt`` for n <= n_max: #{(n1, n2) :
    |P(n1)| = |P(n2)| != 0}, #{n : |P(n)| = 1} and #{n : P(n) = 0}, from a
    Counter of the nonzero |P(n)|, as it counted them before it sorted
    machine-word keys."""
    values = table.values[:n_max]
    counts = Counter(abs(v) for v in values if v != 0)
    return sum(c * c for c in counts.values()), counts[1], values.count(0)


def a_union(family):
    """A = A_1 u ... u A_k as one frozenset."""
    return frozenset().union(*family.a_sets)


def variance_floor_counter(table, family, i):
    """sum_p #{(n, n') in T_{i,p}^2 : |P(n)| = |P(n')|} of ``variance_floor``
    from a Counter of (p, |P(n)|), with T_{i,p} rebuilt from the rows:
    n <= x_i whose only prime of A = A_1 u ... u A_k is p, in A_i."""
    union, by_value = a_union(family), Counter()
    for row in table_rows(table, 0, family.grid.points[i]):
        hits = [p for p, _ in row.factors if p in union]
        if len(hits) == 1 and hits[0] in family.a_sets[i]:
            by_value[hits[0], abs(row.value)] += 1
    return sum(c * c for c in by_value.values())


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
    for row in table_rows(table, 0, x):
        if any(p in earlier for p, _ in row.factors):
            count += 1
    return count


def f_of(sampler, fv):
    """f at |fv.value| under ``angle``, one factor at a time; rejects
    value 0."""
    if fv.value == 0:
        raise ValueError(f"f is undefined at 0 (n={fv.n} is a root)")
    phase = 0.0
    for p, e in fv.factors:
        phase = (phase + e * angle(sampler, p)) % 1.0
    if phase == 0.0:
        return complex(1.0, 0.0)
    return cmath.exp(2j * cmath.pi * phase)


def unit_values_reference(phases):
    """e(phase) for an array of phases >= 0 by the complex exponential:
    the reference for the replicate engine's cos/sin kernel."""
    return np.exp(2j * np.pi * (phases % 1.0))


def sequential_unit_values(table, theta):
    """f(P(n)) under each column of ``theta`` (primes x columns), 0 at the
    roots of P: a row's phase adds float(e) * theta_p one factor at a
    time, from 0.0 and in ascending prime order, in Python floats."""
    column = {p: j for j, p in enumerate(table.primes)}
    rows = table_rows(table)
    phases = np.zeros((table.N, theta.shape[1]))
    for row in rows:
        for b in range(theta.shape[1]):
            acc = 0.0
            for p, e in row.factors:
                acc += float(e) * float(theta[column[p], b])
            phases[row.n - 1, b] = acc
    z = unit_values_reference(phases)
    z[[row.n - 1 for row in rows if row.value == 0]] = 0
    return z


def sequential_set_sums(table, seed, reps, selector, frozen=None):
    """``rmf.replicate_sums`` one replicate and one set at a time: angles
    hashed per prime by ``angle``, f from ``sequential_unit_values``, and
    each set's sum added in ascending n from 0j in Python complex."""
    root = SteinhausSampler(seed)
    resample = frozenset(p for j, p in enumerate(table.primes)
                         if frozen is None or not frozen[j])
    out = np.zeros((len(selector), reps), dtype=complex)
    for r in range(reps):
        sampler = ConditionalSampler(root, root.replicate(r), resample)
        theta = np.array([[angle(sampler, p)] for p in table.primes]).reshape(-1, 1)
        f = sequential_unit_values(table, theta)[:, 0].tolist()
        for s, mask in enumerate(selector):
            acc = 0j
            for n in np.flatnonzero(mask).tolist():
                acc += f[n]
            out[s, r] = acc
    return out


def prime_to_indices(table):
    """prime -> ascending n with p | P(n), from each row's factor list."""
    incidence = {}
    for row in table_rows(table):
        for p, _ in row.factors:
            incidence.setdefault(p, []).append(row.n)
    return incidence


def partial_sum(sampler, table, x):
    """Sum of f(P(n)) over n <= x, skipping roots of P; ascending n."""
    if x > table.N:
        raise ValueError(f"x={x} exceeds table range {table.N}")
    acc = 0j
    for row in table_rows(table, 0, max(0, x)):
        if row.value != 0:
            acc += f_of(sampler, row)
    return acc


def martingale_piece(sampler, table, p, x):
    """Sum of f(P(n)) over n <= x whose largest prime factor is p."""
    if x > table.N:
        raise ValueError(f"x={x} exceeds table range {table.N}")
    acc = 0j
    for row in table_rows(table, 0, max(0, x)):
        if row.largest_prime == p:
            acc += f_of(sampler, row)
    return acc


def prime_subsum(sampler, table, n_max):
    """Sum of f(P(p)) over primes p <= n_max (roots of P skipped)."""
    if n_max > table.N:
        raise ValueError(f"N={n_max} exceeds table range {table.N}")
    acc = 0j
    rows = table_rows(table)
    for p in sieve_primes(n_max):
        row = rows[p - 1]
        if row.value != 0:
            acc += f_of(sampler, row)
    return acc


@dataclass(frozen=True)
class ConditionalSampler:
    """Two-stream scalar sampler: primes in ``resample`` follow ``inner``,
    the rest stay frozen on ``base`` (what ``fluct --conditional`` does
    to each replicate)."""

    base: SteinhausSampler
    inner: SteinhausSampler
    resample: frozenset


@dataclass(frozen=True)
class SplitSums:
    scale_index: int  # 0-based
    s1: complex
    s2: complex
    s3: complex


def split_labels(table, family, i):
    """Labels over n <= x_i from each row's factor list: 1 (S1) when every
    A-prime dividing P(n) lies in A_i, 2 (S2) when one lies elsewhere, 0
    (S3) when there is none."""
    scale_of = {p: j for j, a in enumerate(family.a_sets) for p in a}
    labels = []
    for row in table_rows(table, 0, family.grid.points[i]):
        hits = [scale_of[p] for p, _ in row.factors if p in scale_of]
        labels.append(0 if not hits else 2 if any(j != i for j in hits) else 1)
    return labels


def split_sums(sampler, table, family, i):
    """Three-way split of sum_{n <= x_i} f(P(n)) at scale i, one row at a
    time in ascending n, by the labels of ``split_labels``."""
    sums = [0j, 0j, 0j]  # S3, S1, S2
    rows = table_rows(table, 0, family.grid.points[i])
    for row, label in zip(rows, split_labels(table, family, i)):
        if row.value != 0:
            sums[label] += f_of(sampler, row)
    return SplitSums(scale_index=i, s1=sums[1], s2=sums[2], s3=sums[0])


def table_json_doc(table):
    """The table as plain JSON values, one dict per row (values as decimal
    strings), as the CLI built it before it wrote rows from the CSR."""
    return {
        "polynomial": table.polynomial.to_coeff_text(),
        "N": table.N,
        "rows": [
            {
                "n": row.n,
                "value": str(row.value),
                "factors": [[p, e] for p, e in row.factors],
                "largest_prime": row.largest_prime,
            }
            for row in table_rows(table)
        ],
    }


def sieve_json_text(table, scale=None):
    """The ``sieve`` JSON document built as a whole and dumped in one pass:
    ``table_json_doc`` wrapped by ``cli._document``, then ``json.dump``
    with indent 2."""
    result = table_json_doc(table)
    count, fraction = lpf_density(table, scale)
    result["lpf_density"] = {
        "threshold_scale": str(scale) if scale is not None else "1/(2d^2)",
        "count": count,
        "fraction": to_jsonable(fraction),
    }
    config = {"poly": str(table.polynomial), "n": table.N}
    doc = _document("sieve", config, result, time.perf_counter())
    out = io.StringIO()
    json.dump(doc, out, indent=2, allow_nan=False)
    out.write("\n")
    return out.getvalue()


def sieve_csv_text(table):
    """The ``sieve`` CSV rows written out by hand, CRLF-terminated as the
    csv module writes them."""
    lines = ["n,value,factorization,largest_prime"]
    for row in table_rows(table):
        fac = "*".join(f"{p}^{e}" for p, e in row.factors) or "1"
        lines.append(f"{row.n},{row.value},{fac},{row.largest_prime}")
    return "".join(line + "\r\n" for line in lines)


def compose_linear(p: IntPolynomial, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Coefficients of P(alpha*x + beta), lowest degree first, exact."""
    acc = [Fraction(0)]
    for c in reversed(p.coeffs):
        # acc <- acc * (alpha*x + beta) + c
        shifted = [Fraction(0)] + [a * alpha for a in acc]
        for i, a in enumerate(acc):
            shifted[i] += a * beta
        shifted[0] += c
        while len(shifted) > 1 and shifted[-1] == 0:
            shifted.pop()
        acc = shifted
    return acc


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Exact synthetic division by (x - root); assumes root is a root."""
    out: list[Fraction] = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc * root
        out[k - 1] = acc
    return out


def _eval_fracs(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots_reference(p: IntPolynomial) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities: roots at zero are stripped
    first, then each +-num/den candidate is confirmed and deflated."""
    work = [Fraction(c) for c in p.coeffs]
    roots: dict[Fraction, int] = {}
    zero_mult = 0
    while work[0] == 0 and len(work) > 1:
        work = work[1:]
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    if len(work) > 1:
        trailing, leading = int(work[0]), int(work[-1])
        candidates = []
        for num in _divisors(trailing):
            for den in _divisors(leading):
                if gcd(num, den) == 1:
                    candidates.append(Fraction(num, den))
                    candidates.append(Fraction(-num, den))
        for cand in sorted(set(candidates)):
            while len(work) > 1 and _eval_fracs(work, cand) == 0:
                work = _deflate(work, cand)
                roots[cand] = roots.get(cand, 0) + 1
    return sorted(roots.items())


def classify_reference(p: IntPolynomial) -> PolynomialClass:
    """Every ``classify`` field from coefficients: P(x) = w*(x+c)^d iff
    P(x - c) = w*x^d, and beta is a center iff P(beta - x) has P's
    coefficients."""
    d, lead = p.degree, p.coeffs[-1]
    c = Fraction(p.coeffs[d - 1], d * lead)
    pure = not any(compose_linear(p, Fraction(1), -c)[:-1])
    beta = Fraction(-2 * p.coeffs[d - 1], d * lead)
    even = (d % 2 == 0
            and compose_linear(p, Fraction(-1), beta) == [Fraction(a) for a in p.coeffs])
    roots = tuple(rational_roots_reference(p))
    linear = sum(m for _, m in roots) == d
    return PolynomialClass(
        degree=d,
        is_pure_power=pure,
        pure_power_witness=PurePowerWitness(w=lead, c=c) if pure else None,
        rational_roots=roots,
        is_product_of_linear_factors=linear,
        generalized_even_center=beta if even else None,
        clt_admissible=not pure,
        fluct_admissible=not linear,
    )
