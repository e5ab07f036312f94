import io
import json
import random
from fractions import Fraction
from math import log, nextafter, prod
from unittest import mock

import numpy as np
import pytest
import sympy
from oracles import (lpf_density_reference, prime_to_indices, root_classes_reference,
                     table_row, table_rows)
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrmf import primes, sieve
from polyrmf.polynomial import IntPolynomial, parse_polynomial
from polyrmf.sieve import (DEFAULT_TRIAL_BOUND, _root_classes, factor_values,
                           lpf_density)


def test_factor_rows_x2p1(x2p1):
    table = factor_values(x2p1, 5)
    assert [r.value for r in table_rows(table)] == [2, 5, 10, 17, 26]
    assert [r.largest_prime for r in table_rows(table)] == [2, 5, 5, 17, 13]


def test_factor_rows_squares():
    table = factor_values(parse_polynomial("0,0,1"), 3)
    assert [r.value for r in table_rows(table)] == [1, 4, 9]
    assert [r.largest_prime for r in table_rows(table)] == [0, 2, 3]
    assert table_rows(table)[0].factors == ()


def test_zero_value_row(x2m6x):
    table = factor_values(x2m6x, 6)
    row = table_row(table, 6)
    assert row.value == 0 and row.factors == () and row.largest_prime == 0


def test_negative_values_factored_by_abs(x2m6x):
    table = factor_values(x2m6x, 5)
    row = table_row(table, 2)  # P(2) = -8
    assert row.value == -8
    assert row.factors == ((2, 3),)


def test_reconstruction_exhaustive(x2p1):
    table = factor_values(x2p1, 10_000)
    for row in table_rows(table):
        prod = 1
        for p, e in row.factors:
            prod *= p**e
        assert prod == abs(row.value)
        assert row.largest_prime == (max(p for p, _ in row.factors)
                                     if row.factors else 0)


@pytest.mark.parametrize("text,n", [("x^3+2x+1", 600), ("0,-6,1", 600),
                                    ("2x^3+3x^2+x", 400)])
def test_reconstruction_other_polys(text, n):
    poly = parse_polynomial(text)
    table = factor_values(poly, n)
    for row in table_rows(table):
        if row.value == 0:
            assert row.factors == ()
            continue
        prod = 1
        for p, e in row.factors:
            prod *= p**e
        assert prod == abs(row.value)


def test_listed_primes_pass_independent_check(x2p1):
    table = factor_values(x2p1, 3000)
    rng = random.Random(7)
    rows = rng.sample(table_rows(table), 1000)
    for row in rows:
        for p, _ in row.factors:
            assert sympy.isprime(p)


def test_prime_to_indices_is_inverse_image(x2p1):
    table = factor_values(x2p1, 500)
    incidence = prime_to_indices(table)
    rows = table_rows(table)
    for p, indices in incidence.items():
        assert indices == sorted(indices)
        for n in indices:
            assert any(q == p for q, _ in rows[n - 1].factors)
    for row in rows:
        for p, _ in row.factors:
            assert row.n in incidence[p]


@pytest.mark.parametrize("text,n", [
    ("x^2+1", 2000),
    ("0,-6,1", 40),  # P(6) = 0 gives an empty row
    ("100000000000000000000,0,1", 20),  # P(19) is a prime above 2^64
])
def test_prime_columns_are_the_inverse_image(text, n):
    table = factor_values(parse_polynomial(text), n)
    incidence = prime_to_indices(table)
    assert table.primes == sorted(incidence)
    columns = table.by_prime
    for j, p in enumerate(table.primes):
        lo, hi = columns.indptr[j], columns.indptr[j + 1]
        ns = (columns.indices[lo:hi] + 1).tolist()
        # every n in column p has p^e exactly dividing P(n)
        for n, e in zip(ns, columns.data[lo:hi].tolist()):
            v = abs(table.values[n - 1])
            assert v != 0 and v % p**e == 0 and v % p**(e + 1) != 0
        # every factor p of P(n) lists n in its column, in ascending n
        assert ns == incidence[p]


def _wide_table(n, columns, seed):
    """A table whose CSR spans ``columns`` columns (fake primes): each of
    n rows holds a random set of them, and some rows none."""
    rng = np.random.default_rng(seed)
    rows = [np.sort(rng.choice(columns, rng.integers(0, 4), replace=False))
            for _ in range(n)]
    indices = np.concatenate(rows).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    data = rng.integers(1, 9, len(indices))
    exponents = sieve.Compressed(indptr, indices, data, (n, columns), len(data))
    return sieve.FactorTable(IntPolynomial((1, 1)), n, [0] * n,
                             list(range(columns)), exponents)


@pytest.mark.parametrize("table", [
    lambda: factor_values(parse_polynomial("x^2+1"), 2000),
    lambda: factor_values(parse_polynomial("0,-6,1"), 40),  # P(6) = 0, P(1) = -5
    lambda: factor_values(parse_polynomial("100000000000000000000,0,1"), 20),
    lambda: factor_values(parse_polynomial("0,0,1"), 30),  # P(1) = 1: empty row
    lambda: _wide_table(400, 2**16, 1),
    lambda: _wide_table(400, 2**16 + 1, 2),  # two passes of 16 bits
    lambda: _wide_table(300, 3 * 2**20, 3),
], ids=["x^2+1", "zero row", "prime beyond 2^64", "empty row",
        "2^16 columns", "2^16+1 columns", "3*2^20 columns"])
def test_prime_columns_match_a_stable_argsort(table):
    table = table()
    m = table.exponents
    rows = np.repeat(np.arange(table.N), np.diff(m.indptr))
    order = np.argsort(m.indices, kind="stable")
    columns = table.by_prime
    assert columns.shape == (len(table.primes), table.N)
    assert columns.indptr.tolist() == np.concatenate(
        [[0], np.cumsum(np.bincount(m.indices, minlength=len(table.primes)))]).tolist()
    assert columns.indices.tolist() == rows[order].tolist()
    assert columns.data.tolist() == m.data[order].tolist()


def test_large_primes_have_few_indices(x2p1):
    # at most d = 2 indices for primes beyond N (root count mod p)
    table = factor_values(x2p1, 500)
    for p, indices in prime_to_indices(table).items():
        if p > 500:
            assert len(indices) <= 2


def test_large_primes_have_few_indices_cubic():
    table = factor_values(parse_polynomial("x^3+2x+1"), 300)
    for p, indices in prime_to_indices(table).items():
        if p > 300:
            assert len(indices) <= 3


def test_lpf_density_zero_threshold(x2p1):
    count, frac = lpf_density(factor_values(x2p1, 10), 0)
    assert (count, frac) == (9, Fraction(1))


def test_lpf_density_pinned_x2p1(x2p1):
    # pinned by the first verified run at this configuration
    count, frac = lpf_density(factor_values(x2p1, 100), Fraction(1, 8))
    assert (count, frac) == (94, Fraction(94, 99))


def test_lpf_density_squares_saturates():
    # for P = x^2 the largest prime of P(n) is at most n, while the
    # threshold n*ln(n)/8 passes n at n = e^8 ~ 2981: the count freezes
    poly = parse_polynomial("0,0,1")
    c3000, _ = lpf_density(factor_values(poly, 3000), Fraction(1, 8))
    c5000, f5000 = lpf_density(factor_values(poly, 5000), Fraction(1, 8))
    assert c3000 == c5000
    f10k = lpf_density(factor_values(poly, 10_000), Fraction(1, 8))[1]
    assert f10k < f5000 < Fraction(1, 2)


def test_lpf_density_default_scale(x2p1):
    table = factor_values(x2p1, 50)
    count_default, _ = lpf_density(table)
    count_explicit, _ = lpf_density(table, Fraction(1, 8))
    assert count_default == count_explicit


@pytest.mark.parametrize("text,n", [("x^2+1", 3000), ("0,0,1", 3000), ("0,-6,1", 50),
                                    ("100000000000000000000,0,1", 60), ("x^2+1", 1)])
@pytest.mark.parametrize("scale", [None, 0, Fraction(1, 8), -2.5, 1e9, 1e300,
                                   float("inf")])
def test_lpf_density_matches_the_scalar_loop(text, n, scale):
    # 1e9 and above put thresholds past 2^53, where float64 skips integers
    table = factor_values(parse_polynomial(text), n)
    assert lpf_density(table, scale) == lpf_density_reference(table, scale)


@st.composite
def _lpf_tables(draw):
    """(table, scale): random rows over random ascending integers standing
    for the primes (lpf_density reads each row's last column alone), some
    next to 2^53 and 2^63 or at least 2^64, and a scale that puts one row's
    threshold at, or one float step from, its largest prime."""
    pool = draw(st.lists(st.integers(2, 10**6) | st.integers(2**53 - 9, 2**53 + 9)
                         | st.integers(2**63 - 9, 2**63 + 9)
                         | st.integers(2**64, 2**70), max_size=10, unique=True))
    ps = sorted(pool)
    n_max = draw(st.integers(1, 30))
    rows = [sorted(draw(st.sets(st.integers(0, len(ps) - 1), max_size=3)))
            if ps else [] for _ in range(n_max)]
    cols = np.array(sum(rows, []), dtype=np.int64)
    exponents = sieve._compress(np.repeat(np.arange(n_max), [len(r) for r in rows]),
                                cols, np.ones(len(cols), np.int64), (n_max, len(ps)))
    table = sieve.FactorTable(parse_polynomial("x^2+1"), n_max, [0] * n_max, ps,
                              exponents)
    n = draw(st.integers(2, max(2, n_max)))
    target = ps[rows[n - 1][-1]] if n <= n_max and rows[n - 1] else draw(
        st.integers(0, 2**70))
    scale = target / (n * log(n))
    for _ in range(draw(st.integers(-2, 2)) % 3):
        scale = nextafter(scale, draw(st.sampled_from((0.0, float("inf")))))
    return table, draw(st.sampled_from((scale, 0, None, Fraction(1, 8))))


@settings(max_examples=300, deadline=None)
@given(case=_lpf_tables())
def test_lpf_density_matches_the_scalar_loop_on_random_tables(case):
    table, scale = case
    assert lpf_density(table, scale) == lpf_density_reference(table, scale)


def test_lpf_density_compares_int64_primes_above_2_53_exactly():
    # row 2's largest prime against the threshold scale * 2 * ln(2): a
    # threshold equal to the prime counts it, one a float step above does
    # not, and 2^53 + 1, which float64 would round down to 2^53, beats
    # every threshold below 2^53; above 2^53 the compare stays exact
    def table(p):
        exponents = sieve._compress(np.array([1]), np.array([0]),
                                    np.ones(1, np.int64), (2, 1))
        return sieve.FactorTable(parse_polynomial("x^2+1"), 2, [0, 0], [p],
                                 exponents)

    def scale_for(t):
        scale = t / (2 * log(2))
        while scale * 2 * log(2) < t:
            scale = nextafter(scale, float("inf"))
        while scale * 2 * log(2) > t:
            scale = nextafter(scale, 0.0)
        return scale

    p = 2**53 - 111
    assert scale_for(p) * 2 * log(2) == p
    above = nextafter(scale_for(p), float("inf"))
    below_2_53 = nextafter(scale_for(2**53), 0.0)
    top = int(below_2_53 * 2 * log(2))  # the largest threshold below 2^53
    assert 2**52 < top < 2**53
    for t, scale, count in [(table(p), scale_for(p), 1), (table(p), above, 0),
                            (table(2**53 + 1), below_2_53, 1),
                            (table(top), below_2_53, 1),
                            (table(top - 1), below_2_53, 0),
                            # float64 rounds 2^53 + 3 up to 2^53 + 4
                            (table(2**53 + 3), scale_for(2**53 + 4), 0),
                            (table(2**63 + 1), scale_for(2**63), 1),
                            (table(2**64 + 1), scale_for(2**64), 1)]:
        assert lpf_density(t, scale) == lpf_density_reference(t, scale) == (
            count, Fraction(count))


def test_lpf_density_thresholds_take_math_log():
    # np.log(9170) can sit one float step from math.log(9170); near 2^53.5,
    # where floats are the even integers, a prime between the two
    # thresholds is counted by one and not by the other
    n = 9170
    scale = 2**53.5 / (n * log(n))
    for _ in range(1000):
        by_math, by_numpy = scale * n * log(n), scale * n * float(np.log(n))
        if by_math != by_numpy:
            break
        scale = nextafter(scale, float("inf"))
    exponents = sieve._compress(np.array([n - 1]), np.array([0]),
                                np.ones(1, np.int64), (n, 1))
    table = sieve.FactorTable(parse_polynomial("x^2+1"), n, [0] * n,
                              [int(max(by_math, by_numpy)) - 1], exponents)
    assert lpf_density(table, scale) == lpf_density_reference(table, scale)


def test_csv_and_json_serialization(x2m6x):
    table = factor_values(x2m6x, 6)
    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,value,factorization,largest_prime"
    assert lines[2] == "2,-8,2^3,2"
    assert lines[6] == "6,0,1,0"

    buf = io.StringIO()
    table.write_json(buf)
    doc = json.loads(buf.getvalue())
    assert doc["polynomial"] == "0,-6,1"
    assert doc["N"] == 6
    assert doc["rows"][2] == {
        "n": 3, "value": "-9", "factors": [[3, 2]], "largest_prime": 3
    }


def _assert_factored(table):
    for row in table_rows(table):
        assert all(sympy.isprime(p) for p, _ in row.factors)
        if row.value == 0:
            assert row.factors == ()
        else:
            assert prod(p**e for p, e in row.factors) == abs(row.value)


# below 2 nothing is sieved; 50_000 sieves past the default bound, up to
# isqrt(max|P(n)|) where that is larger, with primes above N
TRIAL_BOUNDS = (-3, 0, 2, 3, 10, 47, 100, DEFAULT_TRIAL_BOUND, 50_000)


@pytest.mark.parametrize("text,n", [
    ("6,0,0,6", 300),   # content 6: p = 2, 3 divide every value
    ("0,-6,1", 300),    # P(6) = 0 and negative values below it
    ("-7,0,-3", 300),   # every value negative
    ("x^2+1", 40),      # N below most trial primes
    ("111,1", 40),      # cofactors 121 = 11^2 and 143 = 11*13 just above 10^2
])
def test_trial_bound_does_not_change_the_table(text, n):
    poly = parse_polynomial(text)
    default = factor_values(poly, n)
    _assert_factored(default)
    for bound in TRIAL_BOUNDS:
        with mock.patch.object(sieve, "DEFAULT_TRIAL_BOUND", bound):
            table = factor_values(poly, n)
        assert table_rows(table) == table_rows(default), bound
        assert prime_to_indices(table) == prime_to_indices(default), bound


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-60, 60), min_size=2, max_size=4)
       .filter(lambda c: c[-1] != 0),
       n=st.integers(1, 80),
       bound=st.sampled_from((-3, 0, 1, 2, 3, 5, 10, 31, 100)))
def test_any_trial_bound_gives_the_default_table(coeffs, n, bound):
    poly = IntPolynomial(tuple(coeffs))
    default = factor_values(poly, n)
    _assert_factored(default)
    with mock.patch.object(sieve, "DEFAULT_TRIAL_BOUND", bound):
        table = factor_values(poly, n)
    assert table_rows(table) == table_rows(default)


def _residual(poly, n_max):
    """|P(1..n_max)| as factor_values holds them: int64 below 2^63."""
    values = [abs(poly(n)) for n in range(1, n_max + 1)]
    return np.array(values, dtype=np.int64 if max(values) < 2**63 else object)


def _hits(cls_p, cls_n):
    """The root search's pairs (p, n), sorted."""
    assert cls_p.dtype == cls_n.dtype == np.int64
    return sorted(zip(cls_p.tolist(), cls_n.tolist()))


def _classes(residual, p):
    """The n of the root classes that the search finds for the prime p alone."""
    hits = _hits(*_root_classes(residual, [p]))
    assert all(q == p for q, _ in hits)
    return [n for _, n in hits]


# p^2 + p either side of 2^31, the edge a fixed-width root search overflows at
@pytest.mark.parametrize("p", [46_337, 46_349])
def test_root_classes_of_primes_near_the_square_root_of_2_31(p):
    # (x^2 - 1)(x - 5): the class of the root -1 is n = p - 1
    poly = IntPolynomial((5, -1, -5, 1))
    assert _classes(_residual(poly, p + 3), p) == [1, 5, p - 1]
    assert _classes(_residual(poly, 4), p) == [1]
    # x (x^2 - 1)(x - 5): P(0) = 0, so the class of 0 is n = p once N >= p
    poly = IntPolynomial((0, 5, -1, -5, 1))
    assert _classes(_residual(poly, p + 3), p) == [1, 5, p - 1, p]
    assert _classes(_residual(poly, p - 1), p) == [1, 5, p - 1]


@pytest.mark.parametrize("p", [2, 3, 9973, 46_337])
def test_divisibility_test_at_the_word_extremes(p):
    k = (2**63 - 1) // p  # k * p is the largest multiple of p below 2^63
    for v in (0, 1, p - 1, p, p + 1, 7 * p, k * p - 1, k * p, k * p + 1,
              (k - 1) * p, 2**63 - 1):
        hits = _hits(*_root_classes(np.array([v], dtype=np.int64), [p]))
        assert hits == ([(p, 1)] if v % p == 0 else []), v
    # the test is exact for every uint64 word, not only for int64 residuals
    top = (2**64 - 1) // p * p
    for v in (top - 1, top, (top + 1) % 2**64, 2**63, 2**64 - 1):
        i, j = primes.word_hits(np.array([v], dtype=np.uint64), [p],
                                sieve._BLOCK_CELLS, roots=True)
        hits = _hits(np.array([p])[j], i + 1)
        assert hits == ([(p, 1)] if v % p == 0 else []), v


def test_object_residuals_are_reduced_by_limbs():
    ps = primes.sieve_primes(60_000)
    # the run of four consecutive primes with the largest product below 2^63
    i = max(i for i in range(len(ps) - 3) if prod(ps[i:i + 4]) < 2**63)
    group, q = ps[i:i + 4], prod(ps[i:i + 4])
    assert 0 < 2**63 - q < 2**63 // 1000  # within 0.1 %
    values = [q - 1, q, q + 1, 2 * q, 2 * q + group[0], 2**63, 2**63 + 1,
              2**64 - 1, 2**64 + group[1], group[2] * (2**70 + 1),
              group[3] * (q - 1), q * q - 1, group[0] * group[3], 1, 0]
    residual = np.array(values, dtype=object)
    # below 2^64 every value is its own word
    words, b = primes._limbs(residual[:8], group[-1])
    assert b == 64 and words.dtype == np.uint64 and words[:, 0].tolist() == values[:8]
    # from 2^64 on, 32-bit limbs, least significant first
    limbs, b = primes._limbs(residual, group[-1])
    assert b == 32 and limbs.shape == (len(values), 4) and limbs.dtype == np.uint64
    assert [sum(d << (32 * t) for t, d in enumerate(row))
            for row in limbs.tolist()] == values
    # 32 bits while k (2^32 - 1) (p - 1) < 2^64 for k limbs, then 16
    assert primes._limbs(residual, 2**30 + 1)[1] == 32
    assert primes._limbs(residual, 2**30 + 2)[1] == 16
    expected = _hits(*root_classes_reference(residual, group))
    assert expected == sorted((p, n) for n, v in enumerate(values, 1)
                              for p in group if v % p == 0)
    assert _hits(*_root_classes(residual, group)) == expected


@pytest.mark.parametrize("text,n", [("x^3+2x+1", 600), ("5,-3,0,1099511627776", 300)])
@pytest.mark.parametrize("cells", [1, 7, 2**20])
def test_cell_budget_does_not_change_the_table(text, n, cells):
    poly = parse_polynomial(text)  # the second peaks above 2^63

    def written(table):
        json_text, csv_text = io.StringIO(), io.StringIO()
        table.write_json(json_text)
        table.write_csv(csv_text)
        return json_text.getvalue(), csv_text.getvalue()

    default = factor_values(poly, n)
    residual = _residual(poly, n)
    search = primes.sieve_primes(DEFAULT_TRIAL_BOUND)
    with mock.patch.object(sieve, "_BLOCK_CELLS", cells):
        assert written(factor_values(poly, n)) == written(default)
        assert (_hits(*_root_classes(residual, search))
                == _hits(*root_classes_reference(residual, search)))


@st.composite
def _root_class_cases(draw):
    """(P, N, p): random P, with an integer root, with p dividing the content,
    with every value negative, or peaking at 2^63 - 1 or 2^63 at n = N."""
    n_max = draw(st.integers(1, 120))
    p = draw(st.sampled_from(primes.sieve_primes(300))  # below and above N
             | st.sampled_from(primes.sieve_primes(30)))
    coeffs = draw(st.lists(st.integers(-60, 60), min_size=2, max_size=4)
                  .filter(lambda c: c[-1] != 0))
    poly = IntPolynomial(tuple(coeffs))
    shape = draw(st.sampled_from(("plain", "root", "content", "negative", "top")))
    if shape == "root":  # P(r) = 0, a zero row when r <= N
        r = draw(st.integers(-3, n_max + 3))
        poly = IntPolynomial(tuple(
            a - r * b for a, b in zip((0, *poly.coeffs), (*poly.coeffs, 0))))
    elif shape == "content":
        poly = IntPolynomial(tuple(p * c for c in poly.coeffs))
    elif shape == "negative":  # -(c_1^2 + ... + c_d^2) x^2 - 1 - c_0^2
        poly = IntPolynomial((-1 - coeffs[0]**2, 0,
                              -sum(c * c for c in coeffs[1:])))
    elif shape == "top":  # x^2 + top - N^2, at most top over n <= N
        top = draw(st.sampled_from((2**63 - 1, 2**63)))
        poly = IntPolynomial((top - n_max**2, 0, 1))
    return poly, n_max, p


@settings(max_examples=150, deadline=None)
@given(case=_root_class_cases())
def test_root_classes_match_brute_force(case):
    poly, n_max, _ = case
    residual = _residual(poly, n_max)
    search = primes.sieve_primes(300)
    expected = [(p, n) for p in search for n in range(1, min(p, n_max) + 1)
                if poly(n) % p == 0]
    # int64 residuals are searched as Python ints too
    for dtype in {residual.dtype, np.dtype(object)}:
        assert _hits(*_root_classes(residual.astype(dtype), search)) == expected


def _record_primality_tests(monkeypatch):
    """The values that factor_values hands to a primality test, through
    its two routes: the batch Miller-Rabin and ``_factor_rough``."""
    calls = []
    batch, factor_rough = primes.is_prime_batch, primes._factor_rough

    def testing(words):
        calls.extend(words.tolist())
        return batch(words)

    def factoring(m, out):
        calls.append(m)
        factor_rough(m, out)

    monkeypatch.setattr(sieve, "is_prime_batch", testing)
    monkeypatch.setattr(sieve, "_factor_rough", factoring)
    return calls


def test_no_primality_test_below_the_square_of_the_trial_bound(monkeypatch, x2p1):
    calls = _record_primality_tests(monkeypatch)
    factor_values(x2p1, 8000)  # every cofactor is at most 8000^2 + 1 < 10^8
    assert calls == []
    _assert_factored(factor_values(parse_polynomial("x^3+2x+1"), 600))
    assert calls and min(calls) >= DEFAULT_TRIAL_BOUND**2


def test_trial_split_splits_exactly_the_composite_cofactors(monkeypatch):
    poly = parse_polynomial("x^3+2x+1")
    tested, splits = [], []
    batch, split = primes.is_prime_batch, primes.trial_split

    def testing(words):
        tested.append(words.tolist())
        return batch(words)

    def splitting(composites, bound, cells):
        least = split(composites, bound, cells)
        splits.append((composites.tolist(), least.tolist()))
        return least

    def per_value(m):
        raise AssertionError(f"per-value route called on {m}")

    monkeypatch.setattr(sieve, "is_prime_batch", testing)
    monkeypatch.setattr(sieve, "trial_split", splitting)
    monkeypatch.setattr(primes, "brent_rho", per_value)
    monkeypatch.setattr(primes, "is_prime", per_value)
    _assert_factored(factor_values(poly, 3000))
    # max P(n) < 2.8e10 < (B + 1)^3: every cofactor >= B^2 is a prime or a
    # product of two, tested once in one batch (672 primes, 161 composites)
    # and never by is_prime or brent_rho
    rough = []
    for n in range(1, 3001):
        factors = {p: e for p, e in sympy.factorint(abs(poly(n))).items()
                   if p > DEFAULT_TRIAL_BOUND}
        if prod(p**e for p, e in factors.items()) >= DEFAULT_TRIAL_BOUND**2:
            rough.append((prod(p**e for p, e in factors.items()), min(factors)))
    assert len(tested) == 1 and sorted(tested[0]) == sorted(m for m, _ in rough)
    assert len(rough) == 833
    # the split receives exactly the composites and returns their least primes
    composites = sorted((m, p) for m, p in rough if not sympy.isprime(m))
    assert len(splits) == 1 and len(composites) == 161
    assert sorted(zip(*splits[0])) == composites


def test_a_square_cofactor_is_one_entry_with_exponent_2(monkeypatch):
    # P(1) = 10007^2, between (B + 1)^2 and (B + 1)^3: the split finds
    # 10007 and the quotient is 10007 again
    monkeypatch.setattr(sieve, "_factor_rough", None)
    poly = IntPolynomial((10007**2 - 1, 1))
    table = factor_values(poly, 4)
    m = table.exponents
    assert m.indptr[1] == 1 and table.primes[m.indices[0]] == 10007
    assert m.data[0] == 2
    for row in table_rows(table):
        assert dict(row.factors) == sympy.factorint(abs(row.value))


@pytest.mark.parametrize("top", [2**63 - 1, 2**63])  # int64 and object residuals
def test_values_at_the_int64_residual_switch(top):
    # x^2 + c at N = 3 peaks at P(3) = top
    poly = IntPolynomial((top - 9, 0, 1))
    table = factor_values(poly, 3)
    assert max(map(abs, table.values)) == top
    for row in table_rows(table):
        assert dict(row.factors) == sympy.factorint(abs(row.value))
        assert [p for p, _ in row.factors] == sorted(p for p, _ in row.factors)
    small = factor_values(parse_polynomial("x^2+1"), 3).exponents
    m = table.exponents
    assert m.shape == (3, len(table.primes)) and m.nnz == len(m.data)
    assert m.indptr.tolist() == np.cumsum(
        [0] + [len(r.factors) for r in table_rows(table)]).tolist()
    # each row's columns ascend strictly and every column is in range
    cols = m.indices.tolist()
    assert all(cols[k] < cols[k + 1] for a, b in zip(m.indptr[:-1], m.indptr[1:])
               for k in range(a, b - 1))
    assert len(cols) == m.nnz and all(0 <= c < m.shape[1] for c in cols)
    assert [a.dtype for a in (m.indptr, m.indices, m.data)] == [
        a.dtype for a in (small.indptr, small.indices, small.data)]
    assert all(type(p) is int for p in table.primes)


@pytest.mark.parametrize("coeffs,n", [
    ((-(2**63 - 10), 0, 1), 3),   # sum |c_i| N^i >= 2^63 but |P(n)| < 2^63
    ((2**62, -(2**62), 1), 2),    # the terms cancel: P(1) = 1, P(2) = 2^62 + 4
    ((5, -3, 0, 2**40), 300),     # P(n) crosses 2^63 at n = 204
])
def test_values_are_exact_on_both_sides_of_the_int64_evaluation(coeffs, n):
    poly = IntPolynomial(coeffs)
    table = factor_values(poly, n)
    values = [poly(k) for k in range(1, n + 1)]
    assert table.values == values
    assert all(type(v) is int for v in table.values)
    for row in table_rows(table, 0, min(n, 3)):
        assert dict(row.factors) == sympy.factorint(abs(row.value))


def test_root_search_stops_at_the_square_root_of_the_values(monkeypatch):
    searched = []
    root_classes = sieve._root_classes

    def counting(residual, ps):
        searched.append(list(ps))
        return root_classes(residual, ps)

    monkeypatch.setattr(sieve, "_root_classes", counting)
    rough = _record_primality_tests(monkeypatch)
    # max P(n) = 250^2 + 1 < 251^2: the primes up to 250 suffice
    _assert_factored(factor_values(parse_polynomial("x^2+1"), 250))
    assert searched == [primes.sieve_primes(250)] and len(searched[0]) == 53
    assert rough == []
    # max P(n) = 600^3 + 1201 > 10^8: every prime up to B is searched
    searched.clear()
    _assert_factored(factor_values(parse_polynomial("x^3+2x+1"), 600))
    assert searched == [primes.sieve_primes(DEFAULT_TRIAL_BOUND)]
    assert len(searched[0]) == 1229
    assert rough and min(rough) >= DEFAULT_TRIAL_BOUND**2
