import io
import json
import random
from fractions import Fraction
from math import prod
from unittest import mock

import numpy as np
import pytest
import sympy
from oracles import prime_to_indices, table_row, table_rows
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


# p^2 + p either side of 2^31, the edge a fixed-width root search overflows at
@pytest.mark.parametrize("p", [46_337, 46_349])
def test_root_classes_of_primes_near_the_square_root_of_2_31(p):
    # (x^2 - 1)(x - 5): the class of the root -1 is n = p - 1
    poly = IntPolynomial((5, -1, -5, 1))
    assert _root_classes(_residual(poly, p + 3), p).tolist() == [1, 5, p - 1]
    assert _root_classes(_residual(poly, 4), p).tolist() == [1]
    # x (x^2 - 1)(x - 5): P(0) = 0, so the class of 0 is n = p once N >= p
    poly = IntPolynomial((0, 5, -1, -5, 1))
    assert _root_classes(_residual(poly, p + 3), p).tolist() == [1, 5, p - 1, p]
    assert _root_classes(_residual(poly, p - 1), p).tolist() == [1, 5, p - 1]


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
    poly, n_max, p = case
    residual = _residual(poly, n_max)
    expected = [n for n in range(1, min(p, n_max) + 1) if poly(n) % p == 0]
    assert _root_classes(residual, p).tolist() == expected


def test_no_primality_test_below_the_square_of_the_trial_bound(monkeypatch, x2p1):
    # _factor_rough is the sieve's only route to a primality test
    calls = []
    factor_rough = primes._factor_rough

    def recording(m, out):
        calls.append(m)
        factor_rough(m, out)

    monkeypatch.setattr(sieve, "_factor_rough", recording)
    factor_values(x2p1, 8000)  # every cofactor is at most 8000^2 + 1 < 10^8
    assert calls == []
    _assert_factored(factor_values(parse_polynomial("x^3+2x+1"), 600))
    assert calls and min(calls) >= DEFAULT_TRIAL_BOUND**2


def test_brent_rho_splits_exactly_the_composite_cofactors(monkeypatch):
    poly = parse_polynomial("x^3+2x+1")
    calls = []
    brent_rho = primes.brent_rho

    def recording(m):
        g = brent_rho(m)
        calls.append((m, g))
        return g

    is_prime = primes.is_prime
    prime_tests = []

    def counting(m):
        prime_tests.append(m)
        return is_prime(m)

    monkeypatch.setattr(primes, "brent_rho", recording)
    monkeypatch.setattr(primes, "is_prime", counting)
    factor_values(poly, 3000)
    # every composite cofactor here is a product of two primes, so rho is
    # called once per cofactor; 161 calls and these splits as before the
    # B^2 rule
    expected = []
    for n in range(1, 3001):
        rough = prod(p**e for p, e in sympy.factorint(abs(poly(n))).items()
                     if p > DEFAULT_TRIAL_BOUND)
        if rough > 1 and not sympy.isprime(rough):
            expected.append(rough)
    assert sorted(m for m, _ in calls) == sorted(expected)
    assert len(calls) == 161
    assert sum(g for _, g in calls) == 5_916_863
    assert all(1 < g < m and m % g == 0 for m, g in calls)
    # each cofactor >= B^2 is tested once (672 primes, 161 composites) and
    # so is each of the 322 factors rho splits off: 833 + 322 tests
    assert len(prime_tests) == 1_155


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
    assert m.shape == (3, len(table.primes)) and m.has_sorted_indices
    assert m.indptr.tolist() == np.cumsum(
        [0] + [len(r.factors) for r in table_rows(table)]).tolist()
    assert [a.dtype for a in (m.indptr, m.indices, m.data)] == [
        a.dtype for a in (small.indptr, small.indices, small.data)]
    assert all(type(p) is int for p in table.primes)


def test_root_search_stops_at_the_square_root_of_the_values(monkeypatch):
    searched = []
    root_classes = sieve._root_classes

    def counting(residual, p):
        searched.append(p)
        return root_classes(residual, p)

    rough = []
    factor_rough = primes._factor_rough

    def recording(m, out):
        rough.append(m)
        factor_rough(m, out)

    monkeypatch.setattr(sieve, "_root_classes", counting)
    monkeypatch.setattr(sieve, "_factor_rough", recording)
    # max P(n) = 250^2 + 1 < 251^2: the primes up to 250 suffice
    _assert_factored(factor_values(parse_polynomial("x^2+1"), 250))
    assert searched == primes.sieve_primes(250) and len(searched) == 53
    assert rough == []
    # max P(n) = 600^3 + 1201 > 10^8: every prime up to B is searched
    searched.clear()
    _assert_factored(factor_values(parse_polynomial("x^3+2x+1"), 600))
    assert searched == primes.sieve_primes(DEFAULT_TRIAL_BOUND)
    assert len(searched) == 1229
    assert rough and min(rough) >= DEFAULT_TRIAL_BOUND**2
