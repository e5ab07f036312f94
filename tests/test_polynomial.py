import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import classify_reference

from polyrmf.polynomial import (
    MAX_DEGREE,
    IntPolynomial,
    _divisors,
    classify,
    generalized_even_center,
    parse_polynomial,
    pure_power_witness,
    rational_roots,
    shifted_even_check,
)


def test_parse_coefficient_form():
    p = parse_polynomial("1,0,1")
    assert p.coeffs == (1, 0, 1)
    assert p.degree == 2


def test_parse_human_forms():
    assert parse_polynomial("x^2+1").coeffs == (1, 0, 1)
    assert parse_polynomial("x^2 - 6x").coeffs == (0, -6, 1)
    assert parse_polynomial("2x^3+3x^2+x").coeffs == (0, 1, 3, 2)
    assert parse_polynomial("x**2 + 1").coeffs == (1, 0, 1)
    assert parse_polynomial("3*x^2 - 2*x + 7").coeffs == (7, -2, 3)
    assert parse_polynomial("x").coeffs == (0, 1)


def test_parse_rejects_garbage():
    for bad in ["", "x^", "1,0,zero", "y^2", "x^2++1", "5"]:
        with pytest.raises(ValueError):
            parse_polynomial(bad)


def test_parse_bounds_the_degree():
    assert parse_polynomial(f"x^{MAX_DEGREE}+1").degree == MAX_DEGREE
    assert parse_polynomial("1," * MAX_DEGREE + "1").degree == MAX_DEGREE
    started = time.perf_counter()
    for bad in [f"x^{MAX_DEGREE + 1}+1", "x^100000+1", "x^99999999999999",
                "1," * (MAX_DEGREE + 1) + "1"]:
        with pytest.raises(ValueError, match="exceeds the maximum"):
            parse_polynomial(bad)
    assert time.perf_counter() - started < 1.0


@given(a1=st.integers(-10**6, 10**6).filter(bool), a0=st.integers(-10**6, 10**6))
def test_every_linear_polynomial_is_a_pure_power(a1, a0):
    # a1*x + a0 = a1*(x + a0/a1): degree 1 is excluded with the pure powers
    p = IntPolynomial((a0, a1))
    w = pure_power_witness(p)
    assert w is not None and (w.w, w.c) == (a1, Fraction(a0, a1))
    cls = classify(p)
    assert not cls.clt_admissible and not cls.fluct_admissible


def test_constructor_invariants():
    with pytest.raises(ValueError):
        IntPolynomial((3,))  # degree 0
    with pytest.raises(ValueError):
        IntPolynomial((1, 2, 0))  # leading zero


def test_eval_examples():
    assert parse_polynomial("x^2+1")(3) == 10
    assert parse_polynomial("0,-6,1")(2) == -8
    assert parse_polynomial("x^2+x")(1) == 2  # x(x+1) at 1


def test_eval_negative_and_big():
    p = parse_polynomial("x^3+2x+1")
    assert p(-10) == -1019
    assert p(10**6) == 10**18 + 2 * 10**6 + 1


def test_classify_known_cases():
    c = classify(parse_polynomial("0,0,1"))  # x^2
    assert c.is_pure_power
    assert c.pure_power_witness.w == 1
    assert c.pure_power_witness.c == 0
    assert c.is_product_of_linear_factors
    assert not c.clt_admissible

    c = classify(parse_polynomial("x^2+x"))
    assert not c.is_pure_power
    assert [r for r, _ in c.rational_roots] == [Fraction(-1), Fraction(0)]
    assert c.clt_admissible and not c.fluct_admissible

    c = classify(parse_polynomial("0,-6,1"))
    assert c.generalized_even_center == 6
    assert sorted(r for r, _ in c.rational_roots) == [0, 6]

    c = classify(parse_polynomial("x^2+1"))
    assert c.rational_roots == ()
    assert c.clt_admissible and c.fluct_admissible


def test_shifted_even_examples():
    assert shifted_even_check(parse_polynomial("0,-6,1"), 6)
    assert not shifted_even_check(parse_polynomial("0,-6,1"), 4)
    assert shifted_even_check(parse_polynomial("x^2+1"), 0)


def test_pure_power_with_rational_center():
    # 4(x + 1/2)^2 = 4x^2 + 4x + 1
    c = classify(parse_polynomial("1,4,4"))
    assert c.is_pure_power
    assert c.pure_power_witness.w == 4
    assert c.pure_power_witness.c == Fraction(1, 2)


def test_repeated_rational_roots():
    # (2x+1)^2 (x-3) = (4x^2+4x+1)(x-3)
    p = parse_polynomial("-3,-11,-8,4")
    roots = dict(rational_roots(p))
    assert roots == {Fraction(-1, 2): 2, Fraction(3): 1}
    assert classify(p).is_product_of_linear_factors


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _substitute(h: list[int], q: list[int]) -> list[int]:
    """Coefficients of h(q(x)), both lowest degree first."""
    acc = [h[-1]]
    for c in reversed(h[:-1]):
        acc = _mul(acc, q)
        acc[0] += c
    return acc


def _expand_pure_power(w: int, num: int, den: int, d: int) -> IntPolynomial:
    from math import comb

    c = Fraction(num, den)
    coeffs = [w * comb(d, k) * c ** (d - k) for k in range(d + 1)]
    assert all(f.denominator == 1 for f in coeffs)
    return IntPolynomial(tuple(int(f) for f in coeffs))


@given(
    t=st.integers(-5, 5).filter(lambda v: v != 0),
    num=st.integers(-6, 6),
    den=st.integers(1, 4),
    d=st.integers(1, 5),
)
def test_pure_power_round_trip(t, num, den, d):
    w = t * den**d  # makes the expansion integral
    p = _expand_pure_power(w, num, den, d)
    cls = classify(p)
    assert cls.is_pure_power
    assert cls.pure_power_witness.w == w
    assert cls.pure_power_witness.c == Fraction(num, den)


@given(
    factors=st.lists(
        st.tuples(st.integers(1, 5), st.integers(-7, 7)), min_size=2, max_size=4
    )
)
def test_linear_factor_products_round_trip(factors):
    coeffs = [1]
    for a, b in factors:
        coeffs = _mul(coeffs, [b, a])
    p = IntPolynomial(tuple(coeffs))
    cls = classify(p)
    assert cls.is_product_of_linear_factors
    expected: dict[Fraction, int] = {}
    for a, b in factors:
        r = Fraction(-b, a)
        expected[r] = expected.get(r, 0) + 1
    assert dict(cls.rational_roots) == expected


@given(
    g_coeffs=st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    lead=st.integers(1, 4),
    shift=st.integers(-6, 6),
)
@settings(max_examples=50)
def test_generalized_even_center_detection(g_coeffs, lead, shift):
    # build g(x) even with nonzero leading term, then slide it to
    # center beta = 2*shift so all coefficients stay integral
    even = []
    for c in g_coeffs:
        even.extend([c, 0])
    even[-1] = 0
    even.append(lead)  # even degree leading coefficient
    g = IntPolynomial(tuple(even))
    shifted = IntPolynomial(tuple(_substitute(g.coeffs, [-shift, 1])))  # g(x - shift)
    beta = generalized_even_center(shifted)
    assert beta == 2 * shift
    for n in range(-100, 101):
        assert shifted(beta - n) == shifted(n)


def test_odd_degree_has_no_even_center():
    assert generalized_even_center(parse_polynomial("x^3+x")) is None


def test_str_round_trips_through_parser():
    for text in ["x^2+1", "0,-6,1", "2x^3+3x^2+x", "x^3+2x+1"]:
        p = parse_polynomial(text)
        assert parse_polynomial(str(p)).coeffs == p.coeffs
        assert parse_polynomial(p.to_coeff_text()).coeffs == p.coeffs


def test_classify_huge_trailing_coefficient_is_fast():
    # 10^20 = 2^20 * 5^20: divisors come from the factorization, not
    # from trial division up to 10^10
    assert len(_divisors(10**20)) == 441
    assert _divisors(-12) == [1, 2, 3, 4, 6, 12]
    started = time.perf_counter()
    cls = classify(parse_polynomial("100000000000000000000,0,1"))
    assert time.perf_counter() - started < 5.0
    assert cls.rational_roots == () and cls.clt_admissible
    # w*x^d has only the root 0: its 29-digit semiprime w is never factored
    w = (10**14 + 31) * (10**15 + 37)
    cls, elapsed = _timed_classify(IntPolynomial((0, 0, w)))
    assert cls.rational_roots == ((Fraction(0), 2),) and elapsed < 0.5


_nonzero = st.integers(-6, 6).filter(bool)
_factor = st.one_of(
    st.tuples(st.integers(-7, 7), st.integers(1, 5)).map(list),  # b + a*x
    st.tuples(st.integers(-7, 7), st.integers(-7, 7), _nonzero).map(list),
)


@st.composite
def _linear_quadratic_products(draw):
    # factors repeat up to three times; b = 0 in b + a*x gives roots at zero
    coeffs = [draw(_nonzero)]
    for f, e in draw(st.lists(st.tuples(_factor, st.integers(1, 3)),
                              min_size=1, max_size=4)):
        for _ in range(e):
            coeffs = _mul(coeffs, f)
    return coeffs


@st.composite
def _pure_powers(draw):
    num, den, d = draw(st.integers(-6, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    return [int(f) for f in _expand_pure_power(draw(_nonzero) * den**d, num, den, d).coeffs]


@st.composite
def _generalized_even(draw):
    # x*(b*x - a) is symmetric about a/b, and so is h of it
    a, b = draw(st.integers(-6, 6)), draw(st.integers(1, 3))
    h = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)) + [draw(_nonzero)]
    return _substitute(h, [0, -a, b])


@given(coeffs=st.one_of(_linear_quadratic_products(), _pure_powers(),
                        _generalized_even()))
@settings(max_examples=300, deadline=None)
def test_classify_matches_the_composition_and_deflation_oracle(coeffs):
    p = IntPolynomial(tuple(coeffs))
    assert classify(p) == classify_reference(p)


def _timed_classify(p: IntPolynomial):
    started = time.perf_counter()
    cls = classify(p)
    return cls, time.perf_counter() - started


def test_classify_at_max_degree_is_under_a_second():
    # the time MAX_DEGREE's comment states; the ends stay small, so the root
    # candidates are few, and a symmetric P is evaluated at all d+1 points
    h = [(-1) ** k * (k % 7 + 1) for k in range(MAX_DEGREE // 2 + 1)]
    for p, center in ((parse_polynomial(f"x^{MAX_DEGREE}+x+1"), None),
                      (IntPolynomial(tuple(_substitute(h, [0, -3, 1]))), 3)):
        cls, elapsed = _timed_classify(p)  # h(x^2 - 3x) is symmetric about 3
        assert (cls.degree, cls.generalized_even_center) == (MAX_DEGREE, center)
        assert cls.rational_roots == () and cls.clt_admissible and cls.fluct_admissible
        assert elapsed < 1.0
