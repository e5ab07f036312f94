"""Exact integer polynomials and their admissibility classification.

Everything here is exact: evaluation uses arbitrary-precision integers,
and all structural checks (pure-power form, rational roots, symmetry
centers) are decided in rational arithmetic with no floating point.

The three structural questions answered by :func:`classify` are

* is P(x) = w*(x+c)^d for an integer w and rational c?  (the degenerate
  form for which normalized partial sums of f(P(n)) collapse),
* does P factor into linear factors over the rationals?
* is there a rational beta with P(beta - x) = P(x)?  ("generalized even"
  polynomials, which carry an enlarged family of trivial product
  coincidences P(x) = P(beta - x)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import ConfigError
from .primes import factorize

# classify takes under 0.05 s at degree 256 and, when P is generalized even,
# ~30 s at 3000; large end coefficients add root candidates without bound
MAX_DEGREE = 256


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with exact integer coefficients.

    ``coeffs`` is ordered lowest degree first, so ``coeffs[k]`` multiplies
    x^k.  The leading coefficient must be nonzero and the degree at least 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) < 2:
            raise ValueError("polynomial degree must be at least 1")
        if self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Exact value at an int, a Fraction or an integer array."""
        return _horner(self.coeffs, x)

    def to_coeff_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                x = "x" if k == 1 else f"x^{k}"
                body = x if mag == 1 else f"{mag}{x}"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


_TERM_RE = re.compile(r"^([+-]?)(\d+)?(?:\*)?(x(?:\^(\d+))?)?$")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse either coefficient form "c0,c1,...,cd" or human form "x^2+1".

    The coefficient form lists exact integers lowest degree first.  The
    human form accepts terms like ``2x^3``, ``-x``, ``+5`` with optional
    ``*`` between coefficient and variable; ``**`` is accepted for ``^``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if "," in s:
        _check_degree(s.count(","))
        try:
            coeffs = [int(tok.strip()) for tok in s.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad coefficient list {text!r}") from exc
        return IntPolynomial(tuple(coeffs))

    compact = s.replace("**", "^").replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"cannot parse polynomial {text!r}")
    powers: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if m.group(3) is None:
            power = 0
        elif m.group(4) is not None:
            power = int(m.group(4))
        else:
            power = 1
        powers[power] = powers.get(power, 0) + sign * coeff
    deg = max(powers)
    _check_degree(deg)
    coeffs = [powers.get(k, 0) for k in range(deg + 1)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(tuple(coeffs))


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the maximum of {MAX_DEGREE}")


@dataclass(frozen=True)
class PurePowerWitness:
    w: int
    c: Fraction


@dataclass(frozen=True)
class PolynomialClass:
    """Structural classification of an integer polynomial.

    ``rational_roots`` holds (root, multiplicity) pairs sorted by root;
    ``is_product_of_linear_factors`` is true when the multiplicities sum
    to the degree.  ``clt_admissible`` excludes the pure-power form
    w*(x+c)^d; ``fluct_admissible`` excludes splitting into rational
    linear factors.  Degree 1 is both, as a1*x + a0 = a1*(x + a0/a1).
    """

    degree: int
    is_pure_power: bool
    pure_power_witness: PurePowerWitness | None
    rational_roots: tuple[tuple[Fraction, int], ...]
    is_product_of_linear_factors: bool
    generalized_even_center: Fraction | None
    clt_admissible: bool
    fluct_admissible: bool


def _horner(coeffs, x):
    """Exact value of the polynomial with ``coeffs`` (lowest first) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def shifted_even_check(p: IntPolynomial, beta: Fraction | int) -> bool:
    """True iff P(beta - x) = P(x) identically, exactly: the difference has
    degree at most d, so its zeros at x = 0..d make it vanish.  An integral
    beta stays an int, which evaluates ten times faster than a Fraction."""
    beta = Fraction(beta)
    beta = beta.numerator if beta.denominator == 1 else beta
    return all(p(beta - j) == p(j) for j in range(p.degree + 1))


def pure_power_witness(p: IntPolynomial) -> PurePowerWitness | None:
    """Witness (w, c) with P(x) = w*(x+c)^d, if one exists.

    Matching leading coefficients forces w = coeffs[d] (an integer), and
    the x^(d-1) coefficient then forces c = coeffs[d-1] / (d*w); the single
    candidate is confirmed by exact expansion.
    """
    d = p.degree
    w = p.coeffs[d]
    c = Fraction(p.coeffs[d - 1], d * w)
    for k in range(d + 1):
        if Fraction(p.coeffs[k]) != w * comb(d, k) * c ** (d - k):
            return None
    return PurePowerWitness(w=w, c=c)


def require_not_pure_power(p: IntPolynomial) -> None:
    """ConfigError(field="poly") when P(x) = w*(x+c)^d, the form where the
    normalized sums and the off-diagonal energy asymptotics degenerate."""
    w = pure_power_witness(p)
    if w is not None:
        raise ConfigError(
            f"polynomial {p} is the excluded pure power w*(x+c)^d "
            f"(w={w.w}, c={w.c})", field="poly")


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, built from its prime factorization."""
    out = [1]
    for p, e in factorize(abs(n)).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def rational_roots(p: IntPolynomial) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, via the rational root theorem.

    The root 0 has the index of the lowest nonzero coefficient a_low as its
    multiplicity; the other candidates are +-num/den with num | a_low and
    den | the leading coefficient.  In characteristic 0 a multiplicity is
    the number of successive derivatives of P that vanish at the root.
    """
    low = next(k for k, c in enumerate(p.coeffs) if c)
    roots = [(Fraction(0), low)] if low else []
    if low == p.degree:  # w*x^d: no divisors of w to factor
        return roots
    candidates = {Fraction(sign * num, den)
                  for num in _divisors(p.coeffs[low])
                  for den in _divisors(p.coeffs[-1]) if gcd(num, den) == 1
                  for sign in (1, -1)}
    for cand in sorted(candidates):
        if sum(m for _, m in roots) == p.degree:
            break
        derivative, mult = p.coeffs[low:], 0
        while _horner(derivative, cand) == 0:
            derivative = [k * c for k, c in enumerate(derivative)][1:]
            mult += 1
        if mult:
            roots.append((cand, mult))
    return sorted(roots)


def generalized_even_center(p: IntPolynomial) -> Fraction | None:
    """The unique rational beta with P(beta - x) = P(x), when it exists.

    Odd degrees admit no such symmetry (the leading term flips sign); for
    even degree the x^(d-1) coefficient forces beta = -2*a_{d-1}/(d*a_d).
    """
    d = p.degree
    if d % 2 == 1:
        return None
    beta = Fraction(-2 * p.coeffs[d - 1], d * p.coeffs[d])
    return beta if shifted_even_check(p, beta) else None


def classify(p: IntPolynomial) -> PolynomialClass:
    witness = pure_power_witness(p)
    roots = tuple(rational_roots(p))
    total_mult = sum(m for _, m in roots)
    is_linear_product = total_mult == p.degree
    center = generalized_even_center(p)
    return PolynomialClass(
        degree=p.degree,
        is_pure_power=witness is not None,
        pure_power_witness=witness,
        rational_roots=roots,
        is_product_of_linear_factors=is_linear_product,
        generalized_even_center=center,
        clt_admissible=witness is None,
        fluct_admissible=not is_linear_product,
    )
