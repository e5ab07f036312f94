import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrmf import primes
from polyrmf.primes import (_mulmod, brent_rho, factorize, is_prime, is_prime_batch,
                            sieve_primes, trial_split, word_hits)
from polyrmf.sieve import _BLOCK_CELLS


def test_sieve_matches_sympy():
    assert sieve_primes(1000) == list(sympy.primerange(2, 1001))
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]


def test_is_prime_small_exhaustive():
    for n in range(-3, 3000):
        assert is_prime(n) == sympy.isprime(n), n


@given(st.integers(2, 2**62))
@settings(max_examples=300)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_known_edge_cases():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime((2**31 - 1) ** 2)
    assert is_prime(10**18 + 9)


def test_brent_rho_splits_semiprimes():
    for p, q in [(10007, 10009), (1_000_003, 1_000_033), (99991, 99991)]:
        n = p * q
        g = brent_rho(n)
        assert g in (p, q) or n % g == 0 and 1 < g < n


@given(st.integers(1, 10**9))
@settings(max_examples=200)
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert sympy.isprime(p)
        prod *= p**e
    assert prod == n


def test_factorize_large_semiprime():
    n = (10**9 + 7) * (10**9 + 9)
    fac = factorize(n)
    assert fac == {10**9 + 7: 1, 10**9 + 9: 1}


@st.composite
def _mulmod_cases(draw):
    """(a, b, n) with a, b < n < 2^40, n often at the top of the range or
    next to 2^32, where _mulmod stops multiplying directly."""
    n = draw(st.integers(1, 2**40 - 1) | st.integers(2**40 - 2**20, 2**40 - 1)
             | st.integers(2**32 - 9, 2**32 + 9) | st.integers(1, 2**32 - 1))
    ends = st.integers(0, n - 1) | st.sampled_from((0, n - 1, n // 2))
    return draw(ends), draw(ends), n


@given(st.lists(_mulmod_cases(), min_size=1, max_size=8))
@settings(max_examples=300)
def test_mulmod_matches_python_ints(cases):
    a, b, n = (np.array(column, np.uint64) for column in zip(*cases))
    expected = [x * y % m for x, y, m in cases]
    top = int(n.max())
    assert _mulmod(a, b, n, 2**40 - 1).tolist() == expected  # the 20-bit split
    assert _mulmod(a, b, n, top).tolist() == expected


@pytest.fixture(params=[0, primes._BATCH_MIN])
def batch_min(request, monkeypatch):
    """Runs a test with every batch on the vector path, then with the
    short ones on is_prime."""
    monkeypatch.setattr(primes, "_BATCH_MIN", request.param)


def _batch_agrees(values):
    got = is_prime_batch(np.array(values, np.uint64)).tolist()
    assert got == [is_prime(v) for v in values]
    return got


@pytest.mark.parametrize("lo,hi", [(0, 20_000), (2**32 - 6001, 2**32 + 6001),
                                   (2**40 - 20_001, 2**40)])
def test_batch_miller_rabin_matches_is_prime_on_a_window(lo, hi, batch_min):
    _batch_agrees(list(range(lo | 1, hi, 2)))  # the odd values
    if lo == 0:
        _batch_agrees(list(range(lo, hi)))  # and 0, 1, 2 and the even ones


def test_batch_miller_rabin_refutes_pseudoprimes_and_carmichael_numbers(batch_min):
    # strong pseudoprimes to every base of the tier below them, each alone
    # (its own tier) and in one batch (the top tier)
    pseudoprimes = [2047, 1373653, 9080191, 25326001, 3215031751, 4759123141]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601]
    for n in pseudoprimes + carmichael:
        assert _batch_agrees([n]) == [False]
    assert not any(_batch_agrees(pseudoprimes + carmichael))
    # 10007^2, p q either side of (B + 1)^3 for B = 10^4, and the largest
    # semiprimes, prime square and primes below 2^40
    cube = 10_001**3
    q = sympy.prevprime(cube // 10_007)
    near = [10_007**2, 10_007 * q, 10_007 * sympy.nextprime(q),
            sympy.prevprime(2**20)**2]
    assert 10_007 * q < cube < 10_007 * sympy.nextprime(q) < 2**40
    semiprimes = [n for n in range(2**40 - 1, 2**40 - 400, -1)
                  if sum(sympy.factorint(n).values()) == 2][:5]
    assert len(semiprimes) == 5
    assert not any(_batch_agrees(near + semiprimes))
    top_primes = [sympy.prevprime(2**40), sympy.prevprime(sympy.prevprime(2**40))]
    assert _batch_agrees(top_primes + near[1:2] + [3, 13, 23, 1662803]) == [
        True, True, False, True, True, True, True]


def test_batch_miller_rabin_refuses_values_from_2_40(batch_min):
    with pytest.raises(ValueError):
        is_prime_batch(np.array([3, 2**40 + 15], np.uint64))


@pytest.mark.parametrize("cells", [1, 7, 2**17])
def test_trial_split_finds_the_least_factor_above_the_bound(cells):
    bound = 10_000
    ps = [p for p in sieve_primes(40_000) if p > bound]
    rng = np.random.default_rng(5)
    pairs = [(int(a), int(b)) for a, b in rng.choice(ps, (200, 2))]
    composites = [a * b for a, b in pairs] + [10_007**2, 39_989 * 39_989]
    least = trial_split(np.array(composites, np.uint64), bound, cells)
    assert least.tolist() == [min(sympy.factorint(c)) for c in composites]
    # a prime has no factor up to its square root, 3 * 5 and 3 * 10009 none
    # above the bound; above 2, 3 * 5 splits at 3
    others = np.array([10_007, 3 * 5, 10_009 * 3], np.uint64)
    assert trial_split(others, bound, cells).tolist() == [0, 0, 0]
    assert trial_split(others[1:2], 2, cells).tolist() == [3]


# the three largest primes below (B + 1)^2 for the sieve's bound B = 10^4,
# the largest cofactors that the lonely check tests
_BELOW_SQUARE = [q for q in range(10_001**2 - 1, 10_001**2 - 200, -1)
                 if is_prime(q)][:3]


@st.composite
def _word_hit_cases(draw):
    """(values, primes): int64 words, or Python ints below about 2^1500
    with the limb edges 2^(32k) +- 1, 2^63, 2^64 + p and p (2^70 + 1), and
    ascending primes: 2, the odd primes up to 10^4, often small ones, and
    those just below (B + 1)^2; multiples of the primes come up often."""
    ps = sorted(draw(st.sets(st.sampled_from(sieve_primes(40))
                             | st.sampled_from(sieve_primes(10_000))
                             | st.sampled_from(_BELOW_SQUARE),
                             min_size=1, max_size=12)))
    p = st.sampled_from(ps)
    if draw(st.booleans()):
        values = st.integers(0, 2**63 - 1) | st.builds(
            lambda p, m: p * m, p, st.integers(0, (2**63 - 1) // ps[-1]))
        return np.array(draw(st.lists(values, min_size=1, max_size=30)), np.int64), ps
    edges = [2**63] + [2**(32 * k) + d for k in range(1, 47) for d in (-1, 1)]
    values = (st.integers(0, 2**1500) | st.sampled_from(edges)
              | st.builds(lambda p: 2**64 + p, p)
              | st.builds(lambda p: p * (2**70 + 1), p)
              | st.builds(lambda p, m: p * m, p, st.integers(0, 2**1470)))
    return np.array(draw(st.lists(values, min_size=1, max_size=30)), object), ps


@settings(max_examples=300, deadline=None)
@given(case=_word_hit_cases(), roots=st.booleans(),
       cells=st.sampled_from([1, 7, _BLOCK_CELLS]))
def test_word_hits_match_remainders(case, roots, cells):
    values, ps = case
    i, j = word_hits(values, ps, cells, roots=roots)
    assert i.dtype == j.dtype == np.int64
    # with roots, row i is tested against the primes p > i alone
    assert sorted(zip(i.tolist(), j.tolist())) == [
        (r, c) for r, v in enumerate(values.tolist()) for c, p in enumerate(ps)
        if v % p == 0 and (r < p or not roots)]
