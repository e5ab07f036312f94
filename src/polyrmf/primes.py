"""Primality and integer factorization primitives.

Deterministic Miller-Rabin with proven witness sets (complete for
n < 3.3e24, which covers every value produced at supported scales),
Brent-cycle Pollard rho for splitting rough cofactors, and a simple
sieve for generating small primes.

Three array forms serve the sieve.  ``word_hits`` tests every (value,
prime) cell of a block with one multiply and one compare: an odd p
divides a word v exactly when v * p^-1 mod 2^64 <= (2^64 - 1) // p
(``word_inverses``), and a value of any size is summed from its limbs
into such a word first.  For the cofactors below 2^40, which have at
most two prime factors, ``is_prime_batch`` runs Miller-Rabin on a whole
uint64 array at once, with the witnesses of the tier of its largest
value, and ``trial_split`` runs the same test prime by prime for each
composite's least prime factor above a bound.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

# Proven-deterministic witness tiers for Miller-Rabin.
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
# Beyond the proven range: fixed extended base set (no known pseudoprime
# survives even the 13-prime tier; values this large never arise at the
# supported scales anyway).
_MR_EXTENDED = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# is_prime_batch's vector loop makes about 150 numpy calls at any size;
# below this many values, is_prime on each is faster (on a 2-core x86-64
# VM: about 0.3 ms for the loop, 10 us per prime value below 2^32 and
# 30 us above for is_prime)
_BATCH_MIN = 24


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit, ascending int64, by a sieve of Eratosthenes."""
    flags = np.ones(max(limit + 1, 2), bool)
    flags[:2] = False
    for p in range(2, isqrt(max(limit, 0)) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, as a list."""
    return prime_array(limit).tolist()


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    """True iff a witnesses compositeness of n = d*2^s + 1 (d odd)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_EXTENDED
    for bound, tier in _MR_TIERS:
        if n < bound:
            bases = tier
            break
    return not any(_mr_witness(a % n, d, s, n) for a in bases if a % n)


def brent_rho(n: int) -> int:
    """A nontrivial factor of composite n via Brent's cycle variant.

    Deterministic: polynomial increments c = 1, 2, ... are tried in order,
    so repeated runs split identically.
    """
    if n % 2 == 0:
        return 2
    r_sq = isqrt(n)
    if r_sq * r_sq == n:
        return r_sq
    for c in range(1, 1000):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int, _out: dict[int, int] | None = None) -> dict[int, int]:
    """Full prime factorization of n >= 1, as {prime: exponent}."""
    out: dict[int, int] = {} if _out is None else _out
    if n <= 1:
        return out
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    _factor_rough(n, out)
    return out


def _factor_rough(n: int, out: dict[int, int]) -> None:
    """Factor n with no small prime factors into ``out`` (recursive rho)."""
    if n <= 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    g = brent_rho(n)
    _factor_rough(g, out)
    _factor_rough(n // g, out)


def word_inverses(odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p^-1 mod 2^64 and (2^64 - 1) // p for the odd uint64 p.

    p divides a uint64 word v exactly when v * p^-1 mod 2^64 <=
    (2^64 - 1) // p (Granlund and Montgomery, PLDI 1994): the
    multiplication permutes the words and maps the multiples of p onto
    0..(2^64 - 1) // p, so every other word lands above them."""
    inv = odd.copy()  # p * p = 1 mod 8, and each Newton step doubles the bits
    for _ in range(5):
        inv *= 2 - odd * inv
    return inv, np.uint64(2**64 - 1) // odd


def _limbs(values: np.ndarray, top: int) -> tuple[np.ndarray, int]:
    """The nonnegative ``values`` as uint64 limbs, a row per value, least
    significant first, and their width b: 64 when all are below 2^64, else
    the widest of 32, 16 and 8 for which k limbs times residues mod a prime
    <= ``top`` sum below k (2^b - 1) (top - 1) < 2^64."""
    big = int(values.max(initial=0))
    if big < 2**64:
        return values.astype(np.uint64)[:, None], 64
    for b in (32, 16, 8):
        k = -(-big.bit_length() // b)
        if k * (2**b - 1) * (top - 1) < 2**64:
            digits = b"".join(v.to_bytes(k * b // 8, "little") for v in values.tolist())
            limbs = np.frombuffer(digits, f"<u{b // 8}").reshape(-1, k)
            return limbs.astype(np.uint64), b
    raise ValueError(f"values of {big.bit_length()} bits are too wide for a "
                     f"word sum modulo primes up to {top}")


def word_hits(values: np.ndarray, primes: list[int] | np.ndarray, cells: int,
              *, roots: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The cells (i, j) with primes[j] | values[i], as int64 arrays, for
    nonnegative ``values`` (words, or Python ints as dtype ``object``) and
    ascending primes below 2^32; with ``roots``, only those with i < p, the
    residues n = i + 1 <= p of a root search.  Blocks of at most ``cells``
    cells, or of one row and its primes, take the test of ``word_inverses``
    (2 divides v exactly when v 2^63 = 0 mod 2^64).  A value in b-bit limbs
    l_t (``_limbs``) has the residue mod p of W = sum_t l_t (2^(b t) mod p)
    < 2^64, and W p^-1 = sum_t l_t (2^(b t) p^-1) mod 2^64."""
    ps = np.asarray(primes, np.int64)
    top = int(ps.max(initial=0))
    limbs, b = _limbs(values, top)
    inv, limit = word_inverses(ps.astype(np.uint64))
    if top and ps[0] == 2:
        inv[0], limit[0] = 2**63, 0
    scaled, weight = [inv], np.ones(len(ps), np.uint64)
    for _ in range(1, limbs.shape[1]):
        weight = (weight << np.uint64(b)) % ps.astype(np.uint64)
        scaled.append(weight * inv)
    found = [(np.zeros(0, np.int64),) * 2]
    stop = min(len(limbs), top) if roots or not top else len(limbs)  # top 0: no primes
    size = max(min(cells, stop * len(ps)), len(ps))
    product, divides = np.empty(size, np.uint64), np.empty(size, bool)
    lo = 0
    while lo < stop:
        j = int(np.searchsorted(ps, lo, side="right")) if roots else 0
        k = len(ps) - j
        hi = min(stop, lo + max(1, cells // k))
        # one limb column at a time broadcasts along the primes
        block = product[:(hi - lo) * k].reshape(hi - lo, k)
        np.multiply(limbs[lo:hi, :1], scaled[0][j:], out=block)
        for t in range(1, len(scaled)):
            block += limbs[lo:hi, t:t + 1] * scaled[t][j:]
        mask = divides[:block.size].reshape(block.shape)
        np.less_equal(block, limit[j:], out=mask)
        i, col = np.divmod(np.flatnonzero(mask), k)
        i, col = i + lo, col + j
        if roots:  # a prime below hi is searched up to n = p only
            inside = i < ps[col]
            i, col = i[inside], col[inside]
        found.append((i, col))
        lo = hi
    return tuple(map(np.concatenate, zip(*found)))


def _mulmod(a: np.ndarray, b: np.ndarray, n: np.ndarray, top: int) -> np.ndarray:
    """a * b mod n for uint64 a, b < n <= top < 2^40, exact: above 2^32,
    b is split into 20-bit halves, so no product or sum reaches 2^61."""
    if top < 2**32:
        return a * b % n
    high = a * (b >> 20) % n
    high <<= 20
    high += a * (b & 0xFFFFF)
    high %= n
    return high


def is_prime_batch(n: np.ndarray) -> np.ndarray:
    """``is_prime`` of each uint64 n < 2^40, as a bool array.

    The odd n > 1 run Miller-Rabin together, every witness of the tier
    of the largest n at once, so the result is exact for each of them; a
    witness that n divides is skipped, as ``is_prime`` skips it.  Fewer
    than ``_BATCH_MIN`` of them go to ``is_prime`` one at a time."""
    n = np.asarray(n, np.uint64)
    prime = n == 2
    odd = np.flatnonzero((n & 1 == 1) & (n > 1))
    m = n[odd]
    top = int(m.max(initial=0))
    if top >= 2**40:
        raise ValueError("is_prime_batch takes values below 2^40")
    if len(m) < _BATCH_MIN:
        prime[odd] = [is_prime(v) for v in m.tolist()]
        return prime
    bases = np.array(next(t for bound, t in _MR_TIERS if top < bound),
                     np.uint64)[:, None]
    minus = m - 1  # = d 2^s with d odd
    s = np.bitwise_count((minus & (~minus + 1)) - 1).astype(np.uint64)
    d = minus >> s
    # x = a^d mod n, left to right over the bits of d; each witness is
    # below 2^21, so x * a stays below 2^61
    shifts = np.arange(int(d.max()).bit_length(), dtype=np.uint64)
    bits = (d >> shifts[:, None]) & 1 == 1
    x = np.ones((len(bases), len(m)), np.uint64)
    for bit in bits[::-1]:
        x = _mulmod(x, x, m, top)
        x *= np.where(bit, bases, 1)
        x %= m
    passed = (x == 1) | (x == minus) | (bases % m == 0)
    # then x^(2^r) for r < s, squaring only the columns whose s is larger
    column = np.arange(len(m))
    for r in range(1, int(s.max())):
        more = s > r
        x, m, minus, s, column = (x[:, more], m[more], minus[more], s[more],
                                  column[more])
        x = _mulmod(x, x, m, top)
        passed[:, column] |= x == minus
    prime[odd] = passed.all(axis=0)
    return prime


def trial_split(composites: np.ndarray, bound: int, cells: int) -> np.ndarray:
    """The least prime factor of each uint64 composite among the primes in
    (max(bound, 2), isqrt(max composites)], 0 where it has none.

    The primes are tried in ascending blocks of at most ``cells`` cells
    (prime, composite), or of one prime when more composites are left.
    A composite is done at its first factor: its word becomes 1, which no
    prime divides, and the done words are dropped once they are a
    quarter of those held."""
    ps = prime_array(isqrt(int(composites.max(initial=0))))
    ps = ps[ps > max(bound, 2)].astype(np.uint64)
    inv, limit = word_inverses(ps)
    least = np.zeros(len(composites), np.uint64)
    held, words = np.arange(len(composites)), composites.copy()
    product = np.empty(max(min(cells, len(held) * len(ps)), len(held)), np.uint64)
    divides = np.empty(len(product), bool)
    lo = done = 0
    while done < len(held) and lo < len(ps):
        k = min(len(ps) - lo, max(1, cells // len(held)))
        # one row per prime, so each numpy loop runs along the composites
        block = product[:k * len(held)].reshape(k, len(held))
        np.multiply(inv[lo:lo + k, None], words, out=block)
        mask = divides[:block.size].reshape(block.shape)
        np.less_equal(block, limit[lo:lo + k, None], out=mask)
        row, col = np.divmod(np.flatnonzero(mask), len(held))
        # the hits run prime by prime, so a composite's first is its least
        col, first = np.unique(col, return_index=True)
        least[held[col]] = ps[lo + row[first]]
        words[col] = 1
        done += len(col)
        if 4 * done > len(held):
            held, words, done = held[words != 1], words[words != 1], 0
        lo += k
    return least
