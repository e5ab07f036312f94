"""Factorization tables for polynomial values P(1..N).

Rather than factoring each |P(n)| independently, small primes are removed
with a root sieve: for each prime p up to B = min(``DEFAULT_TRIAL_BOUND``,
isqrt(max|P(n)|)), the root classes of P mod p are found once and p is
divided out of every P(n) with n in a root class.  Since P(n) = P(n mod p)
(mod p), the classes are read off the values already held: they are the
n <= min(p, N) with p | P(n), one remainder per residue.  One search
finds them for every prime at once, with one multiply and one compare
per cell (n, p) with n <= min(p, N): an odd p divides a word v exactly
when v * p^-1 mod 2^64 <= (2^64 - 1) // p.  It is ``word_hits`` over
blocks of ``_BLOCK_CELLS`` cells and the first min(N, B) rows; a
residual of 2^64 or more is split into 32-bit limbs.

The evaluation, the root search and the division form one stage,
``sieve_small_primes``, over the x of any range of positive step: row y
holds P(start + step y), an integer polynomial in y, so its roots mod p
are read off its first min(p, len) rows in the same way.
``factor_values`` runs it over 1..N and then finishes the cofactors;
``energy`` runs it over a progression and reads its lonely values off
the hits and cofactors.

The division runs in numpy over the hits alone: the root classes expand
into the indices n = r (mod p), p is peeled off each hit's value while it
divides (``//`` and ``%`` over the hits still live), and each residual is
divided once by its p^e (``np.floor_divide.at``).  The residuals are
int64 when max|P(n)| < 2^63 and Python ints (dtype ``object``) otherwise;
the same expressions serve both.  A cofactor m left after the division
has no prime factor <= B, so 1 < m < (B+1)^2 is prime and is taken as it
is; this covers every cofactor once B = isqrt(max|P(n)|).  Below
(B+1)^3, m is a prime or a product of two primes > B.  When B >= 2 and
the residuals are int64, the m in [(B+1)^2, min((B+1)^3, 2^40)) are
tested together by ``is_prime_batch``, and ``trial_split`` finds the
smaller prime of each composite one with the root search's
multiply-compare test; m = q^2 is one entry with exponent 2.  Only the
other cofactors, Python ints or m >= (B+1)^3 (where three primes fit) or
2^40, go to ``_factor_rough``, which tests each once with deterministic
Miller-Rabin and splits the composite ones with Brent rho.

The table is the signed ``values`` P(n) and the exponents of |P(n)| over
the ascending ``primes`` as compressed sparse rows, three numpy arrays;
the per-prime columns and largest primes are read off them.  Rows with
|P(n)| <= 1 are empty, with largest prime 0; they belong to no per-prime
group downstream.

Both writers, CSV and the JSON rows that ``dump_json`` places in a
document, share one block renderer.  For each block of ``_RENDER_ROWS``
rows it fills a numpy object array with text segments: the format's
literals, str() of each n and value, and the texts of the primes and
exponents, each built once per table, placed by index arithmetic on the
row pointers.  One ``"".join`` writes the block.  The bytes are those of
``csv.writer`` and of ``json.dump(doc, indent=2)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import isqrt, log
from typing import IO

import numpy as np

from .errors import BudgetError, ConfigError
from .polynomial import IntPolynomial
from .primes import (_factor_rough, is_prime_batch, sieve_primes, trial_split,
                     word_hits)

# the root sieve's largest prime; the table is the same for any bound
DEFAULT_TRIAL_BOUND = 10_000
# the cells (n, p) that the root search tests at once: 1 MiB of products
_BLOCK_CELLS = 2**17
# the rows a writer renders at once
_RENDER_ROWS = 4096
# np.log and math.log differ by at most one float step for n <= 2e6 on
# numpy 2.4.6; lpf_density recomputes every threshold this close to its prime
_NEAR_STEPS = 64
# largest N that factor_values accepts unless fluct passes --factor-budget
DEFAULT_FACTOR_BUDGET = 2_000_000


def check_factor_budget(n_max: int, budget: int = DEFAULT_FACTOR_BUDGET) -> None:
    """ConfigError(field="n") below N = 1, BudgetError when more than
    ``budget`` values would be factored."""
    if n_max < 1:
        raise ConfigError("N must be >= 1", field="n")
    if n_max > budget:
        raise BudgetError(f"{n_max} values exceed the factorization "
                          f"budget of {budget} values")


def check_grid(grid: list[int]) -> None:
    """ConfigError(field="grid") unless the N values ascend strictly from 1."""
    if not grid or grid[0] < 1 or list(grid) != sorted(set(grid)):
        raise ConfigError("grid must be strictly ascending values >= 1",
                          field="grid")


@dataclass(frozen=True, eq=False)
class Compressed:
    """A sparse integer matrix as compressed rows: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` in the ascending columns ``indices``
    of the same slice."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    nnz: int


def _compress(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
              shape: tuple[int, int]) -> Compressed:
    """The entries (rows[k], cols[k], data[k]), given sorted by row and
    then by column, as compressed rows of the given shape."""
    counts = np.bincount(rows, minlength=shape[0])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return Compressed(indptr, cols, data, shape, len(data))


@dataclass(eq=False)
class FactorTable:
    """Complete factorizations of P(n) for n = 1..N.

    Row n-1 of the N x len(primes) ``exponents`` holds the exponents of
    |P(n)|, its columns in ascending prime order; ``primes`` are Python
    ints, so primes >= 2^64 fit.
    """

    polynomial: IntPolynomial
    N: int
    values: list[int]
    primes: list[int]
    exponents: Compressed

    @cached_property
    def by_prime(self) -> Compressed:
        """``exponents`` transposed: row j holds the n-1 with primes[j] | P(n)."""
        m = self.exponents
        rows = np.repeat(np.arange(self.N), np.diff(m.indptr))
        # a stable sort keeps n ascending: one pass per 16 bits of the
        # column, least significant first, as numpy sorts 16-bit keys by
        # counting, in time linear in the entries
        order = np.arange(m.nnz)
        for shift in range(0, max(len(self.primes) - 1, 1).bit_length(), 16):
            digit = (m.indices[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
        return _compress(m.indices[order], rows[order], m.data[order],
                         m.shape[::-1])

    def _last_columns(self) -> np.ndarray:
        """Each row's last column, the column of P+(P(n)), and len(primes)
        for an empty row, whose largest prime reads 0."""
        ptr = self.exponents.indptr
        cols = np.full(self.N, len(self.primes))
        full = ptr[1:] > ptr[:-1]
        cols[full] = self.exponents.indices[ptr[1:][full] - 1]
        return cols

    def write_csv(self, fh: IO[str]) -> None:
        """Columns: n, value, factorization "p1^e1*p2^e2*...", largest_prime,
        each line ended by \\r\\n as ``csv.writer`` ends it.

        The factorization string is "1" for |value| <= 1.
        """
        fh.write("n,value,factorization,largest_prime\r\n")
        self._render(fh, _RowText(first="", mid=",", open=",", sep="*",
                                  power="^{}", close=",", empty=",1,",
                                  next="\r\n", last="\r\n"))

    def write_json(self, fh: IO[str]) -> None:
        """The table as indent-2 JSON: polynomial, N and one object per row
        (n, value as a decimal string, [prime, exponent] factors,
        largest_prime)."""
        dump_json({"polynomial": self.polynomial.to_coeff_text(), "N": self.N,
                   "rows": self}, fh)

    def _write_rows(self, fh: IO[str], pad: int) -> None:
        """The rows array as json.dump(indent=2) writes it under a key
        ``pad`` spaces in."""
        row_in, key_in = "\n" + " " * (pad + 2), "\n" + " " * (pad + 4)
        pair_in, num_in = key_in + "  ", key_in + "    "
        fh.write("[")
        self._render(fh, _RowText(
            first=f'{row_in}{{{key_in}"n": ', mid=f',{key_in}"value": "',
            open=f'",{key_in}"factors": [{pair_in}[{num_in}',
            sep=f",{pair_in}[{num_in}", power=f",{num_in}{{}}{pair_in}]",
            close=f'{key_in}],{key_in}"largest_prime": ',
            empty=f'",{key_in}"factors": [],{key_in}"largest_prime": ',
            next=f'{row_in}}},{row_in}{{{key_in}"n": ', last=f"{row_in}}}"))
        fh.write(f"\n{' ' * pad}]")

    def _render(self, fh: IO[str], text: _RowText) -> None:
        """Write every row in the format ``text`` spells, one ``"".join``
        of a numpy array of segments per block of ``_RENDER_ROWS`` rows.

        A row with k factors is 6 + 3k segments: str(n), mid, str(value),
        then per factor open or sep, its prime's text and its exponent's
        text, then close (empty when k = 0), the text of the row's last
        prime (0 when k = 0) and next (last after the table's last row).
        So within a block, row r starts at segment 6r + 3 indptr[r] and
        factor j at 6 row(j) + 3j + 3.  The prime and exponent texts are
        built once per table and shared by every row that names them."""
        m = self.exponents
        primes = np.array(list(map(str, self.primes)) + ["0"], dtype=object)
        powers = np.array([text.power.format(e) for e in
                           range(int(m.data.max(initial=0)) + 1)], dtype=object)
        last = self._last_columns()
        fh.write(text.first)
        for lo in range(0, self.N, _RENDER_ROWS):
            hi = min(lo + _RENDER_ROWS, self.N)
            a, b = m.indptr[lo], m.indptr[hi]
            counts = np.diff(m.indptr[lo:hi + 1])
            rows = 6 * np.arange(hi - lo) + 3 * (m.indptr[lo:hi] - a)
            segments = np.empty(6 * (hi - lo) + 3 * (b - a), dtype=object)
            segments[rows] = list(map(str, range(lo + 1, hi + 1)))
            segments[rows + 1] = text.mid
            segments[rows + 2] = list(map(str, self.values[lo:hi]))
            at = 6 * np.repeat(np.arange(hi - lo), counts) + 3 * np.arange(1, b - a + 1)
            segments[at] = text.sep
            segments[rows[counts > 0] + 3] = text.open
            segments[at + 1] = primes[m.indices[a:b]]
            segments[at + 2] = powers[m.data[a:b]]
            tail = rows + 3 * counts + 3
            segments[tail] = text.close
            segments[tail[counts == 0]] = text.empty
            segments[tail + 1] = primes[last[lo:hi]]
            segments[tail + 2] = text.next
            if hi == self.N:
                segments[-1] = text.last
            fh.write("".join(segments.tolist()))


@dataclass(frozen=True)
class _RowText:
    """The literal text of one output format around the numbers of its
    rows, in the order ``FactorTable._render`` places it."""

    first: str  # before the first row's n
    mid: str  # between n and the value
    open: str  # before a row's first prime
    sep: str  # before each later prime
    power: str  # an exponent's text, "{}" standing for the exponent
    close: str  # before the largest prime of a row with factors
    empty: str  # the same for a row without, whose largest prime reads 0
    next: str  # between a row and the next row's n
    last: str  # after the last row


def dump_json(doc: dict, fh: IO[str]) -> None:
    """``json.dump(doc, fh, indent=2, allow_nan=False)``, where a
    FactorTable value stands for its rows array: ``json.dumps`` writes the
    rest and each table writes its rows from the CSR, the same bytes
    without a dict per row."""
    tables = []

    def defer(obj):
        if not isinstance(obj, FactorTable):
            raise TypeError(f"Object of type {type(obj).__name__} "
                            "is not JSON serializable")
        tables.append(obj)
        return "\0rows"  # dumped as "\u0000rows", which no other text is

    text = json.dumps(doc, indent=2, allow_nan=False, default=defer)
    *heads, tail = text.split('"\\u0000rows"')
    for head, table in zip(heads, tables, strict=True):
        fh.write(head)
        line = head[head.rfind("\n") + 1:]
        table._write_rows(fh, len(line) - len(line.lstrip(" ")))
    fh.write(tail)


def _root_classes(residual: np.ndarray,
                  primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (p, n) with p in the ascending ``primes``, n <= min(p, N)
    and p | P(n), as int64 arrays (cls_p, cls_n), from residual[n-1] =
    |P(n)|: ``word_hits`` over the first min(N, max primes) rows."""
    ps = np.array(primes, np.int64)
    n, col = word_hits(residual[:ps.max(initial=0)], ps, _BLOCK_CELLS, roots=True)
    return ps[col], n + 1


@dataclass(frozen=True, eq=False)
class SmallPrimes:
    """The root sieve's small-prime stage over the values P(x) of the x in a
    range, row i for its i-th x: ``values`` P(x) (int64, or Python ints
    when a partial sum may reach 2^63), ``residual`` |P(x)| with every
    prime <= ``bound`` divided out, and each hit k a prime hit_p[k] that
    divides the nonzero value of row hit_row[k] exactly hit_e[k] times."""

    values: np.ndarray
    residual: np.ndarray
    bound: int
    hit_p: np.ndarray
    hit_row: np.ndarray
    hit_e: np.ndarray


def sieve_small_primes(poly: IntPolynomial, xs: range) -> SmallPrimes:
    """Evaluate P over the non-empty ascending ``xs`` of positive step and
    divide out every prime up to B = min(``DEFAULT_TRIAL_BOUND``,
    isqrt(max|P(x)|)).  P(start + step y) is an integer polynomial in the
    row number y, so its roots mod p are read off the first min(p, len(xs))
    rows, as for P(n) itself."""
    n_max = len(xs)
    # Horner over all x at once, in int64 when no partial sum can overflow
    small = sum(abs(c) * xs[-1]**i for i, c in enumerate(poly.coeffs)) < 2**63
    values = poly(np.arange(xs.start, xs.stop, xs.step,
                            dtype=np.int64 if small else object))
    residual = np.abs(values)
    v_max = int(residual.max())
    if v_max < 2**63:
        residual = residual.astype(np.int64, copy=False)
    # sieve only up to isqrt(max|P(n)|): a larger prime leaves a cofactor
    # below (bound + 1)^2, which is prime
    bound = max(0, min(DEFAULT_TRIAL_BOUND, isqrt(v_max)))

    # the root classes n <= min(p, n_max), expanded into their hits
    cls_p, cls_n = _root_classes(residual, sieve_primes(bound))
    count = (n_max - cls_n) // cls_p + 1
    step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    hit_p = np.repeat(cls_p, count)
    hit_row = np.repeat(cls_n - 1, count) + step * hit_p
    nonzero = residual[hit_row] != 0  # every p divides P(n) = 0
    hit_p, hit_row = hit_p[nonzero], hit_row[nonzero]

    # p divides every hit; peel p off the hits it still divides
    hit_e = np.zeros(len(hit_p), dtype=np.int64)
    m = residual[hit_row]
    live = np.arange(len(hit_p))
    while live.size:
        p, v = hit_p[live], m[live]
        divides = v % p == 0
        live = live[divides]
        m[live] = v[divides] // p[divides]
        hit_e[live] += 1
    np.floor_divide.at(residual, hit_row, hit_p.astype(residual.dtype) ** hit_e)
    return SmallPrimes(values, residual, bound, hit_p, hit_row, hit_e)


def factor_values(
    poly: IntPolynomial, n_max: int, *, budget: int = DEFAULT_FACTOR_BUDGET,
) -> FactorTable:
    """Factor |P(n)| completely for every n = 1..n_max <= budget."""
    check_factor_budget(n_max, budget)
    stage = sieve_small_primes(poly, range(1, n_max + 1))
    residual, bound = stage.residual, stage.bound
    hit_p, hit_row, hit_e = stage.hit_p, stage.hit_row, stage.hit_e

    # every prime <= bound is divided out, so a cofactor below
    # (bound + 1)^2 is prime and one below (bound + 1)^3 is a prime or a
    # product of two primes
    rest = np.flatnonzero(residual > 1)
    cofactor = residual[rest]
    prime = cofactor < (bound + 1) ** 2
    rough = ~prime
    pair = np.zeros(0, np.int64)  # the positions in rest of the products
    if bound >= 2 and residual.dtype != object:
        two = np.flatnonzero(rough & (cofactor < min((bound + 1) ** 3, 2**40)))
        tested = is_prime_batch(cofactor[two].astype(np.uint64))
        prime[two[tested]] = True
        pair = two[~tested]
        rough[two] = False
    low = trial_split(cofactor[pair].astype(np.uint64), bound,
                      _BLOCK_CELLS).astype(residual.dtype)
    high = cofactor[pair] // low
    square = low == high
    rough_row, rough_p, rough_e = [], [], []
    for i in rest[rough].tolist():
        factors: dict[int, int] = {}
        _factor_rough(int(residual[i]), factors)
        rough_row += [i] * len(factors)
        rough_p += factors
        rough_e += factors.values()

    # ascending primes put each row's rough factors after its sieve primes
    rows = np.concatenate([hit_row, rest[prime], rest[pair], rest[pair[~square]],
                           np.array(rough_row, np.int64)])
    primes, cols = np.unique(
        np.concatenate([hit_p.astype(residual.dtype), cofactor[prime], low,
                        high[~square], np.array(rough_p, residual.dtype)]),
        return_inverse=True)
    exps = np.concatenate([hit_e, np.ones(prime.sum(), np.int64), 1 + square,
                           np.ones(len(pair) - square.sum(), np.int64),
                           np.array(rough_e, np.int64)])
    order = np.lexsort((cols, rows))
    exponents = _compress(rows[order], cols[order], exps[order],
                          (n_max, len(primes)))
    return FactorTable(polynomial=poly, N=n_max, values=stage.values.tolist(),
                       primes=primes.tolist(), exponents=exponents)


def lpf_density(
    table: FactorTable, threshold_scale: Fraction | float | None = None
) -> tuple[int, Fraction]:
    """How often the largest prime factor of P(n) beats scale * n * ln(n).

    Counts 2 <= n <= N with P+(P(n)) >= threshold_scale * n * ln(n) and
    returns (count, count/(N-1)), or (0, 0) at N = 1; scale 1/(2 d^2) by default.
    """
    if threshold_scale is None:
        d = table.polynomial.degree
        threshold_scale = Fraction(1, 2 * d * d)
    scale = float(threshold_scale)
    # the scalar loop compares the Python int P+(P(n)) with the float
    # (scale * n) * math.log(n).  np.log(n) may differ from math.log(n) in
    # the last bit, so its thresholds, and float64 largest primes, which
    # round at 2^53 and above, decide only the n whose prime and threshold
    # are more than _NEAR_STEPS float steps apart; the loop's compare
    # decides the others
    n = np.arange(2.0, table.N + 1)
    threshold = scale * n * np.log(n)
    last = table._last_columns()[1:]
    primes = table.primes + [0]
    lpf = np.array(primes, dtype=float)[last]
    near = np.abs(lpf - threshold) <= _NEAR_STEPS * np.spacing(np.abs(threshold))
    count = int(np.count_nonzero((lpf >= threshold) & ~near))
    count += sum(primes[last[i]] >= scale * (i + 2) * log(i + 2)
                 for i in np.flatnonzero(near).tolist())
    return count, Fraction(count, max(1, table.N - 1))
