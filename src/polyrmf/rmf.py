"""Reproducible Steinhaus random multiplicative function sampler.

Each prime p gets an angle theta_p in [0, 1), a pure function of
(seed, p) through a counter-based hash (splitmix64 finalizer applied to
key + p * golden-ratio increment).  Nothing is stored per prime, so the
sampler is immutable, thread-safe, and supports primes of any size.

f is completely multiplicative on positive integers: for |m| =
prod p^e the value is e(sum_p e * theta_p), a point on the unit circle.
f is undefined at 0 and evaluates on |P(n)| (signs discarded).

Replicate r of a run derives its stream from
``derive_seed(seed, r) = mix64((seed + (r + 1) * GOLDEN) mod 2^64)``;
this mapping is part of the output contract and will not change.

``PhaseTable`` evaluates f on a factor table: it reads the table's
exponent matrix as float64 over the table's primes, so that whole
replicate batches reduce to one hash pass and one sparse matmul.  The
scalar ``SteinhausSampler.angle`` and the vectorized ``angles_for_key``
give bit-identical angles.

``replicate_sums`` is the one replicate engine behind both ``clt`` and
``fluct``: it sums f(P(n)) over the index sets of a 0/1 selector matrix
for every replicate, in fixed chunks whose results do not depend on the
thread count or on the chunk width.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy import sparse

from .errors import ConfigError
from .sieve import FactorTable

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_NP_GOLDEN = np.uint64(GOLDEN)
_NP_C1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_C2 = np.uint64(0x94D049BB133111EB)

# replicate chunks hold at most _CHUNK columns and at most BLOCK_BYTES of
# dense complex128 unit values per worker thread
_CHUNK = 256
BLOCK_BYTES = 128 << 20


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanching 64-bit mix."""
    z &= M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return (z ^ (z >> 31)) & M64


def derive_seed(seed: int, replicate: int) -> int:
    """Fixed, documented per-replicate seed derivation."""
    return mix64((seed + (replicate + 1) * GOLDEN) & M64)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _NP_C1
    z = (z ^ (z >> np.uint64(27))) * _NP_C2
    return z ^ (z >> np.uint64(31))


def angles_for_key(key: int, primes_u64: np.ndarray) -> np.ndarray:
    """Vectorized angles; bit-identical to SteinhausSampler.angle."""
    z = _mix64_np(np.uint64(key) + primes_u64 * _NP_GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class SteinhausSampler:
    """Deterministic map prime -> angle in [0, 1), keyed by a 64-bit seed."""

    seed: int
    key: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", mix64(self.seed & M64))

    def angle(self, p: int) -> float:
        z = mix64((self.key + p * GOLDEN) & M64)
        return (z >> 11) * 2.0 ** -53

    def replicate(self, r: int) -> "SteinhausSampler":
        return SteinhausSampler(derive_seed(self.seed, r))


class PhaseTable:
    """Sparse exponent structure of a factor table for batched evaluation.

    Row n-1 holds the prime exponents of |P(n)|; ``unit_values_batch``
    maps per-prime angles to f(P(n)) (0 at roots of P).
    """

    def __init__(self, table: FactorTable, n_max: int | None = None):
        n_max = table.N if n_max is None else n_max
        if n_max > table.N:
            raise ValueError("table does not cover the requested range")
        self.n_max = n_max
        # every column of the table is kept: a row's phase sums only its
        # own entries, in ascending prime order, whatever the other columns
        self.primes = table.primes
        # the angle hash only sees p mod 2^64, so primes >= 2^64 reduce
        self.primes_u64 = np.array([p & M64 for p in self.primes], dtype=np.uint64)
        self.matrix = table.exponents[:n_max].astype(np.float64)
        # only a row without factors can hold P(n) = 0
        empty = np.flatnonzero(np.diff(self.matrix.indptr) == 0).tolist()
        self.zero_mask = np.zeros(n_max, dtype=bool)
        self.zero_mask[[i for i in empty if table.values[i] == 0]] = True

    def angles(self, sampler: SteinhausSampler) -> np.ndarray:
        return angles_for_key(sampler.key, self.primes_u64)

    def membership_mask(self, primes: Iterable[int]) -> np.ndarray:
        """Boolean mask over this table's primes for a given prime set."""
        wanted = set(primes)
        return np.array([p in wanted for p in self.primes], dtype=bool)

    def unit_values_batch(self, angle_matrix: np.ndarray) -> np.ndarray:
        """Column b holds f(P(n)) under the b-th angle vector; a 1-D angle
        vector gives the n-vector of f(P(n))."""
        phases = self.matrix @ angle_matrix
        z = np.exp(2j * np.pi * (phases % 1.0))
        z[self.zero_mask] = 0.0
        return z


def check_replicates(reps: int, threads: int, minimum: int = 1) -> None:
    """ConfigError unless reps >= minimum and threads >= 1."""
    if reps < minimum:
        raise ConfigError(f"too few replicates: {reps} < {minimum}", field="reps")
    if threads < 1:
        raise ConfigError("threads must be >= 1", field="threads")


def replicate_sums(
    pt: PhaseTable,
    seed: int,
    reps: int,
    selector: sparse.csr_matrix,
    *,
    frozen: np.ndarray | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Sums of f(P(n)) over index sets for replicates 0..reps-1.

    ``selector`` is a 0/1 CSR matrix with one row per index set and one
    column per table row; entry [s, r] of the complex result is row s's
    sum under the stream ``derive_seed(seed, r)``.  Primes marked in the
    boolean mask ``frozen`` keep their base-stream (``seed``) angle in
    every replicate.  Each CSR row adds its terms in ascending n, and
    chunks are concatenated in chunk order, so the result is
    bit-identical for any thread count and any chunk width.
    """
    width = max(1, min(_CHUNK, BLOCK_BYTES // (16 * pt.n_max)))
    root = SteinhausSampler(seed)
    base = None if frozen is None else pt.angles(root)[frozen, None]

    def chunk(lo: int) -> np.ndarray:
        cols = range(lo, min(lo + width, reps))
        theta = np.empty((len(pt.primes), len(cols)), dtype=np.float64)
        for b, r in enumerate(cols):
            theta[:, b] = pt.angles(root.replicate(r))
        if base is not None:
            theta[frozen] = base
        return selector @ pt.unit_values_batch(theta)

    starts = range(0, reps, width)
    if threads <= 1:
        parts = [chunk(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk, starts))
    return np.concatenate(parts, axis=1)
