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

``PhaseTable`` evaluates f on a factor table: a batch of replicates
costs one broadcast hash (``angles_for_key`` with an array of keys), one
gather of angles per factor slot and one cos/sin pass.  Slot k holds the
k-th stored factor of every row with more than k factors, so a row's
phase adds its e * theta_p from 0 in ascending prime order, the order in
which a CSR matrix-vector product adds them.  The cos/sin pass runs on
the cells grouped by argument range, where libm's range branches are
predicted; every value is still the same libm call on the same float64
argument, so the grouping changes no bit.

``replicate_sums`` is the one replicate engine behind both ``clt`` and
``fluct``: it sums f(P(n)) over the index sets of a boolean selector
mask for every replicate, in chunks of replicates and tiles of rows
whose results do not depend on the thread count, the chunk width or the
tile size.  Each chunk holds one angle block: the primes that occur in
two or more tiles, hashed once per chunk, and below them the primes of
the current tile alone, hashed just before it.  Memory follows those
shared primes x replicates, not all of the table's primes.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .sieve import FactorTable

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_NP_GOLDEN = np.uint64(GOLDEN)
_NP_C1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_C2 = np.uint64(0x94D049BB133111EB)

# replicate chunks hold at most _CHUNK replicates and at most BLOCK_BYTES of
# float64 prime angles (the shared primes and one tile's own) per worker
# thread; angles are hashed _TILE primes and f is evaluated _TILE table rows
# at a time
_CHUNK = 256
_TILE = 128
# cos and sin run on a tile's cells grouped by floor(_BUCKETS * phase) < 256
_BUCKETS = 64
BLOCK_BYTES = 128 << 20
# each worker holds its own angle block, so threads bound the memory too
MAX_THREADS = 32


def mix64(z: int | np.ndarray) -> int | np.ndarray:
    """splitmix64 finalizer: avalanching 64-bit mix of an int, or of each
    entry of a uint64 array (whose arithmetic wraps mod 2^64)."""
    z = z & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return (z ^ (z >> 31)) & M64


def derive_seed(seed: int, replicate: int | np.ndarray) -> int | np.ndarray:
    """Fixed, documented per-replicate seed derivation; a uint64 array of
    replicate indices gives the array of their seeds."""
    return mix64(((seed & M64) + (replicate + 1) * GOLDEN) & M64)


def _mix64_np(z: np.ndarray) -> None:
    """splitmix64 finalizer on a uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= _NP_C1
    z ^= z >> np.uint64(27)
    z *= _NP_C2
    z ^= z >> np.uint64(31)


def angles_for_key(key: int | np.ndarray, primes_u64: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """theta_p = (mix64(key + p * GOLDEN) >> 11) * 2^-53 of every prime.

    A scalar key gives one angle per prime; a 1-D array of keys gives a
    primes x keys matrix with one column per key.  ``out``, of that
    shape, receives the angles when given.
    """
    keys = np.asarray(key, dtype=np.uint64)
    theta = np.empty(primes_u64.shape + keys.shape) if out is None else out
    # _TILE primes at a time, so that the uint64 scratch stays in cache
    for lo in range(0, len(primes_u64), _TILE):
        z = np.add.outer(primes_u64[lo:lo + _TILE] * _NP_GOLDEN, keys)
        _mix64_np(z)
        z >>= np.uint64(11)
        np.multiply(z, 2.0 ** -53, out=theta[lo:lo + _TILE])
    return theta


@dataclass(frozen=True)
class SteinhausSampler:
    """Deterministic map prime -> angle in [0, 1), keyed by a 64-bit seed.

    ``replicate`` with a uint64 array of replicate indices gives one
    sampler whose seed and key are arrays, one entry per replicate."""

    seed: int | np.ndarray
    key: int | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", mix64(self.seed & M64))

    def replicate(self, r: int | np.ndarray) -> "SteinhausSampler":
        return SteinhausSampler(derive_seed(self.seed, r))


class PhaseTable:
    """Sparse exponent structure of a factor table for batched evaluation.

    Row n-1 holds the prime exponents of |P(n)|, n = 1..table.N, over
    the table's primes; ``unit_values_batch`` maps per-prime angles to
    f(P(n)) (0 at roots of P).  A row's phase sums only its own entries,
    in ascending prime order, so the rows n <= N of a table factored
    beyond N give the same bits as those of the table of N.
    """

    def __init__(self, table: FactorTable):
        self.n_max = table.N
        self.primes = table.primes
        # the angle hash only sees p mod 2^64, so primes >= 2^64 reduce
        self.primes_u64 = np.array([p & M64 for p in self.primes], dtype=np.uint64)
        self.matrix = table.exponents
        # only a row without factors can hold P(n) = 0
        empty = np.flatnonzero(np.diff(self.matrix.indptr) == 0).tolist()
        self.zero_rows = np.array([i for i in empty if table.values[i] == 0],
                                  dtype=np.int64)
        self._arrange(0, table.N)

    def _arrange(self, lo: int, hi: int, cols: np.ndarray | None = None) -> None:
        """Lay out the rows lo..hi-1 in slots.

        The rows are ranked by falling factor count, so that slot k, the
        k-th factor of every row with more than k factors, covers the
        first ranks: it is (their columns, the positions among them whose
        exponent is not 1, those exponents).  ``rank[i]`` is row i's rank,
        and the first ``factored`` ranks are the rows with a factor.  A
        slot's columns index the angle vectors' rows: the table's column j
        is row ``cols[j]``, and row j without ``cols``.
        """
        m = self.matrix
        counts = np.diff(m.indptr[lo:hi + 1])
        order = np.argsort(-counts, kind="stable")
        self.rank = np.argsort(order)
        self.factored = np.count_nonzero(counts)
        self.slots = []
        for k in range(int(counts.max(initial=0))):
            at = m.indptr[lo + order[:np.count_nonzero(counts > k)]] + k
            pos = np.flatnonzero(m.data[at] != 1)
            at_cols = m.indices[at] if cols is None else cols[m.indices[at]]
            self.slots.append((at_cols, pos,
                               m.data[at[pos], None].astype(np.float64)))

    def angles(self, sampler: SteinhausSampler) -> np.ndarray:
        return angles_for_key(sampler.key, self.primes_u64)

    def unit_values_batch(self, angle_matrix: np.ndarray,
                          out: np.ndarray | None = None,
                          work: np.ndarray | None = None) -> np.ndarray:
        """Column b holds f(P(n)) under the b-th angle vector; a 1-D angle
        vector gives the n-vector of f(P(n)).

        ``out`` (complex, C-contiguous, rows x angle vectors) receives the
        values, and ``work`` is float64 scratch of three such blocks; both
        are allocated when not given."""
        theta = angle_matrix if angle_matrix.ndim > 1 else angle_matrix[:, None]
        shape = (self.n_max, theta.shape[1])
        z = np.empty(shape, dtype=np.complex128) if out is None else out
        if not z.flags.c_contiguous:  # the values are scattered into a flat view
            raise ValueError("out must be C-contiguous")
        if work is None:
            work = np.empty((3,) + shape)
        ranked, phases = work[0, :shape[0]], work[1, :shape[0]]
        # in rank order, each slot adds e * theta_p to its first rows, so a
        # row's phase adds its factors from 0 in ascending prime order
        for k, (cols, pos, exps) in enumerate(self.slots):
            # slot 0 is taken straight in, the others through the scratch;
            # mode="clip" writes straight into out, the columns are in range
            t = theta.take(cols, axis=0, mode="clip",
                           out=(phases if k else ranked)[:len(cols)])
            if len(pos):
                t[pos] *= exps
            if k:
                ranked[:len(cols)] += t
        ranked[self.factored:] = 0.0
        ranked.take(self.rank, axis=0, mode="clip", out=phases)
        # phases are >= 0, so this is exactly phases % 1.0, and cos and sin
        # of 2*pi times it give the bits of exp(2j*pi*(phases % 1.0))
        phases -= np.floor(phases, out=ranked)
        # libm branches on the argument's range, so cos and sin run on the
        # cells sorted by floor(_BUCKETS * t) (a radix sort of uint8 keys);
        # each value is the same call on the same argument, in any order
        cells = phases.size
        bucket = ranked.reshape(-1).view(np.uint8)[:cells]
        np.multiply(phases.reshape(-1), _BUCKETS, out=bucket, casting="unsafe")
        order = np.argsort(bucket, kind="stable")
        args = phases.reshape(-1).take(order, mode="clip", out=ranked.reshape(-1))
        args *= 2 * np.pi
        # the sorted values go to the phases block and the one after it
        grouped = work[1:].reshape(-1)[:2 * cells].view(np.complex128)
        np.cos(args, out=grouped.real)
        np.sin(args, out=grouped.imag)
        z.reshape(-1)[order] = grouped
        if len(self.zero_rows):
            z[self.zero_rows] = 0.0
        return z if angle_matrix.ndim > 1 else z[:, 0]

    def _rows(self, lo: int, hi: int,
              cols: np.ndarray | None = None) -> "PhaseTable":
        """The rows lo..hi-1 as a table over the same primes, whose angle
        vectors are laid out by ``cols`` as in ``_arrange``."""
        tile = copy.copy(self)
        tile.n_max = hi - lo
        tile._arrange(lo, hi, cols)
        zeros = self.zero_rows
        tile.zero_rows = zeros[(zeros >= lo) & (zeros < hi)] - lo
        return tile


def check_replicates(reps: int, threads: int, minimum: int = 1) -> None:
    """ConfigError unless reps >= minimum and 1 <= threads <= MAX_THREADS."""
    if reps < minimum:
        raise ConfigError(f"too few replicates: {reps} < {minimum}", field="reps")
    if not 1 <= threads <= MAX_THREADS:
        raise ConfigError(f"threads must be in 1..{MAX_THREADS}", field="threads")


def replicate_sums(
    pt: PhaseTable,
    seed: int,
    reps: int,
    selector: np.ndarray,
    *,
    frozen: np.ndarray | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Sums of f(P(n)) over index sets for replicates 0..reps-1.

    ``selector`` is a boolean mask with one row per index set and one
    column per table row; entry [s, r] of the complex result is row s's
    sum under the stream ``derive_seed(seed, r)``.  Primes marked in the
    boolean mask ``frozen`` keep their base-stream (``seed``) angle in
    every replicate.

    A chunk of replicates evaluates f in tiles of ``_TILE`` rows on one
    block of angles laid out as [shared primes; one tile's local primes].
    A prime with entries in two or more tiles is shared and hashed once
    per chunk; every other prime is local to its tile and hashed just
    before that tile is evaluated, so each prime is hashed once per chunk.
    Each set folds a tile into its running sum by one ``np.add.reduce``
    over the rows [sum; f(n) for its n in the tile], which adds them in
    that order along axis 0, so every set adds its terms in ascending n,
    starting from its sum so far; a set that takes the whole tile reduces
    a slice of the buffer in place of a gathered copy.  Each chunk writes
    its own columns of the result, so the result is bit-identical for any
    thread count, chunk width and tile size.
    """
    if selector.shape[1] != pt.n_max:
        raise ValueError(f"selector has {selector.shape[1]} columns, "
                         f"the table {pt.n_max} rows")
    m, rows = pt.matrix, _TILE
    n_sets, n_tiles = selector.shape[0], -(-pt.n_max // rows)
    # each column's first and last tile; a column without entries reads
    # (n_tiles, -1) and is hashed with the shared ones
    tile_of = np.repeat(np.arange(pt.n_max) // rows, np.diff(m.indptr))
    first = np.full(len(pt.primes), n_tiles)
    last = np.full(len(pt.primes), -1)
    np.minimum.at(first, m.indices, tile_of)
    np.maximum.at(last, m.indices, tile_of)
    shared = np.flatnonzero(first != last)
    local = np.flatnonzero(first == last)
    local = local[np.argsort(first[local], kind="stable")]
    # tile t's local columns are local[bounds[t]:bounds[t + 1]]
    bounds = np.searchsorted(first[local], np.arange(n_tiles + 1))
    n_shared = len(shared)
    # the block row of each column: shared ones first, then the tile's own
    cols = np.empty(len(pt.primes), dtype=np.intp)
    cols[shared] = np.arange(n_shared)
    cols[local] = n_shared + np.arange(len(local)) - bounds[first[local]]
    height = n_shared + int(np.diff(bounds).max(initial=0))
    width = max(1, min(_CHUNK, BLOCK_BYTES // (8 * max(1, height))))
    root = SteinhausSampler(seed)
    base = np.empty(0) if frozen is None else pt.angles(root)

    def part(at: np.ndarray) -> tuple:
        """The hash input of the columns ``at``, with the block rows and
        base angles of the frozen ones among them."""
        keep = at[:0] if frozen is None else at[frozen[at]]
        return pt.primes_u64[at], cols[keep], base[keep, None]

    shared_part, tiles = part(shared), []
    for t, lo in enumerate(range(0, pt.n_max, rows)):
        hi = min(lo + rows, pt.n_max)
        # per set: the fold buffer rows it adds, starting at the head row
        # n_sets that gets a copy of its sum; a slice for the whole tile
        folds = []
        for s in range(n_sets):
            idx = np.flatnonzero(selector[s, lo:hi])
            if len(idx) == hi - lo:
                folds.append((s, slice(n_sets, n_sets + 1 + hi - lo)))
            elif len(idx):
                folds.append((s, np.concatenate([[n_sets], n_sets + 1 + idx])))
        tiles.append((pt._rows(lo, hi, cols), part(local[bounds[t]:bounds[t + 1]]),
                      folds))
    out = np.empty((n_sets, reps), dtype=np.complex128)

    def fill(theta: np.ndarray, keys: np.ndarray, at: int, hashed: tuple) -> None:
        primes_u64, kept, angles = hashed
        angles_for_key(keys, primes_u64, out=theta[at:at + len(primes_u64)])
        theta[kept] = angles

    def chunk(lo: int) -> None:
        batch = np.arange(lo, min(lo + width, reps), dtype=np.uint64)
        keys = root.replicate(batch).key
        theta = np.empty((height, len(keys)))
        fill(theta, keys, 0, shared_part)
        # [sums; head; f-values of one tile] as float64: a complex sum adds
        # re and im apart, so summing the real view gives the same bits
        buf = np.zeros((n_sets + 1 + rows, 2 * len(keys)))
        z = buf.view(np.complex128)
        work = np.empty((3, rows, len(keys)))
        for tile, hashed, folds in tiles:
            fill(theta, keys, n_shared, hashed)
            tile.unit_values_batch(theta, out=z[n_sets + 1:n_sets + 1 + tile.n_max],
                                   work=work)
            for s, take in folds:
                buf[n_sets] = buf[s]
                buf[s] = np.add.reduce(buf[take], axis=0)
        out[:, lo:lo + len(keys)] = z[:n_sets]

    starts = range(0, reps, width)
    if threads <= 1:
        for lo in starts:
            chunk(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(chunk, starts))
    return out
