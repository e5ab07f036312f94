import cmath
import random
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import (ConditionalSampler, FactoredValue, angle, f_of,
                     martingale_piece, partial_sum, prime_subsum,
                     prime_to_indices, sequential_set_sums,
                     sequential_unit_values, table_row, table_rows,
                     unit_values_reference)
from polyrmf import rmf
from polyrmf.fluctuations import (build_prime_sets, check_fluct_config,
                                  classification_labels)
from polyrmf.polynomial import parse_polynomial
from polyrmf.primes import factorize, sieve_primes
from polyrmf.errors import ConfigError
from polyrmf.rmf import (
    M64,
    MAX_THREADS,
    PhaseTable,
    SteinhausSampler,
    angles_for_key,
    check_replicates,
    derive_seed,
    mix64,
    replicate_sums,
)
from polyrmf.sieve import factor_values


def _fv(m: int) -> FactoredValue:
    factors = tuple(sorted(factorize(abs(m)).items()))
    return FactoredValue(n=1, value=m, factors=factors,
                         largest_prime=factors[-1][0] if factors else 0)


def test_angle_deterministic_and_in_range():
    s1 = SteinhausSampler(123)
    s2 = SteinhausSampler(123)
    for p in (2, 3, 5, 999999937, 10**15 + 37):
        a = angle(s1, p)
        assert a == angle(s2, p)
        assert 0.0 <= a < 1.0


def test_angle_golden_values():
    # frozen stream contract: changing the generator is a breaking change
    s = SteinhausSampler(1)
    assert angle(s, 2) == 0.37239342287916577
    assert angle(s, 3) == 0.4382839062845528
    assert angle(s, 1299709) == 0.6855914743491333
    assert derive_seed(7, 0) == 7191089600892374487
    assert derive_seed(7, 1) == 309689372594955804


def test_scalar_vector_angles_identical():
    s = SteinhausSampler(987654321)
    primes = np.array(sieve_primes(20_000), dtype=np.uint64)
    vec = angles_for_key(s.key, primes)
    scalar = np.array([angle(s, int(p)) for p in primes])
    assert np.array_equal(vec, scalar)


def test_angle_uniformity_chi_square():
    # 100 bins over the first 1e5 primes; reject only below p = 1e-6
    primes = sieve_primes(1_299_709)  # exactly the first 100000 primes
    assert len(primes) == 100_000
    s = SteinhausSampler(2024)
    angles = angles_for_key(s.key, np.array(primes, dtype=np.uint64))
    counts, _ = np.histogram(angles, bins=100, range=(0.0, 1.0))
    chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
    assert stats.chi2.sf(chi2, df=99) > 1e-6


def test_cross_prime_correlation_small():
    primes = sieve_primes(300_000)
    rng = random.Random(5)
    pairs = [tuple(rng.sample(primes, 2)) for _ in range(10_000)]
    s = SteinhausSampler(77)
    u = np.array([angle(s, p) for p, _ in pairs])
    v = np.array([angle(s, q) for _, q in pairs])
    corr = np.corrcoef(u, v)[0, 1]
    assert abs(corr) < 0.05


def test_f_of_basics():
    s = SteinhausSampler(42)
    assert f_of(s, _fv(1)) == 1 + 0j
    z = f_of(s, _fv(17))
    assert abs(abs(z) - 1.0) <= 1e-9
    assert abs(z - cmath.exp(2j * cmath.pi * angle(s, 17))) <= 1e-12
    # p^2 -> square of f(p)
    assert abs(f_of(s, _fv(289)) - f_of(s, _fv(17)) ** 2) <= 1e-9
    # sign ignored
    assert f_of(s, _fv(-6)) == f_of(s, _fv(6))
    with pytest.raises(ValueError):
        f_of(s, FactoredValue(n=6, value=0, factors=(), largest_prime=0))


def test_complete_multiplicativity_bulk():
    s = SteinhausSampler(11)
    rng = random.Random(3)
    for _ in range(10_000):
        m = rng.randint(2, 100_000)
        n = rng.randint(2, 100_000)
        err = abs(f_of(s, _fv(m * n)) - f_of(s, _fv(m)) * f_of(s, _fv(n)))
        assert err <= 1e-9


def test_partial_sum_edges(x2p1):
    table = factor_values(parse_polynomial("0,0,1"), 5)
    s = SteinhausSampler(9)
    assert partial_sum(s, table, 0) == 0j
    assert partial_sum(s, table, 1) == 1 + 0j  # f(1) = 1
    t = factor_values(x2p1, 3)
    expected = (f_of(s, table_row(t, 1)) + f_of(s, table_row(t, 2))
                + f_of(s, table_row(t, 3)))
    got = partial_sum(s, t, 3)
    assert abs(got - expected) <= 1e-12
    assert abs(got) <= 3
    with pytest.raises(ValueError):
        partial_sum(s, t, 4)


def test_martingale_piece_examples(x2p1):
    t = factor_values(x2p1, 3)
    s = SteinhausSampler(5)
    assert martingale_piece(s, t, 97, 3) == 0j  # 97 divides no P(n)
    # largest primes 2, 5, 5
    expected = f_of(s, table_row(t, 2)) + f_of(s, table_row(t, 3))
    assert abs(martingale_piece(s, t, 5, 3) - expected) <= 1e-12


def test_partition_identity_with_unit_values():
    # P = x^2 - 2 has |P(1)| = 1: contributes 1 to the partial sum but
    # belongs to no per-prime piece
    poly = parse_polynomial("-2,0,1")
    table = factor_values(poly, 50)
    s = SteinhausSampler(31)
    pieces = sum(martingale_piece(s, table, p, 50)
                 for p in sorted(prime_to_indices(table)))
    unit_count = sum(1 for r in table_rows(table) if abs(r.value) == 1)
    assert unit_count == 1
    assert abs(pieces + unit_count - partial_sum(s, table, 50)) <= 1e-9


def test_partition_identity_with_zeros(x2m6x):
    table = factor_values(x2m6x, 40)
    s = SteinhausSampler(8)
    pieces = sum(martingale_piece(s, table, p, 40)
                 for p in sorted(prime_to_indices(table)))
    units = sum(1 for r in table_rows(table) if abs(r.value) == 1)
    assert abs(pieces + units - partial_sum(s, table, 40)) <= 1e-9


def test_prime_subsum(x2p1):
    t = factor_values(x2p1, 3)
    s = SteinhausSampler(2)
    assert prime_subsum(s, factor_values(x2p1, 1), 1) == 0j  # no primes
    expected = f_of(s, table_row(t, 2)) + f_of(s, table_row(t, 3))  # primes 2, 3
    assert abs(prime_subsum(s, t, 3) - expected) <= 1e-12
    x = parse_polynomial("0,1")
    t2 = factor_values(x, 2)
    assert abs(prime_subsum(s, t2, 2) - f_of(s, table_row(t2, 2))) <= 1e-12


def test_replicate_seed_derivation():
    s = SteinhausSampler(99)
    assert s.replicate(3).seed == derive_seed(99, 3)
    assert angle(s.replicate(0), 7) != angle(s.replicate(1), 7)


def test_vector_replicate_keys_match_derive_seed():
    # a chunk's keys come from one sampler over a uint64 array of replicate
    # indices; they must be the scalar derive_seed keys at the seed edges
    # (a negative seed means seed mod 2^64) and past 2^32
    for seed in (0, 1, 2**64 - 5, M64, -3):
        for lo, hi in ((0, 40), (2**32 - 3, 2**32 + 3), (2**40, 2**40 + 2)):
            r = np.arange(lo, hi, dtype=np.uint64)
            batch = SteinhausSampler(seed).replicate(r)
            assert batch.key.dtype == np.uint64
            assert batch.seed.tolist() == [derive_seed(seed, i) for i in range(lo, hi)]
            assert batch.key.tolist() == [SteinhausSampler(derive_seed(seed, i)).key
                                          for i in range(lo, hi)]
    z = np.array([0, 1, 2**63, M64], dtype=np.uint64)
    assert mix64(z).tolist() == [mix64(int(v)) for v in z]
    assert z.tolist() == [0, 1, 2**63, M64]  # the argument is left as it was


def test_phase_table_matches_scalar(x2p1):
    table = factor_values(x2p1, 200)
    s = SteinhausSampler(314159)
    pt = PhaseTable(table)
    z = pt.unit_values_batch(pt.angles(s))
    for n in (1, 2, 50, 200):
        assert abs(z[n - 1] - f_of(s, table_row(table, n))) <= 1e-9
    assert abs(z[:137].sum() - partial_sum(s, table, 137)) <= 1e-9


def test_phase_table_zero_rows(x2m6x):
    table = factor_values(x2m6x, 10)
    pt = PhaseTable(table)
    z = pt.unit_values_batch(pt.angles(SteinhausSampler(4)))
    assert z[5] == 0  # P(6) = 0 is excluded, not mapped to 1


def test_prime_subsum_skips_roots_at_prime_arguments():
    # P = x^2 - 4 vanishes at the prime argument 2
    poly = parse_polynomial("-4,0,1")
    table = factor_values(poly, 5)
    s = SteinhausSampler(6)
    # primes 3, 5
    expected = f_of(s, table_row(table, 3)) + f_of(s, table_row(table, 5))
    assert abs(prime_subsum(s, table, 5) - expected) <= 1e-12


def test_batch_matches_single_column(x2p1):
    table = factor_values(x2p1, 120)
    pt = PhaseTable(table)
    samplers = [SteinhausSampler(derive_seed(55, r)) for r in range(4)]
    theta = np.stack([pt.angles(s) for s in samplers], axis=1)
    batch = pt.unit_values_batch(theta)
    for b, s in enumerate(samplers):
        single = pt.unit_values_batch(pt.angles(s))
        assert np.array_equal(batch[:, b], single)


@pytest.mark.parametrize("text", ["x^2+1", "100000000000000000000,0,1"])
def test_phase_table_on_a_sub_range(text):
    # a table factored beyond 120 keeps its extra primes as columns that
    # rows n <= 120 never touch: those rows have the bits of the table of 120
    poly = parse_polynomial(text)
    wide = PhaseTable(factor_values(poly, 200))
    exact = PhaseTable(factor_values(poly, 120))
    assert len(wide.primes) > len(exact.primes)
    rng = np.random.default_rng(17)
    angle = {p: rng.random(3) for p in wide.primes}
    batches = [pt.unit_values_batch(np.array([angle[p] for p in pt.primes]))[:120]
               for pt in (wide, exact)]
    assert np.array_equal(*batches)


def test_conditional_sampler_dispatch(x2p1):
    table = factor_values(x2p1, 20)
    base = SteinhausSampler(1)
    inner = SteinhausSampler(2)
    cs = ConditionalSampler(base=base, inner=inner, resample=frozenset({5}))
    assert angle(cs, 5) == angle(inner, 5)
    assert angle(cs, 13) == angle(base, 13)
    row = table_row(table, 3)  # 10 = 2 * 5
    expect = cmath.exp(2j * cmath.pi *
                       ((angle(base, 2) + angle(inner, 5)) % 1.0))
    assert abs(f_of(cs, row) - expect) <= 1e-12


def test_mix64_is_64_bit():
    assert mix64(0) == 0
    for z in (1, 2**63, 2**64 - 1, 123456789):
        assert 0 <= mix64(z) < 2**64


def test_phase_table_primes_above_2_64():
    # P(19) = 19^2 + 10^20 is itself a prime above 2^64
    table = factor_values(parse_polynomial("100000000000000000000,0,1"), 20)
    big = table_row(table, 19).largest_prime
    assert big > M64
    pt = PhaseTable(table)
    s = SteinhausSampler(2718)
    i = pt.primes.index(big)
    assert pt.angles(s)[i] == angle(s, big)
    z = pt.unit_values_batch(pt.angles(s))
    assert abs(z.sum() - partial_sum(s, table, 20)) <= 1e-9


def test_unit_values_match_the_complex_exponential():
    # P(n) = n on n <= 2: row 1 is empty (phase 0), row 2 is the prime 2
    # with exponent 1, so its phases are the angles passed in
    pt = PhaseTable(factor_values(parse_polynomial("0,1"), 2))
    assert pt.primes == [2]
    rng = np.random.default_rng(8)
    edges = [0.0, 1.0, 2.0, 59.0, 64.0, 1 - 2.0 ** -53, 2 - 2.0 ** -52,
             0.25, 0.5, 0.75, 2.0 ** -53, 60.5, 61 - 2.0 ** -47, 1e3 + 0.125,
             2.0 ** 40 + 0.5]
    phases = np.concatenate([edges, rng.random(700_000),
                             rng.random(300_000) * 64,
                             60 + rng.random(100_000) * 40])
    z = pt.unit_values_batch(phases[None, :])
    assert np.array_equal(z[1], unit_values_reference(phases))
    assert np.array_equal(z[0], np.ones(len(phases)))
    for phase in edges:  # a 1-D angle vector gives the n-vector
        assert np.array_equal(pt.unit_values_batch(np.array([phase])),
                              unit_values_reference(np.array([0.0, phase])))


def _unmix64(z: int) -> int:
    """Inverse of mix64: undo each xor-shift and multiply in turn."""
    def unshift(z, s):
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2 ** 64) & M64
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) & M64
    return unshift(z, 30)


def test_broadcast_hash_matches_scalar_at_the_edges():
    # keys 0 and 2^64-1 come from the seeds that mix64 maps onto them
    samplers = [SteinhausSampler(_unmix64(k)) for k in (0, M64, 12345)]
    assert [s.key for s in samplers] == [0, M64, 12345]
    primes = sieve_primes(2000) + [M64 - 58, 2 ** 64 + 13, 2 ** 89 - 1,
                                   10 ** 20 + 39]
    primes_u64 = np.array([p & M64 for p in primes], dtype=np.uint64)
    keys = np.array([s.key for s in samplers], dtype=np.uint64)
    theta = angles_for_key(keys, primes_u64)
    assert theta.shape == (len(primes), 3)
    for b, s in enumerate(samplers):
        scalar = np.array([angle(s, p) for p in primes])
        assert np.array_equal(theta[:, b], scalar)
        assert np.array_equal(angles_for_key(s.key, primes_u64), scalar)


def test_selector_must_match_the_table_rows(x2p1, monkeypatch):
    # with 50 rows in tiles of 10, the columns past 50 would fall in no tile
    monkeypatch.setattr(rmf, "_TILE", 10)
    pt = PhaseTable(factor_values(x2p1, 50))
    for cols in (49, 51, 60):
        with pytest.raises(ValueError):
            replicate_sums(pt, 1, 3, np.ones((1, cols), dtype=bool))


# exponents > 1 (x^2 is a square at every n), rows without factors and
# roots of P (P(1) = -1, P(6) = 0), rows of 8 or more primes (the constant
# 9699690 is 2*3*...*19) and a prime above 2^64 (P(19) of x^2 + 10^20)
PHASE_TABLES = [("0,0,1", 40), ("0,-6,1", 40), ("-2,0,1", 40),
                ("9699690,0,9699690", 30), ("100000000000000000000,0,1", 20)]


@pytest.mark.parametrize("text,n", PHASE_TABLES)
def test_unit_values_match_the_sequential_oracle(text, n):
    table = factor_values(parse_polynomial(text), n)
    pt = PhaseTable(table)
    theta = np.random.default_rng(n).random((len(pt.primes), 3))
    assert np.array_equal(pt.unit_values_batch(theta),
                          sequential_unit_values(table, theta))
    assert np.array_equal(pt.unit_values_batch(theta[:, 1]),
                          sequential_unit_values(table, theta[:, 1:2])[:, 0])


def test_phase_tables_cover_the_oracle_cases():
    tables = [factor_values(parse_polynomial(t), n) for t, n in PHASE_TABLES]
    rows = [r for t in tables for r in table_rows(t)]
    assert any(e > 1 for r in rows for _, e in r.factors)
    assert any(r.value == 0 for r in rows)
    assert any(abs(r.value) == 1 for r in rows)
    assert any(len(r.factors) >= 8 for r in rows)
    assert any(p > M64 for r in rows for p, _ in r.factors)


@pytest.mark.parametrize("text,n", PHASE_TABLES)
def test_replicate_sums_match_the_sequential_oracle(text, n, monkeypatch):
    # tiles of 7 rows and chunks of 2 replicates put the tile and chunk
    # seams inside every set; one set is empty, one takes every row
    monkeypatch.setattr(rmf, "_TILE", 7)
    monkeypatch.setattr(rmf, "_CHUNK", 2)
    table = factor_values(parse_polynomial(text), n)
    pt = PhaseTable(table)
    idx = np.arange(n)
    selector = np.vstack([idx >= 0, idx % 3 == 1, idx < 0, idx > n // 2])
    frozen = np.arange(len(pt.primes)) % 2 == 0
    for sel, frz in ((selector, None), (selector, frozen), (selector[:1], None)):
        assert np.array_equal(replicate_sums(pt, 7, 5, sel, frozen=frz),
                              sequential_set_sums(table, 7, 5, sel, frz))


def test_check_replicates_caps_the_thread_count():
    # checked only: every worker would hold its own angle block
    check_replicates(1, MAX_THREADS)
    for threads in (0, MAX_THREADS + 1, 10**12):
        with pytest.raises(ConfigError) as info:
            check_replicates(1, threads)
        assert info.value.field == "threads"


# cos and sin run on cells grouped by floor(_BUCKETS * phase): 1 bucket keeps
# the row order, 255 is the most a uint8 key holds; None is the default
BUCKETS = [1, 255, None]


@pytest.mark.parametrize("buckets", BUCKETS)
def test_grouping_keeps_the_bits_at_the_bucket_edges(buckets, monkeypatch):
    if buckets:
        monkeypatch.setattr(rmf, "_BUCKETS", buckets)
    # P(n) = n on n <= 2: row 2's phases are the angles passed in
    pt = PhaseTable(factor_values(parse_polynomial("0,1"), 2))
    edges = np.arange(65) / 64
    phases = np.concatenate([[0.0, 1 - 2.0 ** -53], edges,
                             np.nextafter(edges[1:], 0), np.nextafter(edges, 2)])
    z = pt.unit_values_batch(phases[None, :])
    assert np.array_equal(z[1], unit_values_reference(phases))
    assert np.array_equal(z[0], np.ones(len(phases)))


@pytest.mark.parametrize("buckets", BUCKETS)
@pytest.mark.parametrize("text,n", PHASE_TABLES[:3])
def test_grouping_keeps_the_bits_on_small_shapes(text, n, buckets, monkeypatch):
    # zero rows (0,-6,1 at n = 6), |P(n)| = 1 rows (-2,0,1 at n = 1), one
    # replicate, a 1-D angle vector, a given out and a tile of one row
    if buckets:
        monkeypatch.setattr(rmf, "_BUCKETS", buckets)
    table = factor_values(parse_polynomial(text), n)
    pt = PhaseTable(table)
    theta = np.random.default_rng(n + 1).random((len(pt.primes), 5))
    want = sequential_unit_values(table, theta)
    assert np.array_equal(pt.unit_values_batch(theta), want)
    assert np.array_equal(pt.unit_values_batch(theta[:, :1]), want[:, :1])
    assert np.array_equal(pt.unit_values_batch(theta[:, 2]), want[:, 2])
    out = np.empty((n, 5), dtype=complex)
    assert pt.unit_values_batch(theta, out=out) is out
    assert np.array_equal(out, want)
    for i in (0, 5, n - 1):
        one = pt._rows(i, i + 1)
        assert np.array_equal(one.unit_values_batch(theta), want[i:i + 1])
        assert np.array_equal(one.unit_values_batch(theta[:, 3]), want[i, 3:4])


def test_unit_values_refuse_a_strided_out(x2p1):
    # the values are scattered into a flat view of out
    pt = PhaseTable(factor_values(x2p1, 10))
    theta = np.random.default_rng(2).random((len(pt.primes), 4))
    with pytest.raises(ValueError):
        pt.unit_values_batch(theta, out=np.empty((10, 8), dtype=complex)[:, ::2])


def test_grouping_and_threads_keep_the_replicate_sums(monkeypatch):
    # a clt selector and a fluct --conditional selector with its frozen
    # primes, over three chunks of replicates
    monkeypatch.setattr(rmf, "_CHUNK", 16)
    poly = parse_polynomial("x^2+1")
    grid = check_fluct_config(100, 3, 4, 40)
    table = factor_values(poly, grid.points[-1])
    family = build_prime_sets(table, grid)
    labels = classification_labels(table, family)
    selector = np.zeros((3 * len(labels), table.N), dtype=bool)
    for i, lab in enumerate(labels):
        selector[3 * i:3 * i + 3, :len(lab)] = lab == 1, lab == 2, lab >= 0
    pt = PhaseTable(table)
    frozen = family.a_scale < 0
    assert frozen.any() and not frozen.all()
    cases = [(np.ones((1, table.N), dtype=bool), None), (selector, frozen)]
    for sel, frozen in cases:
        default = replicate_sums(pt, 11, 40, sel, frozen=frozen)
        for buckets in (1, 255, rmf._BUCKETS):
            with monkeypatch.context() as m:
                m.setattr(rmf, "_BUCKETS", buckets)
                for threads in (1, 2):
                    got = replicate_sums(pt, 11, 40, sel, frozen=frozen,
                                         threads=threads)
                    assert np.array_equal(got, default)


def test_replicate_sums_memory_follows_the_shared_primes():
    # x^2+1 at N = 20 000 has 14 000 primes, a tenth of them in two or
    # more tiles: a primes x replicates block would take 28 MiB at 256
    # replicates, the shared primes' block about 3 MiB; ten chunks keep
    # only their own columns of the result
    n = 20_000
    pt = PhaseTable(factor_values(parse_polynomial("x^2+1"), n))
    ones = np.ones((1, n), dtype=bool)
    peaks = {}
    for reps in (256, 2560):
        tracemalloc.start()
        try:
            out = replicate_sums(pt, 5, reps, ones)
            peaks[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, reps)
    assert peaks[256] <= 12 * 2 ** 20
    assert peaks[2560] <= peaks[256] + 2 ** 20


@pytest.mark.parametrize("tile", [7, None])
def test_replicate_sums_hash_each_prime_once_per_chunk(tile, monkeypatch):
    # the shared primes once per chunk, each tile's local primes once
    # before the tile: every chunk hashes every prime exactly once
    if tile:
        monkeypatch.setattr(rmf, "_TILE", tile)
    monkeypatch.setattr(rmf, "_CHUNK", 3)
    n = 1000
    pt = PhaseTable(factor_values(parse_polynomial("x^2+1"), n))
    hashed = {}

    def counted(key, primes_u64, out=None):
        keys = np.asarray(key, dtype=np.uint64)
        if keys.ndim:
            hashed.setdefault(int(keys[0]), []).append(primes_u64.tolist())
        return angles_for_key(key, primes_u64, out=out)

    monkeypatch.setattr(rmf, "angles_for_key", counted)
    frozen = np.arange(len(pt.primes)) % 3 == 0
    for frz in (None, frozen):
        hashed.clear()
        replicate_sums(pt, 4, 7, np.ones((1, n), dtype=bool), frozen=frz)
        assert len(hashed) == 3
        for calls in hashed.values():
            assert len(calls) == 1 + -(-n // rmf._TILE)
            assert sorted(p for c in calls for p in c) == sorted(pt.primes)


def test_frozen_primes_keep_their_angles_in_head_and_tail(monkeypatch):
    # tiles of 7 rows: a prime of one tile is hashed into the block's tail
    # before its tile, a prime of several into the head once per chunk;
    # frozen primes of both kinds keep their base angles
    monkeypatch.setattr(rmf, "_TILE", 7)
    monkeypatch.setattr(rmf, "_CHUNK", 2)
    n = 60
    table = factor_values(parse_polynomial("x^2+1"), n)
    pt = PhaseTable(table)
    tiles = prime_to_indices(table)
    shared = np.array([len({(i - 1) // 7 for i in tiles[p]}) > 1
                       for p in pt.primes])
    assert shared.any() and not shared.all()
    idx = np.arange(n)
    selector = np.vstack([idx >= 0, idx % 4 == 1, idx > n // 3])
    parity = np.arange(len(pt.primes)) % 2 == 0
    assert (parity & shared).any() and (parity & ~shared).any()
    for frozen in (shared, ~shared, parity):
        assert np.array_equal(replicate_sums(pt, 9, 5, selector, frozen=frozen),
                              sequential_set_sums(table, 9, 5, selector, frozen))
