import cmath
import random

import numpy as np
import pytest
from scipy import stats

from oracles import ConditionalSampler
from polyrmf.polynomial import parse_polynomial
from polyrmf.primes import factorize, sieve_primes
from polyrmf.rmf import (
    M64,
    PhaseTable,
    SteinhausSampler,
    angles_for_key,
    derive_seed,
    mix64,
)
from polyrmf.sieve import FactoredValue, factor_values


def _fv(m: int) -> FactoredValue:
    factors = tuple(sorted(factorize(abs(m)).items()))
    return FactoredValue(n=1, value=m, factors=factors,
                         largest_prime=factors[-1][0] if factors else 0)


def test_angle_deterministic_and_in_range():
    s1 = SteinhausSampler(123)
    s2 = SteinhausSampler(123)
    for p in (2, 3, 5, 999999937, 10**15 + 37):
        a = s1.angle(p)
        assert a == s2.angle(p)
        assert 0.0 <= a < 1.0


def test_angle_golden_values():
    # frozen stream contract: changing the generator is a breaking change
    s = SteinhausSampler(1)
    assert s.angle(2) == 0.37239342287916577
    assert s.angle(3) == 0.4382839062845528
    assert s.angle(1299709) == 0.6855914743491333
    assert derive_seed(7, 0) == 7191089600892374487
    assert derive_seed(7, 1) == 309689372594955804


def test_scalar_vector_angles_identical():
    s = SteinhausSampler(987654321)
    primes = np.array(sieve_primes(20_000), dtype=np.uint64)
    vec = angles_for_key(s.key, primes)
    scalar = np.array([s.angle(int(p)) for p in primes])
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
    u = np.array([s.angle(p) for p, _ in pairs])
    v = np.array([s.angle(q) for _, q in pairs])
    corr = np.corrcoef(u, v)[0, 1]
    assert abs(corr) < 0.05


def test_f_of_basics():
    s = SteinhausSampler(42)
    assert s.f_of(_fv(1)) == 1 + 0j
    z = s.f_of(_fv(17))
    assert abs(abs(z) - 1.0) <= 1e-9
    assert abs(z - cmath.exp(2j * cmath.pi * s.angle(17))) <= 1e-12
    # p^2 -> square of f(p)
    assert abs(s.f_of(_fv(289)) - s.f_of(_fv(17)) ** 2) <= 1e-9
    # sign ignored
    assert s.f_of(_fv(-6)) == s.f_of(_fv(6))
    with pytest.raises(ValueError):
        s.f_of(FactoredValue(n=6, value=0, factors=(), largest_prime=0))


def test_complete_multiplicativity_bulk():
    s = SteinhausSampler(11)
    rng = random.Random(3)
    for _ in range(10_000):
        m = rng.randint(2, 100_000)
        n = rng.randint(2, 100_000)
        err = abs(s.f_of(_fv(m * n)) - s.f_of(_fv(m)) * s.f_of(_fv(n)))
        assert err <= 1e-9


def test_partial_sum_edges(x2p1):
    table = factor_values(parse_polynomial("0,0,1"), 5)
    s = SteinhausSampler(9)
    assert s.partial_sum(table, 0) == 0j
    assert s.partial_sum(table, 1) == 1 + 0j  # f(1) = 1
    t = factor_values(x2p1, 3)
    expected = s.f_of(t.row(1)) + s.f_of(t.row(2)) + s.f_of(t.row(3))
    got = s.partial_sum(t, 3)
    assert abs(got - expected) <= 1e-12
    assert abs(got) <= 3
    with pytest.raises(ValueError):
        s.partial_sum(t, 4)


def test_martingale_piece_examples(x2p1):
    t = factor_values(x2p1, 3)
    s = SteinhausSampler(5)
    assert s.martingale_piece(t, 97, 3) == 0j  # 97 divides no P(n)
    expected = s.f_of(t.row(2)) + s.f_of(t.row(3))  # largest primes 2,5,5
    assert abs(s.martingale_piece(t, 5, 3) - expected) <= 1e-12


def test_partition_identity_with_unit_values():
    # P = x^2 - 2 has |P(1)| = 1: contributes 1 to the partial sum but
    # belongs to no per-prime piece
    poly = parse_polynomial("-2,0,1")
    table = factor_values(poly, 50)
    s = SteinhausSampler(31)
    pieces = sum(s.martingale_piece(table, p, 50)
                 for p in sorted(table.prime_to_indices))
    unit_count = sum(1 for r in table.rows if abs(r.value) == 1)
    assert unit_count == 1
    assert abs(pieces + unit_count - s.partial_sum(table, 50)) <= 1e-9


def test_partition_identity_with_zeros(x2m6x):
    table = factor_values(x2m6x, 40)
    s = SteinhausSampler(8)
    pieces = sum(s.martingale_piece(table, p, 40)
                 for p in sorted(table.prime_to_indices))
    units = sum(1 for r in table.rows if abs(r.value) == 1)
    assert abs(pieces + units - s.partial_sum(table, 40)) <= 1e-9


def test_prime_subsum(x2p1):
    t = factor_values(x2p1, 3)
    s = SteinhausSampler(2)
    assert s.prime_subsum(factor_values(x2p1, 1), 1) == 0j  # no primes
    expected = s.f_of(t.row(2)) + s.f_of(t.row(3))  # primes 2, 3
    assert abs(s.prime_subsum(t, 3) - expected) <= 1e-12
    x = parse_polynomial("0,1")
    t2 = factor_values(x, 2)
    assert abs(s.prime_subsum(t2, 2) - s.f_of(t2.row(2))) <= 1e-12


def test_replicate_seed_derivation():
    s = SteinhausSampler(99)
    assert s.replicate(3).seed == derive_seed(99, 3)
    assert s.replicate(0).angle(7) != s.replicate(1).angle(7)


def test_phase_table_matches_scalar(x2p1):
    table = factor_values(x2p1, 200)
    s = SteinhausSampler(314159)
    pt = PhaseTable(table, 200)
    z = pt.unit_values_batch(pt.angles(s))
    for n in (1, 2, 50, 200):
        assert abs(z[n - 1] - s.f_of(table.row(n))) <= 1e-9
    assert abs(z[:137].sum() - s.partial_sum(table, 137)) <= 1e-9


def test_phase_table_zero_rows(x2m6x):
    table = factor_values(x2m6x, 10)
    pt = PhaseTable(table, 10)
    z = pt.unit_values_batch(pt.angles(SteinhausSampler(4)))
    assert z[5] == 0  # P(6) = 0 is excluded, not mapped to 1


def test_prime_subsum_skips_roots_at_prime_arguments():
    # P = x^2 - 4 vanishes at the prime argument 2
    poly = parse_polynomial("-4,0,1")
    table = factor_values(poly, 5)
    s = SteinhausSampler(6)
    expected = s.f_of(table.row(3)) + s.f_of(table.row(5))  # primes 3, 5
    assert abs(s.prime_subsum(table, 5) - expected) <= 1e-12


def test_batch_matches_single_column(x2p1):
    table = factor_values(x2p1, 120)
    pt = PhaseTable(table, 120)
    samplers = [SteinhausSampler(derive_seed(55, r)) for r in range(4)]
    theta = np.stack([pt.angles(s) for s in samplers], axis=1)
    batch = pt.unit_values_batch(theta)
    for b, s in enumerate(samplers):
        single = pt.unit_values_batch(pt.angles(s))
        assert np.array_equal(batch[:, b], single)


def test_conditional_sampler_dispatch(x2p1):
    table = factor_values(x2p1, 20)
    base = SteinhausSampler(1)
    inner = SteinhausSampler(2)
    cs = ConditionalSampler(base=base, inner=inner, resample=frozenset({5}))
    assert cs.angle(5) == inner.angle(5)
    assert cs.angle(13) == base.angle(13)
    row = table.row(3)  # 10 = 2 * 5
    expect = cmath.exp(2j * cmath.pi *
                       ((base.angle(2) + inner.angle(5)) % 1.0))
    assert abs(cs.f_of(row) - expect) <= 1e-12


def test_mix64_is_64_bit():
    assert mix64(0) == 0
    for z in (1, 2**63, 2**64 - 1, 123456789):
        assert 0 <= mix64(z) < 2**64


def test_phase_table_primes_above_2_64():
    # P(19) = 19^2 + 10^20 is itself a prime above 2^64
    table = factor_values(parse_polynomial("100000000000000000000,0,1"), 20)
    big = table.row(19).largest_prime
    assert big > M64
    pt = PhaseTable(table, 20)
    s = SteinhausSampler(2718)
    i = pt.primes.index(big)
    assert pt.angles(s)[i] == s.angle(big)
    assert pt.membership_mask([big]).tolist() == [p == big for p in pt.primes]
    z = pt.unit_values_batch(pt.angles(s))
    assert abs(z.sum() - s.partial_sum(table, 20)) <= 1e-9
