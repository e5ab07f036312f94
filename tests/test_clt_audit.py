from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from oracles import mcleish_brute
from polyrmf.clt_audit import (
    ks_statistic,
    mcleish_audit,
    normal_cdf_half_variance,
    run_clt,
)
from polyrmf.energy import ProgressionRange, energy
from polyrmf.polynomial import parse_polynomial
from polyrmf.rmf import PhaseTable, replicate_sums
from polyrmf.sieve import factor_values


def test_normal_cdf_values():
    assert normal_cdf_half_variance(0.0) == 0.5
    assert abs(normal_cdf_half_variance(1.0) - 0.921350396474857) < 1e-12
    assert abs(
        normal_cdf_half_variance(-2.0) + normal_cdf_half_variance(2.0) - 1.0
    ) < 1e-15


def test_ks_statistic_hand_case():
    # single sample at 0: empirical CDF jumps 0 -> 1, reference is 0.5
    assert abs(ks_statistic(np.array([0.0])) - 0.5) < 1e-12


def test_ks_statistic_discriminates():
    rng = np.random.default_rng(0)
    good = rng.normal(0.0, np.sqrt(0.5), 4000)
    bad = rng.uniform(-1, 1, 4000)
    assert ks_statistic(good) < 0.03
    assert ks_statistic(bad) > 0.05


def test_run_clt_rejects_inadmissible():
    with pytest.raises(ValueError, match="pure power"):
        run_clt(parse_polynomial("0,0,1"), 50, 200, 1)
    with pytest.raises(ValueError, match="replicates"):
        run_clt(parse_polynomial("x^2+1"), 50, 99, 1)


def test_run_clt_small_statistics(x2p1):
    run = run_clt(x2p1, 120, 400, 3)
    st = run.stats
    assert st.n_samples == 400 and len(run.samples) == 400
    assert st.exact_second_moment == 1  # injective, no unit values
    assert st.small_value_count == 0 and st.zero_value_count == 0
    # crude finite-sample sanity, generous bounds
    assert abs(st.mean_re) < 0.2 and abs(st.mean_im) < 0.2
    assert 0.3 < st.var_re < 0.7 and 0.3 < st.var_im < 0.7


def test_second_and_fourth_moment_against_exact(x2p1):
    n_max = 120
    run = run_clt(x2p1, n_max, 4000, 12)
    st = run.stats
    assert abs(st.abs2_mean - float(st.exact_second_moment)) <= 5 * st.abs2_se
    exact4 = energy(x2p1, ProgressionRange(n_max)).total / n_max**2
    assert abs(st.abs4_mean - exact4) <= 5 * st.abs4_se


def test_exact_second_moment_counts_value_collisions(x2m6x):
    # x^2-6x on [5] has values -5,-8,-9,-8,-5 -> 9 equal-|value| pairs,
    # and n=6 is a root (excluded); pairs stay 9 at N=6
    run = run_clt(x2m6x, 6, 150, 5)
    assert run.stats.exact_second_moment == Fraction(9, 6)
    assert run.stats.zero_value_count == 1


def test_samples_use_documented_replicate_seeds(x2p1):
    from math import sqrt

    from polyrmf.rmf import SteinhausSampler, derive_seed

    table = factor_values(x2p1, 90)
    run = run_clt(x2p1, 90, 120, 31, table=table)
    for r in (0, 1, 119):
        scalar = SteinhausSampler(derive_seed(31, r)).partial_sum(table, 90)
        assert abs(run.samples[r] - scalar / sqrt(90)) <= 1e-9


def test_thread_counts_bit_identical(x2p1):
    table = factor_values(x2p1, 150)
    pt = PhaseTable(table, 150)
    # rows: the full prefix, then the even n; every third prime frozen
    selector = sparse.csr_matrix(
        np.vstack([np.ones(150), np.arange(1, 151) % 2 == 0]))
    frozen = np.arange(len(pt.primes)) % 3 == 0
    one, three, eight = (
        replicate_sums(pt, 9, 1300, selector, frozen=frozen, threads=t)
        for t in (1, 3, 8))
    assert one.shape == (2, 1300)
    assert np.array_equal(one, three)
    assert np.array_equal(one, eight)


@pytest.mark.parametrize("text,n_max", [
    ("x^2+1", 50),
    ("x^2+1", 200),
    ("0,-6,1", 60),   # zeros, repeats, negative values
    ("x^2+x", 40),
    ("2,-6,1", 30),   # repeated values inside C31 divisor pairs
])
def test_mcleish_audit_matches_brute_force(text, n_max):
    poly = parse_polynomial(text)
    table = factor_values(poly, n_max)
    audit = mcleish_audit(poly, table, [n_max])
    sc = audit.scales[0]
    variance, lindeberg, cross = mcleish_brute(table, n_max)
    assert sc.variance_sum == variance
    assert sc.lindeberg_sum == lindeberg
    assert sc.cross_term == cross


def test_mcleish_audit_pinned_fractions():
    # values from the O(|g|^3) triple-loop implementation; the largest
    # groups here are beyond the reach of the brute-force oracle
    poly = parse_polynomial("x^2+x")
    table = factor_values(poly, 2000)
    sc1000, sc2000 = mcleish_audit(poly, table, [1000, 2000]).scales
    assert (sc1000.variance_sum, sc1000.lindeberg_sum, sc1000.cross_term) == (
        1, Fraction(8637, 250000), Fraction(247513, 250000))
    assert (sc2000.variance_sum, sc2000.lindeberg_sum, sc2000.cross_term) == (
        1, Fraction(22401, 1000000), Fraction(198691, 200000))


def test_variance_sum_exactly_one_for_injective():
    poly = parse_polynomial("x^3+2x+1")
    table = factor_values(poly, 60)
    audit = mcleish_audit(poly, table, [60])
    assert audit.scales[0].variance_sum == 1


def test_audit_requires_coverage(x2p1):
    table = factor_values(x2p1, 50)
    with pytest.raises(ValueError):
        mcleish_audit(x2p1, table, [50, 100])
