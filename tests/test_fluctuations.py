from fractions import Fraction
from math import log, sqrt

import numpy as np
import pytest

from oracles import (ConditionalSampler, a_union, partial_sum,
                     prime_to_indices, s2_membership_scan, split_labels,
                     split_sums, table_rows, variance_floor_counter)
from polyrmf import rmf
from polyrmf.clt_audit import run_clt
from polyrmf.errors import BudgetError
from polyrmf.fluctuations import (
    build_grid,
    build_prime_sets,
    classification_labels,
    run_fluct,
    s2_second_moment,
    variance_floor,
)
from polyrmf.polynomial import parse_polynomial
from polyrmf.rmf import M64, SteinhausSampler, derive_seed
from polyrmf.sieve import factor_values


def test_build_grid_examples():
    g = build_grid(100, 3, 4)
    assert g.points == (100, 400, 1600)
    with pytest.raises(ValueError):
        build_grid(100, 1, 2)
    with pytest.raises(ValueError):
        build_grid(99, 2, 2)
    with pytest.raises(ValueError):
        build_grid(100, 2, Fraction(3, 2))
    with pytest.raises(BudgetError):
        build_grid(10_000, 5, 8)  # top point 4.096e7


@pytest.fixture(scope="module")
def family_200(x2p1):
    grid = build_grid(200, 2, 4)  # {200, 800}
    table = factor_values(x2p1, 800)
    return x2p1, table, grid, build_prime_sets(table, grid)


def test_family_set_inclusions(family_200):
    _, _, _, fam = family_200
    for e, f, a in zip(fam.e_sets, fam.f_sets, fam.a_sets):
        assert a <= f <= e


def test_family_disjointness(family_200):
    _, _, _, fam = family_200
    assert not (fam.e_sets[0] & fam.e_sets[1])
    assert not (fam.a_sets[0] & fam.a_sets[1])


def test_family_threshold_and_divisibility(family_200):
    _, table, _, fam = family_200
    thr = 200 * log(200) / 8
    assert fam.thresholds[0] == pytest.approx(thr)
    incidence = prime_to_indices(table)
    for p in fam.a_sets[0]:
        assert p >= thr
        assert any(n <= 200 for n in incidence[p])


def test_family_no_shared_n_exhaustive(family_200):
    _, table, grid, fam = family_200
    rows = table_rows(table)
    for i, x in enumerate(grid.points):
        for n in range(1, x + 1):
            hits = sum(
                1 for p, _ in rows[n - 1].factors if p in fam.a_sets[i]
            )
            assert hits <= 1


def test_family_greedy_bound(family_200):
    _, _, _, fam = family_200
    for f, a in zip(fam.f_sets, fam.a_sets):
        if f:
            assert len(a) >= len(f) / 2  # d = 2


def test_family_matches_row_scan_rederivation(family_200):
    # re-derive E_i and the greedy A_i straight from the factor rows,
    # sharing no code with build_prime_sets
    _, table, grid, fam = family_200
    prev_x = 0
    for i, x in enumerate(grid.points):
        thr = x * log(x) / 8  # d = 2
        have_now, have_before = set(), set()
        rows = table_rows(table, 0, x)
        for row in rows:
            for p, _ in row.factors:
                if p >= thr:
                    have_now.add(p)
                    if row.n <= prev_x:
                        have_before.add(p)
        assert fam.e_sets[i] == have_now - have_before
        # greedy re-run over ascending F_i primes
        accepted: set[int] = set()
        claimed: set[int] = set()
        for p in sorted(fam.f_sets[i]):
            hits = {row.n for row in rows
                    if any(q == p for q, _ in row.factors)}
            if not hits & claimed:
                accepted.add(p)
                claimed |= hits
        assert fam.a_sets[i] == accepted
        prev_x = x


def test_e_sets_exclude_earlier_scales(family_200):
    # primes of E_2 divide no P(n) with n <= x_1
    _, table, grid, fam = family_200
    incidence = prime_to_indices(table)
    for p in fam.e_sets[1]:
        assert incidence[p][0] > grid.points[0]


@pytest.mark.parametrize("x_base,ratio", [(300, 4), (400, 4), (400, 6), (300, 8)])
def test_f_sets_are_e_sets_minus_the_previous_scale(x_base, ratio):
    # the scale grids of the benchmark's fluct jobs (k = 3): F_1 = E_1 and
    # F_{i+1} = E_{i+1} minus E_i, recomputed from the reported E_i
    poly = parse_polynomial("x^2+3x+7")
    grid = build_grid(x_base, 3, ratio)
    fam = build_prime_sets(factor_values(poly, grid.points[-1]), grid)
    e = fam.e_sets
    assert fam.f_sets == e[:1] + tuple(b - a for a, b in zip(e, e[1:]))


def test_split_partition_identity(family_200):
    poly, table, grid, fam = family_200
    s = SteinhausSampler(13)
    for i in range(2):
        parts = split_sums(s, table, fam, i)
        total = parts.s1 + parts.s2 + parts.s3
        assert abs(total - partial_sum(s, table, grid.points[i])) <= 1e-9


def test_empty_family_puts_everything_in_s3():
    # x^2 has P+(P(n)) <= n, and beyond n = e^8 the thresholds pass n:
    # every E_i comes out empty, so S3 carries the whole sum
    poly = parse_polynomial("0,0,1")
    grid = build_grid(3000, 2, 2)  # thresholds 3002 and 6525 exceed x_i
    table = factor_values(poly, 6000)
    fam = build_prime_sets(table, grid)
    assert all(not e for e in fam.e_sets)
    assert all(not a for a in fam.a_sets)
    s = SteinhausSampler(3)
    parts = split_sums(s, table, fam, 1)
    assert parts.s1 == 0 and parts.s2 == 0
    assert abs(parts.s3 - partial_sum(s, table, 6000)) <= 1e-9


def test_s2_second_moment_basics(family_200):
    _, table, grid, fam = family_200
    assert s2_second_moment(table, fam, 0) == 0  # empty union below i = 1
    count = s2_second_moment(table, fam, 1)
    assert count == s2_membership_scan(table, fam.a_sets, 1, grid.points[1])
    # divisor-count upper bound: each prime p marks at most
    # floor(x/p)*d + d indices
    x = grid.points[1]
    bound = sum((x // p) * 2 + 2 for p in fam.a_sets[0])
    assert count <= bound


def test_variance_floor(family_200):
    _, table, _, fam = family_200
    for i in range(2):
        fl = variance_floor(table, fam, i)
        assert fl.mu >= fl.lower_bound >= 0
        if fam.a_sets[i]:
            assert fl.mu > 0


@pytest.mark.parametrize("text,x_base,k", [
    ("x^2+1", 200, 2), ("x^2+1", 100, 3), ("x^2+x", 100, 2),
    ("1,-101,1", 100, 2),  # P(n) = P(101 - n): pairs of equal values
])
def test_variance_floor_matches_the_counter_oracle(text, x_base, k):
    # and the labels and S2 counts against the row scans
    poly = parse_polynomial(text)
    grid = build_grid(x_base, k, 4)
    table = factor_values(poly, grid.points[-1])
    fam = build_prime_sets(table, grid)
    labels = classification_labels(table, fam)
    for i, x in enumerate(grid.points):
        want = variance_floor_counter(table, fam, i)
        floor = variance_floor(table, fam, i)
        assert floor.mu == Fraction(want, 2 * x)
        assert labels[i].tolist() == split_labels(table, fam, i)
        assert s2_second_moment(table, fam, i) == s2_membership_scan(
            table, fam.a_sets, i, x)
        # the label-1 rows of scale i are the union of the T_{i,p}
        assert floor.lower_bound == Fraction(int(np.sum(labels[i] == 1)), 2 * x)


def test_variance_floor_empty_family():
    poly = parse_polynomial("0,0,1")
    grid = build_grid(3000, 2, 2)
    table = factor_values(poly, 6000)
    fam = build_prime_sets(table, grid)
    fl = variance_floor(table, fam, 1)
    assert fl.mu == 0 and fl.lower_bound == 0


def test_classification_labels_match_scalar(family_200):
    poly, table, grid, fam = family_200
    labels = classification_labels(table, fam)
    s = SteinhausSampler(29)
    from polyrmf.rmf import PhaseTable

    pt = PhaseTable(table)
    z = pt.unit_values_batch(pt.angles(s))
    for i in range(2):
        lab = labels[i]
        s1 = z[:len(lab)][lab == 1].sum()
        s2 = z[:len(lab)][lab == 2].sum()
        s3 = z[:len(lab)][lab == 0].sum()
        parts = split_sums(s, table, fam, i)
        assert abs(s1 - parts.s1) <= 1e-9
        assert abs(s2 - parts.s2) <= 1e-9
        assert abs(s3 - parts.s3) <= 1e-9


def _s3(rep):
    """S3 of every scale and replicate: the partial sum less S1 and S2."""
    return rep.partial_matrix - rep.s1_matrix - rep.s2_matrix


def test_run_fluct_vectorized_matches_scalar(x2p1):
    rep = run_fluct(x2p1, 100, 2, 4, 8, 77)
    table = factor_values(x2p1, 400)
    fam = build_prime_sets(table, rep.grid)
    for r in (0, 5):
        s = SteinhausSampler(derive_seed(77, r))
        for i in range(2):
            parts = split_sums(s, table, fam, i)
            assert abs(rep.s1_matrix[i, r] - parts.s1) <= 1e-9
            assert abs(rep.s2_matrix[i, r] - parts.s2) <= 1e-9
            assert abs(_s3(rep)[i, r] - parts.s3) <= 1e-9


def test_run_fluct_partition_and_max_stat(x2p1):
    rep = run_fluct(x2p1, 100, 2, 4, 16, 5)
    s3 = _s3(rep)
    total = rep.s1_matrix + rep.s2_matrix + s3
    assert np.max(np.abs(total - rep.partial_matrix)) <= 1e-9
    for r in range(16):
        stats = []
        for i, x in enumerate(rep.grid.points):
            denom = np.sqrt(x * max(1.0, np.log(np.log(x))))
            stats.append(abs(rep.partial_matrix[i, r]) / denom)
        assert rep.max_stats[r] == pytest.approx(max(stats))


def test_run_fluct_nested_grid_dominance(x2p1):
    rep2 = run_fluct(x2p1, 100, 2, 4, 32, 11)
    rep3 = run_fluct(x2p1, 100, 3, 4, 32, 11)
    # matched replicate seeds: the k=3 max includes the k=2 scales
    assert np.all(rep3.max_stats >= rep2.max_stats - 1e-12)
    assert np.array_equal(rep2.partial_matrix, rep3.partial_matrix[:2])


def test_run_fluct_conditional_freezes_s3(x2p1):
    rep = run_fluct(x2p1, 100, 2, 4, 6, 23, conditional=True)
    s3 = _s3(rep)
    for i in range(2):
        spread = np.max(np.abs(s3[i] - s3[i, 0]))
        assert spread <= 1e-9  # frozen across replicates
    # unconditional S3 does vary
    rep_u = run_fluct(x2p1, 100, 2, 4, 6, 23, conditional=False)
    assert np.max(np.abs(_s3(rep_u)[0] - _s3(rep_u)[0, 0])) > 1e-6


def test_run_fluct_mc_variance_matches_exact(x2p1):
    rep = run_fluct(x2p1, 100, 2, 4, 600, 41)
    for sc in rep.scales:
        if sc.a_size:
            exact = float(sc.exact_abs_s1_sq)
            assert abs(sc.mc_abs_s1_sq_mean - exact) <= 5 * sc.mc_abs_s1_sq_se


def test_run_fluct_threads_bit_identical(x2p1):
    one = run_fluct(x2p1, 100, 2, 4, 700, 2, threads=1)
    four = run_fluct(x2p1, 100, 2, 4, 700, 2, threads=4)
    assert np.array_equal(one.s1_matrix, four.s1_matrix)
    assert np.array_equal(one.partial_matrix, four.partial_matrix)
    assert np.array_equal(one.max_stats, four.max_stats)


def test_split_sums_pinned_regression(x2p1):
    # frozen at the first verified run of this configuration
    table = factor_values(x2p1, 400)
    fam = build_prime_sets(table, build_grid(100, 2, 4))
    s = SteinhausSampler(derive_seed(42, 0))
    parts = split_sums(s, table, fam, 0)
    assert parts.s1 == pytest.approx(-8.995469274943547 + 3.312614965668357j)
    assert parts.s2 == 0j
    assert parts.s3 == pytest.approx(-2.202603842330584 + 3.5254603626140755j)
    parts = split_sums(s, table, fam, 1)
    assert parts.s2 == pytest.approx(-19.242348323238208 - 1.9066276245914016j)
    assert s2_second_moment(table, fam, 1) == 139


def test_max_stat_median_pinned_regression(x2p1):
    rep = run_fluct(x2p1, 100, 2, 4, 200, 42)
    assert rep.max_stat_quantiles["median"] == pytest.approx(
        0.7951400710234724)


def test_report_carries_admissibility_flag(x2p1):
    rep = run_fluct(parse_polynomial("x^2+x"), 100, 2, 4, 4, 1)
    assert not rep.fluct_admissible
    rep = run_fluct(x2p1, 100, 2, 4, 4, 1)
    assert rep.fluct_admissible
    assert "surrogate" in rep.grid_model


def _conditional_matches_scalar_oracle(poly, ratio, reps, seed):
    """run_fluct(conditional=True) at X = 100, k = 2 against the
    ConditionalSampler split sums; returns the prime-set family."""
    rep = run_fluct(poly, 100, 2, ratio, reps, seed, conditional=True)
    table = factor_values(poly, rep.grid.points[-1])
    fam = build_prime_sets(table, rep.grid)
    for r in (0, reps - 1):
        sampler = ConditionalSampler(
            base=SteinhausSampler(seed),
            inner=SteinhausSampler(derive_seed(seed, r)),
            resample=a_union(fam))
        for i in range(2):
            parts = split_sums(sampler, table, fam, i)
            assert abs(rep.s1_matrix[i, r] - parts.s1) <= 1e-9
            assert abs(rep.s2_matrix[i, r] - parts.s2) <= 1e-9
            assert abs(_s3(rep)[i, r] - parts.s3) <= 1e-9
    return fam


def test_run_fluct_conditional_matches_scalar_oracle(x2p1):
    _conditional_matches_scalar_oracle(x2p1, 4, 9, 23)


def test_run_fluct_conditional_with_a_primes_above_2_64():
    # values near 1e20 leave A-primes beyond 2^64, whose angles hash p mod 2^64
    poly = parse_polynomial("100000000000000000000,0,1")
    fam = _conditional_matches_scalar_oracle(poly, 2, 5, 31)
    assert max(a_union(fam)) > M64


def test_clt_and_fluct_share_one_engine(x2p1):
    rep = run_fluct(x2p1, 100, 3, 4, 300, 7)
    for i, x in enumerate(rep.grid.points):
        samples = run_clt(x2p1, x, 300, 7).samples
        assert np.array_equal(samples, rep.partial_matrix[i] / sqrt(x))


def test_chunk_width_does_not_change_results(x2p1, monkeypatch):
    clt = run_clt(x2p1, 300, 260, 4).samples
    fl = run_fluct(x2p1, 100, 2, 4, 260, 4, conditional=True)
    # a block budget below one column leaves chunks of a single replicate
    monkeypatch.setattr(rmf, "BLOCK_BYTES", 0)
    assert np.array_equal(run_clt(x2p1, 300, 260, 4).samples, clt)
    narrow = run_fluct(x2p1, 100, 2, 4, 260, 4, conditional=True)
    for name in ("s1_matrix", "s2_matrix", "partial_matrix", "max_stats"):
        assert np.array_equal(getattr(narrow, name), getattr(fl, name))


# 37-row tiles leave a short last tile in both tables (300 and 400 rows);
# a block budget of 0 gives chunks of a single replicate
@pytest.mark.parametrize("tile,block,threads",
                         [(1, None, 1), (1, None, 3), (37, 0, 1), (37, 0, 3)])
def test_tile_size_does_not_change_results(x2p1, monkeypatch, tile, block,
                                           threads):
    def outputs(threads):
        fl = run_fluct(x2p1, 100, 2, 4, 260, 4, conditional=True,
                       threads=threads)
        return [run_clt(x2p1, 300, 260, 4, threads=threads).samples] + [
            getattr(fl, name)
            for name in ("s1_matrix", "s2_matrix", "partial_matrix", "max_stats")]

    wide = outputs(1)
    monkeypatch.setattr(rmf, "_TILE", tile)
    if block is not None:
        monkeypatch.setattr(rmf, "BLOCK_BYTES", block)
    for got, want in zip(outputs(threads), wide):
        assert np.array_equal(got, want)
