"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; the asserts are the gate either way.  Pinned integers are exact
deterministic counts from the first verified run; statistical bounds use
the fixed seeds below.
"""

from fractions import Fraction

import numpy as np
import pytest

from oracles import energy_allpairs, prime_to_indices
from polyrmf.clt_audit import mcleish_audit, run_clt
from polyrmf.energy import ProgressionRange, energy, exponent_fit
from polyrmf.fluctuations import build_grid, build_prime_sets, run_fluct
from polyrmf.polynomial import parse_polynomial
from polyrmf.sieve import factor_values, lpf_density

POLY_MATRIX = ["x^2+1", "x^2+x", "0,-6,1", "x^3+x", "x^3+2x+1", "2x^3+3x^2+x"]
CLT_SEED = 7
FLUCT_SEED = 7
KS_THRESHOLD = 0.012  # pilot at seed 7 gave 0.0055; initialized at 0.02


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def poly():
    return parse_polynomial("x^2+1")


@pytest.fixture(scope="module")
def clt_run(poly):
    return run_clt(poly, 1000, 20000, CLT_SEED, threads=1)


@pytest.fixture(scope="module")
def table_32000(poly):
    return factor_values(poly, 32000)


@pytest.fixture(scope="module")
def fluct_setup(poly, table_32000):
    grid = build_grid(500, 3, 8)
    family = build_prime_sets(table_32000, grid)
    report = run_fluct(poly, 500, 3, 8, 2000, FLUCT_SEED)
    return grid, family, report


def test_criterion_1_energy_oracle_equivalence():
    checked = 0
    for text in POLY_MATRIX:
        p = parse_polynomial(text)
        for q in (1, 2, 3):
            for a in range(q):
                for n in range(1, 61):
                    rng = ProgressionRange(n, q, a)
                    if rng.size == 0:
                        continue
                    values = [p(x) for x in rng.members()]
                    assert energy(p, rng).total == energy_allpairs(values), (
                        text, n, q, a)
                    checked += 1
    _report(1, f"hash-grouped energy == O(M^4) brute force on {checked} "
               "configurations (6 polynomials, N <= 60, q in {1,2,3})")


def test_criterion_2_concrete_counts(poly):
    rep = energy(poly, ProgressionRange(3))
    assert (rep.total, rep.nontrivial) == (15, 0)
    rep6 = energy(parse_polynomial("0,-6,1"), ProgressionRange(5))
    assert (rep6.total, rep6.diagonal_arg) == (129, 45)
    _report(2, "E(x^2+1 on [3]) = 15 with 0 nontrivial; "
               "E(x^2-6x on [5]) = 129 with argument-diagonal 45")


def test_criterion_3_paucity_trend(poly):
    fit = exponent_fit(poly, [500, 1000, 2000, 4000], budget=None)
    offdiags = [pt.offdiag for pt in fit.points]
    # exact deterministic counts, pinned at the first verified run
    assert offdiags == [1788, 3364, 6288, 11968]
    assert fit.slope is not None and fit.slope < 1.9
    assert fit.points[-1].ratio <= 3 * fit.points[0].ratio
    _report(3, f"off-diagonal log-log slope {fit.slope:.3f} < 1.9; "
               f"offdiag/N^(5/3) falls {fit.points[0].ratio / fit.points[-1].ratio:.2f}x "
               "from N=500 to N=4000 (chunked counting)")


def test_criterion_4_fourth_moment_identity(poly, clt_run):
    exact = energy(poly, ProgressionRange(1000)).total
    assert exact == 2002364  # pinned exact count
    exact_over_n2 = exact / 1000**2
    st = clt_run.stats
    diff_se = abs(st.abs4_mean - exact_over_n2) / st.abs4_se
    assert diff_se <= 5
    _report(4, f"Monte-Carlo E|X|^4 = {st.abs4_mean:.4f} vs exact "
               f"{exact_over_n2:.4f} ({diff_se:.2f} standard errors)")


def test_criterion_5_clt_statistics(clt_run):
    st = clt_run.stats
    assert abs(st.mean_re) <= 0.015
    assert 0.47 <= st.var_re <= 0.53
    assert abs(st.cov_re_im) <= 0.02
    assert st.ks_re < KS_THRESHOLD
    _report(5, f"mean_re={st.mean_re:+.4f}, var_re={st.var_re:.4f}, "
               f"cov={st.cov_re_im:+.4f}, KS(Re)={st.ks_re:.4f} < {KS_THRESHOLD}")


def test_criterion_6_mcleish_audit(poly):
    table = factor_values(poly, 800)
    audit = mcleish_audit(table, [200, 400, 800])
    for sc in audit.scales:
        assert sc.variance_sum == 1  # injective with all |P(n)| > 1
    linds = [sc.lindeberg_sum for sc in audit.scales]
    assert linds == [Fraction(123, 5000), Fraction(27, 2000),
                     Fraction(483, 64000)]  # pinned exact values
    assert linds[0] > linds[1] > linds[2]
    cross800 = audit.scales[-1].cross_term
    assert cross800 == Fraction(399, 400)  # pinned exact value
    assert Fraction(9, 10) <= cross800 <= Fraction(11, 10)
    _report(6, "variance_sum = 1 exactly at N=200,400,800; lindeberg_sum "
               f"strictly decreasing; cross_term(800) = {float(cross800):.4f}")


def test_criterion_7_prime_set_family(table_32000, fluct_setup):
    grid, family, _ = fluct_setup
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (family.a_sets[i] & family.a_sets[j])
    incidence = prime_to_indices(table_32000)
    for i, x in enumerate(grid.points):
        hits_per_n: dict[int, int] = {}
        for p in family.a_sets[i]:
            for n in incidence[p]:
                if n <= x:
                    hits_per_n[n] = hits_per_n.get(n, 0) + 1
        assert all(h <= 1 for h in hits_per_n.values())
    for f, a in zip(family.f_sets, family.a_sets):
        assert len(a) >= len(f) / 2
    sizes = [(len(f), len(a)) for f, a in zip(family.f_sets, family.a_sets)]
    _report(7, f"disjointness, no-shared-n, and |A_i| >= |F_i|/2 hold "
               f"exhaustively at X=500, k=3, ratio=8; (|F_i|,|A_i|) = {sizes}")


def test_criterion_8_cross_scale_decorrelation(fluct_setup):
    _, _, report = fluct_setup
    assert report.reps == 2000
    worst = 0.0
    for cv in report.covariances:
        ratio = abs(cv.covariance) / cv.standard_error
        worst = max(worst, ratio)
        assert ratio <= 5
    _report(8, f"all {len(report.covariances)} pairwise Re(S1) covariances "
               f"within 5 standard errors of 0 (worst {worst:.2f} SE, "
               "2000 replicates)")


def test_criterion_9_lpf_density(poly):
    table = factor_values(poly, 100_000)
    count, fraction = lpf_density(table, Fraction(1, 8))
    assert count == 74799  # pinned exact count
    assert fraction >= Fraction(5, 100)
    _report(9, f"P+(P(n)) >= n ln(n)/8 for {count}/99999 = "
               f"{float(fraction):.4f} of n <= 1e5 (>= 0.05)")


def test_criterion_10_thread_determinism(poly, clt_run):
    base = clt_run.stats
    for threads in (4, 8):
        rerun = run_clt(poly, 1000, 20000, CLT_SEED, threads=threads)
        st = rerun.stats
        assert st.n_samples == base.n_samples
        assert st.exact_second_moment == base.exact_second_moment
        assert st.small_value_count == base.small_value_count
        for field in ("mean_re", "mean_im", "var_re", "var_im", "cov_re_im",
                      "abs2_mean", "abs4_mean", "ks_re", "ks_im"):
            assert abs(getattr(st, field) - getattr(base, field)) <= 1e-9
        assert np.array_equal(rerun.samples, clt_run.samples)
    _report(10, "thread counts 1, 4, 8 give identical integer statistics "
                "and bit-identical float aggregates")
