import importlib
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt, prod
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bp_bound,
    energy_allpairs,
    energy_cross,
    energy_cross_loop,
    energy_quadruple_loop,
    group_pair_counter,
    lonely_removal_is_valid,
    lpf_groups,
    pair_histogram,
    pair_histogram_total,
    paired_prime_counter,
    paired_prime_quadruples_loop,
    ratio_histogram,
    same_prime_quadruples_loop,
    square_sum_counter,
    table_rows,
)
from polyrmf import polynomial, primes
from polyrmf.clt_audit import mcleish_audit
from polyrmf.energy import (
    ProgressionRange,
    _crt_primes,
    _exact_array,
    _lonely,
    _pair_total,
    _residue_keys,
    _square_sum,
    check_energy_config,
    energy,
    error_exponent,
    exponent_fit,
    group_pair_counts,
    value_pair_count,
)
from polyrmf.errors import BudgetError
from polyrmf.polynomial import IntPolynomial, classify, parse_polynomial
from polyrmf.sieve import factor_values, sieve_small_primes

# polyrmf re-exports a function named energy, so fetch the module itself
energy_module = importlib.import_module("polyrmf.energy")

POLY_MATRIX = ["x^2+1", "x^2+x", "0,-6,1", "x^3+x", "x^3+2x+1", "2x^3+3x^2+x"]


def test_progression_members_and_size():
    r = ProgressionRange(10, 3, 1)
    assert list(r.members()) == [1, 4, 7, 10]
    assert r.size == 4
    r = ProgressionRange(10, 3, 0)
    assert list(r.members()) == [3, 6, 9]
    assert r.size == 3
    r = ProgressionRange(10, 1, 0)
    assert list(r.members()) == list(range(1, 11))
    # beyond 2^63 members, where len() of the range overflows
    assert ProgressionRange(10**20, 3, 1).size == (10**20 - 1) // 3 + 1
    assert ProgressionRange(10**20).size == 10**20
    with pytest.raises(BudgetError):
        check_energy_config(parse_polynomial("x^2+1"), [10**20])


@given(n=st.integers(1, 200), q=st.integers(1, 9), a=st.integers(0, 8))
def test_progression_size_matches_enumeration(n, q, a):
    if a >= q:
        a %= q
    r = ProgressionRange(n, q, a)
    assert r.size == len(list(r.members()))


def test_progression_validation():
    with pytest.raises(ValueError):
        ProgressionRange(10, 0, 0)
    with pytest.raises(ValueError):
        ProgressionRange(10, 3, 3)
    with pytest.raises(ValueError):
        ProgressionRange(0, 1, 0)


def test_concrete_counts_pinned():
    rep = energy(parse_polynomial("x^2+1"), ProgressionRange(3))
    assert (rep.total, rep.diagonal_arg, rep.nontrivial) == (15, 15, 0)
    rep = energy(parse_polynomial("0,-6,1"), ProgressionRange(5))
    assert (rep.total, rep.diagonal_arg) == (129, 45)
    assert rep.value_diagonal + rep.nontrivial == 84
    rep = energy(parse_polynomial("x^2+1"), ProgressionRange(2, 2, 1))
    assert (rep.total, rep.diagonal_arg) == (1, 1)


@pytest.mark.parametrize("text", POLY_MATRIX)
@pytest.mark.parametrize("q,a", [(1, 0), (2, 1), (3, 2), (4, 1), (5, 0), (5, 3)])
def test_oracle_equivalence_small(text, q, a):
    poly = parse_polynomial(text)
    for n_max in range(max(1, a if a else q), 9):
        rng = ProgressionRange(n_max, q, a)
        if rng.size == 0:
            continue
        values = [poly(x) for x in rng.members()]
        assert energy(poly, rng).total == energy_quadruple_loop(values)


@pytest.mark.parametrize("text", POLY_MATRIX)
def test_oracle_equivalence_wider_progressions(text):
    # q up to 5 at larger N, against the all-pairs O(M^4) oracle
    from oracles import energy_allpairs

    poly = parse_polynomial(text)
    for q in (4, 5):
        for a in range(q):
            for n_max in (q, 17, 36, 55):
                rng = ProgressionRange(n_max, q, a)
                if rng.size == 0:
                    continue
                values = [poly(x) for x in rng.members()]
                assert energy(poly, rng).total == energy_allpairs(values)


def test_splits_partition_and_diagonal_identity():
    for text in POLY_MATRIX:
        poly = parse_polynomial(text)
        for n_max in (1, 2, 5, 9, 17):
            rep = energy(poly, ProgressionRange(n_max))
            m = rep.range.size
            assert rep.diagonal_arg == 2 * m * m - m
            assert rep.total == rep.diagonal_arg + rep.value_diagonal + rep.nontrivial
            assert rep.total >= rep.diagonal_arg
            assert rep.value_diagonal >= 0 and rep.nontrivial >= 0


def test_value_diagonal_zero_without_repeats(x2p1):
    # x^2+1 is injective on positive integers
    rep = energy(x2p1, ProgressionRange(40))
    assert rep.value_diagonal == 0


def test_value_diagonal_positive_for_shifted_even(x2m6x):
    rep = energy(x2m6x, ProgressionRange(5))
    assert rep.generalized_even_center == 6
    assert rep.value_diagonal == 84


@given(coeffs=st.lists(st.integers(-9, 9), min_size=2, max_size=4),
       n_max=st.integers(1, 12), k=st.integers(1, 3))
@settings(max_examples=60)
def test_sign_and_square_scaling_invariance(coeffs, n_max, k):
    if coeffs[-1] == 0:
        coeffs = coeffs + [1]
    poly = IntPolynomial(tuple(coeffs))
    rng = ProgressionRange(n_max)
    base = energy(poly, rng).total
    neg = IntPolynomial(tuple(-c for c in coeffs))
    scaled = IntPolynomial(tuple(k * k * c for c in coeffs))
    assert energy(neg, rng).total == base
    assert energy(scaled, rng).total == base


def test_cross_consistency(x2p1):
    rng = ProgressionRange(3)
    assert energy_cross(x2p1, x2p1, rng) == energy(x2p1, rng).total == 15
    rng = ProgressionRange(17)
    assert energy_cross(x2p1, x2p1, rng) == energy(x2p1, rng).total


def test_cross_known_cases(x2p1):
    assert energy_cross(x2p1, parse_polynomial("x^2+2"), ProgressionRange(2)) == 0
    x = parse_polynomial("0,1")
    assert energy_cross(x, x, ProgressionRange(2)) == 6


def test_cross_matches_loop_oracle():
    p1 = parse_polynomial("x^2+1")
    p2 = parse_polynomial("x^2+x")
    rng = ProgressionRange(7)
    vals1 = [p1(x) for x in rng.members()]
    vals2 = [p2(x) for x in rng.members()]
    assert energy_cross(p1, p2, rng) == energy_cross_loop(vals1, vals2)


def test_monotone_domination(x2p1):
    full = energy(x2p1, ProgressionRange(30)).total
    for q in (2, 3, 5):
        for a in range(q):
            sub = energy(x2p1, ProgressionRange(30, q, a)).total
            assert sub <= full


def pair_total_in_passes(values, run_items):
    """``_pair_total`` sorting at most about ``run_items`` products at once.

    Patched here rather than by a monkeypatch fixture, which hypothesis
    refuses to share between examples."""
    with mock.patch.object(energy_module, "_RUN_ITEMS", run_items):
        return _pair_total(values)


def test_counting_paths_agree():
    poly = parse_polynomial("x^2+x")
    values = [poly(x) for x in range(1, 120)]
    d = pair_histogram_total(values)
    assert _pair_total(values) == d
    assert pair_total_in_passes(values, 500) == d


def test_counting_big_integers_against_loop():
    # values far beyond int64: exercise the exact big-integer path
    poly = IntPolynomial((1, 0, 10**12))
    values = [poly(x) for x in range(1, 8)]
    assert pair_histogram_total(values) == energy_quadruple_loop(values)
    assert _pair_total(values) == energy_quadruple_loop(values)
    assert pair_total_in_passes(values, 5) == energy_quadruple_loop(values)
    rep = energy(poly, ProgressionRange(7))
    assert rep.total == energy_quadruple_loop(values)


def test_counting_big_integers_with_collisions_in_passes():
    # object-dtype values with signs, repeats, a zero and many equal
    # products a*b = c*d, counted in several passes
    values = [s * k * 2**40 for s in (1, -1) for k in (1, 2, 3, 4, 6, 8, 12)]
    values += [2**40, -(3 * 2**40), 0]
    want = energy_quadruple_loop(values)
    assert pair_histogram_total(values) == want
    assert _pair_total(values) == want
    for run_items in (1, 7, 40):
        assert pair_total_in_passes(values, run_items) == want


# the largest |v| with v^2 < 2^63, and with v^2 < 2^63 * (2^31 - 1): one
# more takes one more CRT prime
K0_EDGE = isqrt(2**63 - 1)
K1_EDGE = isqrt(2**63 * (2**31 - 1) - 1)


def test_crt_primes_are_derived_from_the_largest_value():
    assert _crt_primes(0) == _crt_primes(K0_EDGE) == []
    assert _crt_primes(K0_EDGE + 1) == _crt_primes(K1_EDGE) == [2**31 - 1]
    assert _crt_primes(K1_EDGE + 1) == [2**31 - 1, sympy.prevprime(2**31 - 1)]
    for v in (10**20, 2**100, 3**200):
        qs = _crt_primes(v)
        assert qs == sorted(set(qs), reverse=True) and all(map(sympy.isprime, qs))
        assert v * v < 2**63 * prod(qs) and v * v >= 2**63 * prod(qs[:-1])


def _signed_around(v):
    return [v, -v, v - 1, -(v - 1), v, 1, -1, 2, 0]


CRT_EDGE_INPUTS = {
    # products that agree mod 2^64 but differ (2^70, 2^64, 0)
    "mod 2^64": [2**40, 2**30, 2**34, -2**34, 3 * 2**40, 0, 1],
    # 2^47 * 2^17 (2^31 - 1) agrees with 0 mod 2^64 and mod 2^31 - 1
    "mod 2^64 (2^31-1)": [2**47, 2**17 * (2**31 - 1), 0, 1, -1, 2**47],
    "k=0 top": _signed_around(K0_EDGE),
    "k=1 bottom": _signed_around(K0_EDGE + 1),
    "k=1 top": _signed_around(K1_EDGE),
    "k=2 bottom": _signed_around(K1_EDGE + 1),
    "beyond 2^64": [IntPolynomial((10**20, -3, 7))(x) for x in range(-4, 9)],
}


@pytest.mark.parametrize("values", CRT_EDGE_INPUTS.values(), ids=CRT_EDGE_INPUTS)
def test_crt_keys_at_their_edges(values):
    want = energy_quadruple_loop(values)
    assert pair_histogram_total(values) == want
    assert _pair_total(values) == want
    for run_items in (1, 7, 40):
        assert pair_total_in_passes(values, run_items) == want


def _forced_mix(mix):
    """``_square_sum`` with the mixing constant C = ``mix``: 0 gives every
    key row the mixed word 0, and 1 leaves a single key column as its own
    word, so keys that differ in their low 32 bits alone share a top word."""
    return mock.patch.object(energy_module, "_MIX", np.uint64(mix))


def test_mixed_word_collisions_are_lexsorted():
    # with C = 0 the argsort by the mixed word alone would leave 2^70, 2^64
    # and 0 interleaved in one run
    for key in ("mod 2^64", "mod 2^64 (2^31-1)"):
        values = CRT_EDGE_INPUTS[key]
        with _forced_mix(0), mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            assert _pair_total(values) == energy_quadruple_loop(values)
        assert lexsort.called
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        _pair_total(CRT_EDGE_INPUTS["beyond 2^64"])
    assert not lexsort.called


def _assert_counts_are_exact(values):
    """``_pair_total``, ``value_pair_count`` (with and without tags) and
    ``group_pair_counts`` of ``values`` against the Counter oracles."""
    assert _pair_total(values) == pair_histogram_total(values)
    assert pair_total_in_passes(values, 7) == pair_histogram_total(values)
    tags = np.arange(len(values)) % 3
    for keys, t in ((values, None), (list(zip(values, tags.tolist())), tags)):
        assert value_pair_count(values, t) == sum(c * c for c in Counter(keys).values())
    nonzero = [v for v in values if v]
    groups = [g for g in (nonzero[::2], nonzero[1::2]) if g]
    if groups:
        assert group_pair_counts(*_flatten(groups)) == group_pair_counter(groups)


@pytest.mark.parametrize("mix", [0, 1])
@pytest.mark.parametrize("values", CRT_EDGE_INPUTS.values(), ids=CRT_EDGE_INPUTS)
def test_forced_mixed_words_keep_the_crt_edges_exact(mix, values):
    with _forced_mix(mix):
        _assert_counts_are_exact(values)


def _sorted_dtypes(values):
    """dtypes of every array that _pair_total sorts or searches: the arguments
    of np.argsort, np.lexsort, np.sort and np.searchsorted, and each array
    whose own sort or argsort method runs.  numpy's types refuse patched
    methods, so a profile hook sees those calls."""
    seen = []

    def record(name):
        func = getattr(np, name)

        def wrapper(a, *args, **kwargs):
            arrays = list(a) if name == "lexsort" else [a, *args[:1]]
            seen.extend(np.asarray(x).dtype for x in arrays)
            return func(a, *args, **kwargs)

        return mock.patch.object(np, name, wrapper)

    def hook(frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", "") in ("sort", "argsort")
                and isinstance(getattr(arg, "__self__", None), np.ndarray)):
            seen.append(arg.__self__.dtype)

    with record("argsort"), record("lexsort"), record("sort"), record("searchsorted"):
        sys.setprofile(hook)
        try:
            _pair_total(values)
        finally:
            sys.setprofile(None)
    return seen


@pytest.mark.parametrize("poly,xs", [
    (IntPolynomial((0, 1, 0, 1)), range(1, 81)),  # x^3+x at N = 80
    (IntPolynomial((10**20, 0, 1)), range(1, 41)),
    (IntPolynomial((1, 0, 10**20)), range(-20, 21)),
])
def test_no_object_dtype_is_sorted(poly, xs):
    # x^3+x stays below K0_EDGE here; the other values and the collision
    # list (lexsorted) lie past it
    for values in ([poly(x) for x in xs], CRT_EDGE_INPUTS["mod 2^64"]):
        seen = _sorted_dtypes(values)
        assert seen and all(dt != np.dtype(object) for dt in seen), seen


# values with equal low words but different CRT words: the pairwise
# products of the mod 2^64 edge list (2^70, 2^64 and 0 among them)
_COLLIDING = sorted({v * w for v in CRT_EDGE_INPUTS["mod 2^64"]
                     for w in CRT_EDGE_INPUTS["mod 2^64"]})


@given(st.lists(st.tuples(st.sampled_from(_COLLIDING + list(range(-3, 4))),
                          st.integers(0, 2), st.integers(1, 9)), max_size=60))
@example([])
@example([(2**70, 1, 3)] * 7)  # all keys equal
@example([(v, 0, 2) for v in range(-20, 20)])  # no repeats
@example([(2**70, 0, 1), (2**64, 0, 2), (0, 0, 3), (2**70, 0, 4), (0, 1, 5)])
@settings(max_examples=150, deadline=None)
def test_square_sum_matches_counter(items):
    # keyed by (value, tag) with mixed weights, against a Counter, at the
    # real mixing constant and at both forced ones
    values = [v for v, _, _ in items]
    tags = np.array([t for _, t, _ in items], dtype=np.int64)
    weights = np.array([w for _, _, w in items], dtype=np.int64)
    arr, qs = _exact_array(values)
    want = square_sum_counter(zip(values, tags.tolist()), weights.tolist())
    for mix in (energy_module._MIX, 0, 1):
        with _forced_mix(mix):
            assert _square_sum(_residue_keys(arr, qs) + [tags], weights) == want


@pytest.mark.parametrize("mix", [0, 1])
@given(values=st.lists(st.sampled_from(_COLLIDING) | st.integers(-2**70, 2**70)
                       | st.integers(-2**8, 2**8).map(lambda k: 2**40 + k),
                       min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_forced_mixed_words_keep_drawn_values_exact(mix, values):
    # the values 2^40 + k share their top 32 bits
    with _forced_mix(mix):
        _assert_counts_are_exact(values)


def test_many_passes_equal_one_pass():
    # every value is a multiple of 65537, and x = 256 gives one of 65537^2
    # (256^2 + 1 = 65537); one item per pass needs the cap of 2^16
    poly = IntPolynomial((65537, 0, 65537))
    values = [poly(x) for x in range(-3, 400)] + [0]
    want = pair_histogram_total(values)
    assert _pair_total(values) == want
    assert pair_total_in_passes(values, 5000) == want
    with mock.patch.object(energy_module, "_square_sum",
                           wraps=energy_module._square_sum) as square_sum:
        assert pair_total_in_passes(values, 1) == want
    assert square_sum.call_count == 2**16  # one per class, none for the zeros


P16 = 65537
# rows with and without factors 65537 whose products and ratios agree:
# 2 (3 p) = 3 (2 p) = 6 p, p p = p^2 1 and (2 p)/2 = p/1
MIXED_65537 = [2, 3, 6, P16, 2 * P16, -3 * P16, 6 * P16, P16**2, 2 * P16**2]


def test_classes_strip_every_power_of_65537():
    values = MIXED_65537 + [-1, 0, 0]
    want = pair_histogram_total(values)
    for run_items in (1, 7):
        assert pair_total_in_passes(values, run_items) == want


def test_log3_table_inverts_powers_of_3():
    log3 = energy_module._log3_table()
    assert energy_module._log3_table() is log3 and not log3.flags.writeable
    assert all(pow(3, e, P16) == u for u, e in enumerate(log3[1:].tolist(), 1))


def _traced_peak(call) -> int:
    """The peak bytes that tracemalloc sees (numpy's arrays among them)
    while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_total_memory_stays_within_a_few_passes():
    # 4.5e6 canonical products in passes of 2^18: one pass's arrays, not
    # the 75 MiB of passes of 4e6
    values = [x * x + 1 for x in range(1, 3001)]
    assert _traced_peak(lambda: _pair_total(values)) <= 16 * 2**20


def test_audit_memory_stays_within_a_few_passes():
    table = factor_values(parse_polynomial("x^2+x"), 20000)
    assert _traced_peak(lambda: mcleish_audit(table, [20000])) <= 32 * 2**20


@given(values=st.lists(st.integers(-2**100, 2**100), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_counting_agrees_on_values_of_any_size(values):
    values = values + [-v for v in values[:3]] + [0]
    want = pair_histogram_total(values)
    assert _pair_total(values) == want
    assert pair_total_in_passes(values, 37) == want


def _flatten(groups):
    """(values, tags) of ``group_pair_counts`` for a list of groups: the
    values of group g, in order, tagged g."""
    groups = list(groups)
    return ([v for g in groups for v in g],
            np.repeat(np.arange(len(groups)), [len(g) for g in groups]))


def _paired_primes(table):
    """(same, total) of ``group_pair_counts`` over the signed values of the
    largest-prime groups: sum_g C22 and sum_g C22 + D."""
    _, same, total, _, _ = group_pair_counts(*_flatten(lpf_groups(table).values()))
    return same, total


def test_same_prime_mode_beyond_2_64():
    table = factor_values(IntPolynomial((10**20, 0, 1)), 14)
    assert (_paired_primes(table)[0]
            == same_prime_quadruples_loop(table_rows(table)))


@pytest.mark.parametrize("text,n_max", [
    ("x^2+x", 2000), ("0,-6,1", 200), ("100000000000000000000,0,1", 14),
    ("x^3+2x+1", 500),
])
def test_same_prime_modes_agree_beyond_brute_force(text, n_max):
    # sum_g C22 from the group-tagged product keys of all groups at once is
    # the sum of the energies of the groups counted one at a time
    table = factor_values(parse_polynomial(text), n_max)
    same, _ = _paired_primes(table)
    assert same == sum(_pair_total(g) for g in lpf_groups(table).values())


def test_budget_error_suggests_chunked(x2p1):
    with pytest.raises(BudgetError, match="chunked"):
        energy(x2p1, ProgressionRange(100), budget=1000)
    # chunked mode, no budget, works where the budget refused
    rep = energy(x2p1, ProgressionRange(100), budget=None)
    assert rep.mode == "chunked"
    assert rep.total == energy(x2p1, ProgressionRange(100)).total


def test_same_prime_mode_matches_brute_force(x2p1, x2m6x):
    t = factor_values(x2p1, 3)
    assert _paired_primes(t)[0] == 7
    assert same_prime_quadruples_loop(table_rows(t)) == 7

    t = factor_values(x2m6x, 5)
    got, _ = _paired_primes(t)
    assert got == same_prime_quadruples_loop(table_rows(t))
    assert got >= 5  # includes cross terms from P(1) = P(5)

    t = factor_values(x2p1, 12)
    assert _paired_primes(t)[0] == same_prime_quadruples_loop(table_rows(t))


def test_same_prime_single_point(x2p1):
    t = factor_values(x2p1, 1)  # P(1) = 2, a single quadruple
    assert _paired_primes(t)[0] == 1


def test_paired_primes_matches_brute_force(x2p1, x2m6x):
    for table in (factor_values(x2p1, 10), factor_values(x2m6x, 8)):
        same, total = _paired_primes(table)
        assert (total, same, total - same) == (
            paired_prime_quadruples_loop(table_rows(table)))


@pytest.mark.parametrize("text,n_max", [
    ("x^2+x", 10000), ("x^2+7x+12", 2500), ("x^3+2x+1", 3000),
    ("100000000000000000000,0,1", 200),
])
def test_paired_primes_match_the_counter_engine(text, n_max):
    # signed values, beyond the reach of the quadruple loop
    table = factor_values(parse_polynomial(text), n_max)
    same, total = _paired_primes(table)
    assert (total, same, total - same) == paired_prime_counter(table)


def _signed_groups(seed):
    """Random signed groups that share absolute values across groups, so
    that pairs with |v| = |w| must be counted inside each group."""
    rng = np.random.default_rng(seed)
    pool = [2, 3, 4, 6, 12, 36, 65537, 2 * 65537, 65537**2]
    return [[int(rng.choice([-1, 1])) * int(rng.choice(pool))
             for _ in range(rng.integers(1, 9))] for _ in range(rng.integers(1, 6))]


def _table_groups(text, n_max):
    return list(lpf_groups(factor_values(parse_polynomial(text), n_max)).values())


GROUP_CASES = {
    "multiples of 65537": lambda: _table_groups("65537,0,65537", 40),
    "beyond 2^64": lambda: _table_groups("100000000000000000000,0,1", 14),
    "mixed powers of 65537": lambda: [MIXED_65537, [-2, P16, 1, P16**2]],
    **{f"signed {seed}": lambda seed=seed: _signed_groups(seed) for seed in range(4)},
}


# 4e6 pairs per pass is more than any case here holds: a single pass
@pytest.mark.parametrize("groups", GROUP_CASES.values(), ids=GROUP_CASES)
@pytest.mark.parametrize("run_items", [1, 7, 4_000_000])
def test_group_pair_counts_in_forced_passes(groups, run_items):
    groups = groups()
    with mock.patch.object(energy_module, "_RUN_ITEMS", run_items):
        got = group_pair_counts(*_flatten(groups))
    assert got == group_pair_counter(groups)


_POOL = [2, 3, 4, 6, 12, 36, 65537, 2 * 65537, 65537**2, 3**40, 2**70]
# tags 2^30 apart wrap onto one int32 key from four passes on
_TAGS = [0, 1, 5, 2**15 + 1, 2**30, 2**30 + 1, 2**30 + 5, 2**31 - 1]


@pytest.mark.parametrize("run_items", [1, 7, 4_000_000])
@given(items=st.lists(
           st.tuples(st.sampled_from(_TAGS) | st.integers(0, 2**31 - 1),
                     st.sampled_from(_POOL) | st.integers(2, 2**80),
                     st.booleans()),
           min_size=1, max_size=24),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_group_pair_counts_takes_any_integer_tags(run_items, items, seed):
    # int32 tags, as CSR columns are, in any order and not 0..g-1: above
    # 2^31 / passes a tag times the pass count overflows an int32 key
    order = np.random.default_rng(seed).permutation(len(items))
    tags = np.array([items[i][0] for i in order], dtype=np.int32)
    values = [-v if neg else v for _, v, neg in (items[i] for i in order)]
    groups = {}
    for t, v in zip(tags.tolist(), values):
        groups.setdefault(t, []).append(v)
    with mock.patch.object(energy_module, "_RUN_ITEMS", run_items):
        got = group_pair_counts(values, tags)
    assert got == group_pair_counter(list(groups.values()))


def test_group_pair_counts_stay_in_bounded_passes():
    # at least 16 passes of seven square sums: none may see more than a
    # quarter of the ordered pairs, whichever keys it sorts
    table = factor_values(parse_polynomial("x^2+x"), 2000)
    groups = [[abs(v) for v in g] for g in lpf_groups(table).values()]
    pairs = sum(len(g) ** 2 for g in groups)
    want = group_pair_counts(*_flatten(groups))
    with mock.patch.object(energy_module, "_RUN_ITEMS", pairs // 16), \
            mock.patch.object(energy_module, "_square_sum",
                              wraps=energy_module._square_sum) as square_sum:
        assert group_pair_counts(*_flatten(groups)) == want
    sizes = [len(call.args[0][0]) for call in square_sum.call_args_list]
    assert len(sizes) >= 16 * 7 and max(sizes) <= pairs / 4


def test_error_exponents():
    assert error_exponent(2) == Fraction(5, 3)
    assert error_exponent(3) == Fraction(19, 10)
    assert error_exponent(4) == Fraction(2) - Fraction(1, 14)
    assert error_exponent(1) is None


def test_exponent_fit_rejects_pure_power():
    with pytest.raises(ValueError, match="pure power"):
        exponent_fit(parse_polynomial("0,0,1"), [10, 20])


def test_exponent_fit_uses_degree_exponent():
    fit = exponent_fit(parse_polynomial("x^3+x"), [30, 60])
    assert fit.exponent == Fraction(19, 10)
    assert all(pt.ratio == pt.offdiag / pt.N ** (19 / 10) for pt in fit.points)


def test_energy_factors_no_coefficient(monkeypatch):
    # x^2 + c with c a 29-digit semiprime: classify splits c by rho, which
    # took seconds; energy reads only the symmetry center, and sieves its
    # values by small primes alone, with no primality test and no rho
    def refuse(n, _out=None):
        raise AssertionError(f"factorize({n}) called")

    def refuse_test(n):
        raise AssertionError(f"primality test or rho on {n}")

    monkeypatch.setattr(polynomial, "factorize", refuse)
    poly = IntPolynomial((100000000000031 * 100000001000027, 0, 1))
    with pytest.raises(AssertionError, match="factorize"):
        classify(poly)
    monkeypatch.setattr(primes, "is_prime", refuse_test)
    monkeypatch.setattr(primes, "brent_rho", refuse_test)
    with pytest.raises(AssertionError, match="primality"):
        factor_values(poly, 40)  # the full table tests its rough cofactors
    start = time.perf_counter()
    rep = energy(poly, ProgressionRange(40))
    assert time.perf_counter() - start < 1
    assert rep.generalized_even_center == 0
    assert rep.total == pair_histogram_total([poly(x) for x in range(1, 41)])
    start = time.perf_counter()
    fit = exponent_fit(poly, [20, 40])
    assert time.perf_counter() - start < 1
    assert fit.points[-1].offdiag == rep.total - rep.diagonal_arg


REPEATING = ["x^2-6x", "x^2-10x+21"]  # P(n) = P(6 - n), P(n) = P(10 - n)


@st.composite
def energy_cases(draw):
    """(P, progression) with integer roots inside [1, N] (zero values),
    repeated values, negative leading coefficients, coefficients >= 2^63
    or q <= 6."""
    q = draw(st.integers(1, 6))
    a = draw(st.integers(0, q - 1))
    n = draw(st.integers(q, 70))
    kind = draw(st.sampled_from(["roots", "repeats", "negative", "huge", "wide"]))
    if kind == "roots":
        roots = draw(st.lists(st.integers(-3, n), min_size=1, max_size=3))
        coeffs = [draw(st.integers(-4, 4).filter(bool))]
        for r in roots:  # multiply by (x - r)
            coeffs = [0] + coeffs
            coeffs = [c - r * d for c, d in zip(coeffs, coeffs[1:] + [0])]
        poly = IntPolynomial(coeffs)
    elif kind == "repeats":
        poly = parse_polynomial(draw(st.sampled_from(REPEATING)))
    else:
        big = {"negative": 10**4, "huge": 2**66, "wide": 10**7}[kind]
        low = 2**63 if kind == "huge" else 0
        coef = st.integers(low, big) | st.integers(-big, -low)
        lead = st.integers(-9, -1) if kind == "negative" else coef.filter(bool)
        poly = IntPolynomial(draw(st.lists(coef, min_size=1, max_size=3))
                             + [draw(lead)])
    return poly, ProgressionRange(n, q, a)


@given(case=energy_cases())
@settings(max_examples=150, deadline=None)
def test_energy_with_lonely_values_is_exact(case):
    poly, rng = case
    values = [poly(x) for x in rng.members()]
    assert energy(poly, rng).total == pair_histogram_total(values)
    stage = sieve_small_primes(poly, rng.members())
    assert lonely_removal_is_valid(values, _lonely(stage, rng.size))


def test_energy_counts_repeated_lonely_partners():
    # 775 = 5^2 31 and 1147 = 31 37 go lonely in two rounds; the values
    # left hold 4 pairs P(n) = P(6 - n), so s2(R) = 41 for |R| = 37
    poly = parse_polynomial("x^2-6x")
    stage = sieve_small_primes(poly, range(1, 41))
    lonely = _lonely(stage, 40)
    assert stage.values[lonely].tolist() == [775, 1147]
    assert energy(poly, ProgressionRange(40)).total == 10096
    assert pair_histogram_total([poly(x) for x in range(1, 41)]) == 10096


def test_prime_cofactor_that_divides_a_rough_one_is_kept():
    # P(1) = q and P(2) = q r for the primes q = 10007 and r = 10009 above
    # B = 10^4: q is P(1)'s cofactor, alone among the prime cofactors, but
    # it divides P(2)'s cofactor q r >= (B + 1)^2, and only % can tell
    q, r = 10007, 10009
    poly = IntPolynomial((2 - q * q, q * (r - 1) - 3, 1))
    stage = sieve_small_primes(poly, range(1, 31))
    assert stage.bound == 10**4 and stage.residual[:2].tolist() == [q, q * r]
    lonely = _lonely(stage, 30)
    assert not lonely[0] and lonely.sum() > 10
    values = stage.values.tolist()
    assert lonely_removal_is_valid(values, lonely)
    assert energy(poly, ProgressionRange(30)).total == pair_histogram_total(values)


def test_lonely_tests_each_cell_once():
    # P(2) = 3 q r goes lonely on 3 in the first round, and only then is
    # P(1) = q free of the rough cofactor q r: the hit found before the
    # rounds drops with its row
    q, r = 10007, 10009
    stage = sieve_small_primes(IntPolynomial((2 * q - 3 * q * r, 3 * q * r - q)),
                               range(1, 3))
    assert stage.residual.tolist() == [q, q * r]
    with mock.patch.object(energy_module, "word_hits", wraps=primes.word_hits) as spy:
        assert _lonely(stage, 2).tolist() == [True, True]
    assert spy.call_count == 1
    # seven removal rounds, and one word_hits call for all of them
    poly = parse_polynomial("5x^3+11x+10")
    stage = sieve_small_primes(poly, range(1, 1401))
    with mock.patch.object(energy_module, "word_hits", wraps=primes.word_hits) as spy:
        lonely = _lonely(stage, 1400)
    assert spy.call_count == 1 and lonely.sum() == 1078
    assert lonely_removal_is_valid(stage.values.tolist(), lonely)


def test_lonely_check_takes_values_of_1440_bits():
    # P(1) = 100019977 is a prime cofactor 24 below (B + 1)^2, checked
    # against 49 rough cofactors of up to 1438 bits: 45 limbs of 32 bits
    # could let a limb sum weighted modulo it pass 2^64, so it takes 16
    poly = parse_polynomial("x^256-x^255+100019977")
    stage = sieve_small_primes(poly, range(1, 51))
    assert stage.bound == 10**4 and stage.residual[0] == 10_001**2 - 24
    rough = stage.residual[stage.residual >= 10_001**2]
    assert primes._limbs(rough, 10_001**2 - 24)[1] == 16
    assert energy(poly, ProgressionRange(50)).total == 4950
    assert lonely_removal_is_valid(stage.values.tolist(), _lonely(stage, 50))


@pytest.mark.parametrize("text,kept", [("x^2+1", 0.45), ("x^2+5x+6", 1)])
def test_lonely_values_skip_the_pair_passes(text, kept):
    # a lonely value has a prime of its own, so x^2+1 drops most values;
    # (x+2)(x+3) shares x+2 with the value before and x+3 with the one
    # after, and the last value's 1003 = 17 * 59 is shared as well
    poly = parse_polynomial(text)
    values = [poly(x) for x in range(1, 1001)]
    with mock.patch.object(energy_module, "count_pair_products",
                           wraps=energy_module.count_pair_products) as spy:
        total = energy(poly, ProgressionRange(1000)).total
    (call,) = spy.call_args_list
    if kept == 1:
        assert call.args[0] == values
    else:
        assert len(call.args[0]) <= kept * 1000
    assert total == _pair_total(values)


def test_exponent_fit_grid_validation(x2p1):
    with pytest.raises(ValueError, match="ascending"):
        exponent_fit(x2p1, [100, 50])


def test_bp_bound():
    with pytest.raises(ValueError):
        bp_bound(2, 15)
    with pytest.raises(ValueError):
        bp_bound(1, 100)
    b = bp_bound(2, 16)
    assert b.value > 0 and not b.asymptotic_regime
    b2 = bp_bound(2, 10**6)
    assert not b2.asymptotic_regime  # exp(2^6) far exceeds 10^6
    b3 = bp_bound(3, 10**6)
    assert b3.value > b2.value  # concrete comparison at equal N


def test_report_flags(x2m6x, x2p1):
    rep = energy(x2m6x, ProgressionRange(6))
    assert rep.has_negative_values and rep.zero_value_count == 1
    rep = energy(x2p1, ProgressionRange(6))
    assert not rep.has_negative_values and rep.zero_value_count == 0


def test_allpairs_oracle_self_consistent(x2p1):
    # the acceptance oracle agrees with the quadruple loop on tiny cases
    values = [x2p1(x) for x in range(1, 7)]
    assert energy_allpairs(values) == energy_quadruple_loop(values)


@given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=40))
@settings(max_examples=80)
def test_counting_paths_agree_on_arbitrary_values(values):
    # repeated values, zeros, and signs included
    want = pair_histogram_total(values)
    assert _pair_total(values) == want
    assert pair_total_in_passes(values, 64) == want


@given(values=st.lists(st.integers(-9, 9), min_size=1, max_size=8))
@settings(max_examples=60)
def test_pair_counting_matches_quadruple_loop(values):
    want = energy_quadruple_loop(values)
    assert pair_histogram_total(values) == want
    assert _pair_total(values) == want
    assert pair_total_in_passes(values, 5) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**12, 10**12).filter(bool), min_size=1, max_size=12))
def test_pair_histogram_matches_ordered_pairs(values):
    assert pair_histogram(values) == Counter(v * w for v, w in product(values, repeat=2))
    ratios = Counter(Fraction(v, w) for v, w in product(values, repeat=2))
    got = ratio_histogram(values)
    assert all(den > 0 for _, den in got)
    assert {Fraction(num, den): c for (num, den), c in got.items()} == ratios
