"""Acceptance suite.

One test per criterion, run at the criterion's stated scale and tolerance;
each prints a PASS line on success (visible with `pytest -s`).  Shared
heavy work: the n <= 10^6 enumeration census (conftest fixture) and the
package-level rank caches.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from fibrank import (
    FIBONACCI,
    LucasParams,
    count_many,
    density_series,
    ell_of,
    fib_valuation,
    gcd_n_fib,
    gcd_n_lucas,
    inclusion_exclusion_check,
    is_member,
    jacobi,
    lucas_density_series,
    lucas_is_member,
    lucas_rank,
    partial_ell_sum,
    rank,
    rank_naive,
    rank_prime,
    scan_B,
    scan_low_rank_primes,
    verify_structure,
)
from fibrank.arith import primes_upto
from fibrank.cli import main as cli_main
from fibrank.rank import RankCache, default_cache

SCAN = 10**6
DENSITY_DEPTH = 10**5
MEMBER_KS = (1, 2, 5, 7, 10, 12)
NONMEMBER_KS = (3, 4, 6, 8, 9)
PELL = LucasParams(2, 1)

_density_memo: dict[int, object] = {}


def dens(k):
    if k not in _density_memo:
        _density_memo[k] = density_series(k, DENSITY_DEPTH)
    return _density_memo[k]


def int_val(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def divisibility_facts_suite(cache):
    """Classical z/ell divisibility facts, at the scales fixed by the invariants."""
    pair_mod = cache.pair_mod

    # 1. z(p) divides p - (p/5) for all primes p <= 1e5, p != 5
    for p in primes_upto(10**5):
        if p == 5:
            continue
        assert (p - jacobi(p, 5)) % rank_prime(p, cache) == 0, f"fact 1 fails at {p}"

    # 2. m | F_n iff z(m) | n, for m <= 300, n <= 3000
    for m in range(1, 301):
        z = rank(m, cache).z
        a, b = 1 % m, 1 % m
        for n in range(1, 3001):
            assert (a == 0) == (n % z == 0), f"fact 2 fails at m={m}, n={n}"
            a, b = b, (a + b) % m

    # 3. z(lcm(m, n)) = lcm(z(m), z(n)), 1e4 seeded random pairs <= 1e3
    rng = random.Random(20260809)
    for _ in range(10_000):
        m, n = rng.randint(1, 1000), rng.randint(1, 1000)
        assert rank(math.lcm(m, n), cache).z == math.lcm(rank(m, cache).z, rank(n, cache).z)

    # 4. nu_p(F_n) >= nu_p(n) whenever z(p) | n, for p <= 50, n <= 2000
    for p in primes_upto(50):
        z = rank_prime(p, cache)
        for n in range(z, 2001, z):
            need = p ** int_val(n, p)
            assert pair_mod(n, need)[0] == 0, f"fact 4 fails at p={p}, n={n}"
            assert fib_valuation(p, n) >= int_val(n, p)

    # 5. m | gcd(n, F_n) iff ell(m) | n, for m <= 200, n <= 5000
    for m in range(1, 201):
        ell = rank(m, cache).ell
        a, b = 1 % m, 1 % m
        for n in range(1, 5001):
            assert ((a == 0) and (n % m == 0)) == (n % ell == 0), f"fact 5 fails at m={m}, n={n}"
            a, b = b, (a + b) % m

    # 6. ell(lcm(m, n)) = lcm(ell(m), ell(n)), 1e4 seeded random pairs
    rng = random.Random(8060202)
    for _ in range(10_000):
        m, n = rng.randint(1, 1000), rng.randint(1, 1000)
        assert rank(math.lcm(m, n), cache).ell == math.lcm(rank(m, cache).ell, rank(n, cache).ell)

    # 7. ell(p) = p z(p) for primes p != 5; ell(5) = 5
    for p in primes_upto(10**4):
        expected = 5 if p == 5 else p * rank_prime(p, cache)
        assert rank(p, cache).ell == expected, f"fact 7 fails at {p}"


def test_criterion_01_rank_vs_naive():
    for m in range(1, 10_001):
        assert rank(m).z == rank_naive(m), m
    print("ACCEPTANCE 01 rank == naive rank for m <= 1e4: PASS")


def test_criterion_02_divisibility_facts():
    divisibility_facts_suite(default_cache())
    print("ACCEPTANCE 02 rank/ell divisibility facts: PASS")


def test_criterion_03_membership_iff_witnesses(census_1e6):
    for k in range(1, 101):
        member = is_member(k).member
        witnessed = k in census_1e6 and census_1e6[k][0].count > 0
        assert member == witnessed, k
        if member:
            assert census_1e6[k][0].witnesses[0] == ell_of(k), k
    assert {k for k in range(1, 11) if is_member(k).member} == {1, 2, 5, 7, 10}
    print("ACCEPTANCE 03 membership iff witness <= 1e6, least witness = ell(k): PASS")


def test_criterion_04_density_formula_vs_oracle(census_1e6):
    for k in MEMBER_KS:
        ratio = census_1e6[k][0].count / SCAN
        diff = abs(ratio - dens(k).float_value)
        assert diff <= 0.01, (k, diff)
    print("ACCEPTANCE 04 |#A_k(1e6)/1e6 - series(1e5)| <= 0.01 for members: PASS")


def test_criterion_05_vanishing_series_for_nonmembers():
    for k in NONMEMBER_KS:
        assert not is_member(k).member, k
        assert abs(dens(k).float_value) <= 0.01, k
    print("ACCEPTANCE 05 |series(1e5)| <= 0.01 for non-members: PASS")


def test_census_matches_counting_identity(census_1e6, series_count):
    # criteria 4 and 5 hold the series to the census within 0.01; at x = 1e6
    # the finite counting identity holds exactly, for members and non-members
    cache = default_cache()  # the ranks criterion 4's series computed
    for k in MEMBER_KS + NONMEMBER_KS:
        count = census_1e6[k][0].count if k in census_1e6 else 0
        assert series_count(cache, k, SCAN) == count, k
    print("ACCEPTANCE 04/05 #A_k(1e6) equals the counting identity exactly: PASS")


def test_criterion_06_inclusion_exclusion_exact_zero():
    for k in range(1, 31):
        gap = inclusion_exclusion_check(k, 1000)[2]
        assert gap == 0, k
    print("ACCEPTANCE 06 inclusion-exclusion gap exactly 0 for k <= 30: PASS")


def test_criterion_07_structural_decomposition():
    members = [k for k in range(1, 31) if is_member(k).member and ell_of(k) <= 1000]
    assert members == [1, 2, 5, 7, 10, 12, 13, 17, 24, 25, 26, 29]
    for k in members:
        assert verify_structure(k, 10**5), k
    print("ACCEPTANCE 07 A_k = ell(k) * nonmultiples(L_k) at x = 1e5: PASS")


def test_criterion_08_ell_sum_convergence_trend():
    sums = {j: partial_ell_sum(2**j) for j in range(2, 17)}
    windows = [sums[j + 1] - sums[j] for j in range(2, 16)]
    for earlier, later in zip(windows, windows[1:]):
        assert later < earlier, (earlier, later)
    print("ACCEPTANCE 08 dyadic increments of sum 1/ell(n) strictly decrease: PASS")


def test_criterion_09_B_sparsity_trend():
    rows, unknown = scan_B(10**4, checkpoints=[100, 1000, 10**4])
    assert unknown == 0
    assert rows[0].ratio > rows[1].ratio > rows[2].ratio
    for row in rows:
        assert row.count * math.log(row.x) / row.x >= 1.0, row
    print("ACCEPTANCE 09 #B(x)/x decreasing, #B(x) log(x)/x >= 1.0: PASS")


def test_criterion_10_low_rank_prime_growth():
    rows = scan_low_rank_primes(Fraction(1, 3), 10**5, checkpoints=[10**3, 10**4, 10**5])
    assert [r.count for r in rows] == [0, 0, 1]
    for row in rows:
        assert row.count <= 5 * row.x ** (2 / 3), row
    print("ACCEPTANCE 10 #Q_{1/3}(x) <= 5 x^(2/3): PASS")


@pytest.fixture(scope="module")
def lucas11():
    return RankCache(FIBONACCI, lucas_algorithms=True)


class TestCriterion11LucasSpecialization:
    """Re-run the machinery of criteria 1-7 through the generalized Lucas
    path at (a1, a2) = (1, 1), then check Pell against direct enumeration."""

    def test_enumerator_identical(self):
        for n in range(1, SCAN + 1):
            if gcd_n_lucas(FIBONACCI, n) != gcd_n_fib(n):  # pragma: no cover
                raise AssertionError(n)
        print("ACCEPTANCE 11a Lucas(1,1) enumerator == Fibonacci enumerator to 1e6: PASS")

    def test_ranks_identical(self, lucas11):
        for m in range(1, 10_001):
            assert lucas_rank(FIBONACCI, m, lucas11) == rank(m), m
        print("ACCEPTANCE 11b Lucas(1,1) ranks == Fibonacci ranks for m <= 1e4: PASS")

    def test_divisibility_facts_identical(self, lucas11):
        divisibility_facts_suite(lucas11)
        print("ACCEPTANCE 11c divisibility facts via Lucas(1,1) machinery: PASS")

    def test_membership_identical(self, lucas11):
        for k in range(1, 501):
            a, b = is_member(k), lucas_is_member(FIBONACCI, k, lucas11)
            assert (a.ell_k, a.g, a.member) == (b.ell_k, b.g, b.member), k
        print("ACCEPTANCE 11d Lucas(1,1) membership == Fibonacci for k <= 500: PASS")

    def test_density_series_identical(self, lucas11):
        for k in MEMBER_KS + NONMEMBER_KS:
            b = lucas_density_series(FIBONACCI, k, DENSITY_DEPTH, lucas11)
            assert b.partial_sum == dens(k).partial_sum, k
            assert b.tail_window == dens(k).tail_window, k
        print("ACCEPTANCE 11e Lucas(1,1) density series identical at depth 1e5: PASS")

    def test_inclusion_exclusion_identical(self, lucas11):
        for k in range(1, 31):
            assert inclusion_exclusion_check(k, 1000, lucas11)[2] == 0, k
        print("ACCEPTANCE 11f inclusion-exclusion via Lucas(1,1): PASS")

    def test_structure_identical(self, lucas11):
        for k in (1, 2, 5, 7, 10, 12, 13, 17, 24, 25, 26, 29):
            assert verify_structure(k, 10**5, lucas11), k
        print("ACCEPTANCE 11g structural decomposition via Lucas(1,1): PASS")

    def test_pell_membership_and_density(self):
        counts: dict[int, int] = {}
        first: dict[int, int] = {}
        for n in range(1, 10**5 + 1):
            g = gcd_n_lucas(PELL, n)
            counts[g] = counts.get(g, 0) + 1
            first.setdefault(g, n)
        for k in range(1, 101):
            verdict = lucas_is_member(PELL, k)
            assert verdict.member == (k in counts), k
            if verdict.member:
                assert first[k] == lucas_rank(PELL, k).ell, k
        for k in (1, 2, 5):
            series = lucas_density_series(PELL, k, 10**4)
            diff = abs(counts.get(k, 0) / 10**5 - series.float_value)
            assert diff <= 0.01, (k, diff)
        print("ACCEPTANCE 11h Pell membership/density vs direct enumeration: PASS")


def test_criterion_12_determinism(capsys):
    a = density_series(2, 10_000, threads=1)
    b = density_series(2, 10_000, threads=8)
    assert (a.partial_sum, a.tail_window, a.float_value) == (b.partial_sum, b.tail_window, b.float_value)

    one = count_many([1, 2, 5, 7], 10**5, checkpoints=[10**4, 10**5], witness_cap=3, threads=1)
    eight = count_many([1, 2, 5, 7], 10**5, checkpoints=[10**4, 10**5], witness_cap=3, threads=8)
    assert one == eight

    assert scan_B(5000, checkpoints=[1000, 5000], threads=1) == scan_B(5000, checkpoints=[1000, 5000], threads=8)

    for argv in (
        ["density", "5", "--depth", "2000", "--json"],
        ["count", "2", "--limit", "30000", "--checkpoints", "10000", "30000", "--json"],
    ):
        assert cli_main(argv + ["--threads", "1"]) == 0
        out1 = capsys.readouterr().out
        assert cli_main(argv + ["--threads", "8"]) == 0
        out8 = capsys.readouterr().out
        assert out1 == out8 and json.loads(out1)
    print("ACCEPTANCE 12 identical results at --threads 1 and 8: PASS")
