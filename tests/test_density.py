"""Membership and Mobius-series tests.

Brute-force grounding: small-scale membership is checked against direct
enumeration of gcd(n, F_n), and series values at tiny depths are frozen
from hand-checkable ell values (ell(2) = 6, ell(3) = 12, ell(5) = 5, ...).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fibrank import (
    FIBONACCI,
    GeneratorSet,
    LucasParams,
    NonMemberError,
    OutOfRangeError,
    density_bk_series,
    density_series,
    ell_of,
    gcd_n_fib,
    heilbronn_lower_bound,
    inclusion_exclusion_check,
    is_member,
    lk_generators,
    lucas_density_series,
    lucas_is_member,
    lucas_rank,
    rank,
)
from fibrank import arith
from fibrank.density import MembershipVerdict, _EllOfDK
from fibrank.rank import RankCache, _rank_with, default_cache

PELL = LucasParams(2, 1)


def brute_members(limit_k, limit_n):
    """Oracle: which k <= limit_k occur as gcd(n, F_n) for n <= limit_n."""
    seen = {}
    for n in range(1, limit_n + 1):
        g = gcd_n_fib(n)
        if g <= limit_k and g not in seen:
            seen[g] = n
    return seen


class TestIsMember:
    def test_examples(self):
        v = is_member(1)
        assert v.member and v.ell_k == 1 and v.g == 1
        v = is_member(2)
        assert v.member and v.ell_k == 6 and v.g == 2
        v = is_member(3)
        assert not v.member and v.ell_k == 12 and v.g == 12

    def test_vs_brute_force(self):
        seen = brute_members(30, 10_000)
        for k in range(1, 31):
            v = is_member(k)
            if v.member:
                assert seen.get(k) == v.ell_k, k  # least witness is ell(k)
            else:
                assert k not in seen, k

    @given(st.integers(1, 3000))
    def test_invariants(self, k):
        v = is_member(k)
        assert v.g % k == 0
        assert v.ell_k % v.g == 0
        assert v.member == (v.g == k)

    def test_out_of_range_is_explicit(self):
        with pytest.raises(OutOfRangeError, match="out of supported range"):
            is_member(2**63)

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            MembershipVerdict(2, 6, 2, False)
        with pytest.raises(ValueError):
            MembershipVerdict(3, 12, 7, False)  # k does not divide g


class TestDensitySeries:
    def test_depth_one(self):
        assert density_series(1, 1).partial_sum == 1

    def test_depth_three(self):
        assert density_series(1, 3).partial_sum == Fraction(3, 4)

    def test_first_ten_terms_frozen(self):
        # 1 - 1/6 - 1/12 - 1/5 + 1/12 - 1/56 + 1/30 from ell(1..10)
        assert density_series(1, 10).partial_sum == Fraction(109, 168)

    def test_term_skipping_matches_definition(self):
        # recompute naively straight from rank() and the mobius definition
        from fibrank import factor, mobius

        for k in (1, 2, 7):
            expected = Fraction(0)
            for d in range(1, 61):
                mu = mobius(factor(d))
                if mu:
                    expected += Fraction(mu, rank(d * k).ell)
            assert density_series(k, 60).partial_sum == expected, k

    def test_nonmember_series_shrinks(self):
        assert abs(density_series(3, 2000).float_value) < 0.005

    def test_tail_bounds_refinement(self):
        # |S(4D) - S(D)| <= tail_window(D), exactly
        for k, depth in ((1, 200), (3, 150), (12, 100)):
            s = density_series(k, depth)
            s4 = density_series(k, 4 * depth)
            assert abs(s4.partial_sum - s.partial_sum) <= s.tail_window

    def test_threads_do_not_change_result(self):
        one = density_series(5, 3000, threads=1)
        many = density_series(5, 3000, threads=7)
        assert one.partial_sum == many.partial_sum
        assert one.tail_window == many.tail_window

    def test_members_have_positive_density(self):
        # every member k <= 50: partial sum positive and above the tail window
        for k in range(1, 51):
            if not is_member(k).member:
                continue
            s = density_series(k, 10_000)
            assert s.partial_sum > 0, k
            assert s.partial_sum > s.tail_window, k

    def test_ell_consistency_inside_terms(self):
        # ell(dk) = lcm(ell(d), ell(k)) for coprime d, k (spot checks)
        for k, d in ((2, 9), (5, 8), (12, 35), (7, 10)):
            assert math.gcd(d, k) == 1
            assert rank(d * k).ell == math.lcm(rank(d).ell, rank(k).ell)


class TestDensityBkSeries:
    def test_equal_to_full_series_for_k1(self):
        a = density_series(1, 500)
        b = density_bk_series(1, 500)
        assert a.partial_sum == b.partial_sum

    def test_examples(self):
        assert density_bk_series(2, 1).partial_sum == Fraction(1, 6)
        assert density_bk_series(2, 3).partial_sum == Fraction(1, 12)

    def test_only_coprime_terms(self):
        from fibrank import factor, mobius

        expected = Fraction(0)
        for d in range(1, 101):
            if math.gcd(d, 6) != 1:
                continue
            mu = mobius(factor(d))
            if mu:
                expected += Fraction(mu, rank(6 * d).ell)
        assert density_bk_series(6, 100).partial_sum == expected


class TestInclusionExclusion:
    def test_k1_trivial(self):
        lhs, rhs, gap = inclusion_exclusion_check(1, 50)
        assert gap == 0 and lhs == rhs

    def test_k2(self):
        assert inclusion_exclusion_check(2, 100)[2] == 0

    def test_k12_exercises_mu_zero_divisors(self):
        assert inclusion_exclusion_check(12, 100)[2] == 0

    @given(st.integers(1, 40), st.integers(1, 300))
    def test_gap_always_exactly_zero(self, k, depth):
        assert inclusion_exclusion_check(k, depth)[2] == 0

    def test_prime_power_k_past_the_bumped_rank(self):
        # ell(5^27) = 5^27 fits in 64 bits, though 5^28 does not; at depth 1
        # both sides are 1/5^27
        lhs, rhs, gap = inclusion_exclusion_check(5**27, 1, RankCache())
        assert lhs == rhs == Fraction(1, 5**27) and gap == 0

    def test_sums_no_tail_window(self, monkeypatch):
        # the check compares partial sums only, so no d beyond depth is evaluated;
        # a series still evaluates its tail window up to 4 * depth
        call = _EllOfDK.__call__
        largest = [0]

        def recording(self, d):
            largest[0] = max(largest[0], d)
            return call(self, d)

        monkeypatch.setattr(_EllOfDK, "__call__", recording)
        inclusion_exclusion_check(12, 300, RankCache())
        assert 0 < largest[0] <= 300
        largest[0] = 0
        density_series(12, 300, RankCache())
        assert largest[0] == 1199  # 11 * 109, the largest squarefree d <= 1200


class TestGenerators:
    def test_k1_example(self):
        g = lk_generators(1, 7)
        assert g.prime_part == ()
        assert g.ratio_part == ((2, 6), (3, 12), (5, 5), (7, 56))

    def test_k2_example(self):
        g = lk_generators(2, 5)
        assert g.prime_part == (2,)
        assert g.ratio_part == ((3, 2), (5, 5))

    def test_k5_example(self):
        g = lk_generators(5, 3)
        assert g.prime_part == (5,)
        assert g.ratio_part == ((2, 6), (3, 12))

    def test_nonmember_rejected(self):
        with pytest.raises(NonMemberError):
            lk_generators(3, 10)

    def test_ratios_divide_exactly_and_exclude_one(self):
        for k in (1, 2, 5, 7, 10, 12):
            ell_k = ell_of(k)
            g = lk_generators(k, 100)
            for p, ratio in g.ratio_part:
                assert ell_of(k * p) == ratio * ell_k
                assert ratio > 1
            assert 1 not in g.elements()

    def test_duplicate_ratios_collapse_in_elements(self):
        # ell(6)/ell(2) = 2 collides with the prime 2 itself
        g = lk_generators(2, 5)
        assert g.elements() == [2, 5]

    def test_generator_set_validation(self):
        with pytest.raises(ValueError):
            GeneratorSet(2, (2,), ((3, 1),), 5)  # ratio 1 forbidden
        with pytest.raises(ValueError):
            GeneratorSet(6, (3, 2), (), 5)  # unsorted primes


class TestHeilbronn:
    def test_empty_product(self):
        assert heilbronn_lower_bound(GeneratorSet(1, (), (), 2)) == 1

    def test_single_two(self):
        assert heilbronn_lower_bound(GeneratorSet(2, (2,), (), 2)) == Fraction(1, 2)

    def test_k1_pbound7(self):
        g = lk_generators(1, 7)
        assert heilbronn_lower_bound(g) == Fraction(5, 6) * Fraction(11, 12) * Fraction(4, 5) * Fraction(55, 56)

    def test_monotone_in_pbound(self):
        prev = Fraction(2)
        for bound in (2, 5, 10, 30, 100, 300):
            value = heilbronn_lower_bound(lk_generators(1, bound))
            assert value <= prev
            prev = value

    def test_stays_below_measured_density(self):
        from fibrank import nonmultiple_density

        for k in (1, 2, 5):
            g = lk_generators(k, 100)
            assert heilbronn_lower_bound(g) <= nonmultiple_density(g, 100_000), k


class TestLucas:
    def test_fibonacci_specialization(self):
        cache = RankCache(FIBONACCI, lucas_algorithms=True)
        for k in range(1, 101):
            a = is_member(k)
            b = lucas_is_member(FIBONACCI, k, cache)
            assert (a.ell_k, a.g, a.member) == (b.ell_k, b.g, b.member), k

    def test_pell_member_2(self):
        v = lucas_is_member(PELL, 2)
        assert v.member and v.ell_k == 2 and v.g == 2

    def test_a2_two_with_coprime_k(self):
        seq = LucasParams(1, 2)
        v = lucas_is_member(seq, 3)
        assert v.member and v.ell_k == 3  # u_3 = 3, gcd(3, 3) = 3

    def test_rank_undefined_is_nonmember(self):
        v = lucas_is_member(LucasParams(1, 2), 4)
        assert not v.member and v.ell_k == 0 and v.g == 0

    def test_density_equal_to_fibonacci(self):
        cache = RankCache(FIBONACCI, lucas_algorithms=True)
        for k in (1, 2, 3):
            a = density_series(k, 400)
            b = lucas_density_series(FIBONACCI, k, 400, cache)
            assert a.partial_sum == b.partial_sum, k

    def test_pell_depth_examples(self):
        assert lucas_density_series(PELL, 1, 1).partial_sum == 1
        # z_u(2) = 2, so depth 2 gives 1 - 1/2
        assert lucas_density_series(PELL, 1, 2).partial_sum == Fraction(1, 2)

    def test_a2_filter_skips_terms(self):
        seq = LucasParams(1, 2)  # only odd d contribute
        s = lucas_density_series(seq, 1, 4)
        # d = 1 and d = 3: 1/ell_u(1) - 1/ell_u(3) = 1 - 1/3
        assert s.partial_sum == Fraction(2, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda cache: lucas_rank(PELL, 5, cache),
            lambda cache: lucas_is_member(PELL, 5, cache),
            lambda cache: lucas_density_series(PELL, 5, 10, cache),
        ],
        ids=["lucas_rank", "lucas_is_member", "lucas_density_series"],
    )
    def test_cache_of_other_sequence_rejected(self, call):
        # a Fibonacci cache would answer ell(5) = 5; the Pell answer is 15
        with pytest.raises(ValueError, match="different Lucas parameters"):
            call(default_cache())
        assert lucas_is_member(PELL, 5).ell_k == 15

    def test_rank_undefined_series_rejected(self):
        from fibrank import RankUndefinedError

        with pytest.raises(RankUndefinedError):
            lucas_density_series(LucasParams(1, 2), 2, 10)


class TestEllOfDK:
    @pytest.mark.parametrize("seq", [FIBONACCI, PELL], ids=["fibonacci", "pell"])
    def test_matches_composite_rank(self, seq):
        # k <= 60 includes the prime powers 4, 8, 9, 16, 25, 27, 32 and 49
        mu, spf = arith.mobius_spf_sieve(3000)
        ref = RankCache(seq)
        for k in range(1, 61):
            ell_dk = _EllOfDK(RankCache(seq), k, spf)
            for d in range(1, 3001):
                if mu[d]:
                    assert ell_dk(d) == _rank_with(ref, d * k).ell, (k, d)


class TestSharedPrimeWithA2:
    """A k sharing a prime q with a2 is never gcd(n, u_n), because
    u_n = a1^(n-1) (mod q); both membership entry points say so."""

    PAIRS = [LucasParams(1, 2), LucasParams(3, -2), LucasParams(1, 3), LucasParams(2, 3), LucasParams(1, -6)]

    @pytest.mark.parametrize("seq", PAIRS, ids=lambda s: f"{s.a1},{s.a2}")
    def test_is_member_matches_lucas_is_member(self, seq):
        for k in range(1, 31):
            assert is_member(k, RankCache(seq)) == lucas_is_member(seq, k), k

    @pytest.mark.parametrize("seq", PAIRS, ids=lambda s: f"{s.a1},{s.a2}")
    def test_no_gcd_shares_a_prime_with_a2(self, seq):
        from fibrank import gcd_n_lucas

        assert all(math.gcd(gcd_n_lucas(seq, n), seq.a2) == 1 for n in range(1, 2001))
        assert is_member(abs(seq.a2), RankCache(seq)) == MembershipVerdict(abs(seq.a2), 0, 0, False)

    def test_generators_need_a_member(self):
        with pytest.raises(NonMemberError):
            lk_generators(2, 30, RankCache(LucasParams(1, 2)))

    def test_series_names_the_undefined_rank(self):
        with pytest.raises(ValueError, match=r"^z_u\(2\) undefined: gcd\(2, a2 = 2\) > 1$"):
            lucas_density_series(LucasParams(1, 2), 2, 10)
