"""Membership and Mobius-series tests.

Brute-force grounding: small-scale membership is checked against direct
enumeration of gcd(n, F_n), and series values at tiny depths are frozen
from hand-checkable ell values (ell(2) = 6, ell(3) = 12, ell(5) = 5, ...).
"""

import functools
import importlib
import math
import random
import sys
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
    verify_structure,
)
from fibrank import arith
from fibrank.density import J, MembershipVerdict, _add_nodes, _EllOfDK, _exact_sum, _fold, _runs, _terms
from fibrank.rank import RankCache, _rank_with, default_cache

# fibrank.rank as an attribute is the rank() function, not the module
rank_module = importlib.import_module("fibrank.rank")

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


def plain_terms(numerators, denominators):
    """Nodes (n, 1, d) in lowest terms with d >= 1, as the plain series terms come to _exact_sum."""
    return st.tuples(numerators, denominators).map(lambda t: (t[0] // math.gcd(*t), 1, t[1] // math.gcd(*t)))


class TestExactSum:
    """The summer over plain terms (n, 1, d) against Fraction addition, one term at a time."""

    @given(st.lists(plain_terms(st.integers(-(10**30), 10**30).filter(bool), st.integers(1, 10**30))))
    def test_random_pairs(self, items):
        expected = sum((Fraction(n, d) for n, _, d in items), Fraction(0))
        total = _exact_sum(iter(items))
        assert type(total) is Fraction
        assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)

    @given(st.lists(plain_terms(st.sampled_from([-1, 1]), st.sampled_from([2, 6, 12, 30, 56])), max_size=200))
    def test_repeated_denominators(self, items):
        # ell values repeat and share factors, as in the series
        expected = sum((Fraction(n, d) for n, _, d in items), Fraction(0))
        total = _exact_sum(items)
        assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)

    def test_cancels_to_zero_over_one(self):
        total = _exact_sum([(1, 1, 6), (-1, 1, 12), (1, 1, 5), (-1, 1, 6), (1, 1, 12), (-1, 1, 5)])
        assert (total.numerator, total.denominator) == (0, 1)

    def test_negative_total(self):
        total = _exact_sum([(-1, 1, 6), (-1, 1, 12), (1, 1, 56)])
        assert (total.numerator, total.denominator) == (-13, 56)

    def test_pairs_need_not_be_reduced(self):
        total = _exact_sum([(2, 1, 4), (3, 1, 6), (-10, 1, 12)])
        assert (total.numerator, total.denominator) == (1, 6)

    def test_one_term(self):
        total = _exact_sum([(-3, 1, 10**40 + 1)])
        assert (total.numerator, total.denominator) == (-3, 10**40 + 1)

    def test_no_terms(self):
        total = _exact_sum(iter(()))
        assert type(total) is Fraction and (total.numerator, total.denominator) == (0, 1)


def plain_window_sum(window, lo, hi, signed):
    """The reference for _terms: the Fraction sum of every admitted term
    (mu(d) or 1)/ell(dk) of lo < d <= hi, as (numerator, denominator)."""
    mu = window.mu
    total = sum(
        (Fraction(mu[d] if signed else 1, window(d)) for d in range(lo + 1, hi + 1) if mu[d] and math.gcd(d, window.avoid) == 1),
        Fraction(0),
    )
    return total.numerator, total.denominator


def grouped_window_sum(window, lo, hi, signed):
    """The items of _terms, and their _exact_sum as a pair."""
    items = list(_terms(window, lo, hi, signed))
    total = _exact_sum(iter(items))
    return items, (total.numerator, total.denominator)


def node_primes(items):
    return {p for _, p, _ in items if p > 1}


def random_windows(rng, count, max_depth):
    """Up to count random (cache, k, depth, coprime_to_k) for nondegenerate
    Lucas pairs with small parameters and 1 <= depth <= max_depth."""
    for _ in range(count):
        a1 = rng.choice([-3, -2, -1, 1, 2, 3, 4])
        a2 = rng.choice([a for a in (-5, -3, -2, -1, 1, 2, 3, 5, 6) if math.gcd(a1, a) == 1])
        if a1 * a1 + 4 * a2 == 0 or (a1, a2) in ((1, -1), (-1, -1)):
            continue
        k = rng.choice([k for k in range(1, 80) if math.gcd(k, a2) == 1])
        yield RankCache(LucasParams(a1, a2)), k, rng.randint(1, max_depth), rng.random() < 0.5


class TestGroupedSum:
    """_exact_sum over the grouped and plain terms of _terms against the
    Fraction sum of the same window: head (d <= D, signed), tail (D < d <= 4D)."""

    def check(self, cache, k, depth, coprime_to_k):
        window = _EllOfDK(cache, k, depth, 4 * depth, coprime_to_k, 1)
        nodes = set()
        for lo, hi, signed in ((0, depth, True), (depth, 4 * depth, False)):
            items, (n, d) = grouped_window_sum(window, lo, hi, signed)
            plain_n, plain_d = plain_window_sum(window, lo, hi, signed)
            assert n == plain_n, (cache.seq, k, depth, coprime_to_k, lo)
            assert d == plain_d, (cache.seq, k, depth, coprime_to_k, lo)
            nodes |= node_primes(items)
        return nodes

    def test_random_lucas_pairs_and_k(self):
        grouped = 0
        for cache, k, depth, coprime_to_k in random_windows(random.Random(11), 30, 1500):
            grouped += len(self.check(cache, k, depth, coprime_to_k))
        assert grouped > 1000  # the groups carry most of the denominators

    def test_grouped_primes_match_their_definition(self):
        # the local test of _terms against the definition: the primes p above the
        # cut that divide neither ell(k) nor z(q) for any admitted prime q <= hi
        # (every z(q) factored)
        nodes_seen = 0
        for cache, k, depth, coprime_to_k in random_windows(random.Random(12), 40, 1000):
            window = _EllOfDK(cache, k, depth, 4 * depth, coprime_to_k, 1)
            mu, avoid = window.mu, window.avoid
            for lo, hi, signed in ((0, depth, True), (depth, 4 * depth, False)):
                primes = arith.primes_upto(hi)
                of_ranks = {pp.p for q in primes if avoid % q for pp in arith.factor(_rank_with(cache, q).z).factors}
                grouped = {p for p in primes if p > max(hi // J, J) and window.ell_k % p and p not in of_ranks}
                nodes = node_primes(_terms(window, lo, hi, signed))
                assert nodes <= grouped, (cache.seq, k, depth, coprime_to_k, lo)
                for p in grouped - nodes:
                    # no admitted multiple in the window, or p cancels from the group's sum
                    group = [Fraction(mu[d] if signed else 1, window(d)) for d in range(p, hi + 1, p) if d > lo and mu[d] and math.gcd(d, avoid) == 1]
                    assert not group or sum(group).denominator % p, (cache.seq, k, depth, coprime_to_k, lo, p)
                nodes_seen += len(nodes)
        assert nodes_seen > 1000

    @pytest.mark.parametrize("seq", [FIBONACCI, PELL, LucasParams(3, -2)], ids=str)
    def test_bk_windows(self, seq):
        cache = RankCache(seq)
        for k in (1, 2, 6, 11, 12, 30):
            if math.gcd(k, seq.a2) == 1:
                assert self.check(cache, k, 700, True)

    @pytest.mark.parametrize("seq", [FIBONACCI, PELL, LucasParams(1, 3)], ids=str)
    def test_small_depths(self, seq):
        # hi // J < J below hi = J * J: the cut is J itself
        cache = RankCache(seq)
        nodes = set()
        for depth in range(1, 70):
            nodes |= self.check(cache, 1, depth, False)
        assert nodes and min(nodes) == J + 1  # 17, the first prime above the cut

    def test_prime_of_the_discriminant_is_not_grouped(self):
        # z(17) = 17 divides 17: of the local test's candidates, only q = p bars 17
        seq = LucasParams(3, 2)
        assert seq.discriminant == 17 and lucas_rank(seq, 17).z == 17
        cache = RankCache(seq)
        nodes = set()
        for depth in range(5, 41):
            found = self.check(cache, 1, depth, False)
            assert 17 not in found, depth
            nodes |= found
        assert nodes  # the other primes above the cut are grouped

    @pytest.mark.parametrize("k, p", [(1009, 1009), (8111, 811)])
    def test_prime_of_ell_k_is_not_grouped(self, k, p):
        # 1009 divides k; 811 divides z(8111) = 8110, and 8111 > 4 * 2000
        cache = RankCache()
        assert _rank_with(cache, k).ell % p == 0
        assert p not in self.check(cache, k, 2000, False)

    @pytest.mark.parametrize(
        "seq, k, depth, coprime_to_k, window_part, p",
        [(FIBONACCI, 2, 100, True, "tail", 47), (PELL, 1, 100, False, "tail", 47), (PELL, 2, 800, True, "head", 67)],
        ids=str,
    )
    def test_group_cancelling_p_is_one_plain_node(self, seq, k, depth, coprime_to_k, window_part, p):
        cache = RankCache(seq)
        window = _EllOfDK(cache, k, depth, 4 * depth, coprime_to_k, 1)
        mu = window.mu
        lo, hi, signed = (0, depth, True) if window_part == "head" else (depth, 4 * depth, False)
        group = [(mu[d] if signed else 1, window(d)) for d in range(p, hi + 1, p) if d > lo and mu[d] and math.gcd(d, window.avoid) == 1]
        # p divides each of these denominators once, yet not the group's sum
        assert len(group) > 1 and all(e % p == 0 and e % (p * p) for _, e in group)
        group_sum = sum(Fraction(m, e) for m, e in group)
        assert group_sum.denominator % p
        # so the group is the one node (n // p, 1, C), C the lcm of the e // p
        c = math.lcm(*(e // p for _, e in group))
        node = (sum(m * (c // (e // p)) for m, e in group) // p, 1, c)
        assert c % p and Fraction(node[0], c) == group_sum
        items, total = grouped_window_sum(window, lo, hi, signed)
        assert total == plain_window_sum(window, lo, hi, signed)
        assert p not in node_primes(items) and node in items
        assert not any((m, 1, e) in items for m, e in group)
        assert node_primes(items)  # other groups of the window stay nodes

    def test_nodes_and_pairs_mixed(self):
        # n/(P*C) nodes whose P is prime to everything else, with plain pairs
        items = [(1, 1, 6), (-1, 17, 2), (1, 1, 10), (3, 19, 4), (-1, 1, 30), (1, 23 * 29, 3), (-5, 1, 12)]
        expected = Fraction(1, 6) - Fraction(1, 34) + Fraction(1, 10) + Fraction(3, 76) - Fraction(1, 30) + Fraction(1, 2001) - Fraction(5, 12)
        total = _exact_sum(items)
        assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)


class TestRuns:
    """The nodes added RUN at a time over one lcm (_runs, _run) give the very
    node that merging them pairwise gives: every merge keeps the lcm of the
    C and the product of the P."""

    # distinct primes above 1000 for the P > 1, so each is prime to every other node
    LARGE = [p for p in arith.primes_upto(3000) if p > 1000]

    @classmethod
    def random_nodes(cls, rng, length):
        """length nodes: plain ones (n, 1, c), |n| up to 10^6, with c a product
        of small primes, and about one in five with a large prime P."""
        large = iter(cls.LARGE)
        nodes = []
        for _ in range(length):
            n = rng.choice([-1, 1]) * rng.randint(2, 10**6)
            c = math.prod(rng.choices([2, 3, 5, 7, 11, 13, 97], k=rng.randint(0, 6)))
            if rng.random() < 0.2:
                big = next(large)
                nodes.append((n if n % big else n + 1, big, c))
            else:
                nodes.append((n, 1, c))
        return nodes

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 31, 32, 33, 200])
    def test_runs_give_the_pairwise_total_node(self, length):
        rng = random.Random(length)
        for _ in range(20):
            nodes = self.random_nodes(rng, length)
            total = _fold(_add_nodes, nodes, (0, 1, 1))
            assert _fold(_add_nodes, _runs(iter(nodes)), (0, 1, 1)) == total
            n, p, c = total
            expected = Fraction(n, p * c)
            assert expected == sum((Fraction(n, p * c) for n, p, c in nodes), Fraction(0))
            got = _exact_sum(iter(nodes))
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    def test_grouped_nodes_match_the_pairwise_merge(self):
        # each grouped prime's node, rebuilt by merging its terms one by one from
        # the definition of the grouped primes (every z(q) factored)
        nodes_seen = 0
        for cache, k, depth, coprime_to_k in random_windows(random.Random(13), 20, 800):
            window = _EllOfDK(cache, k, depth, 4 * depth, coprime_to_k, 1)
            mu, avoid = window.mu, window.avoid
            for lo, hi, signed in ((0, depth, True), (depth, 4 * depth, False)):
                primes = arith.primes_upto(hi)
                of_ranks = {q for r in primes if avoid % r for q, _ in arith._factor_items(_rank_with(cache, r).z)}
                expected = []
                for p in primes:
                    if p <= max(hi // J, J) or window.ell_k % p == 0 or p in of_ranks:
                        continue
                    group = ((mu[d] if signed else 1, 1, window(d) // p) for d in range(p, hi + 1, p) if d > lo and mu[d] and math.gcd(d, avoid) == 1)
                    n, _, c = functools.reduce(_add_nodes, group, (0, 1, 1))
                    if n % p:
                        expected.append((n, p, c))
                    elif n:
                        expected.append((n // p, 1, c))
                items = list(_terms(window, lo, hi, signed))
                assert items[: len(expected)] == expected, (cache.seq, k, depth, coprime_to_k, lo)
                nodes_seen += len(expected)
        assert nodes_seen > 300


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
        # the check compares partial sums only, so no d beyond depth is evaluated
        # or sieved; a series still evaluates and sieves its tail window up to 4 * depth
        monkeypatch.setattr(arith, "_SIEVE", (0, [], []))
        call = _EllOfDK.__call__
        largest = [0]

        def recording(self, d):
            largest[0] = max(largest[0], d)
            return call(self, d)

        monkeypatch.setattr(_EllOfDK, "__call__", recording)
        inclusion_exclusion_check(12, 300, RankCache())
        assert 0 < largest[0] <= 300
        assert arith._SIEVE[0] == 300
        largest[0] = 0
        density_series(12, 300, RankCache())
        assert largest[0] == 1199  # 11 * 109, the largest squarefree d <= 1200
        assert arith._SIEVE[0] == 1200

    @pytest.mark.parametrize("seq, depth", [(FIBONACCI, 23), (FIBONACCI, 547), (PELL, 19)], ids=str)
    def test_window_ends_at_a_prime_ranked_past_it(self, monkeypatch, seq, depth):
        # z(depth) = depth + 1 lies one past the sieve of the left-side window
        monkeypatch.setattr(arith, "_SIEVE", (0, [], []))
        assert lucas_rank(seq, depth).z == depth + 1
        cache = RankCache(seq)
        lhs = _exact_sum(_terms(_EllOfDK(cache, 1, depth, depth, False, 1), 0, depth, True))
        assert arith._SIEVE[0] == depth
        assert lhs == lucas_density_series(seq, 1, depth, RankCache(seq)).partial_sum


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

    @pytest.mark.parametrize("seq", [PELL, LucasParams(1, 2), LucasParams(3, -2), LucasParams(1, 3)], ids=str)
    def test_lucas_ratios_match_records_of_kp(self, seq):
        ref = RankCache(seq)
        members = [k for k in range(1, 41) if is_member(k, ref).member]
        assert members
        for k in members:
            cache = RankCache(seq)
            g = lk_generators(k, 300, cache)
            ell_k = _rank_with(ref, k).ell
            assert [(p, _rank_with(ref, k * p).ell // ell_k) for p, _ in g.ratio_part] == list(g.ratio_part), k

    def test_no_record_per_prime(self, monkeypatch):
        # ell(kp) comes from ell(k) and z(p); k*p is neither factored nor
        # ranked, and k is ranked once, by is_member, in L_k and in the
        # structure check built on it
        asked = []
        rank_mod = sys.modules["fibrank.rank"]
        real = rank_mod._rank_with

        def recording(cache, m):
            asked.append(m)
            return real(cache, m)

        monkeypatch.setattr(rank_mod, "_rank_with", recording)
        g = lk_generators(2, 1000, RankCache())
        assert len(g.ratio_part) == 167
        assert asked == [2]
        asked.clear()
        assert verify_structure(2, 3000, RankCache())
        assert asked == [2]

    def test_ell_kp_past_64_bits(self):
        # k = 5^27 is a member with ell(k) = k; ell(2k) = 6 * 5^27 > 2^64
        with pytest.raises(OutOfRangeError, match="out of supported range"):
            lk_generators(5**27, 2)

    def test_duplicate_ratios_collapse_in_elements(self):
        # ell(6)/ell(2) = 2 collides with the prime 2 itself
        g = lk_generators(2, 5)
        assert g.elements() == [2, 5]

    def test_generator_set_validation(self):
        with pytest.raises(ValueError):
            GeneratorSet(2, (2,), ((3, 1),), 5)  # ratio 1 forbidden
        with pytest.raises(ValueError):
            GeneratorSet(1, (), ((2, -1),), 10)  # negative ratio: the product (1 - 1/s) would exceed 1
        with pytest.raises(ValueError):
            GeneratorSet(1, (), ((2, 0),), 10)  # ratio 0: 1/s is undefined
        with pytest.raises(ValueError):
            GeneratorSet(1, (-3,), (), 10)  # negative prime part
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


class TestHeilbronnVsRunningProduct:
    """The pairwise-merged product equals the product taken one factor at a time."""

    @pytest.mark.parametrize("seq", [FIBONACCI, PELL])
    def test_members_up_to_30(self, seq):
        cache = RankCache(seq)
        members = [k for k in range(1, 31) if is_member(k, cache).member]
        assert members
        for k in members:
            g = lk_generators(k, 3000, cache)
            expected = Fraction(1)
            for s in g.elements():
                expected *= 1 - Fraction(1, s)
            assert heilbronn_lower_bound(g) == expected, k


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
        # k <= 60 includes the prime powers 4, 8, 9, 16, 25, 27, 32 and 49,
        # and every d, squarefree or not, is held to the composite rank
        ref = RankCache(seq)
        for k in range(1, 61):
            ell_dk = _EllOfDK(RankCache(seq), k, 3000, 3000, False, 1)
            for d in range(1, 3001):
                assert ell_dk(d) == _rank_with(ref, d * k).ell, (k, d)

    @pytest.mark.parametrize("seq", [FIBONACCI, PELL], ids=["fibonacci", "pell"])
    @pytest.mark.parametrize("k", [2**10, 3**7, 5**3, 13**3, 2**62, 5**27])
    def test_high_prime_powers_of_k(self, seq, k):
        # each d divisible by the prime q of k = q^e puts q^(e+1) into dk; with
        # 2^62 and 5^27 many of those ell(dk), and dk itself, pass 64 bits
        ref = RankCache(seq)
        if seq == PELL and k == 5**27:  # ell(k) = 3 * 5^27 passes 64 bits
            with pytest.raises(OutOfRangeError):
                _rank_with(ref, k)
            with pytest.raises(OutOfRangeError):
                _EllOfDK(RankCache(seq), k, 2000, 2000, False, 1)
            return
        ell_dk = _EllOfDK(RankCache(seq), k, 2000, 2000, False, 1)
        for d in range(1, 2001):
            try:
                expected = _rank_with(ref, d * k).ell
            except OutOfRangeError:
                with pytest.raises(OutOfRangeError):
                    ell_dk(d)
            else:
                assert ell_dk(d) == expected, (k, d)

    @pytest.mark.parametrize("seq, ks", [(FIBONACCI, (1, 12)), (PELL, (1, 6)), (LucasParams(1, 2), (1, 15)), (LucasParams(3, -10), (1, 21))], ids=str)
    def test_window_ranks_each_admitted_prime_once(self, monkeypatch, seq, ks):
        # a window asks once for each prime p <= 4D prime to a2, the primes of k
        # included, and ranks them as a fresh cache does through _factor_items
        depth = 300
        ref = RankCache(seq)
        admitted = [p for p in arith.primes_upto(4 * depth) if math.gcd(p, seq.a2) == 1]
        for name in ("_prime_rank_fib", "_prime_rank_lucas"):
            real = getattr(rank_module, name)

            def recording(cache, p, real=real, **kwargs):
                asked.append((p, "factor" in kwargs))
                return real(cache, p, **kwargs)

            monkeypatch.setattr(rank_module, name, recording)
        for k in ks:
            asked = []
            cache = RankCache(seq)
            density_series(k, depth, cache)
            assert sorted(p for p, _ in asked) == admitted, (seq, k)
            # only the primes of k come from ell(k), before the window's pass
            assert {p for p, by_window in asked if not by_window} == {p for p, _ in arith._factor_items(k)}
            assert {p: cache._prime_z[p] for p in admitted} == {p: ref._prime_rank(ref, p) for p in admitted}


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
