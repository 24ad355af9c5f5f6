"""Enumeration-oracle tests.  Frozen counts below were derived by hand from
exact Fibonacci values (n <= 30) or by an independent dev-time enumeration;
the structural identities are cross-checked in-place."""

import math
import os
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
    RankCache,
    count_Ak,
    count_many,
    density,
    density_series,
    ell_of,
    gcd_n_fib,
    heilbronn_lower_bound,
    is_member,
    iter_Ak,
    lk_generators,
    lucas_rank,
    nonmultiple_density,
    oracle,
    partial_ell_sum,
    rank,
    scan_B,
    scan_low_rank_primes,
    verify_structure,
)


class TestCountAk:
    def test_k1_x10(self):
        # F_1..F_10 = 1,1,2,3,5,8,13,21,34,55: gcd(n, F_n) = 1 except
        # n = 5 (gcd 5), n = 6 (gcd(6, 8) = 2), n = 10 (gcd(10, 55) = 5)
        reports = count_Ak(1, 10, witness_cap=10)
        assert reports[0].count == 7
        assert reports[0].witnesses == (1, 2, 3, 4, 7, 8, 9)

    def test_k5_x30(self):
        reports = count_Ak(5, 30, witness_cap=10)
        assert reports[0].count == 4
        assert reports[0].witnesses == (5, 10, 15, 20)

    def test_k3_never_occurs(self):
        assert count_Ak(3, 10_000)[0].count == 0

    def test_checkpoints_share_one_pass(self):
        reports = count_Ak(5, 100, checkpoints=[10, 30, 100], witness_cap=3)
        assert [r.x for r in reports] == [10, 30, 100]
        assert [r.count for r in reports] == [2, 4, len([n for n in range(1, 101) if gcd_n_fib(n) == 5])]
        assert reports[1].witnesses == (5, 10, 15)
        for r in reports:
            assert r.ratio == r.count / r.x

    def test_census_partitions_everything(self):
        x = 10_000
        census = count_many(None, x)
        assert sum(reports[0].count for reports in census.values()) == x

    def test_counts_monotone_in_x(self):
        rows = count_Ak(2, 3000, checkpoints=[1000, 2000, 3000])
        assert rows[0].count <= rows[1].count <= rows[2].count

    def test_witness_membership_link(self):
        census = count_many(None, 20_000, witness_cap=1)
        for k, reports in census.items():
            if k <= 100:
                assert is_member(k).member, k
                if ell_of(k) <= 20_000:
                    assert reports[0].witnesses[0] == ell_of(k), k

    def test_threads_deterministic(self):
        a = count_many([1, 2, 5], 30_000, checkpoints=[10_000, 30_000], witness_cap=4, threads=1)
        b = count_many([1, 2, 5], 30_000, checkpoints=[10_000, 30_000], witness_cap=4, threads=8)
        assert a == b

    def test_limit_cap(self):
        with pytest.raises(OutOfRangeError):
            count_Ak(1, 10**8 + 1)

    def test_pell_counts(self):
        pell = LucasParams(2, 1)
        reports = count_Ak(2, 20, witness_cap=5, seq=pell)
        # Pell: 0,1,2,5,12,29,70,169,408,985,2378,...; gcd(2, u_2) = 2, etc.
        from fibrank import gcd_n_lucas

        expected = [n for n in range(1, 21) if gcd_n_lucas(pell, n) == 2]
        assert reports[0].count == len(expected)
        assert list(reports[0].witnesses) == expected


class TestVerifyStructure:
    def test_members(self):
        assert verify_structure(1, 10_000)
        assert verify_structure(2, 10_000)
        assert verify_structure(12, 10_000)

    def test_nonmember_rejected(self):
        with pytest.raises(NonMemberError):
            verify_structure(3, 1000)

    def test_cap(self):
        with pytest.raises(OutOfRangeError):
            verify_structure(1, 10**7 + 1)

    @pytest.mark.parametrize(
        ("seq", "k", "x"),
        [(FIBONACCI, 29, 2500), (LucasParams(3, -2), 11, 400), (LucasParams(3, 1), 23, 2500)],
        ids=["fibonacci-29", "(3,-2)-11", "(3,1)-23"],
    )
    def test_primes_of_z_k_above_cap(self, seq, k, x):
        # a prime of z(k) above cap = x // ell(k) can still give a ratio <= cap:
        # Fibonacci ell(29) = 406 and cap = 6, yet 7 | z(29) = 14 gives the ratio 4
        from fibrank import RankCache

        assert verify_structure(k, x, RankCache(seq))

    def test_ranks_no_prime_above_cap(self, monkeypatch):
        # ell(2) = 6, so only generators <= cap = 3000 // 6 = 500 matter; every
        # prime above it divides neither 2 nor z(2) = 3, so its ratio is > 500
        from fibrank import RankCache

        cache = RankCache()
        prime_rank = cache._prime_rank
        ranked = []

        def recording(cache, p):
            ranked.append(p)
            return prime_rank(cache, p)

        monkeypatch.setattr(cache, "_prime_rank", recording)
        assert verify_structure(2, 3000, cache)
        assert 499 in ranked
        assert max(ranked) <= 500

    def test_member_with_ell_above_x(self):
        # ell(1000003) = 1000007000012 > x, so A_k(x) is empty and no generator
        # matters; ranking k * p for every prime p <= x overflowed 64 bits
        assert verify_structure(1_000_003, 10_000)


class TestScanB:
    def test_x10(self):
        rows, unknown = scan_B(10)
        assert rows[0].count == 5 and unknown == 0
        assert {k for k in range(1, 11) if is_member(k).member} == {1, 2, 5, 7, 10}

    def test_x1(self):
        rows, _ = scan_B(1)
        assert rows[0].count == 1

    def test_checkpoint_rows(self):
        rows, unknown = scan_B(1000, checkpoints=[10, 100, 1000])
        assert [r.x for r in rows] == [10, 100, 1000]
        assert [r.count for r in rows] == [5, 37, 303]
        assert unknown == 0

    def test_ratio_decreasing_over_decades(self):
        rows, _ = scan_B(10_000, checkpoints=[100, 1000, 10_000])
        ratios = [r.ratio for r in rows]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_threads_deterministic(self):
        assert scan_B(2000, checkpoints=[500, 2000], threads=1) == scan_B(
            2000, checkpoints=[500, 2000], threads=8
        )

    def test_pell_scan(self):
        from fibrank import default_cache

        rows, unknown = scan_B(50)
        pell_rows, pell_unknown = scan_B(50, cache=default_cache(LucasParams(2, 1)))
        assert unknown == pell_unknown == 0
        assert rows[0].count != pell_rows[0].count  # different sequences, different members

    @pytest.mark.parametrize("a1,a2", [(1, 1), (2, 1), (1, 2), (3, -10), (12, 5)])
    def test_ell_far_below_the_width(self, a1, a2):
        # the premise of unknown = 0 below B_SCAN_CAP: z(k) < 3.6 k, so ell(k) < 2^36
        seq = LucasParams(a1, a2)
        cache = RankCache(seq)
        for k in range(1, 5001):
            if math.gcd(k, a2) == 1:
                rec = lucas_rank(seq, k, cache)
                assert rec.z < 4 * k and rec.ell < 2**40, k


class TestLowRankPrimes:
    def test_gamma_small_finds_nothing(self):
        rows = scan_low_rank_primes(Fraction(1, 100), 1000)
        assert rows[0].count == 0

    def test_gamma_third(self):
        rows = scan_low_rank_primes(Fraction(1, 3), 1000)
        assert rows[0].count == 0
        # exactness: no prime below 1000 may satisfy z(p)^3 <= p
        from fibrank import rank_prime
        from fibrank.arith import primes_upto

        assert all(rank_prime(p) ** 3 > p for p in primes_upto(1000))

    def test_gamma_near_one_counts_most(self):
        rows = scan_low_rank_primes(Fraction(99, 100), 100)
        assert rows[0].count == 13  # of the 25 primes below 100

    def test_exact_power_boundary(self):
        # gamma = 1/2 counts the primes p <= 400 with z(p)^2 <= p, the same
        # comparison made here on the ranks directly
        rows = scan_low_rank_primes(Fraction(1, 2), 400)
        from fibrank import rank_prime
        from fibrank.arith import primes_upto

        expected = sum(1 for p in primes_upto(400) if rank_prime(p) ** 2 <= p)
        assert rows[0].count == expected

    def test_log_first_matches_exact_powers(self):
        # the logarithms decide all but near-ties; checked against the exact
        # powers for every prime below 1e5, with denominators up to the cap
        from fibrank import rank_prime
        from fibrank.arith import primes_upto

        ranks = [(p, rank_prime(p)) for p in primes_upto(10**5)]
        checkpoints = [10, 1000, 10**5]
        for gamma in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1, 1000), Fraction(500, 997), Fraction(999, 1000)):
            a, q = gamma.numerator, gamma.denominator
            exact = [z**q <= p**a for p, z in ranks]
            assert [oracle._at_most_power(z, q, p, a) for p, z in ranks] == exact, gamma
            low = [p for (p, _), hit in zip(ranks, exact) if hit]
            rows = scan_low_rank_primes(gamma, 10**5, checkpoints)
            assert [r.count for r in rows] == [sum(1 for p in low if p <= cp) for cp in checkpoints], gamma

    def test_near_ties_fall_back_to_exact_powers(self):
        # 3^2 = 9 and 1000^3 = 10^9 are ties, and the float logarithms put
        # 3 log2(1000) above 9 log2(10); the logarithms of 2^40 and 2^40 + 1
        # differ by 3e-14 relative
        assert oracle._at_most_power(3, 2, 9, 1)
        assert oracle._at_most_power(1000, 3, 10, 9)
        assert oracle._at_most_power(2**40, 1000, 2**40 + 1, 1000)
        assert not oracle._at_most_power(2**40 + 1, 1000, 2**40, 1000)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            scan_low_rank_primes(Fraction(0), 100)
        with pytest.raises(ValueError):
            scan_low_rank_primes(Fraction(3, 2), 100)


class TestEllSum:
    def test_n1(self):
        assert partial_ell_sum(1) == 1

    def test_n3(self):
        assert partial_ell_sum(3) == Fraction(5, 4)

    def test_matches_direct_sum(self):
        expected = sum(Fraction(1, rank(n).ell) for n in range(1, 201))
        assert partial_ell_sum(200) == expected

    def test_dyadic_increments_shrink(self):
        s1 = partial_ell_sum(1000)
        s4 = partial_ell_sum(4000)
        s10 = partial_ell_sum(10_000)
        s40 = partial_ell_sum(40_000)
        assert s40 - s10 < s4 - s1

    def test_pell_skips_nothing_for_unit_a2(self):
        from fibrank import default_cache

        total = partial_ell_sum(20, default_cache(LucasParams(2, 1)))
        assert total > 1  # includes every n since a2 = 1

    def test_even_terms_skipped_when_a2_even(self):
        seq = LucasParams(1, 2)
        from fibrank import default_cache, lucas_rank

        cache = default_cache(seq)

        expected = sum(Fraction(1, lucas_rank(seq, n, cache).ell) for n in range(1, 21) if n % 2)
        assert partial_ell_sum(20, cache) == expected


class TestNonmultipleDensity:
    def test_empty_set(self):
        assert nonmultiple_density(GeneratorSet(1, (), (), 2), 10) == 1

    def test_single_two(self):
        assert nonmultiple_density(GeneratorSet(2, (2,), (), 2), 10) == Fraction(1, 2)

    def test_sieve_matches_inclusion_exclusion(self):
        g = GeneratorSet(2, (2,), ((3, 5), (5, 7)), 5)
        x = 10_000
        direct = nonmultiple_density(g, x)
        counted = sum(1 for m in range(1, x + 1) if m % 2 and m % 5 and m % 7)
        assert direct == Fraction(counted, x)

    def test_measured_beats_heilbronn_bound(self):
        g = lk_generators(1, 100)
        measured = nonmultiple_density(g, 100_000)
        assert measured >= heilbronn_lower_bound(g) - Fraction(2, 100)


def small_lucas_params(bound):
    """Every nondegenerate coprime (a1, a2) with |a1|, |a2| <= bound."""
    out = []
    for a1 in range(-bound, bound + 1):
        for a2 in range(-bound, bound + 1):
            try:
                out.append(LucasParams(a1, a2))
            except ValueError:
                pass
    return out


class TestLucasGridDifferential:
    """The membership criterion against direct enumeration of gcd(n, u_n),
    over every small Lucas parameter pair, not only (1, 1) and (2, 1)."""

    def test_membership_vs_enumeration(self):
        from fibrank import lucas_is_member

        cases = 0
        for seq in small_lucas_params(9):
            for k in range(1, 31):
                if math.gcd(k, seq.a2) != 1:
                    continue
                verdict = lucas_is_member(seq, k)
                # the least element of a nonempty A_k is ell(k), so a scan to
                # ell(k) finds k exactly for members
                report = count_Ak(k, verdict.ell_k, witness_cap=1, seq=seq)[0]
                assert verdict.member == (report.count > 0), (seq, k)
                if verdict.member:
                    assert report.witnesses[0] == verdict.ell_k, (seq, k)
                cases += 1
        assert cases == 4540

    def test_range_scans_vs_records(self):
        # scan_B and partial_ell_sum read ell(n) off a series window; here each
        # is held to the per-n records and verdicts of lucas_rank and
        # lucas_is_member, which the test above ties to enumeration
        from fibrank import lucas_is_member

        for seq in small_lucas_params(9):
            coprime = [n for n in range(1, 31) if math.gcd(n, seq.a2) == 1]
            members = [k for k in coprime if lucas_is_member(seq, k).member]
            assert scan_B(30, [10, 30], cache=RankCache(seq)) == (oracle._rows(members, [10, 30]), 0), seq
            expected = sum(Fraction(1, lucas_rank(seq, n).ell) for n in coprime)
            assert partial_ell_sum(30, RankCache(seq)) == expected, seq

    def test_structure_small_parameters(self):
        from fibrank import default_cache, lucas_is_member

        checked = 0
        for seq in small_lucas_params(4):
            cache = default_cache(seq)
            for k in range(1, 13):
                if math.gcd(k, seq.a2) == 1 and lucas_is_member(seq, k, cache).member:
                    assert verify_structure(k, 1000, cache), (seq, k)
                    checked += 1
        assert checked == 234


class TestCountingIdentity:
    """#A_k(x) from enumeration against the exact counting identity
    (conftest._series_count) over small Lucas pairs: every gcd value that
    occurs up to x, and a few drawn k, members or not."""

    @given(
        seq=st.sampled_from(small_lucas_params(9)),
        x=st.integers(500, 8000),
        drawn=st.lists(st.integers(1, 60), max_size=4),
    )
    def test_lucas_pairs_vs_enumeration(self, series_count, seq, x, drawn):
        from fibrank import RankCache

        counts = {k: reports[0].count for k, reports in count_many(None, x, seq=seq).items()}
        cache = RankCache(seq)
        for k in sorted(counts.keys() | {k for k in drawn if math.gcd(k, seq.a2) == 1}):
            assert series_count(cache, k, x) == counts.get(k, 0), (seq, k, x)


_FIVE_PAIRS = [FIBONACCI, LucasParams(2, 1), LucasParams(1, 2), LucasParams(3, -2), LucasParams(3, 1)]


class TestIterAk:
    @pytest.mark.parametrize("seq", _FIVE_PAIRS, ids=lambda s: f"{s.a1},{s.a2}")
    def test_matches_count_witnesses(self, seq):
        from fibrank import iter_Ak

        for k in range(1, 31):
            assert list(iter_Ak(k, 3000, seq=seq)) == list(count_Ak(k, 3000, witness_cap=3000, seq=seq)[0].witnesses)

    @pytest.mark.parametrize(
        "k, x, exc",
        [(0, 10, ValueError), (0, 0, ValueError), (1, 0, OutOfRangeError), (1, 10**8 + 1, OutOfRangeError)],
    )
    def test_raises_before_evaluating(self, gcd_calls, k, x, exc):
        from fibrank import iter_Ak

        with pytest.raises(exc) as raised:
            iter_Ak(k, x)
        with pytest.raises(exc) as counted:
            count_Ak(k, x)
        assert str(raised.value) == str(counted.value)
        assert gcd_calls == []

    def test_lazy(self, gcd_calls):
        from fibrank import iter_Ak

        assert next(iter_Ak(1, 10**8)) == 1
        assert gcd_calls == [1]


class TestCountStopsAtCheckpoint:
    def test_explicit_k_scans_to_last_checkpoint(self, gcd_calls):
        reports = count_Ak(5, 10**5, checkpoints=[10])
        assert [(r.x, r.count) for r in reports] == [(10, 2)]  # n = 5, 10
        assert gcd_calls == list(range(1, 11))

    def test_all_keys_scan_to_x(self):
        out = count_many(None, 100, [10])
        assert sorted(out) == sorted({gcd_n_fib(n) for n in range(1, 101)})
        assert all([r.x for r in reports] == [10] for reports in out.values())
        assert out[1][0].count == sum(gcd_n_fib(n) == 1 for n in range(1, 11))


class TestStructureNeedsMember:
    def test_a_k_sharing_a_prime_with_a2(self):
        from fibrank import RankCache

        with pytest.raises(NonMemberError):
            verify_structure(2, 500, RankCache(LucasParams(1, 2)))


class TestIterableArguments:
    """ks and checkpoints may be any iterable: each is read once, and an
    empty checkpoint iterable reports at x, as [] and None do."""

    def test_count_many_reads_iterables_once(self):
        listed = count_many([5, 1, 2, 5], 1000, [100, 1000], witness_cap=3)
        assert list(listed) == [5, 1, 2]
        assert count_many(iter([5, 1, 2, 5]), 1000, iter([1000, 100]), witness_cap=3) == listed
        assert count_many([1], 50, iter([])) == count_many([1], 50, []) == count_many([1], 50)

    def test_scans_read_checkpoint_iterables(self):
        gamma = Fraction(1, 2)
        assert scan_B(300, (x for x in (300, 30))) == scan_B(300, [30, 300])
        assert scan_B(50, iter([])) == scan_B(50, []) == scan_B(50)
        assert scan_low_rank_primes(gamma, 300, iter([30, 300])) == scan_low_rank_primes(gamma, 300, [30, 300])
        assert scan_low_rank_primes(gamma, 50, iter([])) == scan_low_rank_primes(gamma, 50)


class TestFormulaFree:
    """The enumeration oracles ground the rank and density formulas, so they
    must not use them: with the rank engines, ell(dk), the exact summer,
    factoring and the Mobius sieve all made to raise, count_many, count_Ak
    and iter_Ak return what they return unpatched, serially and forked."""

    FORMULAS = [
        ("fibrank.rank", "_rank_with"),
        ("fibrank.rank", "_prime_rank_fib"),
        ("fibrank.rank", "_prime_rank_lucas"),
        ("fibrank.rank", "_prime_power_rank"),
        ("fibrank.density", "_exact_sum"),
        ("fibrank.arith", "factor"),
        ("fibrank.arith", "_factor_items"),
        ("fibrank.arith", "mobius_spf_sieve"),
    ]

    @staticmethod
    def enumerate_all():
        pell = LucasParams(2, 1)
        return [
            count_many(None, 50000, [1000, 50000], witness_cap=2),
            count_many([1, 3], 5000, seq=pell),
            count_Ak(2, 5000, [1000, 5000], witness_cap=3),
            count_Ak(1, 5000, seq=pell),
            list(iter_Ak(2, 5000)),
            list(iter_Ak(1, 5000, seq=pell)),
        ]

    def test_oracles_use_no_formula(self, monkeypatch):
        expected = self.enumerate_all()

        def refuse(*args, **kwargs):
            raise AssertionError("an enumeration oracle used a formula")

        modules = [m for name, m in sys.modules.items() if name == "fibrank" or name.startswith("fibrank.")]
        for home, name in self.FORMULAS:
            real = getattr(sys.modules[home], name)
            for module in modules:  # every binding, including names imported from home
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(density._EllOfDK, "__call__", refuse)
        with pytest.raises(AssertionError, match="used a formula"):
            density_series(2, 100, RankCache())

        for cpus, span in ((1, oracle.FORK_MIN_SPAN), (3, 1000)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            monkeypatch.setattr(oracle, "FORK_MIN_SPAN", span)
            assert oracle._workers(5000) == cpus
            assert self.enumerate_all() == expected
