"""Enumeration-oracle tests.  Frozen counts below were derived by hand from
exact Fibonacci values (n <= 30) or by an independent dev-time enumeration;
the structural identities are cross-checked in-place."""

import math
from fractions import Fraction

import pytest

from fibrank import (
    FIBONACCI,
    GeneratorSet,
    LucasParams,
    NonMemberError,
    OutOfRangeError,
    count_Ak,
    count_many,
    ell_of,
    gcd_n_fib,
    heilbronn_lower_bound,
    is_member,
    lk_generators,
    nonmultiple_density,
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
        import importlib

        from fibrank import RankCache

        rank_module = importlib.import_module("fibrank.rank")
        rank_with = rank_module._rank_with
        ranked = []

        def recording(cache, m):
            ranked.append(m)
            return rank_with(cache, m)

        monkeypatch.setattr(rank_module, "_rank_with", recording)
        assert verify_structure(2, 3000, RankCache())
        primes = {m // 2 for m in ranked if m % 2 == 0}
        assert 499 in primes
        assert max(primes) <= 500

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
        # gamma = 1/2 at p = 841? z must satisfy z^2 <= p exactly; check the
        # comparison is integer-exact by probing a constructed boundary:
        # z(322573) = 568 and 568^2 = 322624 > 322573, so it must NOT count
        rows = scan_low_rank_primes(Fraction(1, 2), 400)
        from fibrank import rank_prime
        from fibrank.arith import primes_upto

        expected = sum(1 for p in primes_upto(400) if rank_prime(p) ** 2 <= p)
        assert rows[0].count == expected

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
