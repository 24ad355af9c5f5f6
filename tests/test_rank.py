"""Rank-of-appearance tests.  rank_naive is itself the oracle for the
multiplicative fast path; here it is grounded against exact Fibonacci
divisibility first, then everything else is measured against it."""

import math

import pytest
from hypothesis import given, reject, strategies as st

from fibrank import (
    FIBONACCI,
    LucasParams,
    OutOfRangeError,
    RankUndefinedError,
    ell_of,
    factor,
    fib_exact,
    fib_pair_mod,
    lucas_pair_mod,
    lucas_rank,
    rank,
    rank_naive,
    rank_prime,
    rank_prime_power,
)
from fibrank.arith import MAX_DIVISORS, primes_upto
from fibrank.rank import RankCache, _lift_order, _scan_rank


def first_fib_multiple(m, bound=2000):
    """Oracle: least n with m | F_n, from exact Fibonacci values."""
    a, b = 0, 1
    for n in range(1, bound + 1):
        a, b = b, a + b
        if a % m == 0:
            return n
    raise AssertionError(f"no rank below {bound} for {m}")


def pell_rank_scan(m):
    """Oracle: least n with m | u_n for the Pell sequence, by recurrence."""
    a, b = 0, 1 % m
    for n in range(1, 6 * m * m + 1):
        a, b = b, (2 * b + a) % m
        if a == 0:
            return n
    raise AssertionError


def divisor_walk_rank(pair_mod, p, disc):
    """Oracle: least divisor d of p - (disc/p) with p | u_d, for odd p not
    dividing disc; the Legendre symbol comes from Euler's criterion."""
    e = p + 1 if pow(disc, (p - 1) // 2, p) == p - 1 else p - 1
    small = [d for d in range(1, math.isqrt(e) + 1) if e % d == 0]
    for d in sorted(set(small + [e // d for d in small])):
        if pair_mod(d, p)[0] == 0:
            return d
    raise AssertionError(f"no divisor of {e} is a rank for {p}")


@st.composite
def lucas_params(draw):
    """Coprime, nondegenerate (a1, a2) with |a1|, |a2| <= 50."""
    a1, a2 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    try:
        return LucasParams(a1, a2)
    except ValueError:
        reject()


class TestRankNaive:
    def test_examples(self):
        assert rank_naive(1) == 1
        assert rank_naive(12) == 12
        assert rank_naive(11) == 10

    def test_grounded_in_exact_fibonacci(self):
        for m in range(1, 200):
            assert rank_naive(m) == first_fib_multiple(m), m

    def test_cap_breach_raises(self):
        with pytest.raises(RuntimeError):
            rank_naive(7, limit=5)


class TestRankPrime:
    def test_examples(self):
        assert rank_prime(5) == 5
        assert rank_prime(2) == 3
        assert rank_prime(7) == 8

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            rank_prime(6)

    def test_vs_naive(self):
        for p in (2, 3, 5, 7, 11, 13, 89, 233, 1597, 3571):
            assert rank_prime(p) == rank_naive(p), p

    def test_rejects_lucas_cache(self):
        # z(7) = 6 for Pell but 8 for Fibonacci
        with pytest.raises(ValueError):
            rank_prime(7, RankCache(LucasParams(2, 1)))
        assert rank_prime(7, RankCache(FIBONACCI, lucas_algorithms=True)) == 8


class TestLiftedPrimeRank:
    """z(p) lifted from p - (disc/p) against a divisor walk and a scan."""

    @pytest.mark.parametrize("lucas_algorithms", [False, True])
    def test_fibonacci_primes_below_5000(self, lucas_algorithms):
        cache = RankCache(FIBONACCI, lucas_algorithms=lucas_algorithms)
        for p in primes_upto(4999):
            z = rank_prime(p, cache)
            assert z == _scan_rank(FIBONACCI, p, 2 * p + 2), p
            if p not in (2, 5):
                assert z == divisor_walk_rank(fib_pair_mod, p, 5), p

    @given(lucas_params())
    def test_random_lucas_parameters(self, seq):
        cache = RankCache(seq)
        pair_mod = lambda n, m: lucas_pair_mod(seq, n, m)
        for p in primes_upto(1999):
            if seq.a2 % p == 0:
                continue
            z = lucas_rank(seq, p, cache).z
            if p != 2 and seq.discriminant % p:
                assert z == divisor_walk_rank(pair_mod, p, seq.discriminant), (seq, p)
            if p < 200:
                assert z == _scan_rank(seq, p, 2 * p + 2), (seq, p)

    def test_beyond_the_divisor_cap(self):
        # p - 1 has more divisors than the divisor enumeration accepts
        p = 3890749161018119401
        assert factor(p - 1).tau() == 69984 > MAX_DIVISORS
        z = rank_prime(p, RankCache())
        assert z == 58950744863910900
        assert fib_pair_mod(z, p)[0] == 0
        for pp in factor(z).factors:
            assert fib_pair_mod(z // pp.p, p)[0] != 0, pp.p

    def test_non_multiple_is_a_bug(self):
        # z(7) = 8 does not divide 7
        with pytest.raises(RuntimeError):
            _lift_order(fib_pair_mod, 7, 7)


class TestRankPrimePower:
    def test_examples(self):
        assert rank_prime_power(2, 3) == 6
        assert rank_prime_power(2, 2) == 6
        assert rank_prime_power(5, 2) == 25

    def test_lift_can_stall_without_assuming_it(self):
        # z(8) = z(4) = 6 exercises the "unchanged" branch, so the code
        # demonstrably does not assume z(p^(e+1)) != z(p^e)
        assert rank_prime_power(2, 2) == rank_prime_power(2, 3) == 6
        assert rank_prime_power(2, 4) == 12

    def test_vs_naive(self):
        for p, e in ((2, 5), (3, 3), (5, 3), (7, 2), (11, 2), (13, 2)):
            assert rank_prime_power(p, e) == rank_naive(p**e), (p, e)

    def test_overflow(self):
        with pytest.raises(OutOfRangeError):
            rank_prime_power(3, 41)

    def test_cold_high_power_vs_naive(self):
        # each power is lifted from the one below it, also on a cold cache
        for p, e in ((2, 9), (3, 7), (5, 5), (7, 4)):
            assert rank_prime_power(p, e, RankCache()) == rank_naive(p**e), (p, e)

    def test_rejects_lucas_cache(self):
        # z(49) = 42 for Pell but 56 for Fibonacci
        with pytest.raises(ValueError):
            rank_prime_power(7, 2, RankCache(LucasParams(2, 1)))
        assert rank_prime_power(7, 2, RankCache(FIBONACCI, lucas_algorithms=True)) == 56


class TestRank:
    def test_examples(self):
        assert rank(1) == type(rank(1))(1, 1, 1)
        r = rank(6)
        assert (r.z, r.ell) == (12, 12)
        r = rank(10)
        assert (r.z, r.ell) == (15, 30)

    def test_record_invariants_small(self):
        for m in range(1, 300):
            r = rank(m)
            assert r.ell == math.lcm(m, r.z)
            assert r.ell % r.z == 0 and r.ell % m == 0
            assert fib_exact(r.z, cap=10**5) % m == 0

    def test_vs_naive_sample(self):
        for m in range(1, 2000):
            assert rank(m).z == rank_naive(m), m

    @given(st.integers(1, 10**4), st.integers(1, 10**4))
    def test_rank_of_lcm(self, m, n):
        l = math.lcm(m, n)
        assert rank(l).z == math.lcm(rank(m).z, rank(n).z)

    def test_fresh_cache_matches_shared(self):
        cache = RankCache()
        for m in (97, 98, 99, 100, 1000):
            assert rank(m, cache) == rank(m)


class TestEll:
    def test_examples(self):
        assert ell_of(5) == 5
        assert ell_of(7) == 56
        assert ell_of(2) == 6

    @given(st.integers(1, 10**5))
    def test_divisibility_shape(self, m):
        e = ell_of(m)
        assert e % m == 0 and e % rank(m).z == 0


class TestLucasRank:
    def test_pell_examples(self):
        pell = LucasParams(2, 1)
        assert lucas_rank(pell, 5).z == 3
        assert lucas_rank(pell, 2).z == 2

    def test_pell_vs_scan(self):
        pell = LucasParams(2, 1)
        for m in range(1, 400):
            rec = lucas_rank(pell, m)
            assert rec.z == pell_rank_scan(m), m
            assert rec.ell == math.lcm(m, rec.z)

    def test_fibonacci_specialization(self):
        cache = RankCache(FIBONACCI, lucas_algorithms=True)
        for m in range(1, 1001):
            assert lucas_rank(FIBONACCI, m, cache) == rank(m), m

    def test_undefined_when_not_coprime(self):
        with pytest.raises(RankUndefinedError):
            lucas_rank(LucasParams(1, 2), 2)
        with pytest.raises(RankUndefinedError):
            lucas_rank(LucasParams(1, 2), 6)

    def test_record_builder_is_the_check(self):
        from fibrank.rank import _rank_with

        with pytest.raises(RankUndefinedError, match=r"^z_u\(6\) undefined: gcd\(6, a2 = -2\) > 1$"):
            _rank_with(RankCache(LucasParams(3, -2)), 6)

    def test_defined_when_coprime_to_a2(self):
        rec = lucas_rank(LucasParams(1, 2), 3)
        # sequence 0,1,1,3,...: u_3 = 3
        assert rec.z == 3 and rec.ell == 3

    def test_negative_a2_sequence(self):
        # u_n = 3 u_{n-1} - 2 u_{n-2} gives u_n = 2^n - 1
        seq = LucasParams(3, -2)
        for m in (5, 7, 9, 11, 13):
            rec = lucas_rank(seq, m)
            assert (2**rec.z - 1) % m == 0
            assert all((2**j - 1) % m for j in range(1, rec.z))

    def test_mixed_cache_rejected(self):
        cache = RankCache(LucasParams(2, 1))
        with pytest.raises(ValueError):
            lucas_rank(LucasParams(1, 2), 3, cache)


class TestClosedFormPrimeRanks:
    """z(2) and z(p) for odd p | disc come from closed forms, not a scan."""

    @staticmethod
    def scan(seq, p):
        a, b = 0, 1 % p
        for n in range(1, 6 * p * p + 1):
            a, b = b, (seq.a1 * b + seq.a2 * a) % p
            if a == 0:
                return n
        raise AssertionError

    def test_vs_scan_small_parameters(self):
        primes = [p for p in range(2, 60) if all(p % q for q in range(2, p))]
        checked = 0
        for a1 in range(-12, 13):
            for a2 in range(-12, 13):
                try:
                    seq = LucasParams(a1, a2)
                except ValueError:
                    continue
                cache = RankCache(seq)
                for p in primes:
                    if a2 % p and (p == 2 or seq.discriminant % p == 0):
                        assert lucas_rank(seq, p, cache).z == self.scan(seq, p), (a1, a2, p)
                        checked += 1
        assert checked > 300

    def test_large_prime_discriminant_is_fast(self):
        # disc = 1 + 4 a2 = p for a prime p ~ 2^40; a scan would take ~p steps
        p = 1099511627873
        rec = lucas_rank(LucasParams(1, (p - 1) // 4), p)
        assert (rec.z, rec.ell) == (p, p)
