"""Rank-of-appearance tests.  rank_naive is itself the oracle for the
multiplicative fast path; here it is grounded against exact Fibonacci
divisibility first, then everything else is measured against it."""

import gc
import json
import math
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, reject, strategies as st

from fibrank import (
    FIBONACCI,
    LucasParams,
    OutOfRangeError,
    RankUndefinedError,
    density_series,
    ell_of,
    factor,
    fib_exact,
    fib_pair_mod,
    is_prime,
    jacobi,
    lucas_pair_mod,
    lucas_rank,
    rank,
    rank_naive,
    rank_prime,
    rank_prime_power,
)
from fibrank.arith import MAX_DIVISORS, primes_upto
from fibrank.rank import RankCache, _lift_order, _scan_rank, _split_order


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


class TestSplitPrimeLift:
    """A split prime, (disc/p) = 1, lifts its rank as the order of the root
    ratio r in F_p, by pow; it must equal the ladder lift from e = p - 1."""

    @staticmethod
    def ladder_rank(seq, p):
        e = 6 if p == 2 else p - jacobi(seq.discriminant, p)
        return _lift_order(lambda n, m: lucas_pair_mod(seq, n, m), p, e)

    @pytest.mark.parametrize("a1, a2", [(1, 1), (2, 1), (1, 2), (1, 3), (1, 6), (3, -10)])
    def test_every_prime_below_1e5(self, a1, a2):
        # (1, 2) and (1, 6) have square discriminants 9 and 25, so every odd
        # p not dividing them is split; (3, -10) has disc = -31 < 0
        seq = LucasParams(a1, a2)
        cache = RankCache(seq)
        split = 0
        for p in primes_upto(10**5):
            if a2 % p == 0:
                continue
            assert cache._prime_rank(cache, p) == self.ladder_rank(seq, p), p
            if p > 2 and jacobi(seq.discriminant, p) == 1:
                assert _split_order(p, a1, seq.discriminant) == cache._prime_rank(cache, p), p
                split += 1
        assert split > 4000

    def test_random_64_bit_fibonacci_primes(self):
        rng = random.Random(25)
        cache = RankCache()
        checked = 0
        while checked < 2000:
            p = rng.getrandbits(64) | 1 << 63 | 1
            if p % 5 not in (1, 4) or not is_prime(p):
                continue
            assert rank_prime(p, cache) == _lift_order(fib_pair_mod, p, p - 1), p
            checked += 1

    @pytest.mark.parametrize("p", [998244353, 3221225473, 2**64 - 2**32 + 1])
    def test_large_two_adic_part(self, p):
        # p - 1 = 119 * 2^23, 3 * 2^30 and 2^32 (2^32 - 1): Tonelli-Shanks
        # runs its reduction loop for many rounds
        assert is_prime(p)
        for a1, a2 in [(1, 1), (1, 2), (1, 6), (3, -10), (5, 7)]:
            seq = LucasParams(a1, a2)
            if jacobi(seq.discriminant, p) != 1:
                continue
            z = _split_order(p, a1, seq.discriminant)
            assert z == self.ladder_rank(seq, p), (a1, a2)
            assert (p - 1) % z == 0


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
        with pytest.raises(OutOfRangeError):  # fails before 7^(2^63) is built
            rank_prime_power(7, 2**63)

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


class TestRankNeedsPositiveM:
    """rank, ell_of and lucas_rank reject m < 1 with the ValueError that
    rank_naive raises."""

    @pytest.mark.parametrize("call", [lambda: rank(0), lambda: rank(-5), lambda: ell_of(0)])
    def test_fibonacci(self, call):
        with pytest.raises(ValueError, match="need m >= 1"):
            call()

    def test_lucas_rejects_m_before_the_a2_gcd(self):
        # gcd(0, 2) = 2, so a gcd check made first would raise RankUndefinedError
        with pytest.raises(ValueError, match="need m >= 1, got 0"):
            lucas_rank(LucasParams(1, 2), 0)
        with pytest.raises(ValueError, match="need m >= 1, got -3"):
            lucas_rank(LucasParams(1, 2), -3)


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


class TestRankCacheClear:
    @pytest.mark.parametrize("seq", [FIBONACCI, LucasParams(2, 1)], ids=str)
    def test_clear_empties_tables_and_ranks_again(self, seq):
        cache = RankCache(seq)
        ms = (8, 25, 49, 60, 97, 1001)
        before = [lucas_rank(seq, m, cache) for m in ms]
        # prime powers share the prime-rank table: 8 = 2^3, 25 = 5^2, 49 = 7^2
        assert {2, 4, 8, 5, 25, 7, 49} <= cache._prime_z.keys()
        cache.clear()
        assert not cache._prime_z
        assert [lucas_rank(seq, m, cache) for m in ms] == before


class TestRankCacheFreed:
    @pytest.mark.parametrize("lucas_algorithms", [False, True], ids=["fibonacci", "lucas"])
    def test_dropped_cache_is_freed_without_the_cycle_collector(self, lucas_algorithms):
        # the prime-rank function takes the cache at call time, so nothing a
        # cache holds refers back to it, and reference counting frees it
        cache = RankCache(lucas_algorithms=lucas_algorithms)
        assert rank(60, cache).ell == 60
        density_series(1, 200, cache)
        ref = weakref.ref(cache)
        gc.disable()
        try:
            del cache
            assert ref() is None
        finally:
            gc.enable()


class TestTracerView:
    """perfbench/tracing.py counts prime-rank lookups and prime-power lifts
    by wrapping the rank engine's module functions; a rank change that
    bypasses them would zero its rank.* metrics without failing a digest."""

    SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
tracer = tracing.install()
from fibrank import RankCache, density_series, rank
density_series(1, 2000, RankCache())
cache = RankCache()
for m in (2**10, 3**7, 5**5 * 7**3, 2**10 * 3):
    rank(m, cache)
print(json.dumps(tracing.layer_metrics(tracer.summary(), 1)))
"""

    def test_rank_metrics_see_lookups_and_lifts(self):
        root = Path(__file__).resolve().parent.parent
        argv = [sys.executable, "-c", self.SCRIPT, str(root / "perfbench"), str(root / "src")]
        out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout
        metrics = json.loads(out)
        assert 0 < metrics["rank.prime_rank_computed"] < metrics["rank.prime_rank_calls"]
        assert metrics["rank.ppow_lifts"] > 0


class TestClosedFormPrimeRanks:
    """z(2) and z(p) for odd p | disc, the ranks with a closed form (z(2) is
    2 or 3, z(p) = p), match a scan: the element-order lift from e = 6 and
    from e = p finds them like any other prime rank."""

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
        # disc = 1 + 4 a2 is p or 3p, so p | disc for every odd prime p < 1000
        for p in primes_upto(1000)[1:]:
            seq = LucasParams(1, (p - 1) // 4 if p % 4 == 1 else (3 * p - 1) // 4)
            assert lucas_rank(seq, p, RankCache(seq)).z == self.scan(seq, p) == p, p

    def test_large_prime_discriminant_is_fast(self):
        # disc = 1 + 4 a2 = p for a prime p ~ 2^40; a scan would take ~p steps
        p = 1099511627873
        rec = lucas_rank(LucasParams(1, (p - 1) // 4), p)
        assert (rec.z, rec.ell) == (p, p)
