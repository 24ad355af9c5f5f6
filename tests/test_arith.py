"""Exact-arithmetic tests: every derived expectation is computed by an
independent brute-force oracle (trial division, quadratic-residue search,
divisor scan) before being asserted against the library."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from fibrank import (
    Factorization,
    OutOfRangeError,
    PrimePower,
    U64_MAX,
    divisors,
    factor,
    gcd_lcm,
    is_prime,
    jacobi,
    mobius,
)
from fibrank import arith
from fibrank.arith import mobius_spf_sieve, primes_upto, sqrt_mod


def trial_factor(n):
    """Oracle: factorization by unbounded trial division."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_is_prime(n):
    return n >= 2 and trial_factor(n) == [(n, 1)]


def strong_probable_prime(n, a):
    """Oracle: whether odd n > a passes the strong test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# the least strong pseudoprime to each prefix of the bases 2, 3, 5, .., 23
# (Pomerance-Selfridge-Wagstaff 1980, Jaeschke 1993, Jiang-Deng 2014)
LEAST_STRONG_PSEUDOPRIMES = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
]
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def divisor_scan(n):
    """Oracle: divisors by scanning every candidate."""
    return [d for d in range(1, n + 1) if n % d == 0]


def as_pairs(f: Factorization):
    return [(pp.p, pp.e) for pp in f.factors]


class TestIsPrime:
    def test_unit_is_not_prime(self):
        assert not is_prime(1)

    def test_smallest_prime(self):
        assert is_prime(2)

    def test_3599131_matches_trial_division(self):
        # oracle: 3599131 = 31 * 116101
        assert not trial_is_prime(3599131)
        assert not is_prime(3599131)

    def test_small_range_vs_trial_division(self):
        for n in range(1, 5000):
            assert is_prime(n) == trial_is_prime(n), n

    def test_large_known_primes(self):
        for p in (10**9 + 7, 10**9 + 9, 2**61 - 1):
            assert is_prime(p)
        assert not is_prime(2**61 - 1 + 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            is_prime(2**64)
        with pytest.raises(OutOfRangeError):
            is_prime(0)

    @given(st.integers(1, 10**6))
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == trial_is_prime(n)

    def test_agrees_with_the_sieve_below_1e6(self):
        primes = set(primes_upto(10**6))
        assert [n for n in range(1, 10**6) if is_prime(n) != (n in primes)] == []

    @pytest.mark.parametrize("bound, k", LEAST_STRONG_PSEUDOPRIMES)
    def test_witness_prefix_bounds(self, bound, k):
        # each bound fools its own base prefix, so a prefix used at n = bound
        # (a < / <= slip) would call it prime; a later base unmasks it
        assert all(strong_probable_prime(bound, a) for a in BASES[:k])
        assert not all(strong_probable_prime(bound, a) for a in BASES)
        assert not is_prime(bound)
        # the largest prime below the bound, and every n near the bound,
        # against all twelve bases, which are exact for every 64-bit n
        exact = lambda n: n in BASES or (
            n > 1 and all(n % a for a in BASES) and all(strong_probable_prime(n, a) for a in BASES)
        )
        below = next(n for n in range(bound - 1, 1, -1) if exact(n))
        assert is_prime(below)
        for n in range(max(2, bound - 300), bound + 300):
            assert is_prime(n) == exact(n), n


class TestSqrtMod:
    def test_every_residue_of_small_primes(self):
        for p in primes_upto(400)[1:]:
            for x in range(1, p):
                a = x * x % p
                assert sqrt_mod(a, p) ** 2 % p == a, (p, a)

    @pytest.mark.parametrize("p", [998244353, 3221225473, 2**64 - 2**32 + 1, 2**61 - 1])
    def test_large_two_adic_part(self, p):
        # p - 1 has 2-adic part 2^23, 2^30, 2^32 and 2 (p = 3 mod 4: one pow)
        for x in (2, 3, 5, 7, 123456789, p - 1, p // 3):
            for a in (x * x, x * x - 7 * p):  # a negative representative too
                assert sqrt_mod(a, p) ** 2 % p == a % p, (p, a)


class TestFactor:
    def test_one_has_empty_factorization(self):
        f = factor(1)
        assert f.value == 1 and f.factors == ()

    def test_fib12(self):
        assert as_pairs(factor(144)) == [(2, 4), (3, 2)]

    def test_fib24(self):
        # oracle: trial division
        assert trial_factor(46368) == [(2, 5), (3, 2), (7, 1), (23, 1)]
        assert as_pairs(factor(46368)) == [(2, 5), (3, 2), (7, 1), (23, 1)]

    def test_exhaustive_small(self):
        for n in range(1, 10_000):
            assert as_pairs(factor(n)) == trial_factor(n), n

    def test_semiprime_needs_rho(self):
        n = (10**9 + 7) * (10**9 + 9)
        assert as_pairs(factor(n)) == [(10**9 + 7, 1), (10**9 + 9, 1)]

    def test_prime_square_needs_rho(self):
        n = (10**9 + 7) ** 2
        assert as_pairs(factor(n)) == [(10**9 + 7, 2)]

    def test_u64_boundary(self):
        assert as_pairs(factor(U64_MAX)) == [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)]
        with pytest.raises(OutOfRangeError):
            factor(U64_MAX + 1)

    @given(st.integers(1, 10**7))
    def test_reconstructs_value(self, n):
        f = factor(n)
        prod = 1
        for p, e in as_pairs(f):
            assert trial_is_prime(p) or p > 10**6  # oracle affordable below 1e6
            prod *= p**e
        assert prod == n

    def test_factorization_type_rejects_garbage(self):
        with pytest.raises(ValueError):
            Factorization(12, (PrimePower(3, 1), PrimePower(2, 2)))  # unsorted
        with pytest.raises(ValueError):
            Factorization(12, (PrimePower(2, 2),))  # wrong product


class TestPollardBrentBacktrack:
    """Semiprimes whose two primes show up in the same block of products, so
    gcd(q, n) = n and Brent's rho (c = 1) backtracks one step at a time
    from ys."""

    SEMIPRIMES = (1009 * 1049, 1009 * 1061, 1009 * 1069, 1009 * 1087, 1009 * 1097)

    def test_factor_without_sieve(self):
        assert as_pairs(factor(1009 * 1049)) == [(1009, 1), (1049, 1)]

    @pytest.mark.parametrize("n", SEMIPRIMES)
    def test_proper_factor(self, n):
        g = arith._pollard_brent(n)
        assert 1 < g < n and n % g == 0


class TestFactorOnePath:
    """factor takes one path for every n, trial division in gcd-tested
    blocks and then Miller-Rabin and Pollard-Brent, whatever sieve an earlier
    series window left cached; the sieve is set with monkeypatch so none of
    it leaks."""

    LIMIT = 4096  # 2^12; LIMIT + 1 = 17 * 241

    def test_matches_trial_division(self):
        for n in range(1, self.LIMIT + 51):
            assert as_pairs(factor(n)) == trial_factor(n), n
        assert as_pairs(factor(1)) == []
        assert as_pairs(factor(4093)) == [(4093, 1)]  # prime
        assert as_pairs(factor(3**7)) == [(3, 7)]
        assert as_pairs(factor(self.LIMIT)) == [(2, 12)]
        assert as_pairs(factor(self.LIMIT + 1)) == [(17, 1), (241, 1)]

    def test_ignores_a_wrong_cached_sieve(self, monkeypatch):
        monkeypatch.setattr(arith, "_SIEVE", (self.LIMIT, [0] * (self.LIMIT + 1), [2] * (self.LIMIT + 1)))
        for n in range(1, self.LIMIT + 51):
            assert as_pairs(factor(n)) == trial_factor(n), n

    def test_small_cofactor_needs_no_primality_test(self, monkeypatch):
        tested = []
        real_is_prime = arith.is_prime

        def recording(n):
            tested.append(n)
            return real_is_prime(n)

        monkeypatch.setattr(arith, "is_prime", recording)
        for n in range(1, self.LIMIT + 1):
            factor(n)
        assert tested == []
        # only a cofactor of 1000^2 or more is tested: one below it has no
        # prime factor below 1000, so it is prime
        for n, pairs, calls in (
            (self.LIMIT + 1, [(17, 1), (241, 1)], []),
            (1009 * 1013, [(1009, 1), (1013, 1)], [1022117]),
            (2**30 * 999983, [(2, 30), (999983, 1)], []),
            (2**30 * 1000003, [(2, 30), (1000003, 1)], [1000003]),
        ):
            tested.clear()
            assert as_pairs(factor(n)) == pairs, n
            assert tested == calls, n


class TestFactorItems:
    """The private path _factor_items, which the rank engine calls, gives
    the pairs of the public factor, as plain int tuples, and keeps the
    product check that Factorization makes."""

    HARD = (
        U64_MAX,
        (10**9 + 7) * (10**9 + 9),
        (10**9 + 7) ** 2,
        *TestPollardBrentBacktrack.SEMIPRIMES,
        2**30 * 1000003,
        (2**32 - 5) * (2**32 - 17),  # two 32-bit primes: Pollard-Brent's hardest 64-bit case
    )

    @staticmethod
    def check(n):
        items = arith._factor_items(n)
        assert items == as_pairs(factor(n)), n
        assert all(type(item) is tuple and [type(x) for x in item] == [int, int] for item in items), n

    def test_every_n_below_1e4(self):
        for n in range(1, 10_000):
            self.check(n)

    def test_random_n_at_every_bit_length(self):
        rng = random.Random(1)
        for bits in range(1, 65):
            for _ in range(300):
                self.check(rng.getrandbits(bits) | 1 << (bits - 1))

    @pytest.mark.parametrize("n", HARD)
    def test_hard_cases(self, n):
        self.check(n)

    def test_rejects_out_of_range(self):
        for n in (0, U64_MAX + 1):
            with pytest.raises(OutOfRangeError):
                arith._factor_items(n)

    def test_wrong_rho_factor_fails_the_product_check(self, monkeypatch):
        # 1009 * 1049 leaves its cofactor to Pollard-Brent; 1013 does not
        # divide it, so the pairs (1013, 1), (1044, 1) miss n
        monkeypatch.setattr(arith, "_pollard_brent", lambda n: 1013)
        with pytest.raises(ValueError, match="do not multiply to 1058441"):
            arith._factor_items(1009 * 1049)


class TestMobius:
    def test_examples(self):
        assert mobius(factor(1)) == 1
        assert mobius(factor(6)) == 1
        assert mobius(factor(12)) == 0

    @given(st.integers(1, 2000), st.integers(1, 2000))
    def test_multiplicative_on_coprime(self, a, b):
        if math.gcd(a, b) == 1:
            assert mobius(factor(a * b)) == mobius(factor(a)) * mobius(factor(b))

    def test_mobius_sum_is_unit_indicator(self):
        # sum_{d | n} mu(d) = [n == 1] for all n <= 10^4
        for n in range(1, 10_001):
            total = sum(mobius(factor(d)) for d in divisors(factor(n)))
            assert total == (1 if n == 1 else 0), n

    def test_sieve_agrees_with_factored_form(self):
        mu, spf = mobius_spf_sieve(3000)
        for n in range(1, 3001):
            assert mu[n] == mobius(factor(n)), n
            if n > 1:
                assert spf[n] == factor(n).factors[0].p


class TestSieveVsTrialDivision:
    """mobius_spf_sieve against a reference built by trial division alone."""

    LIMIT = 20_000

    @staticmethod
    def reference(limit):
        mu, spf = [0, 1], [0, 0]
        for n in range(2, limit + 1):
            f = trial_factor(n)
            mu.append(0 if any(e > 1 for _, e in f) else (-1) ** len(f))
            spf.append(f[0][0])
        return mu, spf

    def test_fresh(self, monkeypatch):
        monkeypatch.setattr(arith, "_SIEVE", (0, [], []))
        assert mobius_spf_sieve(self.LIMIT) == self.reference(self.LIMIT)
        assert arith._SIEVE[0] == self.LIMIT

    def test_grown_from_a_smaller_cached_limit(self, monkeypatch):
        monkeypatch.setattr(arith, "_SIEVE", (0, [], []))
        small = 1_000
        assert mobius_spf_sieve(small) == self.reference(small)
        assert mobius_spf_sieve(self.LIMIT) == self.reference(self.LIMIT)
        assert arith._SIEVE[0] == self.LIMIT

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 8, 9, 25, 48, 49, 50, 121])
    def test_tiny_limits_around_prime_squares(self, monkeypatch, limit):
        monkeypatch.setattr(arith, "_SIEVE", (0, [], []))
        assert mobius_spf_sieve(limit) == self.reference(limit)


class TestPrimesUpto:
    def test_matches_primality_test(self):
        primes = [p for p in range(2, 5001) if is_prime(p)]
        for n in range(-5, 5001):
            assert primes_upto(n) == [p for p in primes if p <= n], n


class TestDivisors:
    def test_examples(self):
        assert divisors(factor(1)) == [1]
        assert divisors(factor(12)) == [1, 2, 3, 4, 6, 12]
        assert divisor_scan(28) == [1, 2, 4, 7, 14, 28]
        assert divisors(factor(28)) == [1, 2, 4, 7, 14, 28]

    def test_exhaustive_small(self):
        for n in range(1, 2000):
            assert divisors(factor(n)) == divisor_scan(n), n

    @given(st.integers(1, 10**6))
    def test_count_is_tau(self, n):
        f = factor(n)
        ds = divisors(f)
        assert len(ds) == f.tau()
        assert ds == sorted(set(ds))

    def test_divisor_cap(self):
        # highly composite n below 2^64 with tau(n) = 5 * 4 * 3 * 2^11 = 122880 > 2^16
        n = 2**4 * 3**3 * 5**2 * (7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43)
        assert factor(n).tau() == 122880
        with pytest.raises(OutOfRangeError):
            divisors(factor(n))


class TestJacobi:
    def test_examples(self):
        assert jacobi(5, 11) == 1  # 4^2 = 16 = 5 (mod 11)
        assert jacobi(5, 7) == -1
        assert jacobi(0, 5) == 0

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 8)

    def test_vs_quadratic_residue_search(self):
        # Legendre symbol oracle: exhaust squares mod p, for every odd prime p < 1000
        for p in primes_upto(999):
            if p == 2:
                continue
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert jacobi(a, p) == expected, (a, p)

    @given(st.integers(-10**6, 10**6), st.integers(0, 10**4))
    def test_multiplicative_in_top(self, a, i):
        n = 2 * i + 1
        assert jacobi(a * a, n) in (0, 1)
        assert jacobi(a % n if n > 1 else 0, n) == jacobi(a, n)


class TestGcdLcm:
    def test_examples(self):
        assert gcd_lcm(6, 8) == (2, 24)
        assert gcd_lcm(7, 1) == (1, 7)
        assert gcd_lcm(12, 144) == (12, 144)

    def test_zero_cases(self):
        assert gcd_lcm(0, 5) == (5, 0)
        with pytest.raises(ValueError):
            gcd_lcm(0, 0)

    def test_lcm_overflow_is_error_not_wrap(self):
        with pytest.raises(OutOfRangeError):
            gcd_lcm(2**63, 2**63 - 1)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_matches_math(self, a, b):
        if a == 0 and b == 0:
            return
        assert gcd_lcm(a, b) == (math.gcd(a, b), math.lcm(a, b))
