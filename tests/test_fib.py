"""Term computation tests.  The oracle throughout is the plain recurrence
run in exact big-integer arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from fibrank import (
    FIBONACCI,
    LucasParams,
    OutOfRangeError,
    fib_exact,
    fib_pair_mod,
    fib_valuation,
    gcd_n_fib,
    gcd_n_lucas,
    lucas_pair_mod,
    lucas_valuation,
)


def fib_list(n):
    """Oracle: F_0 .. F_n by the recurrence."""
    fs = [0, 1]
    while len(fs) <= n:
        fs.append(fs[-1] + fs[-2])
    return fs


def lucas_list(a1, a2, n):
    """Oracle: u_0 .. u_n by the recurrence (exact, signed)."""
    us = [0, 1]
    while len(us) <= n:
        us.append(a1 * us[-1] + a2 * us[-2])
    return us


def int_val(x, p):
    v = 0
    while x and x % p == 0:
        x //= p
        v += 1
    return v


def valid_params():
    def ok(t):
        a1, a2 = t
        return (
            a1 * a2 != 0
            and math.gcd(a1, a2) == 1
            and a1 * a1 + 4 * a2 != 0
            and (a1, a2) not in ((1, -1), (-1, -1))
        )

    return st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(ok).map(lambda t: LucasParams(*t))


FIBS = fib_list(2001)


class TestFibExact:
    def test_base_cases(self):
        assert fib_exact(1) == 1 and fib_exact(2) == 1

    def test_examples(self):
        assert fib_exact(12) == 144
        assert fib_exact(24) == 46368

    def test_matches_recurrence(self):
        for n in range(2001):
            assert fib_exact(n) == FIBS[n]

    def test_cap(self):
        with pytest.raises(OutOfRangeError):
            fib_exact(10_001)
        assert fib_exact(31, cap=31) == 1346269
        with pytest.raises(OutOfRangeError):
            fib_exact(32, cap=31)


class TestFibPairMod:
    def test_examples(self):
        assert fib_pair_mod(10, 11) == (0, 1)
        assert fib_pair_mod(6, 7) == (1, 6)
        assert fib_pair_mod(123456789, 1) == (0, 0)

    def test_exhaustive_small_grid(self):
        for m in range(1, 60):
            for n in range(0, 300):
                assert fib_pair_mod(n, m) == (FIBS[n] % m, FIBS[n + 1] % m), (n, m)

    @given(st.integers(0, 2000), st.integers(1, 1000))
    def test_matches_exact(self, n, m):
        assert fib_pair_mod(n, m) == (FIBS[n] % m, FIBS[n + 1] % m)

    def test_modulus_range(self):
        with pytest.raises(OutOfRangeError):
            fib_pair_mod(10, 0)
        with pytest.raises(OutOfRangeError):
            fib_pair_mod(10, 2**64)
        a, b = fib_pair_mod(2**63, 2**64 - 1)  # huge index and modulus stay cheap
        assert 0 <= a < 2**64 - 1 and 0 <= b < 2**64 - 1


class TestGcdNFib:
    def test_examples(self):
        assert gcd_n_fib(1) == 1
        assert gcd_n_fib(12) == 12
        assert gcd_n_fib(25) == 25

    def test_matches_exact_gcd(self):
        for n in range(1, 400):
            assert gcd_n_fib(n) == math.gcd(n, FIBS[n]), n

    @given(st.integers(1, 10**6))
    def test_result_divides_n(self, n):
        assert n % gcd_n_fib(n) == 0


class TestFibValuation:
    def test_examples(self):
        assert fib_valuation(2, 6) == 3
        assert fib_valuation(5, 25) == 2
        assert fib_valuation(7, 8) == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            fib_valuation(6, 10)

    def test_exact_for_all_small_primes(self):
        # module invariant: closed form equals nu_p of the exact term,
        # p <= 50, n <= 500
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            for n in range(1, 501):
                assert fib_valuation(p, n) == int_val(FIBS[n], p), (p, n)

    def test_exact_at_rank_multiples_below_3000(self):
        from fibrank import rank_prime
        from fibrank.arith import primes_upto

        for p in primes_upto(3000)[3:]:
            z = rank_prime(p)
            for n in range(z, 2002, z):
                assert fib_valuation(p, n) == int_val(FIBS[n], p), (p, n)

    def test_prime_with_no_room_for_the_entry_valuation(self):
        from fibrank import rank_prime

        # p^2 > 2^64 - 1, so F_z mod p = 0 cannot tell nu_p(F_z)
        p = 4294967311
        with pytest.raises(OutOfRangeError):
            fib_valuation(p, rank_prime(p))


class TestLucasParams:
    def test_discriminant(self):
        assert LucasParams(1, 1).discriminant == 5
        assert LucasParams(2, 1).discriminant == 8

    @pytest.mark.parametrize(
        "a1,a2",
        [(0, 1), (1, 0), (2, 2), (4, 6), (2, -1), (1, -1), (-1, -1)],
    )
    def test_degenerate_rejected(self, a1, a2):
        with pytest.raises(ValueError):
            LucasParams(a1, a2)

    def test_fibonacci_flag(self):
        assert FIBONACCI.is_fibonacci
        assert not LucasParams(2, 1).is_fibonacci


class TestLucasPairMod:
    def test_pell_example(self):
        assert lucas_pair_mod(LucasParams(2, 1), 5, 100) == (29, 70)

    def test_a2_two_example(self):
        assert lucas_pair_mod(LucasParams(1, 2), 6, 1000) == (21, 43)

    @given(valid_params(), st.integers(0, 120), st.integers(1, 10**4))
    def test_matches_recurrence(self, seq, n, m):
        us = lucas_list(seq.a1, seq.a2, n + 1)
        assert lucas_pair_mod(seq, n, m) == (us[n] % m, us[n + 1] % m)

    @given(st.integers(0, 10**4), st.integers(1, 10**4))
    def test_fibonacci_case_coincides(self, n, m):
        assert lucas_pair_mod(FIBONACCI, n, m) == fib_pair_mod(n, m)

    def test_fibonacci_case_small_grid(self):
        for n in range(0, 120):
            for m in range(1, 50):
                assert lucas_pair_mod(FIBONACCI, n, m) == fib_pair_mod(n, m)

    @given(valid_params(), st.integers(1, 500))
    def test_gcd_n_lucas_divides_n(self, seq, n):
        assert n % gcd_n_lucas(seq, n) == 0


class TestLucasValuation:
    def test_examples(self):
        assert lucas_valuation(FIBONACCI, 2, 6, 10) == 3
        assert lucas_valuation(LucasParams(2, 1), 2, 2, 10) == 1
        assert lucas_valuation(LucasParams(2, 1), 3, 4, 10) == 1

    def test_precision_cap_is_min(self):
        # F_12 = 144 = 2^4 * 3^2: a cap below the true valuation returns the cap
        assert lucas_valuation(FIBONACCI, 2, 12, 3) == 3
        assert lucas_valuation(FIBONACCI, 2, 12, 10) == 4

    def test_rejects_p_dividing_a2(self):
        with pytest.raises(ValueError):
            lucas_valuation(LucasParams(1, 2), 2, 5, 4)

    def test_overflow(self):
        with pytest.raises(OutOfRangeError):
            lucas_valuation(FIBONACCI, 2, 6, 65)

    @given(valid_params(), st.integers(1, 80))
    def test_matches_exact_valuation(self, seq, n):
        us = lucas_list(seq.a1, seq.a2, n)
        for p in (2, 3, 5, 7):
            if math.gcd(p, seq.a2) != 1:
                continue
            expected = min(int_val(us[n], p), 12) if us[n] else 12
            assert lucas_valuation(seq, p, n, 12) == expected
