"""Exact integer utilities: primality, factorization, divisors, Mobius, Jacobi.

Public entry points accept integers up to 64 bits.  That bound keeps
Miller-Rabin deterministic (the fixed witness set below is exact for the
whole range) and makes lcm overflow a detectable error instead of a silent
blow-up in callers that store results in fixed-width tables.
"""

import itertools
import math
from dataclasses import dataclass

U64_MAX = 2**64 - 1

# hard cap on divisor enumeration; tau(n) above this is refused
MAX_DIVISORS = 1 << 16

_TRIAL_LIMIT = 1000


class OutOfRangeError(OverflowError):
    """An input or result exceeds the supported 64-bit integer width."""


def _check_u64(n, what="argument"):
    if not 1 <= n <= U64_MAX:
        raise OutOfRangeError(f"{what} {n} out of supported range [1, 2^64 - 1]")


@dataclass(frozen=True, slots=True)
class PrimePower:
    p: int
    e: int


@dataclass(frozen=True, slots=True)
class Factorization:
    """A positive integer as a strictly increasing list of prime powers."""

    value: int
    factors: tuple[PrimePower, ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for pp in self.factors:
            if pp.p <= last or pp.e < 1:
                raise ValueError("factors must be strictly increasing with e >= 1")
            last = pp.p
            prod *= pp.p**pp.e
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")

    def tau(self) -> int:
        """Number of divisors of value."""
        t = 1
        for pp in self.factors:
            t *= pp.e + 1
        return t


def _small_primes(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    return [i for i in range(limit + 1) if sieve[i]]


_SMALL_PRIMES = _small_primes(_TRIAL_LIMIT - 1)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n <= 2^64 - 1.

    Miller-Rabin with a witness set that is exact for all 64-bit inputs,
    so there are no probabilistic false positives in range.
    """
    _check_u64(n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n):
    """Nontrivial factor of an odd composite n with no factor < _TRIAL_LIMIT.

    Brent's cycle variant of Pollard's rho.  Parameters march through a
    fixed sequence, so the factorization is deterministic.
    """
    for c in itertools.count(1):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor(n: int) -> Factorization:
    """Complete prime factorization of 1 <= n <= 2^64 - 1.

    n up to the limit of the cached sieve (see mobius_spf_sieve) is split by
    repeated smallest-prime-factor division.  Larger n: trial division
    below 1000, then deterministic Miller-Rabin plus Brent-cycle Pollard rho
    on whatever remains.
    """
    _check_u64(n)
    if n == 1:
        return Factorization(1, ())
    counts: dict[int, int] = {}
    m = n
    limit, _, spf = _SIEVE
    if n <= limit:
        while m > 1:
            p = spf[m]
            counts[p] = counts.get(p, 0) + 1
            m //= p
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    if m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                counts[v] = counts.get(v, 0) + 1
                continue
            d = _pollard_brent(v)
            stack.append(d)
            stack.append(v // d)
    return Factorization(n, tuple(PrimePower(p, e) for p, e in sorted(counts.items())))


def mobius(f: Factorization) -> int:
    """Mobius function of f.value: 0 on a square factor, else (-1)^omega."""
    for pp in f.factors:
        if pp.e >= 2:
            return 0
    return -1 if len(f.factors) % 2 else 1


def divisors(f: Factorization) -> list[int]:
    """All divisors of f.value, strictly increasing."""
    if f.tau() > MAX_DIVISORS:
        raise OutOfRangeError(f"tau({f.value}) = {f.tau()} exceeds divisor cap {MAX_DIVISORS}")
    divs = [1]
    for pp in f.factors:
        powers = [pp.p**j for j in range(pp.e + 1)]
        divs = [d * q for d in divs for q in powers]
    divs.sort()
    return divs


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n >= 1; the Legendre symbol when n is prime."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    r = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                r = -r
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            r = -r
        a %= n
    return r if n == 1 else 0


def gcd_lcm(a: int, b: int) -> tuple[int, int]:
    """(gcd, lcm) of nonnegative a, b; lcm overflow past 64 bits is an error."""
    if a < 0 or b < 0:
        raise ValueError("gcd_lcm needs nonnegative arguments")
    if a == 0 and b == 0:
        raise ValueError("lcm(0, 0) is undefined")
    return math.gcd(a, b), checked_lcm(a, b)


def checked_lcm(a: int, b: int) -> int:
    """lcm of nonnegative a, b; overflow past 64 bits is an error."""
    l = math.lcm(a, b)
    if l > U64_MAX:
        raise OutOfRangeError(f"lcm({a}, {b}) = {l} out of supported range [1, 2^64 - 1]")
    return l


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit."""
    if limit < 2:
        return []
    return _small_primes(limit)


# Grow-only cache for the (mobius, smallest-prime-factor) sieve used by the
# density and oracle scans and by factor.
_SIEVE: tuple[int, list[int], list[int]] = (0, [], [])


def mobius_spf_sieve(limit: int) -> tuple[list[int], list[int]]:
    """Linear sieve returning (mu, spf) arrays indexed 0..limit.

    mu[n] is the Mobius function, spf[n] the smallest prime factor (spf[1] = 0).
    Results are cached and reused for any smaller limit.
    """
    global _SIEVE
    cached_limit, mu, spf = _SIEVE
    if cached_limit >= limit:
        return mu, spf
    mu = [0] * (limit + 1)
    spf = [0] * (limit + 1)
    mu[1] = 1
    primes = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            mu[i] = -1
            primes.append(i)
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            spf[ip] = p
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    _SIEVE = (limit, mu, spf)
    return mu, spf
