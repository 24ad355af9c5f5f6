"""Exact integer utilities: primality, factorization, divisors, Mobius,
Jacobi symbols and square roots modulo a prime.

Public entry points accept integers up to 64 bits.  That bound keeps
Miller-Rabin deterministic and makes lcm overflow a detectable error instead
of a silent blow-up in callers that store results in fixed-width tables.
is_prime takes the shortest prefix of the primes 2, 3, .., 37 as witnesses
that is proven exact below n: each bound in _MR_BOUNDS is the least strong
pseudoprime to all bases of its prefix (Pomerance, Selfridge and Wagstaff
1980 for the prefixes to 7, Jaeschke 1993 for those to 11, 13 and 17, Jiang
and Deng 2014 for 2 .. 23, and for all twelve bases to 37, whose least
strong pseudoprime exceeds 2^64).
"""

import bisect
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


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, increasing, by the sieve of Eratosthenes over a
    bytearray; [] for limit < 2.  The one prime sieve of the package:
    mobius_spf_sieve takes its primes from here."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return list(itertools.compress(range(limit + 1), sieve))


_SMALL_PRIMES = primes_upto(_TRIAL_LIMIT - 1)
# the primes below _TRIAL_LIMIT in blocks of 12, each with its product: one
# gcd with m shows which primes of a block divide m, often none
_TRIAL_BLOCKS = [
    (math.prod(block), block)
    for block in (tuple(_SMALL_PRIMES[i : i + 12]) for i in range(0, len(_SMALL_PRIMES), 12))
]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin to the first _MR_PREFIX[i] witnesses is exact for every n below
# _MR_BOUNDS[i], and to all twelve for every 64-bit n
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051)
_MR_PREFIX = (1, 2, 3, 4, 5, 6, 7, 9, 12)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n <= 2^64 - 1.

    Miller-Rabin with the shortest witness prefix proven exact below n (see
    the module docstring): base 2 below 2047; 2, 3 below 1,373,653; 2, 3, 5
    below 25,326,001; 2 .. 7 below 3,215,031,751; 2 .. 11 below
    2,152,302,898,747; 2 .. 13 below 3,474,749,660,383; 2 .. 17 below
    341,550,071,728,321; 2 .. 23 below 3,825,123,056,546,413,051; all
    twelve primes 2 .. 37 above.  So there are no probabilistic false
    positives in range.
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
    for a in _MR_WITNESSES[: _MR_PREFIX[bisect.bisect_right(_MR_BOUNDS, n)]]:
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


def _factor_items(n: int) -> list[tuple[int, int]]:
    """The prime factorization of 1 <= n <= 2^64 - 1 as sorted (p, e) pairs.

    Trial division below 1000, in blocks of 12 primes whose gcd with what is
    left names the primes to divide out (none, for most blocks), then
    deterministic Miller-Rabin plus Brent-cycle Pollard rho on whatever
    remains.  Each value on the stack divides that remainder, which has no
    prime factor below 1000, so a composite one is at least 1009^2 and one
    below 1000^2 is prime without a test.  The pairs must multiply back to
    n, else ValueError: the check Factorization makes, kept on the path
    that builds none.
    """
    _check_u64(n)
    counts: dict[int, int] = {}
    m = n
    for product, block in _TRIAL_BLOCKS:
        if block[0] * block[0] > m:
            break
        g = math.gcd(m, product)  # the product of the primes of the block dividing m
        for p in block:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                while m % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    m //= p
    if m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if v < _TRIAL_LIMIT**2 or is_prime(v):
                counts[v] = counts.get(v, 0) + 1
                continue
            d = _pollard_brent(v)
            stack.append(d)
            stack.append(v // d)
    items = sorted(counts.items())
    if math.prod(itertools.starmap(pow, items)) != n:
        raise ValueError(f"factors {items} do not multiply to {n}")
    return items


def factor(n: int) -> Factorization:
    """Complete prime factorization of 1 <= n <= 2^64 - 1: the validated
    wrapper of _factor_items."""
    return Factorization(n, tuple(itertools.starmap(PrimePower, _factor_items(n))))


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


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p, for a with (a/p) = 1.

    One pow when p = 3 (mod 4); otherwise Tonelli-Shanks, with the least
    quadratic non-residue as the generator of the 2-Sylow subgroup.
    """
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # t has order 2^i < 2^s; c has order 2^s
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


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


# Grow-only cache for the (mobius, smallest-prime-factor) sieve: the series
# windows (density._EllOfDK, density._terms) build it and read it.
_SIEVE: tuple[int, list[int], list[int]] = (0, [], [])


def mobius_spf_sieve(limit: int) -> tuple[list[int], list[int]]:
    """(mu, spf) lists indexed 0..limit, derived from primes_upto(isqrt(limit)).

    spf[n] is the smallest prime factor (spf[0] = spf[1] = 0), written by
    slice assignment over those primes.  mu[n] is the Mobius function, read
    off spf in one pass: with p = spf[n], mu(n) = 0 if p divides n/p, else
    -mu(n/p).  Results are cached and reused for any smaller limit.
    """
    global _SIEVE
    cached_limit, mu, spf = _SIEVE
    if cached_limit >= limit:
        return mu, spf
    spf = [0] * (limit + 1)
    # a composite n has a prime factor p <= isqrt(n); writing the multiples of
    # the largest such primes first leaves the smallest one in spf[n]
    for p in reversed(primes_upto(math.isqrt(limit))):
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    mu = [0] * (limit + 1)
    mu[1] = 1
    for n in range(2, limit + 1):
        p = spf[n] = spf[n] or n  # a prime is its own smallest factor
        m = n // p
        mu[n] = 0 if m % p == 0 else -mu[m]
    _SIEVE = (limit, mu, spf)
    return mu, spf
