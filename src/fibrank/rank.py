"""Rank of appearance z(m) and ell(m) = lcm(m, z(m)).

z(m) is the least n >= 1 with m | F_n (m | u_n for a general Lucas
sequence, defined only when gcd(m, a2) = 1).  Composite ranks are built
multiplicatively: z(m) is the lcm of z(p^e) over the prime powers of m,
and prime-power ranks are lifted stepwise from z(p) -- the step test
never assumes z(p^2) != z(p), so Wall's conjecture is not baked in.
ell(m) needs only the prime ranks: for every m coprime to a2,
ell(m) = lcm(m, z(p) for each prime p | m), since z(p^e) divides
p^(e-1) z(p) (Lucas's law of repetition) and p^2 never divides z(p)
(see density._EllOfDK, which reads ell off this rule over a sieved range).
Every prime rank z(p) is found the same way, as an element order (Cohen,
Alg. 1.4.3) lifted from a multiple e of it: e = p - (disc/p) for odd p,
which is p itself when p | disc, and e = 6 for p = 2.  Starting from e,
each prime of e is divided out while p still divides the term of the
smaller index, so only the prime factors of e are needed, not its divisors.
One loop (_lift) runs every lift, with one step test per kind of prime: a
split prime, (disc/p) = 1, tests p | u_n as r^n = 1 in F_p for the root
ratio r = alpha/beta, by one pow; an inert prime, p = 2 and p | disc test
u_n mod p by the modular ladder.

A RankCache is the one rank engine of its sequence: it chooses the
prime-rank algorithm and the modular term function once, when it is
built, and every rank, membership and density computation runs through it.
"""

import functools
import math
from dataclasses import dataclass

from . import arith
from .arith import OutOfRangeError, checked_lcm
from .fib import FIBONACCI, LucasParams, fib_pair_mod, lucas_pair_mod


class RankUndefinedError(ValueError):
    """z_u(m) does not exist because gcd(m, a2) > 1."""


@dataclass(frozen=True, slots=True)
class RankRecord:
    m: int
    z: int
    ell: int


class RankCache:
    """The memo table of one sequence: ranks of primes and prime powers.

    The cache also fixes which prime-rank algorithm its users run: the
    Fibonacci-specific one, or the generalized Lucas one (which is also
    valid at (a1, a2) = (1, 1) and can be forced there to cross-check the
    generalization against the specialized path).  _prime_rank(cache, p)
    and pair_mod(n, m) are both chosen when the cache is built, not at
    import time, from the module functions of that moment.  _prime_rank
    takes the cache at call time, so nothing a cache holds refers back to
    it, and reference counting frees a dropped cache.
    """

    def __init__(self, seq: LucasParams = FIBONACCI, *, lucas_algorithms: bool | None = None):
        self.seq = seq
        if lucas_algorithms is None:
            lucas_algorithms = not seq.is_fibonacci
        if not lucas_algorithms and not seq.is_fibonacci:
            raise ValueError("the Fibonacci-specific algorithms only apply to (a1, a2) = (1, 1)")
        if lucas_algorithms:
            self.pair_mod = functools.partial(lucas_pair_mod, seq)
            self._prime_rank = _prime_rank_lucas
        else:
            self.pair_mod = fib_pair_mod
            self._prime_rank = _prime_rank_fib
        self._prime_z: dict[int, int] = {}  # z(q) for primes and prime powers q

    def clear(self):
        self._prime_z.clear()


_DEFAULT_CACHES: dict[LucasParams, RankCache] = {}


def default_cache(seq: LucasParams = FIBONACCI) -> RankCache:
    """Shared per-sequence cache; created on first use."""
    if seq not in _DEFAULT_CACHES:
        _DEFAULT_CACHES[seq] = RankCache(seq)
    return _DEFAULT_CACHES[seq]


def _cache_for(seq: LucasParams | None, cache: RankCache | None) -> RankCache:
    """cache if it was built for seq, or for any sequence if seq is None;
    without a cache, the shared cache of seq (of the Fibonacci sequence if
    seq is None)."""
    if cache is None:
        return default_cache(FIBONACCI if seq is None else seq)
    if seq is not None and cache.seq != seq:
        raise ValueError("cache was built for different Lucas parameters")
    return cache


def _scan_rank(seq: LucasParams, m: int, cap: int) -> int:
    a1, a2 = seq.a1, seq.a2
    a, b = 1 % m, a1 % m
    for n in range(1, cap + 1):
        if a == 0:
            return n
        a, b = b, (a1 * b + a2 * a) % m
    raise RuntimeError(f"no rank of {m} within {cap} steps; this indicates a bug")


def _lift_order(pair_mod, p: int, e: int, factor=None) -> int:
    """z(p) from a multiple e of it: the least z with p | u_z.
    pair_mod(n, m) gives (u_n mod m, u_{n+1} mod m)."""
    return _lift(p, e, lambda n: pair_mod(n, p)[0] == 0, factor)


def _split_order(p: int, a1: int, disc: int, factor=None) -> int:
    """z(p) for an odd prime p with (disc/p) = 1 and p not dividing a2.

    The roots alpha, beta = (a1 +- s)/2 of x^2 - a1 x - a2, with s^2 = disc,
    lie in F_p, and u_n = (alpha^n - beta^n)/s, so p | u_n exactly when
    r^n = 1 for r = alpha/beta = (a1 + s)/(a1 - s): z(p) is the order of r,
    lifted from e = p - 1 by one pow per step.  For p | a2 one root is 0, so
    r is taken as 0 and the lift's check fails.
    """
    s = arith.sqrt_mod(disc, p)
    r = (a1 + s) * pow(a1 - s, -1, p) % p if (a1 - s) % p else 0
    return _lift(p, p - 1, lambda n: pow(r, n, p) == 1, factor)


def _lift(p: int, e: int, divides, factor=None) -> int:
    """The least z with p | u_z, from a multiple e of it; divides(n) tells
    whether p | u_n, and factor(e), arith._factor_items by default, gives
    the sorted (q, a) pairs of e.

    The n with p | u_n are the multiples of z(p), so for each prime power
    q^a of e, q is divided out of z = e while p divides u_{z/q}.
    """
    if not divides(e):
        raise RuntimeError(f"{p} does not divide u_{e}; this indicates a bug")
    z = e
    for q, a in (factor or arith._factor_items)(e):
        for _ in range(a):
            if not divides(z // q):
                break
            z //= q
    return z


def _prime_rank_fib(cache: RankCache, p: int, *, factor=None) -> int:
    """z(p): the order lifted from e = p - (p/5), which z(p) divides;
    (2/5) = -1 gives e = 3 and (5/5) = 0 gives e = 5.  A split prime,
    (p/5) = 1, tests each step by a pow in F_p (_split_order).  factor
    factors e for the lift (see _lift)."""
    z = cache._prime_z.get(p)
    if z is not None:
        return z
    j = arith.jacobi(p, 5)
    z = _split_order(p, 1, 5, factor) if j == 1 else _lift_order(fib_pair_mod, p, p - j, factor)
    cache._prime_z[p] = z
    return z


def _prime_rank_lucas(cache: RankCache, p: int, *, factor=None) -> int:
    """z_u(p) for any nondegenerate parameters: the order lifted from a
    multiple e of z_u(p).

    Odd p: e = p - (disc/p).  For p | disc this is p, and z_u(p) = p since
    u_n = n (a1/2)^(n-1) (mod p) and p does not divide a1.  A split prime,
    (disc/p) = 1, tests each step by a pow in F_p (_split_order).  p = 2:
    e = 6, since a2 is odd and so u_3 = a1^2 + a2 is even when u_2 = a1 is
    not.  factor factors e for the lift (see _lift).

    p must not divide a2, and every caller makes sure of it: _rank_with
    raises RankUndefinedError first, _EllOfDK ranks only the primes prime
    to avoid, _generators and scan_low_rank_primes skip p | a2, and
    rank_prime and rank_prime_power take Fibonacci caches only.
    For p | a2, u_n = a1^(n-1) (mod p) is never 0, as a1 and a2 are
    coprime, so the check in _lift raises RuntimeError.
    """
    z = cache._prime_z.get(p)
    if z is not None:
        return z
    seq = cache.seq
    if p == 2:
        z = _lift_order(cache.pair_mod, 2, 6, factor)
    elif (j := arith.jacobi(seq.discriminant, p)) == 1:
        z = _split_order(p, seq.a1, seq.discriminant, factor)
    else:
        z = _lift_order(cache.pair_mod, p, p - j, factor)
    cache._prime_z[p] = z
    return z


def _prime_power_rank(cache: RankCache, p: int, e: int) -> int:
    """z(p^e), lifted from z(p) one power at a time: z(p^i) is z(p^(i-1))
    if p^i already divides that term, else p z(p^(i-1)).  Each z(p^i) is
    kept in the prime-rank table under the key p^i, which no prime equals."""
    if e >= 64 or p**e > arith.U64_MAX:  # p >= 2, so p^64 > 2^64 - 1
        raise OutOfRangeError(f"{p}^{e} out of supported range [1, 2^64 - 1]")
    z = cache._prime_rank(cache, p)
    for i in range(2, e + 1):
        q = p**i
        if q not in cache._prime_z:
            cache._prime_z[q] = z if cache.pair_mod(z, q)[0] == 0 else z * p
        z = cache._prime_z[q]
    return z


def _rank_with(cache: RankCache, m: int) -> RankRecord:
    """The record of m: the one place that rejects m < 1 and an undefined
    z_u(m), gcd(m, a2) > 1."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    a2 = cache.seq.a2
    if math.gcd(m, a2) != 1:
        raise RankUndefinedError(f"z_u({m}) undefined: gcd({m}, a2 = {a2}) > 1")
    arith._check_u64(m, "m")
    z = 1
    for p, e in arith._factor_items(m):
        z = checked_lcm(z, _prime_power_rank(cache, p, e))
    return RankRecord(m, z, checked_lcm(m, z))


def rank_prime(p: int, cache: RankCache | None = None) -> int:
    """z(p) for prime p in the Fibonacci sequence."""
    return rank_prime_power(p, 1, cache)


def rank_prime_power(p: int, e: int, cache: RankCache | None = None) -> int:
    """z(p^e) for prime p, e >= 1, in the Fibonacci sequence."""
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    return _prime_power_rank(_cache_for(FIBONACCI, cache), p, e)


def rank(m: int, cache: RankCache | None = None) -> RankRecord:
    """RankRecord (m, z(m), ell(m)) for the Fibonacci sequence."""
    return _rank_with(_cache_for(FIBONACCI, cache), m)


def rank_naive(m: int, limit: int | None = None) -> int:
    """Oracle rank: walk F_n mod m until the residue 0 appears.

    The default cap 6m exceeds the Pisano period, so exceeding it means a
    bug, not a slow case.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return _scan_rank(FIBONACCI, m, limit if limit is not None else 6 * m)


def ell_of(m: int, cache: RankCache | None = None) -> int:
    """ell(m) = lcm(m, z(m))."""
    return rank(m, cache).ell


def lucas_rank(seq: LucasParams, m: int, cache: RankCache | None = None) -> RankRecord:
    """RankRecord (m, z_u(m), ell_u(m)); requires gcd(m, a2) = 1."""
    return _rank_with(_cache_for(seq, cache), m)
