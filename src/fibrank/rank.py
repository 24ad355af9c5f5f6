"""Rank of appearance z(m) and ell(m) = lcm(m, z(m)).

z(m) is the least n >= 1 with m | F_n (m | u_n for a general Lucas
sequence, defined only when gcd(m, a2) = 1).  Composite ranks are built
multiplicatively: z(m) is the lcm of z(p^e) over the prime powers of m,
and prime-power ranks are lifted stepwise from z(p) -- the step test
never assumes z(p^2) != z(p), so Wall's conjecture is not baked in.
A prime rank z(p) divides e = p - (disc/p) and is found as an element
order (Cohen, Alg. 1.4.3): starting from e, each prime of e is divided out
while p still divides the term of the smaller index, so only the prime
factors of e are needed, not its divisors.

A RankCache is the one rank engine of its sequence: it chooses the
prime-rank algorithm and the modular term function once, when it is
built, and every rank, membership and density computation runs through it.
"""

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
    """Memo tables for one sequence: prime ranks and whole records.

    The cache also fixes which prime-rank algorithm its users run: the
    Fibonacci-specific one, or the generalized Lucas one (which is also
    valid at (a1, a2) = (1, 1) and can be forced there to cross-check the
    generalization against the specialized path).  Both the algorithm and
    pair_mod are looked up when the cache is built, not at import time.
    """

    def __init__(self, seq: LucasParams = FIBONACCI, *, lucas_algorithms: bool | None = None):
        self.seq = seq
        if lucas_algorithms is None:
            lucas_algorithms = not seq.is_fibonacci
        if not lucas_algorithms and not seq.is_fibonacci:
            raise ValueError("the Fibonacci-specific algorithms only apply to (a1, a2) = (1, 1)")
        self.lucas_algorithms = lucas_algorithms
        if lucas_algorithms:
            self.pair_mod = lambda n, m: lucas_pair_mod(seq, n, m)
            self._prime_algorithm = _prime_rank_lucas
        else:
            self.pair_mod = fib_pair_mod
            self._prime_algorithm = _prime_rank_fib
        self._prime_z: dict[int, int] = {}
        self._ppow_z: dict[tuple[int, int], int] = {}
        self._records: dict[int, RankRecord] = {}

    def _prime_rank(self, p: int) -> int:
        """z(p) for prime p by this cache's algorithm."""
        return self._prime_algorithm(self, p)

    def clear(self):
        self._prime_z.clear()
        self._ppow_z.clear()
        self._records.clear()


_DEFAULT_CACHES: dict[LucasParams, RankCache] = {}


def default_cache(seq: LucasParams = FIBONACCI) -> RankCache:
    """Shared per-sequence cache; created on first use."""
    cache = _DEFAULT_CACHES.get(seq)
    if cache is None:
        cache = _DEFAULT_CACHES.setdefault(seq, RankCache(seq))
    return cache


def _resolve(cache: RankCache | None) -> RankCache:
    return cache if cache is not None else default_cache()


def _cache_for(seq: LucasParams, cache: RankCache | None) -> RankCache:
    """The shared cache of seq, or cache if it was built for seq."""
    if cache is None:
        return default_cache(seq)
    if cache.seq != seq:
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


def _lift_order(pair_mod, p: int, e: int) -> int:
    """z(p) from a multiple e of it: the least z with p | u_z.

    The n with p | u_n are the multiples of z(p), so for each prime power
    q^a of e, q is divided out of z = e while p divides u_{z/q}.
    pair_mod(n, m) gives (u_n mod m, u_{n+1} mod m).
    """
    if pair_mod(e, p)[0] != 0:
        raise RuntimeError(f"{p} does not divide u_{e}; this indicates a bug")
    z = e
    for pp in arith.factor(e).factors:
        for _ in range(pp.e):
            if pair_mod(z // pp.p, p)[0] != 0:
                break
            z //= pp.p
    return z


def _prime_rank_fib(cache: RankCache, p: int) -> int:
    """z(p): hardwired for 2 and 5, else the order lifted from
    e = p - (p/5), which z(p) divides."""
    z = cache._prime_z.get(p)
    if z is not None:
        return z
    if p == 2:
        z = 3
    elif p == 5:
        z = 5
    else:
        z = _lift_order(fib_pair_mod, p, p - arith.jacobi(p, 5))
    cache._prime_z[p] = z
    return z


def _prime_rank_lucas(cache: RankCache, p: int) -> int:
    """z_u(p) for any nondegenerate parameters.

    Odd p not dividing disc * a2: the order lifted from e = p - (disc/p),
    which z_u(p) divides.  p = 2: u_2 = a1 and u_3 = a1^2 + a2 with a2
    odd, so z = 2 for even a1, else 3.  Odd p | disc: u_n = n (a1/2)^(n-1)
    (mod p) and p does not divide a1, so z = p.
    """
    z = cache._prime_z.get(p)
    if z is not None:
        return z
    seq = cache.seq
    if math.gcd(p, seq.a2) != 1:
        raise RankUndefinedError(f"z({p}) undefined: {p} divides a2 = {seq.a2}")
    if p == 2:
        z = 2 if seq.a1 % 2 == 0 else 3
    elif seq.discriminant % p == 0:
        z = p
    else:
        z = _lift_order(cache.pair_mod, p, p - arith.jacobi(seq.discriminant, p))
    cache._prime_z[p] = z
    return z


def _prime_power_rank(cache: RankCache, p: int, e: int) -> int:
    """z(p^e): z(p) for e = 1, else lifted from z(p^(e-1)): unchanged if
    p^e already divides that term, else multiplied by p."""
    if p**e > arith.U64_MAX:
        raise OutOfRangeError(f"{p}^{e} out of supported range [1, 2^64 - 1]")
    if e == 1:
        return cache._prime_rank(p)
    z = cache._ppow_z.get((p, e))
    if z is not None:
        return z
    z = _prime_power_rank(cache, p, e - 1)
    if cache.pair_mod(z, p**e)[0] != 0:
        z *= p
    cache._ppow_z[(p, e)] = z
    return z


def _rank_with(cache: RankCache, m: int) -> RankRecord:
    """The record of m; the one check that z_u(m) exists, gcd(m, a2) = 1."""
    rec = cache._records.get(m)
    if rec is not None:
        return rec
    a2 = cache.seq.a2
    if math.gcd(m, a2) != 1:
        raise RankUndefinedError(f"z_u({m}) undefined: gcd({m}, a2 = {a2}) > 1")
    arith._check_u64(m, "m")
    z = 1
    for pp in arith.factor(m).factors:
        z = checked_lcm(z, _prime_power_rank(cache, pp.p, pp.e))
    ell = checked_lcm(m, z)
    rec = RankRecord(m, z, ell)
    cache._records[m] = rec
    return rec


def rank_prime(p: int, cache: RankCache | None = None) -> int:
    """z(p) for prime p in the Fibonacci sequence."""
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _cache_for(FIBONACCI, cache)._prime_rank(p)


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
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return _rank_with(_cache_for(seq, cache), m)
