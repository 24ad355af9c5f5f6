"""Fibonacci and Lucas-sequence terms: exact for small indices, modular via
fast doubling for large ones, plus p-adic valuations of terms.

Index-halving identities for u_0 = 0, u_1 = 1, u_n = a1 u_{n-1} + a2 u_{n-2}
(from squaring the companion matrix [[a1, a2], [1, 0]]):

    u_{2t}   = u_t (2 u_{t+1} - a1 u_t)
    u_{2t+1} = u_{t+1}^2 + a2 u_t^2

Fibonacci is the (a1, a2) = (1, 1) case.

Both modular ladders start from a table of exact head terms u_0 .. u_{2^K}
of their sequence, built on first use by _head.  For an index n of b > K
bits, the top K bits t = n >> (b - K) give u_t and u_{t+1} by one reduction
of each table entry mod m, and doubling runs only over the remaining b - K
bits; an index below 2^K comes from the table alone.  K is at most
HEAD_BITS and as large as keeps every table term below 2^1024, so it is 10
for Fibonacci, 9 for Pell and 0, the plain ladder from (u_0, u_1), once
|a1| >= 2^1024.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .arith import U64_MAX, OutOfRangeError, _check_u64, is_prime

FIB_EXACT_CAP = 10_000
# the ladders read at most this many top bits of an index from _head's table
HEAD_BITS = 10

# Coprime integer pairs whose root ratio is a root of unity; together with
# a1*a2 = 0 and discriminant 0 these are exactly the degenerate Lucas cases.
_DEGENERATE_PAIRS = {(1, -1), (-1, -1)}


@dataclass(frozen=True, slots=True)
class LucasParams:
    """Coefficients of a nondegenerate Lucas sequence u_n = a1 u_{n-1} + a2 u_{n-2}."""

    a1: int
    a2: int
    discriminant: int = field(init=False)

    def __post_init__(self):
        if self.a1 * self.a2 == 0:
            raise ValueError("degenerate Lucas parameters: a1 * a2 = 0")
        if math.gcd(self.a1, self.a2) != 1:
            raise ValueError(f"Lucas parameters must be coprime, got ({self.a1}, {self.a2})")
        disc = self.a1 * self.a1 + 4 * self.a2
        if disc == 0 or (self.a1, self.a2) in _DEGENERATE_PAIRS:
            raise ValueError(f"degenerate Lucas parameters ({self.a1}, {self.a2})")
        object.__setattr__(self, "discriminant", disc)

    @property
    def is_fibonacci(self) -> bool:
        return self.a1 == 1 and self.a2 == 1


FIBONACCI = LucasParams(1, 1)


def fib_exact(n: int, cap: int = FIB_EXACT_CAP) -> int:
    """Exact F_n in arbitrary precision; oracle use only, hence the index cap."""
    if n < 0:
        raise ValueError(f"Fibonacci index must be >= 0, got {n}")
    if n > cap:
        raise OutOfRangeError(f"index {n} above fib_exact cap {cap}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=16)
def _head(a1: int, a2: int) -> tuple[int, tuple[int, ...]]:
    """(K, (u_0, .., u_{2^K})) for the largest K <= HEAD_BITS that keeps
    every one of these exact terms below 2^1024 in absolute value."""
    terms = [0, 1]
    while len(terms) <= 1 << HEAD_BITS:
        u = a1 * terms[-1] + a2 * terms[-2]
        if abs(u) >> 1024:
            break
        terms.append(u)
    k = (len(terms) - 1).bit_length() - 1
    return k, tuple(terms[: (1 << k) + 1])


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F_n mod m, F_{n+1} mod m) in O(log n) doubling steps."""
    _check_u64(m, "modulus")
    if n < 0:
        raise ValueError(f"Fibonacci index must be >= 0, got {n}")
    k, terms = _head(1, 1)
    shift = max(n.bit_length() - k, 0)
    t = n >> shift
    a, b = terms[t] % m, terms[t + 1] % m
    for i in range(shift - 1, -1, -1):
        c = a * (2 * b - a) % m
        d = (a * a + b * b) % m
        if (n >> i) & 1:
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a, b


def lucas_pair_mod(seq: LucasParams, n: int, m: int) -> tuple[int, int]:
    """(u_n mod m, u_{n+1} mod m) for the Lucas sequence with parameters seq.

    Negative intermediates are reduced into [0, m) by Python's %.
    """
    _check_u64(m, "modulus")
    if n < 0:
        raise ValueError(f"Lucas index must be >= 0, got {n}")
    k, terms = _head(seq.a1, seq.a2)
    shift = max(n.bit_length() - k, 0)
    t = n >> shift
    a, b = terms[t] % m, terms[t + 1] % m
    a1, a2 = seq.a1 % m, seq.a2 % m
    for i in range(shift - 1, -1, -1):
        c = a * (2 * b - a1 * a) % m
        d = (b * b + a2 * a * a) % m
        if (n >> i) & 1:
            a, b = d, (a1 * d + a2 * c) % m
        else:
            a, b = c, d
    return a, b


def gcd_n_fib(n: int) -> int:
    """gcd(n, F_n), computed through F_n mod n so huge indices stay cheap."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.gcd(n, fib_pair_mod(n, n)[0])


def gcd_n_lucas(seq: LucasParams, n: int) -> int:
    """gcd(n, u_n) for the Lucas sequence with parameters seq."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.gcd(n, lucas_pair_mod(seq, n, n)[0])


def _int_valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _entry_valuation(p: int, z: int) -> int:
    """nu_p(F_z) for z = z(p), from F_z mod the largest power of p in 64 bits."""
    pk = p
    while pk <= U64_MAX // p:
        pk *= p
    r = fib_pair_mod(z, pk)[0]
    if r == 0:
        raise OutOfRangeError(f"nu_{p}(F_{z}) exceeds supported precision")
    return _int_valuation(r, p)


def fib_valuation(p: int, n: int) -> int:
    """nu_p(F_n) by Lengyel's rule (Lengyel, "The order of the Fibonacci and
    Lucas numbers", Fibonacci Quart. 33, 1995), one rule for every prime p.

    With z = z(p), nu_p(F_n) = 0 unless z | n, and otherwise
    nu_p(F_n) = nu_p(F_z) + nu_p(n / z).  For odd p != 5, p does not divide
    z, so this is nu_p(F_z) + nu_p(n); for p = 5, z = F_5 = 5 gives nu_5(n).
    The one exception is p = 2 with n an even multiple of z(2) = 3:
    nu_2(F_n) = nu_2(n) + 2 there, while odd multiples give nu_2(F_3) = 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    from .rank import rank_prime

    z = rank_prime(p)  # also rejects a composite p
    if n % z:
        return 0
    if p == 2 and n % 2 == 0:
        return _int_valuation(n, 2) + 2
    return _int_valuation(n // z, p) + _entry_valuation(p, z)


def lucas_valuation(seq: LucasParams, p: int, n: int, precision: int) -> int:
    """min(nu_p(u_n), precision) by evaluating u_n mod p^precision.

    The caller guarantees the true valuation is below the precision cap;
    p^precision must fit in 64 bits.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if math.gcd(p, seq.a2) != 1:
        raise ValueError(f"p = {p} divides a2 = {seq.a2}; valuation undefined")
    if n < 1 or precision < 1:
        raise ValueError("need n >= 1 and precision >= 1")
    if precision >= 64 or p**precision > U64_MAX:  # p >= 2, so p^64 > 2^64 - 1
        raise OutOfRangeError(f"{p}^{precision} out of supported range [1, 2^64 - 1]")
    r = lucas_pair_mod(seq, n, p**precision)[0]
    if r == 0:
        return precision
    return _int_valuation(r, p)
