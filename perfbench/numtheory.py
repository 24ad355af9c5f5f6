"""Independent arithmetic for checking fibrank's answers.

Nothing here imports fibrank.  Terms come from powers of the companion
matrix [[a1, a2], [1, 0]] rather than fast doubling, and factoring uses
trial division plus Pollard's rho with Floyd cycle detection, so a defect
in the library's own routines cannot hide behind the same defect here.
"""

import math

_SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def lucas_mod(a1: int, a2: int, n: int, m: int) -> int:
    """u_n mod m for u_0 = 0, u_1 = 1, u_n = a1 u_{n-1} + a2 u_{n-2}.

    M^n = [[u_{n+1}, a2 u_n], [u_n, a2 u_{n-1}]] for M = [[a1, a2], [1, 0]].
    """
    r00, r01, r10, r11 = 1, 0, 0, 1
    b00, b01, b10, b11 = a1 % m, a2 % m, 1, 0
    while n:
        if n & 1:
            r00, r01, r10, r11 = (
                (r00 * b00 + r01 * b10) % m,
                (r00 * b01 + r01 * b11) % m,
                (r10 * b00 + r11 * b10) % m,
                (r10 * b01 + r11 * b11) % m,
            )
        b00, b01, b10, b11 = (
            (b00 * b00 + b01 * b10) % m,
            (b00 * b01 + b01 * b11) % m,
            (b10 * b00 + b11 * b10) % m,
            (b10 * b01 + b11 * b11) % m,
        )
        n >>= 1
    return r10 % m


def gcd_n_term(a1: int, a2: int, n: int) -> int:
    """gcd(n, u_n)."""
    return math.gcd(n, lucas_mod(a1, a2, n, n))


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Floyd cycle detection)."""
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1


def prime_factors(n: int) -> set[int]:
    """The distinct primes dividing n >= 1."""
    out = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if is_probable_prime(v):
            out.add(v)
        else:
            d = _rho(v)
            stack += [d, v // d]
    return out


def rank_certificate_errors(a1: int, a2: int, m: int, z: int) -> list[str]:
    """Why z is not the least n >= 1 with m | u_n; empty when it is.

    {n : m | u_n} is the set of multiples of the rank, so z is the rank
    exactly when m | u_z and m does not divide u_{z/q} for any prime q | z.
    """
    if z < 1:
        return [f"rank {z} < 1"]
    if lucas_mod(a1, a2, z, m):
        return [f"{m} does not divide u_{z}"]
    return [f"{m} divides u_{z // q}" for q in prime_factors(z) if lucas_mod(a1, a2, z // q, m) == 0]


def ell_certificate_errors(a1: int, a2: int, k: int, ell: int) -> list[str]:
    """Why ell is not lcm(k, z(k)); empty when it is.

    ell is a common multiple of k and z(k) when k | ell and k | u_ell.  It
    is the least one when, for each prime q with more factors q in ell
    than in k, z(k) does not divide ell/q, i.e. k does not divide u_{ell/q}.
    """
    if ell % k:
        return [f"{k} does not divide ell {ell}"]
    if lucas_mod(a1, a2, ell, k):
        return [f"{k} does not divide u_{ell}"]
    return [f"{k} divides u_{ell // q}" for q in prime_factors(ell // k) if lucas_mod(a1, a2, ell // q, k) == 0]


def squarefree_flags(limit: int) -> bytearray:
    """flags[d] = 1 exactly when d in [1, limit] is squarefree."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = 0
    for p in range(2, math.isqrt(limit) + 1):
        flags[p * p :: p * p] = bytes(len(range(p * p, limit + 1, p * p)))
    return flags
