"""Membership criterion for A_k = {n : gcd(n, F_n) = k} being nonempty, and
truncated Mobius-series evaluation of its asymptotic density.

The density of A_k is the series sum_{d >= 1} mu(d) / ell(dk).  Partial sums
are accumulated as exact rationals (pairwise tree reduction keeps the running
denominators balanced), so rearrangement identities can be tested as exact
equality.  The reported tail window sum_{D < d <= 4D, d squarefree} 1/ell(dk)
is a heuristic convergence indicator, not a proved bound.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith, rank as rank_mod
from .arith import OutOfRangeError
from .fib import LucasParams
from .rank import RankCache, _resolve

# the sieve behind a depth-D series holds two 4D-entry lists (about 75 MB
# at D = 10^6), and a generator bound B costs one sieve entry and one rank
# per integer or prime up to B
SERIES_DEPTH_CAP = 10**6
GENERATOR_BOUND_CAP = 10**6


class NonMemberError(ValueError):
    """Operation needs A_k nonempty but k is not a member."""


@dataclass(frozen=True, slots=True)
class MembershipVerdict:
    """k with ell(k) and g = gcd(ell(k), F_ell(k)); A_k is nonempty iff g = k.

    For a Lucas sequence with gcd(k, a2) > 1 the rank is undefined and the
    verdict carries ell_k = g = 0 (the divisibility invariants hold vacuously).
    """

    k: int
    ell_k: int
    g: int
    member: bool

    def __post_init__(self):
        if self.member != (self.g == self.k):
            raise ValueError("member flag inconsistent with g == k")
        if self.g:
            if self.g % self.k:
                raise ValueError("k must divide g")
            if self.ell_k % self.g:
                raise ValueError("g must divide ell_k")
        elif self.ell_k:
            raise ValueError("g = 0 requires ell_k = 0")


@dataclass(frozen=True, slots=True)
class SeriesApproximation:
    """Truncated Mobius series with an exact partial sum and heuristic tail window."""

    k: int
    depth: int
    partial_sum: Fraction
    tail_window: Fraction
    float_value: float

    def __post_init__(self):
        if abs(self.partial_sum) > 1:
            raise ValueError("partial sums of mu(d)/ell(dk) stay within [-1, 1]")
        if self.tail_window < 0:
            raise ValueError("tail window is a sum of positive terms")


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """The set L_k: primes dividing k plus the ratios ell(kp)/ell(k) for p
    not dividing k, up to the prime bound."""

    k: int
    prime_part: tuple[int, ...]
    ratio_part: tuple[tuple[int, int], ...]
    bound: int

    def __post_init__(self):
        if list(self.prime_part) != sorted(self.prime_part):
            raise ValueError("prime_part must be sorted")
        if [p for p, _ in self.ratio_part] != sorted(p for p, _ in self.ratio_part):
            raise ValueError("ratio_part must be sorted by prime")
        if 1 in self.prime_part or any(r == 1 for _, r in self.ratio_part):
            raise ValueError("1 is never a generator")

    def elements(self) -> list[int]:
        """Distinct generator values, sorted (L_k is a set; ratios may collide)."""
        return sorted(set(self.prime_part) | {r for _, r in self.ratio_part})


def _exact_sum(fractions) -> Fraction:
    """Sum exact rationals with binary-counter pairwise merging.

    Equivalent to any other summation order (addition is exact), but keeps
    intermediate denominators balanced instead of letting one running
    denominator absorb every term.
    """
    stack: list[list] = []
    for f in fractions:
        level = 0
        while stack and stack[-1][0] == level:
            f = f + stack.pop()[1]
            level += 1
        stack.append([level, f])
    total = Fraction(0)
    for _, f in stack:
        total += f
    return total


def _check_threads(threads: int):
    """threads is accepted for compatibility; every sum runs in this thread."""
    if threads < 0:
        raise ValueError(f"need threads >= 0, got {threads}")


class _EllOfDK:
    """ell(dk) for squarefree d, sharing z-values of k's prime powers.

    z(p^e) divides z(p^(e+1)), so ell(dk) starts from z(k) and takes the
    lcm with the cached z(p^(e+1)) for each p | gcd(d, k) and with z(p)
    for each other prime p of d.
    """

    __slots__ = ("cache", "k", "spf", "z_bump", "z_k")

    def __init__(self, cache: RankCache, k: int, spf: list[int]):
        self.cache = cache
        self.k = k
        self.spf = spf
        self.z_k = rank_mod._rank_with(cache, k).z
        self.z_bump = {}
        for pp in arith.factor(k).factors:
            # once p^(e+1) passes 64 bits, so does ell(dk) for every d that p divides
            if pp.p ** (pp.e + 1) <= arith.U64_MAX:
                self.z_bump[pp.p] = rank_mod._prime_power_rank(cache, pp.p, pp.e + 1)

    def __call__(self, d: int) -> int:
        lcm = math.lcm
        z_bump = self.z_bump
        z = self.z_k
        n = d
        while n > 1:
            p = self.spf[n]
            n //= p
            z = lcm(z, z_bump[p] if p in z_bump else self.cache._prime_rank(p))
        return arith.checked_lcm(d * self.k, z)


def _window(cache: RankCache, k: int, depth: int, coprime_to_k: bool, threads: int):
    """Validate a depth-`depth` series for k and return what its sums read:
    the Mobius sieve to 4*depth, ell(dk) as an _EllOfDK, and the modulus
    avoid that every summed d must be coprime to."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    if depth > SERIES_DEPTH_CAP:
        raise OutOfRangeError(f"series depth {depth} above cap {SERIES_DEPTH_CAP}")
    rank_mod._rank_with(cache, k)  # an undefined z(k) or overflowing ell(k) fails before the sieve
    _check_threads(threads)
    # gcd(d, ab) = 1 iff gcd(d, a) = gcd(d, b) = 1, so one gcd skips the d sharing a
    # factor with a2 and, for the B_k series, with k
    avoid = abs(cache.seq.a2) * (k if coprime_to_k else 1)
    mu, spf = arith.mobius_spf_sieve(4 * depth)
    return mu, _EllOfDK(cache, k, spf), avoid


def _partial_sum(window, depth: int) -> Fraction:
    """sum of mu(d)/ell(dk) over the d <= depth that the window admits."""
    mu, ell_dk, avoid = window
    gcd = math.gcd
    return _exact_sum(Fraction(mu[d], ell_dk(d)) for d in range(1, depth + 1) if mu[d] and gcd(d, avoid) == 1)


def _series(cache: RankCache, k: int, depth: int, *, coprime_to_k: bool, threads: int) -> SeriesApproximation:
    window = mu, ell_dk, avoid = _window(cache, k, depth, coprime_to_k, threads)
    partial = _partial_sum(window, depth)
    gcd = math.gcd
    tail = _exact_sum(Fraction(1, ell_dk(d)) for d in range(depth + 1, 4 * depth + 1) if mu[d] and gcd(d, avoid) == 1)
    return SeriesApproximation(k, depth, partial, tail, float(partial))


def is_member(k: int, cache: RankCache | None = None) -> MembershipVerdict:
    """Decide A_k != {} via k = gcd(ell(k), F_ell(k)).

    A k sharing a prime q with a2 is a non-member: u_n = a1^(n-1) (mod q),
    so q never divides gcd(n, u_n).  F_ell(k) is reduced mod ell(k) before
    the gcd, so only ell(k) itself must fit the supported integer range.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    cache = _resolve(cache)
    if math.gcd(k, cache.seq.a2) != 1:
        return MembershipVerdict(k, 0, 0, False)
    rec = rank_mod._rank_with(cache, k)
    g = math.gcd(rec.ell, cache.pair_mod(rec.ell, rec.ell)[0])
    return MembershipVerdict(k, rec.ell, g, g == k)


def lucas_is_member(seq: LucasParams, k: int, cache: RankCache | None = None) -> MembershipVerdict:
    """Lucas-sequence membership: gcd(k, a2) = 1 and k = gcd(ell_u(k), u_ell_u(k));
    a k sharing a prime with a2 is a non-member."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return is_member(k, rank_mod._cache_for(seq, cache))


def density_series(k: int, depth: int, cache: RankCache | None = None, threads: int = 1) -> SeriesApproximation:
    """Partial sum of sum_d mu(d)/ell(dk) over d <= depth, as an exact rational.

    Terms with mu(d) = 0 are skipped via a precomputed sieve; the heuristic
    tail window covers squarefree depth < d <= 4*depth.
    """
    return _series(_resolve(cache), k, depth, coprime_to_k=False, threads=threads)


def density_bk_series(k: int, depth: int, cache: RankCache | None = None, threads: int = 1) -> SeriesApproximation:
    """Like density_series but restricted to d coprime to k (the B_k series)."""
    return _series(_resolve(cache), k, depth, coprime_to_k=True, threads=threads)


def lucas_density_series(
    seq: LucasParams, k: int, depth: int, cache: RankCache | None = None, threads: int = 1
) -> SeriesApproximation:
    """Density series for a Lucas sequence: squarefree d with gcd(d, a2) = 1."""
    return _series(rank_mod._cache_for(seq, cache), k, depth, coprime_to_k=False, threads=threads)


def inclusion_exclusion_check(
    k: int, depth: int, cache: RankCache | None = None, threads: int = 1
) -> tuple[Fraction, Fraction, Fraction]:
    """Check d(A_k) = sum_{d | k} mu(d) d(B_{dk}) on aligned finite support.

    Every squarefree f factors uniquely as f = d e with d | k and
    gcd(e, k) = 1, so truncating the inner B-series at depth // d makes
    both sides cover exactly the squarefree f <= depth; the gap must be 0.
    """
    cache = _resolve(cache)
    lhs = _partial_sum(_window(cache, k, depth, False, threads), depth)
    rhs = Fraction(0)
    squarefree = [(1, 1)]
    for pp in arith.factor(k).factors:
        squarefree += [(d * pp.p, -md) for d, md in squarefree]
    for d, md in squarefree:
        if depth // d:
            rhs += md * _partial_sum(_window(cache, d * k, depth // d, True, threads), depth // d)
    return lhs, rhs, abs(lhs - rhs)


def lk_generators(k: int, p_bound: int, cache: RankCache | None = None) -> GeneratorSet:
    """L_k = {p : p | k} union {ell(kp)/ell(k) : p not dividing k}, p <= p_bound.

    Defined only for members (A_k nonempty); each ratio divides exactly.
    """
    if p_bound < 2:
        raise ValueError(f"need p_bound >= 2, got {p_bound}")
    if p_bound > GENERATOR_BOUND_CAP:
        raise OutOfRangeError(f"prime bound {p_bound} above cap {GENERATOR_BOUND_CAP}")
    cache = _resolve(cache)
    verdict = is_member(k, cache)
    if not verdict.member:
        raise NonMemberError(f"A_{k} is empty; L_{k} is defined only for members")
    return _generators(cache, verdict, arith.primes_upto(p_bound), p_bound)


def _generators(cache: RankCache, verdict: MembershipVerdict, primes: list[int], bound: int) -> GeneratorSet:
    """L_k for the member verdict.k: its primes plus the ratio ell(kp)/ell(k)
    for each p in the sorted list primes that divides neither k nor a2."""
    k = verdict.k
    a2 = cache.seq.a2
    prime_part = tuple(pp.p for pp in arith.factor(k).factors)
    ratios = []
    for p in primes:
        if k % p == 0 or math.gcd(p, a2) != 1:
            continue
        ell_kp = rank_mod._rank_with(cache, k * p).ell
        ratio, rem = divmod(ell_kp, verdict.ell_k)
        if rem:
            raise RuntimeError(f"ell({k}*{p}) not divisible by ell({k}); this indicates a bug")
        ratios.append((p, ratio))
    return GeneratorSet(k, prime_part, tuple(ratios), bound)


def heilbronn_lower_bound(g: GeneratorSet) -> Fraction:
    """prod (1 - 1/s) over the distinct generators: a lower bound for the
    density of the nonmultiples of the full set L_k as p_bound -> infinity."""
    prod = Fraction(1)
    for s in g.elements():
        prod *= Fraction(s - 1, s)
    return prod
