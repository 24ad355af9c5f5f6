"""Membership criterion for A_k = {n : gcd(n, F_n) = k} being nonempty, and
truncated Mobius-series evaluation of its asymptotic density.

The density of A_k is the series sum_{d >= 1} mu(d) / ell(dk).  Partial sums
are accumulated as exact rationals (pairwise tree reduction keeps the running
denominators balanced), so rearrangement identities can be tested as exact
equality.  The reported tail window sum_{D < d <= 4D, d squarefree} 1/ell(dk)
is a heuristic convergence indicator, not a proved bound.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import arith, rank as rank_mod
from .arith import OutOfRangeError
from .fib import FIBONACCI, LucasParams
from .rank import RankCache, RankUndefinedError, _resolve

# below this many terms a thread pool costs more than it saves
_PARALLEL_MIN_TERMS = 4096

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


def _require_rank_defined(cache: RankCache, k: int):
    a2 = cache.seq.a2
    if math.gcd(k, a2) != 1:
        raise RankUndefinedError(f"ell_u({k}) undefined: gcd({k}, a2 = {a2}) > 1")


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


def _worker_count(threads: int, jobs: int) -> int:
    """How many threads run `jobs` independent jobs: threads = 0 asks for
    one per CPU, and there are never more threads than CPUs or jobs."""
    if threads < 0:
        raise ValueError(f"need threads >= 0, got {threads}")
    cpus = os.cpu_count() or 1
    return max(1, min(threads or cpus, cpus, jobs))


def _map_spans(fn, spans: list, threads: int) -> list:
    """[fn(span) for span in spans], spread over _worker_count threads."""
    workers = _worker_count(threads, len(spans))
    if workers == 1:
        return [fn(span) for span in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, spans))


def _parallel_sum(lo: int, hi: int, threads: int, term_range) -> Fraction:
    """Exact sum of term_range(a, b) over [lo, hi], optionally range-partitioned.

    Exactness makes the reduction independent of the partitioning, so the
    result is identical for any thread count.
    """
    if hi < lo:
        return Fraction(0)
    terms = hi - lo + 1
    workers = _worker_count(threads, terms)
    if workers == 1 or terms < _PARALLEL_MIN_TERMS:
        return _exact_sum(term_range(lo, hi))
    step = -(-terms // (workers * 4))
    spans = [(a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step)]
    total = Fraction(0)
    for part in _map_spans(lambda span: _exact_sum(term_range(*span)), spans, workers):
        total += part
    return total


class _EllOfDK:
    """ell(dk) for squarefree d, sharing z-values of k's prime powers.

    For p | gcd(d, k) the exponent of p in dk is bumped by one, so the
    cached z(p^(e+1)) replaces z(p^e); new primes of d contribute z(p).
    """

    __slots__ = ("cache", "k", "spf", "k_exp", "z_plain", "z_bump", "z_k")

    def __init__(self, cache: RankCache, k: int, spf: list[int]):
        self.cache = cache
        self.k = k
        self.spf = spf
        self.k_exp = {pp.p: pp.e for pp in arith.factor(k).factors}
        self.z_plain = {}
        self.z_bump = {}
        z_k = 1
        for p, e in self.k_exp.items():
            zp = rank_mod._prime_power_rank(cache, p, e)
            self.z_plain[p] = zp
            self.z_bump[p] = rank_mod._prime_power_rank(cache, p, e + 1)
            z_k = math.lcm(z_k, zp)
        self.z_k = z_k

    def __call__(self, d: int) -> int:
        lcm = math.lcm
        z = 1
        bumped = None
        n = d
        while n > 1:
            p = self.spf[n]
            n //= p
            if p in self.k_exp:
                bumped = (p,) if bumped is None else bumped + (p,)
            else:
                z = lcm(z, self.cache._prime_rank(p))
        if bumped is None:
            z = lcm(z, self.z_k)
        else:
            for p in self.k_exp:
                z = lcm(z, self.z_bump[p] if p in bumped else self.z_plain[p])
        return arith.checked_lcm(d * self.k, z)


def _series(cache: RankCache, k: int, depth: int, *, coprime_to_k: bool, threads: int) -> SeriesApproximation:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    if depth > SERIES_DEPTH_CAP:
        raise OutOfRangeError(f"series depth {depth} above cap {SERIES_DEPTH_CAP}")
    _require_rank_defined(cache, k)
    a2 = cache.seq.a2
    mu, spf = arith.mobius_spf_sieve(4 * depth)
    ell_dk = _EllOfDK(cache, k, spf)
    filter_a2 = abs(a2) != 1
    filter_k = coprime_to_k and k != 1
    gcd = math.gcd

    def accepted(d):
        if mu[d] == 0:
            return False
        if filter_k and gcd(d, k) != 1:
            return False
        if filter_a2 and gcd(d, a2) != 1:
            return False
        return True

    def signed_terms(lo, hi):
        return (Fraction(mu[d], ell_dk(d)) for d in range(lo, hi + 1) if accepted(d))

    def tail_terms(lo, hi):
        return (Fraction(1, ell_dk(d)) for d in range(lo, hi + 1) if accepted(d))

    partial = _parallel_sum(1, depth, threads, signed_terms)
    tail = _parallel_sum(depth + 1, 4 * depth, threads, tail_terms)
    return SeriesApproximation(k, depth, partial, tail, float(partial))


def is_member(k: int, cache: RankCache | None = None) -> MembershipVerdict:
    """Decide A_k != {} via k = gcd(ell(k), F_ell(k)).

    F_ell(k) is reduced mod ell(k) before the gcd, so only ell(k) itself
    must fit the supported integer range.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    cache = _resolve(cache)
    _require_rank_defined(cache, k)
    rec = rank_mod._rank_with(cache, k)
    g = math.gcd(rec.ell, cache.pair_mod(rec.ell, rec.ell)[0])
    return MembershipVerdict(k, rec.ell, g, g == k)


def lucas_is_member(seq: LucasParams, k: int, cache: RankCache | None = None) -> MembershipVerdict:
    """Lucas-sequence membership: gcd(k, a2) = 1 and k = gcd(ell_u(k), u_ell_u(k))."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if math.gcd(k, seq.a2) != 1:
        return MembershipVerdict(k, 0, 0, False)
    if cache is None:
        cache = rank_mod._shared_cache(seq, True)
    return is_member(k, cache)


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
    if cache is None:
        cache = rank_mod._shared_cache(seq, True)
    if cache.seq != seq:
        raise ValueError("cache was built for different Lucas parameters")
    return _series(cache, k, depth, coprime_to_k=False, threads=threads)


def inclusion_exclusion_check(
    k: int, depth: int, cache: RankCache | None = None, threads: int = 1
) -> tuple[Fraction, Fraction, Fraction]:
    """Check d(A_k) = sum_{d | k} mu(d) d(B_{dk}) on aligned finite support.

    Every squarefree f factors uniquely as f = d e with d | k and
    gcd(e, k) = 1, so truncating the inner B-series at depth // d makes
    both sides cover exactly the squarefree f <= depth; the gap must be 0.
    """
    cache = _resolve(cache)
    lhs = _series(cache, k, depth, coprime_to_k=False, threads=threads).partial_sum
    rhs = Fraction(0)
    for d in arith.divisors(arith.factor(k)):
        md = arith.mobius(arith.factor(d))
        if md == 0 or depth // d == 0:
            continue
        inner = _series(cache, d * k, depth // d, coprime_to_k=True, threads=threads)
        rhs += md * inner.partial_sum
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
    a2 = cache.seq.a2
    prime_part = tuple(pp.p for pp in arith.factor(k).factors)
    ratios = []
    for p in arith.primes_upto(p_bound):
        if k % p == 0 or math.gcd(p, a2) != 1:
            continue
        ell_kp = rank_mod._rank_with(cache, k * p).ell
        ratio, rem = divmod(ell_kp, verdict.ell_k)
        if rem:
            raise RuntimeError(f"ell({k}*{p}) not divisible by ell({k}); this indicates a bug")
        ratios.append((p, ratio))
    return GeneratorSet(k, prime_part, tuple(ratios), p_bound)


def heilbronn_lower_bound(g: GeneratorSet) -> Fraction:
    """prod (1 - 1/s) over the distinct generators: a lower bound for the
    density of the nonmultiples of the full set L_k as p_bound -> infinity."""
    prod = Fraction(1)
    for s in g.elements():
        prod *= Fraction(s - 1, s)
    return prod
