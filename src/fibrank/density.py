"""Membership criterion for A_k = {n : gcd(n, F_n) = k} being nonempty, and
truncated Mobius-series evaluation of its asymptotic density.

The density of A_k is the series sum_{d >= 1} mu(d) / ell(dk).  Partial sums
are exact rationals, so rearrangement identities can be tested as exact
equality.  The reported tail window sum_{D < d <= 4D, d squarefree}
1/ell(dk) is a heuristic convergence indicator, not a proved bound.
The same window, taken for k = 1, gives ell(n) for every n of a range to
the scans oracle.partial_ell_sum and oracle.scan_B.

A window ranks its primes in one pass when it is built: every prime
p <= hi prime to the modulus it avoids, which is every prime its d can
have, with e = p - (disc/p) factored off the window's own sieve (see
_EllOfDK).  Reading ell(dk) is then table lookups and lcms.

Each window of admitted squarefree d <= hi (hi = D for the partial sum, 4D
for the tail) is summed exactly, and only the total becomes a Fraction.
Most of the denominator's bits are large primes that divide few terms, so
those primes are kept out of the gcds.  A prime p > max(hi // J, J) (so
p^2 > hi, and p divides d = jp only for j < J) that does not divide ell(k)
is grouped unless p | z(q) for an admitted prime q that is p itself or
jp +- 1 <= hi with j even.  This local test finds every admitted prime
q <= hi with p | z(q): z(q) divides q - (disc/q), is q for an odd q | disc
and is at most 3 for q = 2, so an odd p | z(q) is q or divides the even
number q -+ 1.

A grouped p divides ell(dk) exactly once when p | d, and not at all
otherwise.  ell(dk) = lcm(dk, ell(k), z(q) for each prime q of d) (see
_EllOfDK), and p divides neither ell(k), which the test rules out, nor
the z(q) of the admitted primes q <= hi, which the test keeps prime to p.
p divides neither j nor k, so p || dk.
Every summand is a node (n, P, C) for n/(P*C): the terms d = jp of a
grouped p add up to one node, with P = p, which enters no gcd (see
_exact_sum), or with P = 1 when p cancels from their sum, since C, the lcm
of the ell(dk)/p, is prime to every grouped prime.  Every other term is
the node (mu(d), 1, ell(dk)).  The nodes are added RUN at a time over the
lcm of their C (see _run), and the sums merge pairwise (see _fold); the
total is reduced once.  Every merge keeps the lcm of the C and the product
of the P, so the unreduced total is the same node whichever way the nodes
are grouped.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import arith, rank as rank_mod
from .arith import OutOfRangeError
from .fib import LucasParams
from .rank import RankCache, _cache_for

# the sieve behind a depth-D series holds two 4D-entry lists (about 75 MB
# at D = 10^6), and a generator bound B costs one sieve entry and one rank
# per integer or prime up to B
SERIES_DEPTH_CAP = 10**6
GENERATOR_BOUND_CAP = 10**6

# a series window d <= hi groups the primes above max(hi // J, J); each of
# them divides fewer than J of the d
J = 16

# _exact_sum adds the nodes RUN at a time over one lcm before the pairwise
# merges: the 47,965-node tail of density 5 at depth 3*10^4 took 0.34 s in
# runs of 1, 0.15 to 0.18 s in runs of 8, 16 or 32, and 0.17 to 0.21 s in
# runs of 64 (best of 5, twice, on a shared 2-CPU host, CPython 3.11)
RUN = 16


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
        if any(p < 2 for p in self.prime_part) or any(r < 2 for _, r in self.ratio_part):
            raise ValueError("every generator is at least 2")

    def elements(self) -> list[int]:
        """Distinct generator values, sorted (L_k is a set; ratios may collide)."""
        return sorted(set(self.prime_part) | {r for _, r in self.ratio_part})


def _fold(op, items, total):
    """Combine items under the associative op with binary-counter pairwise
    merging, then fold the merged runs into total.

    For exact rationals the result equals any other combination order, but
    the operands stay balanced: n terms cost about log2(n) merges of
    similar size per term, where a running total would absorb every term
    into one ever-growing denominator.
    """
    stack: list[list] = []
    for f in items:
        level = 0
        while stack and stack[-1][0] == level:
            f = op(f, stack.pop()[1])
            level += 1
        stack.append([level, f])
    return functools.reduce(op, (f for _, f in stack), total)


def _add_nodes(a, b):
    """n/(P*C) + n'/(P'*C') for nodes (n, P, C) whose P is prime to n and
    to every other P and C of the sum: since gcd(P*C, P'*C') = gcd(C, C'),
    only the C enter the one gcd.  The sum is again such a node, over
    P*P' and lcm(C, C'), and is not reduced; _exact_sum reduces its total
    once.  The lcm exceeds the reduced denominator only by what the
    reduction cancels: at depth 3*10^4 that was under 0.1% of a tail's bits
    and 4-11% of a partial sum's, less than the gcds it saves.  The nodes
    of a sum reach it already added RUN at a time (see _run)."""
    na, pa, ca = a
    nb, pb, cb = b
    g = math.gcd(ca, cb)
    return na * pb * (cb // g) + nb * pa * (ca // g), pa * pb, ca // g * cb


def _run(nodes):
    """The sum of a list of nodes (n, P, c) as one node over the product of
    the P and C = lcm(c): the node that merging them pairwise by _add_nodes
    ends at, from one lcm and one sum of products instead of a gcd per
    merge.  As in _add_nodes, only the c enter the lcm."""
    c = math.lcm(*[node[2] for node in nodes])
    p = math.prod([node[1] for node in nodes])
    return sum([n * (p // pi) * (c // ci) for n, pi, ci in nodes]), p, c


def _runs(nodes):
    """The nodes summed RUN at a time, in the order they come, by _run."""
    nodes = iter(nodes)
    return map(_run, iter(lambda: list(itertools.islice(nodes, RUN)), []))


# The reduced total is in lowest terms, and Fraction(n, d) would spend one
# more gcd on it, as costly as the reduction; the stdlib's own constructor
# for coprime ints is _from_coprime_ints from 3.12 on and
# Fraction(n, d, _normalize=False) before.
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or functools.partial(Fraction, _normalize=False)


def _exact_sum(items) -> Fraction:
    """Sum of the rationals over an iterable of nodes (n, P, C), P, C >= 1,
    each for n/(P*C), whose P is prime to n and to the denominators of all
    other nodes.  A plain term n/d is the node (n, 1, d).

    The nodes with P > 1 of a series window come from _terms, one per
    grouped prime (see the module docstring).

    The nodes are consumed as they come, and no Fraction is built per node.
    They are added RUN at a time (see _runs), and the sums fold pairwise
    (see _fold).  No P ever enters a gcd or an lcm: each run and each merge
    takes those of the C, and the one reduction of the total takes
    gcd(n, C).  Each keeps the lcm of the C and the product of the P, so
    the runs change no byte of the total node.
    """
    n, p, c = _fold(_add_nodes, _runs(items), (0, 1, 1))
    g = math.gcd(n, c)
    return _coprime_fraction(n // g, p * (c // g))


def _check_threads(threads: int):
    """threads is validated (>= 0) and otherwise ignored: every series sum
    runs in the calling thread, and count_many scans in the calling process
    plus one forked worker per other CPU of the affinity mask, whatever
    threads says."""
    if threads < 0:
        raise ValueError(f"need threads >= 0, got {threads}")


class _EllOfDK:
    """One window of a depth-`depth` series for k: the Mobius sieve to hi,
    the largest d its sums read; avoid, the modulus every summed d must be
    coprime to (a2, times k for the B_k series); ell(k); prime_z, the prime
    ranks of the cache; and, when called, ell(dk) for a d <= hi coprime to
    avoid.  The series is validated before the sieve is built.

    Once the sieve is built, every prime p <= hi prime to avoid that the
    cache has not ranked is ranked, in increasing order: these are the
    primes of the d a window admits, and no other.  The lift of each z(p)
    factors its e = p - (disc/p) by walking down spf (_factor).  Only an e
    past the sieve goes to arith._factor_items: p + 1 for an inert prime
    p = hi, or 6 for p = 2 of a Lucas sequence when hi < 6.  Factorization
    is unique, so each z(p) is the one the default path finds.

    For every m coprime to a2, ell(m) = lcm(m, z(p) for each prime p | m):
    z(p^e) divides p^(e-1) z(p) (Lucas's law of repetition), and p^2 never
    divides z(p), which divides p - (disc/p), is p for an odd p | disc and
    is 2 or 3 for p = 2.  k divides dk, so lcm(dk, z(k)) = lcm(dk, ell(k)),
    and ell(dk) = lcm(dk, ell(k), z(p) for each prime p of d), squarefree d
    or not: a window reads only ell(k) and prime ranks.  An ell(dk) past 64
    bits raises OutOfRangeError in checked_lcm, as rank._rank_with raises
    for dk.
    """

    __slots__ = ("avoid", "ell_k", "k", "mu", "prime_z", "spf")

    def __init__(self, cache: RankCache, k: int, depth: int, hi: int, coprime_to_k: bool, threads: int):
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        if depth < 1:
            raise ValueError(f"need depth >= 1, got {depth}")
        if depth > SERIES_DEPTH_CAP:
            raise OutOfRangeError(f"series depth {depth} above cap {SERIES_DEPTH_CAP}")
        # an undefined z(k) or overflowing ell(k) fails before the sieve
        self.k, self.ell_k = k, rank_mod._rank_with(cache, k).ell
        _check_threads(threads)
        # gcd(d, ab) = 1 iff gcd(d, a) = gcd(d, b) = 1, so one gcd skips the d sharing a
        # factor with a2 and, for the B_k series, with k
        self.avoid = avoid = abs(cache.seq.a2) * (k if coprime_to_k else 1)
        self.mu, self.spf = arith.mobius_spf_sieve(hi)
        self.prime_z = cache._prime_z
        for p in range(2, hi + 1):
            if self.spf[p] == p and avoid % p and p not in self.prime_z:
                cache._prime_rank(cache, p, factor=self._factor)

    def _factor(self, n: int) -> list[tuple[int, int]]:
        """The sorted (q, a) pairs of n >= 1, off spf where it reaches n:
        the walk n -> n // spf[n] meets the primes of n in increasing order."""
        if n >= len(self.spf):
            return arith._factor_items(n)
        counts: dict[int, int] = {}
        while n > 1:
            q = self.spf[n]
            counts[q] = counts.get(q, 0) + 1
            n //= q
        return list(counts.items())

    def __call__(self, d: int) -> int:
        lcm = math.lcm
        z = self.ell_k
        n = d
        while n > 1:
            p = self.spf[n]
            n //= p
            z = lcm(z, self.prime_z[p])
        return arith.checked_lcm(d * self.k, z)


def _terms(window: _EllOfDK, lo: int, hi: int, signed: bool):
    """The nodes for _exact_sum of the window's terms mu(d)/ell(dk), or
    1/ell(dk) if not signed, over the admitted d with lo < d <= hi.

    The terms d = jp of each grouped prime p (see the module docstring)
    come first, in increasing p, as one node summed by _run, or none when
    they sum to 0.  Then come the plain terms (sign, 1, ell(dk)) of the
    other d, in increasing order.  The local test reads z(q) off the
    window's table, which holds every admitted prime q <= hi.
    """
    mu, spf, avoid, ell_k, prime_z = window.mu, window.spf, window.avoid, window.ell_k, window.prime_z
    gcd = math.gcd
    skip = bytearray(hi + 1)
    for p in range(max(hi // J, J) + 1, hi + 1):
        if spf[p] < p or ell_k % p == 0:
            continue
        # the candidates q = p and q = jp +- 1, j even, of the local test
        for q in (p, *range(2 * p - 1, hi + 1, 2 * p), *range(2 * p + 1, hi + 1, 2 * p)):
            if spf[q] == q and avoid % q and prime_z[q] % p == 0:
                break
        else:
            multiples = range((lo // p + 1) * p, hi + 1, p)
            skip[multiples.start :: p] = b"\1" * len(multiples)
            n, _, c = _run([(mu[d] if signed else 1, 1, window(d) // p) for d in multiples if mu[d] and gcd(d, avoid) == 1])
            if n % p:
                yield n, p, c
            elif n:  # p cancels from the group's sum
                yield n // p, 1, c
    for d in range(lo + 1, hi + 1):
        if mu[d] and not skip[d] and gcd(d, avoid) == 1:
            yield (mu[d] if signed else 1), 1, window(d)


def _series(cache: RankCache, k: int, depth: int, *, coprime_to_k: bool, threads: int) -> SeriesApproximation:
    window = _EllOfDK(cache, k, depth, 4 * depth, coprime_to_k, threads)
    partial = _exact_sum(_terms(window, 0, depth, True))
    tail = _exact_sum(_terms(window, depth, 4 * depth, False))
    return SeriesApproximation(k, depth, partial, tail, float(partial))


def is_member(k: int, cache: RankCache | None = None) -> MembershipVerdict:
    """Decide A_k != {} via k = gcd(ell(k), F_ell(k)).

    A k sharing a prime q with a2 is a non-member: u_n = a1^(n-1) (mod q),
    so q never divides gcd(n, u_n).  F_ell(k) is reduced mod ell(k) before
    the gcd, so only ell(k) itself must fit the supported integer range.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    cache = _cache_for(None, cache)
    if math.gcd(k, cache.seq.a2) != 1:
        return MembershipVerdict(k, 0, 0, False)
    return _verdict(cache, k, rank_mod._rank_with(cache, k).ell)


def _verdict(cache: RankCache, k: int, ell: int) -> MembershipVerdict:
    """The verdict on A_k for k coprime to a2, from ell = ell(k)."""
    g = math.gcd(ell, cache.pair_mod(ell, ell)[0])
    return MembershipVerdict(k, ell, g, g == k)


def lucas_is_member(seq: LucasParams, k: int, cache: RankCache | None = None) -> MembershipVerdict:
    """Lucas-sequence membership: gcd(k, a2) = 1 and k = gcd(ell_u(k), u_ell_u(k));
    a k sharing a prime with a2 is a non-member."""
    return is_member(k, _cache_for(seq, cache))


def density_series(k: int, depth: int, cache: RankCache | None = None, threads: int = 1) -> SeriesApproximation:
    """Partial sum of sum_d mu(d)/ell(dk) over d <= depth, as an exact rational.

    Terms with mu(d) = 0 are skipped via a precomputed sieve; the heuristic
    tail window covers squarefree depth < d <= 4*depth.
    """
    return _series(_cache_for(None, cache), k, depth, coprime_to_k=False, threads=threads)


def density_bk_series(k: int, depth: int, cache: RankCache | None = None, threads: int = 1) -> SeriesApproximation:
    """Like density_series but restricted to d coprime to k (the B_k series)."""
    return _series(_cache_for(None, cache), k, depth, coprime_to_k=True, threads=threads)


def lucas_density_series(
    seq: LucasParams, k: int, depth: int, cache: RankCache | None = None, threads: int = 1
) -> SeriesApproximation:
    """Density series for a Lucas sequence: squarefree d with gcd(d, a2) = 1."""
    return _series(_cache_for(seq, cache), k, depth, coprime_to_k=False, threads=threads)


def inclusion_exclusion_check(
    k: int, depth: int, cache: RankCache | None = None, threads: int = 1
) -> tuple[Fraction, Fraction, Fraction]:
    """Check d(A_k) = sum_{d | k} mu(d) d(B_{dk}) on aligned finite support.

    Every squarefree f factors uniquely as f = d e with d | k and
    gcd(e, k) = 1, so truncating the inner B-series at depth // d makes
    both sides cover exactly the squarefree f <= depth; the gap must be 0.
    """
    cache = _cache_for(None, cache)
    lhs = _exact_sum(_terms(_EllOfDK(cache, k, depth, depth, False, threads), 0, depth, True))
    rhs = Fraction(0)
    squarefree = [(1, 1)]
    for p, _ in arith._factor_items(k):
        squarefree += [(d * p, -md) for d, md in squarefree]
    for d, md in squarefree:
        if inner := depth // d:
            rhs += md * _exact_sum(_terms(_EllOfDK(cache, d * k, inner, inner, True, threads), 0, inner, True))
    return lhs, rhs, abs(lhs - rhs)


def lk_generators(k: int, p_bound: int, cache: RankCache | None = None) -> GeneratorSet:
    """L_k = {p : p | k} union {ell(kp)/ell(k) : p not dividing k}, p <= p_bound.

    Defined only for members (A_k nonempty); each ratio divides exactly.
    """
    if p_bound < 2:
        raise ValueError(f"need p_bound >= 2, got {p_bound}")
    if p_bound > GENERATOR_BOUND_CAP:
        raise OutOfRangeError(f"prime bound {p_bound} above cap {GENERATOR_BOUND_CAP}")
    cache = _cache_for(None, cache)
    verdict = is_member(k, cache)
    if not verdict.member:
        raise NonMemberError(f"A_{k} is empty; L_{k} is defined only for members")
    return _generators(cache, verdict, arith.primes_upto(p_bound), p_bound)


def _generators(cache: RankCache, verdict: MembershipVerdict, primes: list[int], bound: int) -> GeneratorSet:
    """L_k for the member k of verdict: its primes plus the ratio
    ell(kp)/ell(k) for each p in the sorted list primes that divides
    neither k nor a2.

    z is multiplicative over coprime parts and k divides kp, so
    ell(kp) = lcm(kp, ell(k), z(p)) comes from the verdict's ell(k) and the
    prime rank z(p): kp is never factored and gets no record of its own.
    """
    k, ell_k = verdict.k, verdict.ell_k
    a2 = cache.seq.a2
    prime_part = tuple(p for p, _ in arith._factor_items(k))
    ratios = []
    for p in primes:
        if k % p == 0 or math.gcd(p, a2) != 1:
            continue
        ell_kp = arith.checked_lcm(k * p, math.lcm(ell_k, cache._prime_rank(cache, p)))
        ratio, rem = divmod(ell_kp, ell_k)
        if rem:
            raise RuntimeError(f"ell({k}*{p}) not divisible by ell({k}); this indicates a bug")
        ratios.append((p, ratio))
    return GeneratorSet(k, prime_part, tuple(ratios), bound)


def heilbronn_lower_bound(g: GeneratorSet) -> Fraction:
    """prod (1 - 1/s) over the distinct generators: a lower bound for the
    density of the nonmultiples of the full set L_k as p_bound -> infinity.

    The factors are multiplied by pairwise merging (_fold), so no running
    product is multiplied by each of the thousands of factors in turn.
    """
    return _fold(operator.mul, (Fraction(s - 1, s) for s in g.elements()), Fraction(1))
