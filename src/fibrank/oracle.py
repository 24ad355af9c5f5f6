"""Brute-force enumeration oracles.

The enumeration halves are formula-free: count_many, count_Ak, iter_Ak and
the enumerated side of verify_structure evaluate gcd(n, u_n) directly, and
nonmultiple_density is a naive sieve, so these results can ground the
formula-based paths.  The rest goes through ranks: the structural side of
verify_structure builds L_k from ell(kp), scan_B applies the membership
criterion, scan_low_rank_primes compares z(p) with p^gamma and
partial_ell_sum sums 1/ell(n).  Every scan is one serial pass; the threads
arguments are validated and otherwise ignored.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import arith, rank as rank_mod
from .arith import OutOfRangeError
from .density import GeneratorSet, NonMemberError, _check_threads, _exact_sum, _generators, is_member
from .fib import FIBONACCI, LucasParams, gcd_n_fib, gcd_n_lucas
from .rank import RankCache, _resolve

SCAN_CAP = 10**8
B_SCAN_CAP = 10**5
STRUCTURE_CAP = 10**7
# z(p)^Q <= p^A is exact, so its cost grows with the denominator Q of gamma
GAMMA_DENOMINATOR_CAP = 1000


@dataclass(frozen=True, slots=True)
class CountReport:
    k: int
    x: int
    count: int
    ratio: float
    witnesses: tuple[int, ...] | None


@dataclass(frozen=True, slots=True)
class ScanRow:
    x: int
    count: int
    ratio: float


def _checkpoints(checkpoints: list[int] | None, x: int) -> list[int]:
    """Sorted distinct checkpoints, [x] if none are given."""
    checkpoints = sorted(set(checkpoints)) if checkpoints else [x]
    if checkpoints[0] < 1 or checkpoints[-1] > x:
        raise ValueError("checkpoints must lie in [1, x]")
    return checkpoints


def _rows(hits: list[int], checkpoints: list[int], power=1) -> list[ScanRow]:
    """One row per checkpoint cp: the sorted hits <= cp, over cp**power."""
    counts = [bisect_right(hits, cp) for cp in checkpoints]
    return [ScanRow(cp, count, count / cp**power) for cp, count in zip(checkpoints, counts)]


def _gcd_n(seq: LucasParams):
    """n -> gcd(n, u_n) for seq."""
    return gcd_n_fib if seq.is_fibonacci else partial(gcd_n_lucas, seq)


def _nonmultiples(gens, x: int) -> bytearray:
    """allowed[m] = 1 for the m <= x that no element of gens divides."""
    allowed = bytearray([1]) * (x + 1)
    for gen in gens:
        if gen <= x:
            allowed[gen::gen] = bytes(len(range(gen, x + 1, gen)))
    return allowed


def _gcd_block(seq: LucasParams, lo: int, hi: int, wanted, witness_cap: int, counts: dict, wits: dict):
    """Add the tallies of gcd(n, u_n) for lo <= n <= hi into counts and wits.

    wanted is a set of k values to track, or None for all of them; wits
    keeps the first witness_cap n of each k.
    """
    gcd_n = _gcd_n(seq)
    for n in range(lo, hi + 1):
        g = gcd_n(n)
        if wanted is not None and g not in wanted:
            continue
        counts[g] = counts.get(g, 0) + 1
        if witness_cap:
            lst = wits.get(g)
            if lst is None:
                wits[g] = [n]
            elif len(lst) < witness_cap:
                lst.append(n)


def count_many(
    ks,
    x: int,
    checkpoints: list[int] | None = None,
    *,
    witness_cap: int = 0,
    seq: LucasParams = FIBONACCI,
    threads: int = 1,
) -> dict[int, list[CountReport]]:
    """Count A_k(checkpoint) for several k in one shared pass over n <= x.

    ks may be None to report every gcd value that occurs.  The scan walks
    n = 1..x once regardless of how many k are requested.
    """
    if not 1 <= x <= SCAN_CAP:
        raise OutOfRangeError(f"scan limit {x} outside [1, {SCAN_CAP}]")
    checkpoints = _checkpoints(checkpoints, x)
    _check_threads(threads)
    wanted = None if ks is None else set(ks)

    running: dict[int, int] = {}
    first_wits: dict[int, list[int]] = {}
    at_checkpoint: dict[int, dict[int, int]] = {}
    lo = 1
    for cp in checkpoints:
        _gcd_block(seq, lo, cp, wanted, witness_cap, running, first_wits)
        at_checkpoint[cp] = dict(running)
        lo = cp + 1
    if ks is None and lo <= x:  # every gcd value up to x, not only up to the last checkpoint
        _gcd_block(seq, lo, x, wanted, witness_cap, running, first_wits)

    keys = sorted(running) if ks is None else list(ks)
    out: dict[int, list[CountReport]] = {}
    for k in keys:
        reports = []
        for cp in checkpoints:
            c = at_checkpoint[cp].get(k, 0)
            wits = tuple(w for w in first_wits.get(k, ()) if w <= cp) if witness_cap else None
            reports.append(CountReport(k, cp, c, c / cp, wits))
        out[k] = reports
    return out


def count_Ak(
    k: int,
    x: int,
    checkpoints: list[int] | None = None,
    *,
    witness_cap: int = 0,
    seq: LucasParams = FIBONACCI,
    threads: int = 1,
) -> list[CountReport]:
    """Exact #A_k(checkpoint) by evaluating gcd(n, F_n) for every n <= x."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return count_many([k], x, checkpoints, witness_cap=witness_cap, seq=seq, threads=threads)[k]


def iter_Ak(k: int, x: int, *, seq: LucasParams = FIBONACCI):
    """The n <= x with gcd(n, u_n) = k, in increasing order, evaluated lazily.

    k and x are checked as count_Ak checks them, when iter_Ak is called.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 1 <= x <= SCAN_CAP:
        raise OutOfRangeError(f"scan limit {x} outside [1, {SCAN_CAP}]")
    gcd_n = _gcd_n(seq)
    return (n for n in range(1, x + 1) if gcd_n(n) == k)


def verify_structure(k: int, x: int, cache: RankCache | None = None) -> bool:
    """Check A_k(x) = {ell(k) m <= x : no element of L_k divides m}, with
    L_k built as lk_generators builds it and A_k(x) enumerated directly.

    Only generators <= cap = x // ell(k) can exclude some m <= cap.  For a
    prime p dividing neither k nor z(k), p divides ell(kp)/ell(k), so that
    ratio is >= p: the primes p <= cap plus the primes of z(k) cover every
    generator <= cap.
    """
    if not 1 <= x <= STRUCTURE_CAP:
        raise OutOfRangeError(f"structure scan limit {x} outside [1, {STRUCTURE_CAP}]")
    cache = _resolve(cache)
    verdict = is_member(k, cache)
    if not verdict.member:
        raise NonMemberError(f"A_{k} is empty; the structural decomposition needs a member")
    ell_k = verdict.ell_k
    cap = x // ell_k
    z_primes = (pp.p for pp in arith.factor(rank_mod._rank_with(cache, k).z).factors)
    gens = _generators(cache, verdict, sorted(set(arith.primes_upto(cap)).union(z_primes)), cap)
    allowed = _nonmultiples(gens.elements(), cap)
    structural = [ell_k * m for m in range(1, cap + 1) if allowed[m]]
    return structural == list(iter_Ak(k, x, seq=cache.seq))


def scan_B(
    x: int,
    checkpoints: list[int] | None = None,
    cache: RankCache | None = None,
    threads: int = 1,
) -> tuple[list[ScanRow], int]:
    """#B(checkpoint) = #{k <= checkpoint : A_k != {}} via the membership
    criterion, one is_member call per k.

    Returns (rows, unknown): any k whose ell(k) overflows the supported
    width is tallied as unknown instead of silently dropped.
    """
    if not 1 <= x <= B_SCAN_CAP:
        raise OutOfRangeError(f"membership scan limit {x} outside [1, {B_SCAN_CAP}]")
    checkpoints = _checkpoints(checkpoints, x)
    _check_threads(threads)
    cache = _resolve(cache)
    members = []
    unknown = 0
    for k in range(1, x + 1):
        try:
            if is_member(k, cache).member:
                members.append(k)
        except OutOfRangeError:
            unknown += 1
    return _rows(members, checkpoints), unknown


def scan_low_rank_primes(
    gamma: Fraction,
    x: int,
    checkpoints: list[int] | None = None,
    cache: RankCache | None = None,
) -> list[ScanRow]:
    """Count primes p <= checkpoint with z(p) <= p^gamma.

    The power comparison is exact integer arithmetic: for gamma = a/q in
    lowest terms, z(p) <= p^gamma iff z(p)^q <= p^a (no float boundaries).
    The reported ratio is count / x^(2 gamma), the trend the folklore
    bound controls.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"need 0 < gamma < 1, got {gamma}")
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if x > STRUCTURE_CAP:
        raise OutOfRangeError(f"prime scan limit {x} above cap {STRUCTURE_CAP}")
    if gamma.denominator > GAMMA_DENOMINATOR_CAP:
        raise OutOfRangeError(f"gamma denominator {gamma.denominator} above cap {GAMMA_DENOMINATOR_CAP}")
    checkpoints = _checkpoints(checkpoints, x)
    cache = _resolve(cache)
    a, q = gamma.numerator, gamma.denominator
    a2 = cache.seq.a2
    low = [
        p
        for p in arith.primes_upto(checkpoints[-1])
        if math.gcd(p, a2) == 1 and cache._prime_rank(p) ** q <= p**a
    ]
    return _rows(low, checkpoints, 2 * float(gamma))


def partial_ell_sum(N: int, cache: RankCache | None = None) -> Fraction:
    """Exact sum of 1/ell(n) over n <= N (skipping n not coprime to a2
    for a Lucas sequence, where ell_u(n) is undefined)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if N > B_SCAN_CAP:
        raise OutOfRangeError(f"ell sum limit {N} above cap {B_SCAN_CAP}")
    cache = _resolve(cache)
    a2 = cache.seq.a2
    gcd = math.gcd
    return _exact_sum(
        Fraction(1, rank_mod._rank_with(cache, n).ell)
        for n in range(1, N + 1)
        if gcd(n, a2) == 1
    )


def nonmultiple_density(g: GeneratorSet, x: int) -> Fraction:
    """#{m <= x : no element of g divides m} / x, by direct sieve."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if x > STRUCTURE_CAP:
        raise OutOfRangeError(f"nonmultiple sieve limit {x} above cap {STRUCTURE_CAP}")
    return Fraction(sum(_nonmultiples(g.elements(), x)[1:]), x)
