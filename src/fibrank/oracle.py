"""Brute-force enumeration oracles.

Everything here counts by direct evaluation of gcd(n, F_n) (or a naive
sieve), never through the rank/density formulas being tested, so these
results can ground the formula-based paths.  Range scans may be
partitioned across worker threads; per-chunk tallies are merged in chunk
order, so the merged result is identical to a single-threaded run.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith, rank as rank_mod
from .arith import OutOfRangeError
from .density import GeneratorSet, NonMemberError, _exact_sum, _map_spans, _worker_count, is_member
from .fib import FIBONACCI, LucasParams, fib_pair_mod, lucas_pair_mod
from .rank import RankCache, _resolve

SCAN_CAP = 10**8
B_SCAN_CAP = 10**5
STRUCTURE_CAP = 10**7


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


def _gcd_block(seq: LucasParams, lo: int, hi: int, wanted, witness_cap: int):
    """Per-k tallies of gcd(n, u_n) for lo <= n <= hi.

    wanted is a set of k values to track, or None for all of them.
    Returns (counts, witnesses) dicts for this block only.
    """
    gcd = math.gcd
    counts: dict[int, int] = {}
    wits: dict[int, list[int]] = {}
    fibonacci = seq.is_fibonacci
    for n in range(lo, hi + 1):
        if fibonacci:
            g = gcd(n, fib_pair_mod(n, n)[0])
        else:
            g = gcd(n, lucas_pair_mod(seq, n, n)[0])
        if wanted is not None and g not in wanted:
            continue
        counts[g] = counts.get(g, 0) + 1
        if witness_cap:
            lst = wits.get(g)
            if lst is None:
                wits[g] = [n]
            elif len(lst) < witness_cap:
                lst.append(n)
    return counts, wits


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
    checkpoints = sorted(set(checkpoints)) if checkpoints else [x]
    if checkpoints[0] < 1 or checkpoints[-1] > x:
        raise ValueError("checkpoints must lie in [1, x]")
    wanted = None if ks is None else set(ks)
    workers = _worker_count(threads, x)

    # chunk edges: thread-sized slices refined so every checkpoint is an edge
    edges = set(checkpoints) | {x}
    step = max(1, x // (workers * 4))
    edges.update(range(step, x, step))
    edges = sorted(edges)
    spans = []
    lo = 1
    for hi in edges:
        spans.append((lo, hi))
        lo = hi + 1

    results = _map_spans(lambda span: _gcd_block(seq, *span, wanted, witness_cap), spans, workers)

    running: dict[int, int] = {}
    first_wits: dict[int, list[int]] = {}
    at_checkpoint: dict[int, dict[int, int]] = {}
    cp_iter = iter(checkpoints)
    next_cp = next(cp_iter)
    for (a, b), (counts, wits) in zip(spans, results):
        for g, c in counts.items():
            running[g] = running.get(g, 0) + c
        if witness_cap:
            for g, lst in wits.items():
                dst = first_wits.setdefault(g, [])
                if len(dst) < witness_cap:
                    dst.extend(lst[: witness_cap - len(dst)])
        while next_cp is not None and next_cp <= b:
            at_checkpoint[next_cp] = dict(running)
            next_cp = next(cp_iter, None)

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


def verify_structure(k: int, x: int, cache: RankCache | None = None) -> bool:
    """Check A_k(x) = {ell(k) m <= x : no element of L_k divides m} by
    enumerating both sides independently.

    Only finitely many generators matter: a generator can exclude some
    m <= x/ell(k) only if it is <= m.  A ratio for prime p is divisible by
    p unless p | z(k), so collecting primes p <= x plus the primes of z(k)
    covers every generator that could be <= x.
    """
    if not 1 <= x <= STRUCTURE_CAP:
        raise OutOfRangeError(f"structure scan limit {x} outside [1, {STRUCTURE_CAP}]")
    cache = _resolve(cache)
    verdict = is_member(k, cache)
    if not verdict.member:
        raise NonMemberError(f"A_{k} is empty; the structural decomposition needs a member")
    seq = cache.seq
    ell_k = verdict.ell_k
    cap = x // ell_k

    z_k = rank_mod._rank_with(cache, k).z
    candidates = set(arith.primes_upto(x))
    candidates.update(pp.p for pp in arith.factor(z_k).factors)
    small_gens = set()
    for p in sorted(candidates):
        if math.gcd(p, seq.a2) != 1:
            continue
        if k % p == 0:
            small_gens.add(p)
            continue
        ratio = rank_mod._rank_with(cache, k * p).ell // ell_k
        if ratio <= cap:
            small_gens.add(ratio)

    allowed = bytearray([1]) * (cap + 1)
    for gen in small_gens:
        allowed[gen::gen] = bytes(len(range(gen, cap + 1, gen)))
    structural = [ell_k * m for m in range(1, cap + 1) if allowed[m]]

    gcd = math.gcd
    if seq.is_fibonacci:
        enumerated = [n for n in range(1, x + 1) if gcd(n, fib_pair_mod(n, n)[0]) == k]
    else:
        enumerated = [n for n in range(1, x + 1) if gcd(n, lucas_pair_mod(seq, n, n)[0]) == k]
    return structural == enumerated


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
    checkpoints = sorted(set(checkpoints)) if checkpoints else [x]
    if checkpoints[0] < 1 or checkpoints[-1] > x:
        raise ValueError("checkpoints must lie in [1, x]")
    cache = _resolve(cache)
    a2 = cache.seq.a2
    gcd = math.gcd

    def block(span):
        lo, hi = span
        members = unknown = 0
        for k in range(lo, hi + 1):
            if gcd(k, a2) != 1:
                continue
            try:
                if is_member(k, cache).member:
                    members += 1
            except OutOfRangeError:
                unknown += 1
        return members, unknown

    edges = sorted(set(checkpoints) | {x})
    spans = []
    lo = 1
    for hi in edges:
        spans.append((lo, hi))
        lo = hi + 1
    results = _map_spans(block, spans, threads)

    rows = []
    total = unknown_total = 0
    cp_set = set(checkpoints)
    for (a, b), (members, unknown) in zip(spans, results):
        total += members
        unknown_total += unknown
        if b in cp_set:
            rows.append(ScanRow(b, total, total / b))
    return rows, unknown_total


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
    checkpoints = sorted(set(checkpoints)) if checkpoints else [x]
    if checkpoints[0] < 1 or checkpoints[-1] > x:
        raise ValueError("checkpoints must lie in [1, x]")
    cache = _resolve(cache)
    a, q = gamma.numerator, gamma.denominator
    a2 = cache.seq.a2
    rows = []
    count = 0
    cp_iter = iter(checkpoints)
    next_cp = next(cp_iter)
    for p in arith.primes_upto(x) + [None]:
        while next_cp is not None and (p is None or p > next_cp):
            rows.append(ScanRow(next_cp, count, count / next_cp ** (2 * float(gamma))))
            next_cp = next(cp_iter, None)
        if p is None or next_cp is None:
            break
        if math.gcd(p, a2) != 1:
            continue
        if cache._prime_rank(p) ** q <= p**a:
            count += 1
    return rows


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
    allowed = bytearray([1]) * (x + 1)
    for gen in g.elements():
        if gen <= x:
            allowed[gen::gen] = bytes(len(range(gen, x + 1, gen)))
    return Fraction(sum(allowed[1:]), x)
