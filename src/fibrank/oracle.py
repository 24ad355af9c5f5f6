"""Brute-force enumeration oracles.

The enumeration halves are formula-free: count_many, count_Ak, iter_Ak and
the enumerated side of verify_structure evaluate gcd(n, u_n) directly, and
nonmultiple_density is a naive sieve, so these results can ground the
formula-based paths.  The rest goes through ranks: the structural side of
verify_structure builds L_k from ell(kp), scan_B applies the membership
criterion, scan_low_rank_primes compares z(p) with p^gamma and
partial_ell_sum sums 1/ell(n).  scan_B and partial_ell_sum read ell(n) for
every n of their range off one series window (density._EllOfDK, k = 1).

count_many (and count_Ak through it) splits n = 1..x into contiguous runs,
one per CPU of the affinity mask, and scans them in the calling process
plus one forked worker per other CPU, merging the tallies in order of n,
so every report is the one the serial pass gives.  Every other scan is one
serial pass.  The threads arguments are validated and otherwise ignored
everywhere.
"""

import marshal
import math
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import arith
from .arith import OutOfRangeError
from .density import GeneratorSet, NonMemberError, _check_threads, _EllOfDK, _exact_sum, _generators, _verdict, is_member
from .fib import FIBONACCI, LucasParams, gcd_n_fib, gcd_n_lucas
from .rank import RankCache, _cache_for

SCAN_CAP = 10**8
# n per process below which count_many stays serial.  On a 2-CPU Xeon host
# shared with other jobs (CPython 3.11, medians of 21 alternating pairs,
# ladders started from the head table of fib.py), the caller and one worker
# of 10,000 n each took 0.062 s against 0.059 s serial while the second CPU
# was idle, and 0.069 s against 0.067 s while it was busy; of 20,000 n each
# they took 0.093 s against 0.146 s idle, and 0.134 to 0.145 s against
# 0.134 to 0.149 s busy.
FORK_MIN_SPAN = 20_000
B_SCAN_CAP = 10**5
STRUCTURE_CAP = 10**7
# z(p)^Q <= p^A falls back to exact powers near a tie, and their cost grows
# with the denominator Q of gamma
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
    checkpoints = sorted(set(checkpoints or ())) or [x]
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


def _gcd_block(seq: LucasParams, lo: int, hi: int, wanted, witness_cap: int) -> tuple[dict, dict]:
    """(counts, wits): the tallies of gcd(n, u_n) for lo <= n <= hi.

    wanted is a container of the k values to track, or None for all of them;
    wits keeps the first witness_cap n of each k.
    """
    gcd_n = _gcd_n(seq)
    counts, wits = {}, {}
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
    return counts, wits


def _workers(n: int) -> int:
    """How many processes should scan n values: one per CPU of the affinity
    mask, at most one per FORK_MIN_SPAN values, and 1 where forking is
    unsafe or unavailable."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n // FORK_MIN_SPAN))


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items]: fn(items[0]) runs in the calling process,
    and each other call in its own forked child, started before it.

    A child sends its result back marshalled through a pipe and leaves by
    os._exit on every path, so it flushes no inherited stdio buffer and runs
    no atexit handler.  Every child is reaped before this returns; if the
    caller fails or is interrupted, the children still running are killed
    first.  A child that exits nonzero, or is killed, raises
    ChildProcessError.  With one item nothing is forked.
    """
    children = []  # (pid, read end of its pipe)
    outputs = None
    try:
        for item in items[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    with open(w, "wb") as pipe:
                        marshal.dump(fn(item), pipe)
                    status = 0
                except Exception as exc:
                    os.write(2, f"fibrank worker {os.getpid()} failed: {exc!r}\n".encode())
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        first = fn(items[0])
        outputs = [pipe.read() for _, pipe in children]
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if outputs is None:
                import signal  # only a failed or interrupted call pays for importing it

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    if any(statuses):
        raise ChildProcessError(f"worker processes exited with status {statuses}")
    return [first, *map(marshal.loads, outputs)]


def count_many(
    ks,
    x: int,
    checkpoints: list[int] | None = None,
    *,
    witness_cap: int = 0,
    seq: LucasParams = FIBONACCI,
    threads: int = 1,
) -> dict[int, list[CountReport]]:
    """Count A_k(checkpoint) for several k in one shared pass over n.

    ks may be None to report every gcd value that occurs up to x, or any
    iterable, read once.  The scan walks n = 1..x when ks is None, else
    only up to the last checkpoint, once however many k are requested.

    The scan runs in the calling process plus one forked worker process per
    other CPU of the affinity mask (set it with taskset to use fewer),
    capped at one process per FORK_MIN_SPAN values of n.  Each process
    scans one contiguous run of n, cut at every checkpoint inside it, and
    the caller adds the counts and joins the witnesses in order of n, so
    the reports are the serial pass's.  The scan is serial, and forks
    nothing, below that size, without os.fork, and while another thread
    runs, since forking a threaded process is unsafe.  threads is validated
    (>= 0) and otherwise ignored.
    """
    if not 1 <= x <= SCAN_CAP:
        raise OutOfRangeError(f"scan limit {x} outside [1, {SCAN_CAP}]")
    if witness_cap < 0:
        raise ValueError(f"need witness_cap >= 0, got {witness_cap}")
    checkpoints = _checkpoints(checkpoints, x)
    _check_threads(threads)
    wanted = None if ks is None else dict.fromkeys(ks)  # ordered, without repeats

    # with ks None the keys are the gcd values up to x
    last = x if ks is None else checkpoints[-1]
    workers = _workers(last)
    cuts = [last * i // workers for i in range(workers + 1)]

    def scan(i):
        """(hi, counts, wits) for each span (lo, hi] of run i, cut at the
        checkpoints inside it."""
        his = [cp for cp in checkpoints if cuts[i] < cp < cuts[i + 1]] + [cuts[i + 1]]
        return [(hi, *_gcd_block(seq, lo + 1, hi, wanted, witness_cap)) for lo, hi in zip([cuts[i], *his], his)]

    running: dict[int, int] = {}
    first_wits: dict[int, list[int]] = {}
    at_end: dict[int, dict[int, int]] = {}
    for hi, counts, wits in (span for run in _fork_map(scan, range(workers)) for span in run):
        for g, c in counts.items():
            running[g] = running.get(g, 0) + c
        for g, ns in wits.items():
            lst = first_wits.setdefault(g, [])
            lst += ns[: witness_cap - len(lst)]
        at_end[hi] = dict(running)

    keys = sorted(running) if ks is None else wanted
    out: dict[int, list[CountReport]] = {}
    for k in keys:
        reports = []
        for cp in checkpoints:
            c = at_end[cp].get(k, 0)
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
    """Exact #A_k(checkpoint) by evaluating gcd(n, F_n) for every n <= x,
    through count_many: the calling process plus one forked worker per
    other CPU of the affinity mask, with threads validated (>= 0) and
    otherwise ignored."""
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
    prime p not dividing ell(k), p divides ell(kp)/ell(k), so that ratio is
    >= p: the primes p <= cap plus the primes of ell(k) cover every
    generator <= cap.  The primes of k among them are generators
    themselves, not ratios.
    """
    if not 1 <= x <= STRUCTURE_CAP:
        raise OutOfRangeError(f"structure scan limit {x} outside [1, {STRUCTURE_CAP}]")
    cache = _cache_for(None, cache)
    verdict = is_member(k, cache)
    if not verdict.member:
        raise NonMemberError(f"A_{k} is empty; the structural decomposition needs a member")
    cap = x // verdict.ell_k
    ell_primes = (p for p, _ in arith._factor_items(verdict.ell_k))
    gens = _generators(cache, verdict, sorted(set(arith.primes_upto(cap)).union(ell_primes)), cap)
    allowed = _nonmultiples(gens.elements(), cap)
    structural = [verdict.ell_k * m for m in range(1, cap + 1) if allowed[m]]
    return structural == list(iter_Ak(k, x, seq=cache.seq))


def scan_B(
    x: int,
    checkpoints: list[int] | None = None,
    cache: RankCache | None = None,
    threads: int = 1,
) -> tuple[list[ScanRow], int]:
    """#B(checkpoint) = #{k <= checkpoint : A_k != {}} via the membership
    criterion, with ell(k) read off one series window for k <= x.  A k
    sharing a prime with a2 is a non-member (see is_member) and is skipped.

    Returns (rows, unknown).  unknown is always 0, the count of k whose
    ell(k) leaves the supported width, and no k <= B_SCAN_CAP has one:
    z(2^e) <= 3 * 2^(e-1) and z(p^e) <= (p + 1) p^(e-1) for odd p give
    z(k) < 3.6 k over the primes of such k, so ell(k) <= k z(k) < 2^36.
    """
    if not 1 <= x <= B_SCAN_CAP:
        raise OutOfRangeError(f"membership scan limit {x} outside [1, {B_SCAN_CAP}]")
    checkpoints = _checkpoints(checkpoints, x)
    cache = _cache_for(None, cache)
    window = _EllOfDK(cache, 1, x, x, False, threads)
    gcd = math.gcd
    members = [k for k in range(1, x + 1) if gcd(k, window.avoid) == 1 and _verdict(cache, k, window(k)).member]
    return _rows(members, checkpoints), 0


def _at_most_power(z: int, q: int, p: int, a: int) -> bool:
    """z^q <= p^a for z >= 1 and p >= 2, a >= 1: by logarithms, and by the
    exact powers only where the logarithms lie within 1e-9 relative of each
    other, far wider than the rounding error of either side."""
    lhs, rhs = q * math.log2(z), a * math.log2(p)
    if abs(lhs - rhs) <= 1e-9 * rhs:
        return z**q <= p**a
    return lhs < rhs


def scan_low_rank_primes(
    gamma: Fraction,
    x: int,
    checkpoints: list[int] | None = None,
    cache: RankCache | None = None,
) -> list[ScanRow]:
    """Count primes p <= checkpoint with z(p) <= p^gamma.

    The power comparison is exact: for gamma = a/q in lowest terms,
    z(p) <= p^gamma iff z(p)^q <= p^a, decided by _at_most_power.
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
    cache = _cache_for(None, cache)
    a, q = gamma.numerator, gamma.denominator
    a2 = cache.seq.a2
    low = [
        p
        for p in arith.primes_upto(checkpoints[-1])
        if math.gcd(p, a2) == 1 and _at_most_power(cache._prime_rank(cache, p), q, p, a)
    ]
    return _rows(low, checkpoints, 2 * float(gamma))


def partial_ell_sum(N: int, cache: RankCache | None = None) -> Fraction:
    """Exact sum of 1/ell(n) over n <= N (skipping n not coprime to a2
    for a Lucas sequence, where ell_u(n) is undefined), with each ell(n)
    read off one series window for n <= N."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if N > B_SCAN_CAP:
        raise OutOfRangeError(f"ell sum limit {N} above cap {B_SCAN_CAP}")
    window = _EllOfDK(_cache_for(None, cache), 1, N, N, False, 1)
    gcd = math.gcd
    return _exact_sum((1, 1, window(n)) for n in range(1, N + 1) if gcd(n, window.avoid) == 1)


def nonmultiple_density(g: GeneratorSet, x: int) -> Fraction:
    """#{m <= x : no element of g divides m} / x, by direct sieve."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if x > STRUCTURE_CAP:
        raise OutOfRangeError(f"nonmultiple sieve limit {x} above cap {STRUCTURE_CAP}")
    return Fraction(sum(_nonmultiples(g.elements(), x)[1:]), x)
