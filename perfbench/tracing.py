"""Spans around calls into fibrank's modules, recorded from outside them.

install() replaces module attributes with timing wrappers; no file of the
package changes.  It must run before any RankCache or _EllOfDK is built,
because both capture a rank or pair_mod function when constructed.

Each call records one span (id, parent id, name, start, end) in a
per-thread buffer of flat arrays.  A span opened on a worker thread with
no open span of its own takes the main thread's innermost open span as
parent, so pool work is charged to the call that started the pool.  Self
time is a span's duration minus the union of its children's intervals.
"""

import importlib
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict

# span names whose call count, total time or self time feed a per-layer metric
PAIR_MOD = "fib.pair_mod"
FACTOR = "arith.factor"
SIEVE = "arith.sieve"
PRIME_RANK = "rank.prime_rank"
PPOW = "rank.ppow"
RECORD = "rank.record"
ELL_DK = "density.ell_dk"
SUM = "density.sum"
SERIES = "density.series"
COUNT = "oracle.count"
BLOCK = "oracle.block"
VERIFY = "oracle.verify"
DISPATCH = "cli.dispatch"
RENDER = "cli.render"


class _Buffer:
    __slots__ = ("stack", "ids", "parents", "names", "starts", "ends")

    def __init__(self):
        self.stack = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name, fn, before=None, after=None):
        """fn with a span per call; before(args) -> state, after(state, args, result)."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        ids = self._ids
        main = self._main

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else (main.stack[-1] if main.stack else -1)
            state = before(args) if before else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.ids.append(sid)
                buf.parents.append(parent)
                buf.names.append(nid)
                buf.starts.append(t0)
                buf.ends.append(t1)
            if after:
                after(state, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Additive per-name totals: calls, seconds, self seconds; plus counters."""
        span_rows = [
            row
            for buf in self._buffers
            for row in zip(buf.ids, buf.parents, buf.names, buf.starts, buf.ends)
        ]
        ppow_ids = set()
        children = defaultdict(list)
        for sid, parent, nid, t0, t1 in span_rows:
            if self.names[nid] == PPOW:
                ppow_ids.add(sid)
            if parent >= 0:
                children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for sid, parent, nid, t0, t1 in span_rows:
            name = self.names[nid]
            covered = _union_length(children.get(sid, ()), t0, t1)
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - covered
            if name == PAIR_MOD and parent in ppow_ids:
                out["rank.ppow_lifts"] += 1
        out["trace.spans"] = len(span_rows)
        out.update(self.counters)
        return {"sums": dict(out), "maxima": dict(self.maxima)}


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def install() -> Tracer:
    """Wrap the entry functions of every fibrank module and return the tracer."""
    tracer = Tracer()
    wrap = tracer.wrap
    arith = importlib.import_module("fibrank.arith")
    fib = importlib.import_module("fibrank.fib")
    # fibrank.rank as an attribute is the rank() function, not the module
    rank = importlib.import_module("fibrank.rank")
    density = importlib.import_module("fibrank.density")
    oracle = importlib.import_module("fibrank.oracle")
    cli = importlib.import_module("fibrank.cli")
    c = tracer.counters
    m = tracer.maxima

    for name in ("fib_pair_mod", "lucas_pair_mod"):
        traced = wrap(PAIR_MOD, getattr(fib, name))
        for module in (fib, rank, oracle):
            setattr(module, name, traced)

    arith.factor = wrap(FACTOR, arith.factor)

    def sieve_after(cached_before, args, result):
        if arith._SIEVE[0] != cached_before:
            c["arith.sieve_entries"] += arith._SIEVE[0] + 1

    arith.mobius_spf_sieve = wrap(SIEVE, arith.mobius_spf_sieve, lambda args: arith._SIEVE[0], sieve_after)

    def prime_rank_before(args):
        cache, p = args
        if p not in cache._prime_z:
            c["rank.prime_rank_computed"] += 1

    rank._prime_rank_fib = wrap(PRIME_RANK, rank._prime_rank_fib, prime_rank_before)
    rank._prime_rank_lucas = wrap(PRIME_RANK, rank._prime_rank_lucas, prime_rank_before)
    rank._prime_power_rank = wrap(PPOW, rank._prime_power_rank)
    rank._rank_with = wrap(RECORD, rank._rank_with)

    density._EllOfDK.__call__ = wrap(ELL_DK, density._EllOfDK.__call__)
    density._series = wrap(SERIES, density._series)

    def sum_after(state, args, result):
        c["density.denominator_bits"] += result.denominator.bit_length()

    exact_sum = wrap(SUM, density._exact_sum, after=sum_after)

    def counted_sum(fractions):
        def counted():
            for f in fractions:
                c["density.terms"] += 1
                yield f

        return exact_sum(counted())

    density._exact_sum = counted_sum
    oracle._exact_sum = counted_sum

    def scan_before(args):
        return time.perf_counter(), _cpu_seconds()

    def scan_after(state, args, result):
        t0, cpu0 = state
        c["oracle.scan_s"] += time.perf_counter() - t0
        c["oracle.scan_cpu_s"] += _cpu_seconds() - cpu0

    block_threads: set[int] = set()
    block_lock = threading.Lock()

    def count_before(args):
        block_threads.clear()
        return scan_before(args)

    def count_after(state, args, result):
        scan_after(state, args, result)
        m["oracle.workers"] = max(m["oracle.workers"], len(block_threads))

    def block_after(state, args, result):
        # runs on the pool's threads
        with block_lock:
            c["oracle.n_scanned"] += args[2] - args[1] + 1
            block_threads.add(threading.get_ident())

    def verify_after(state, args, result):
        scan_after(state, args, result)
        c["oracle.n_scanned"] += args[1]
        m["oracle.workers"] = max(m["oracle.workers"], 1)

    oracle.count_many = wrap(COUNT, oracle.count_many, count_before, count_after)
    oracle._gcd_block = wrap(BLOCK, oracle._gcd_block, after=block_after)
    oracle.verify_structure = wrap(VERIFY, oracle.verify_structure, scan_before, verify_after)

    cli._dispatch = wrap(DISPATCH, cli._dispatch)
    # exact fractions become decimal strings inside _dispatch; that is rendering too
    cli._frac_str = wrap(RENDER, cli._frac_str)
    cli._emit = wrap(RENDER, cli._emit)
    return tracer


def merge(summaries) -> dict:
    """Combine summary() results of several processes."""
    sums: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = defaultdict(float)
    for s in summaries:
        for k, v in s["sums"].items():
            sums[k] += v
        for k, v in s["maxima"].items():
            maxima[k] = max(maxima[k], v)
    return {"sums": dict(sums), "maxima": dict(maxima)}


def layer_metrics(summary: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics, per operation where the metric is additive."""
    s = defaultdict(float, summary["sums"])
    calls = s[f"{PRIME_RANK}.calls"]
    per_op = {
        "fib.pair_mod_calls": s[f"{PAIR_MOD}.calls"],
        "fib.pair_mod_s": s[f"{PAIR_MOD}.s"],
        "arith.factor_calls": s[f"{FACTOR}.calls"],
        "arith.factor_s": s[f"{FACTOR}.s"],
        "arith.sieve_s": s[f"{SIEVE}.s"],
        "arith.sieve_entries": s["arith.sieve_entries"],
        "rank.prime_rank_calls": calls,
        "rank.prime_rank_computed": s["rank.prime_rank_computed"],
        "rank.prime_rank_self_s": s[f"{PRIME_RANK}.self_s"],
        "rank.ppow_lifts": s["rank.ppow_lifts"],
        "density.ell_dk_calls": s[f"{ELL_DK}.calls"],
        "density.ell_dk_self_s": s[f"{ELL_DK}.self_s"],
        "density.sum_self_s": s[f"{SUM}.self_s"],
        "density.terms": s["density.terms"],
        "density.denominator_bits": s["density.denominator_bits"],
        "oracle.n_scanned": s["oracle.n_scanned"],
        "oracle.scan_s": s["oracle.scan_s"],
        "cli.dispatch_s": s[f"{DISPATCH}.self_s"],
        "cli.render_s": s[f"{RENDER}.s"],
        "trace.spans": s["trace.spans"],
    }
    out = {k: v / ops for k, v in per_op.items()}
    out["rank.prime_rank_hit_ratio"] = 1 - s["rank.prime_rank_computed"] / calls if calls else 0.0
    out["oracle.workers"] = summary["maxima"].get("oracle.workers", 0.0)
    out["oracle.cpu_per_wall"] = s["oracle.scan_cpu_s"] / s["oracle.scan_s"] if s["oracle.scan_s"] else 0.0
    return out
