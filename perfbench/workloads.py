"""The benchmark's three workloads: seeded inputs, one operation, checks.

Each workload turns a random.Random into a cycle of operations, runs one
operation at a time (closed loop, one client) and checks an outcome with
perfbench.numtheory, never with fibrank's own routines.

Every CLI job runs in a fresh interpreter, so every cache starts cold, as
it does for a CLI user.

- density: Mobius-series CLI jobs.  Sieve, cold prime ranks, ell(dk), exact
  summation and rendering of large fractions do the work; the enumeration
  oracles are idle.
- census: enumeration CLI jobs with --threads set to the CPU count.  Fast
  doubling mod n, chunk merging and the worker pool do the work; rank,
  sieve and summation do little.
- queries: single rank / membership calls for 8-48 bit m, each with a fresh
  RankCache.  Factoring and prime ranks of large primes do the work, with
  no cache reuse; sieve, summation and enumeration are bypassed.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numtheory as nt

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
TRACE_MARK = "perfbench-trace "
FIBONACCI = (1, 1)


@dataclass(frozen=True)
class Op:
    spec: tuple  # CLI arguments, or (kind, a1, a2, m) for a query
    work: int  # units of work, in the workload's throughput unit
    expect: dict  # independently computed facts the checks compare against


@dataclass
class Outcome:
    latency: float  # seconds
    output: bytes  # the bytes whose digest identifies the result
    value: object  # exit code, or the returned record or raised exception
    trace: dict | None = None  # per-process trace summary of a traced child


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the CLI takes its default thread count from here
    env.pop("FIBRANK_THREADS", None)
    return env


def _seq_args(a1, a2) -> list[str]:
    return [] if (a1, a2) == FIBONACCI else ["--a1", str(a1), "--a2", str(a2)]


def _frac(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return int(num), int(den)


def _params_errors(record, cmd, expected) -> list[str]:
    errors = []
    if record.get("command") != cmd:
        errors.append(f"command {record.get('command')!r} != {cmd!r}")
    if record.get("params") != expected:
        errors.append(f"params {record.get('params')} != {expected}")
    return errors


def _small_k_pools(a1, a2, kmax=30) -> tuple[list[int], list[int]]:
    """(members, non-members) among k <= kmax coprime to a2, by the criterion
    k = gcd(ell(k), u_ell(k)) with z(k) found by walking u_n mod k."""
    members, others = [], []
    for k in range(1, kmax + 1):
        if math.gcd(k, a2) != 1:
            continue
        z, (u, v) = 1, (1 % k, a1 % k)
        while u:
            z, (u, v) = z + 1, (v, (a1 * v + a2 * u) % k)
        ell = math.lcm(k, z)
        (members if nt.gcd_n_term(a1, a2, ell) == k else others).append(k)
    return members, others


class CliJobs:
    """Operations that are fibrank CLI commands, each in a fresh interpreter."""

    in_process = False

    def run(self, op, traced) -> Outcome:
        entry = [str(HERE / "traced_cli.py")] if traced else ["-m", "fibrank.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *entry, *op.spec], capture_output=True, env=child_env(), cwd=ROOT)
        latency = time.perf_counter() - t0
        trace = None
        if traced:
            lines = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith(TRACE_MARK)]
            trace = json.loads(lines[-1][len(TRACE_MARK) :]) if lines else None
        return Outcome(latency, proc.stdout, proc.returncode, trace)


class Density(CliJobs):
    name = "density"
    unit = "squarefree terms summed/s"
    # the jobs are single-threaded; see run.py
    pin_cpu = True
    # deep enough that exact summation is the largest layer of a job
    DEPTH = 30_000
    # iecheck sums the A_k series and every B_dk series to its depth, so it
    # runs at half depth to cost about as much as the other jobs
    IECHECK_DEPTH = 15_000
    SEQUENCES = (FIBONACCI, (2, 1))  # Fibonacci and Pell
    COMMANDS = ("density", "density-b", "iecheck")

    def make_ops(self, rng) -> list[Op]:
        flags = nt.squarefree_flags(4 * self.DEPTH)
        pools = {seq: _small_k_pools(*seq) for seq in self.SEQUENCES}
        ops = []
        for rep in range(2):
            for cmd in self.COMMANDS:
                for a1, a2 in self.SEQUENCES:
                    # each (command, sequence) gets one member and one non-member
                    k = rng.choice(pools[a1, a2][(len(ops) + rep) % 2])
                    depth = self.IECHECK_DEPTH if cmd == "iecheck" else self.DEPTH
                    argv = (cmd, str(k), "--depth", str(depth), "--json", *_seq_args(a1, a2))
                    expect = {"cmd": cmd, "k": k, "a1": a1, "a2": a2, "depth": depth}
                    ops.append(Op(argv, self._terms(cmd, k, depth, flags), expect))
        return ops

    @staticmethod
    def _terms(cmd, k, depth, flags) -> int:
        """Squarefree terms the job sums: partial sum to D plus tail window to 4D."""

        def series(kk, limit, coprime):
            return sum(1 for d in range(1, 4 * limit + 1) if flags[d] and not (coprime and math.gcd(d, kk) != 1))

        if cmd == "density":
            return series(k, depth, False)
        if cmd == "density-b":
            return series(k, depth, True)
        inner = sum(series(d * k, depth // d, True) for d in range(1, k + 1) if k % d == 0 and flags[d])
        return series(k, depth, False) + inner

    def check(self, op, out) -> list[str]:
        if out.value != 0:
            return [f"exit code {out.value}"]
        e = op.expect
        record = json.loads(out.output)
        errors = _params_errors(record, e["cmd"], {"a1": e["a1"], "a2": e["a2"], "k": e["k"], "depth": e["depth"]})
        res = record["result"]
        if e["cmd"] == "iecheck":
            lhs, rhs, gap = _frac(res["lhs"]), _frac(res["rhs"]), _frac(res["gap"])
            if not (res["exact_zero"] is True and gap == (0, 1) and lhs == rhs):
                errors.append(f"inclusion-exclusion gap {res['gap']} is not exactly zero")
            if abs(lhs[0]) > lhs[1]:
                errors.append("|lhs| > 1")
            return errors
        num, den = _frac(res["partial_sum"])
        if den < 1 or abs(num) > den:
            errors.append("|partial_sum| > 1")
        if num / den != res["float_value"]:
            errors.append(f"float(partial_sum) = {num / den!r} != float_value {res['float_value']!r}")
        tnum, tden = _frac(res["tail_window"])
        if tden < 1 or tnum < 0 or tnum / tden != res["tail_window_float"]:
            errors.append("tail_window negative or inconsistent with tail_window_float")
        return errors


class Census(CliJobs):
    name = "census"
    unit = "n evaluated/s"
    # the jobs use every CPU
    pin_cpu = False
    COUNT_LIMIT = 100_000
    WITNESS_LIMIT = 100_000
    WITNESS_MAX = 8
    VERIFY_LIMIT = 30_000
    # every gcd(n, u_n) for n <= PREFIX is computed here to check the jobs
    PREFIX = 2_000
    LUCAS_PAIRS = ((1, 2), (2, 1), (3, 1), (1, 3), (2, 3), (3, 2))

    def make_ops(self, rng) -> list[Op]:
        sequences = (FIBONACCI, rng.choice(self.LUCAS_PAIRS))
        prefix = {}
        for a1, a2 in sequences:
            found: dict[int, list[int]] = {}
            for n in range(1, self.PREFIX + 1):
                found.setdefault(nt.gcd_n_term(a1, a2, n), []).append(n)
            prefix[a1, a2] = found
        threads = ("--threads", str(NPROC), "--json")
        ops = []
        for rep in range(2):
            for cmd in ("count", "witnesses", "verify-structure"):
                for a1, a2 in sequences:
                    found = prefix[a1, a2]
                    members = sorted(k for k in found if k <= 30)
                    absent = [k for k in range(1, 31) if k not in found and math.gcd(k, a2) == 1]
                    use_absent = cmd == "count" and absent and (len(ops) + rep) % 2
                    k = rng.choice(absent if use_absent else members)
                    seq = _seq_args(a1, a2)
                    expect = {"cmd": cmd, "k": k, "a1": a1, "a2": a2, "prefix": found.get(k, [])}
                    if cmd == "count":
                        limit = self.COUNT_LIMIT
                        cps = (self.PREFIX, limit // 10, limit)
                        argv = (cmd, str(k), "--limit", str(limit), "--checkpoints", *map(str, cps), *threads, *seq)
                    elif cmd == "witnesses":
                        limit = self.WITNESS_LIMIT
                        argv = (cmd, str(k), "--max", str(self.WITNESS_MAX), "--limit", str(limit), *threads, *seq)
                    else:
                        limit = self.VERIFY_LIMIT
                        argv = (cmd, str(k), "--limit", str(limit), *threads, *seq)
                    ops.append(Op(argv, limit, expect | {"limit": limit}))
        return ops

    def check(self, op, out) -> list[str]:
        if out.value != 0:
            return [f"exit code {out.value}"]
        e = op.expect
        k, limit, cmd = e["k"], e["limit"], e["cmd"]
        record = json.loads(out.output)
        params = {"a1": e["a1"], "a2": e["a2"], "k": k, "limit": limit}
        if cmd == "count":
            params["checkpoints"] = [self.PREFIX, limit // 10, limit]
        elif cmd == "witnesses":
            params["max"] = self.WITNESS_MAX
        errors = _params_errors(record, cmd, params)
        res = record["result"]
        if cmd == "count":
            reports = res["reports"]
            if [r["x"] for r in reports] != params["checkpoints"]:
                return errors + ["checkpoints differ from the request"]
            counts = [r["count"] for r in reports]
            if counts != sorted(counts) or any(not 0 <= r["count"] <= r["x"] for r in reports):
                errors.append(f"counts {counts} not nondecreasing within [0, x]")
            if any(r["ratio"] != r["count"] / r["x"] for r in reports):
                errors.append("ratio != count / x")
            # the prefix tally covers every n <= PREFIX, so its counts sum to PREFIX
            if counts[0] != len(e["prefix"]):
                errors.append(f"#A_{k}({self.PREFIX}) = {counts[0]}, enumeration here gives {len(e['prefix'])}")
        elif cmd == "witnesses":
            wits = res["witnesses"]
            if wits != sorted(set(wits)) or len(wits) > self.WITNESS_MAX or any(not 1 <= w <= limit for w in wits):
                errors.append("witnesses not increasing, too many, or outside [1, limit]")
            bad = [w for w in wits if nt.gcd_n_term(e["a1"], e["a2"], w) != k]
            if bad:
                errors.append(f"gcd(w, u_w) != {k} for w in {bad}")
            head = min(self.WITNESS_MAX, len(e["prefix"]))
            if wits[:head] != e["prefix"][:head] or any(w <= self.PREFIX for w in wits[head:]):
                errors.append(f"witnesses below {self.PREFIX} differ from enumeration {e['prefix'][:head]}")
        elif res.get("verified") is not True:
            errors.append(f"structural decomposition of A_{k} not verified")
        return errors


class Queries:
    name = "queries"
    unit = "queries/s"
    in_process = True
    # the queries are single-threaded; see run.py
    pin_cpu = True
    # each query of the cycle runs several times in a run, so that its
    # latency is a median (run.py); 16384 queries keep the 99th percentile
    # of a cycle from resting on a few dozen hard inputs
    CYCLE = 16384
    # Fibonacci half the time, else one of four small coprime Lucas pairs
    PAIRS = (FIBONACCI, FIBONACCI, FIBONACCI, FIBONACCI, (2, 1), (1, 2), (3, 1), (1, 3))

    def __init__(self):
        import fibrank

        self.fibrank = fibrank
        self.params = {pair: fibrank.LucasParams(*pair) for pair in set(self.PAIRS)}

    def make_ops(self, rng) -> list[Op]:
        ops = []
        for _ in range(self.CYCLE):
            a1, a2 = rng.choice(self.PAIRS)
            kind = rng.choice(("rank", "member"))
            bits = rng.randint(8, 48)
            m = rng.randrange(1 << (bits - 1), 1 << bits)
            ops.append(Op((kind, a1, a2, m), 1, {}))
        return ops

    def run(self, op, traced) -> Outcome:
        fr = self.fibrank
        kind, a1, a2, m = op.spec
        seq = self.params[a1, a2]
        t0 = time.perf_counter()
        cache = fr.RankCache(seq)
        try:
            if seq.is_fibonacci:
                value = fr.rank(m, cache) if kind == "rank" else fr.is_member(m, cache)
            else:
                value = fr.lucas_rank(seq, m, cache) if kind == "rank" else fr.lucas_is_member(seq, m, cache)
            text = repr(value)
        except Exception as exc:  # every raised exception is an answer the checks judge
            value = exc
            text = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        return Outcome(latency, text.encode(), value)

    def check(self, op, out) -> list[str]:
        fr = self.fibrank
        kind, a1, a2, m = op.spec
        v = out.value
        undefined = math.gcd(m, a2) != 1
        if isinstance(v, fr.RankUndefinedError):
            return [] if kind == "rank" and undefined else [f"unexpected {out.output.decode()}"]
        if isinstance(v, fr.OutOfRangeError):
            # documented answer when ell(m) exceeds 64 bits; the digests pin it down
            return [f"unexpected {out.output.decode()}"] if undefined else []
        if isinstance(v, Exception):
            return [f"unexpected {out.output.decode()}"]
        if kind == "rank":
            if undefined or v.m != m:
                return [f"{v!r} for m = {m}"]
            errors = nt.rank_certificate_errors(a1, a2, m, v.z)
            if v.ell != math.lcm(m, v.z):
                errors.append(f"ell {v.ell} != lcm({m}, {v.z})")
            return errors
        if undefined:
            return [] if (v.k, v.ell_k, v.g, v.member) == (m, 0, 0, False) else [f"{v!r}: rank of {m} undefined"]
        if v.k != m:
            return [f"{v!r} for k = {m}"]
        errors = nt.ell_certificate_errors(a1, a2, m, v.ell_k)
        g = nt.gcd_n_term(a1, a2, v.ell_k)
        if v.g != g or v.member != (g == m):
            errors.append(f"gcd(ell, u_ell) = {g}, verdict {v!r}")
        return errors


WORKLOADS = {w.name: w for w in (Density, Census, Queries)}
