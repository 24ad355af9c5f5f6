"""Size caps, input checks and worker counts: every size input that sizes
an allocation fails fast above its cap, every documented rejection raises
its exception with its message, every command line built from the CLI specs
exits 0, 2, 3 or 4 in bounded time, no thread count ever starts a thread,
and count_many's worker processes give the serial result and never outlive
it."""

import errno
import importlib
import io
import json
import math
import os
import signal
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fibrank import (
    FIBONACCI,
    GeneratorSet,
    LucasParams,
    MembershipVerdict,
    OutOfRangeError,
    RankCache,
    RankUndefinedError,
    SeriesApproximation,
    count_Ak,
    count_many,
    density_bk_series,
    density_series,
    fib_exact,
    fib_pair_mod,
    fib_valuation,
    gcd_lcm,
    gcd_n_fib,
    gcd_n_lucas,
    inclusion_exclusion_check,
    is_member,
    lk_generators,
    lucas_density_series,
    lucas_is_member,
    lucas_pair_mod,
    lucas_rank,
    lucas_valuation,
    nonmultiple_density,
    partial_ell_sum,
    rank_naive,
    rank_prime,
    rank_prime_power,
    scan_B,
    scan_low_rank_primes,
    verify_structure,
)
from fibrank import arith, density, oracle
from fibrank.cli import _COMMANDS, main

PELL = LucasParams(2, 1)
# fibrank.rank as an attribute is the rank() function, not the module
rank_module = importlib.import_module("fibrank.rank")


@pytest.fixture
def no_sieves(monkeypatch):
    """Make every sieve allocation an error, so a cap must fire before one."""

    def refuse(*args):
        raise AssertionError("sieve allocated before the size check")

    monkeypatch.setattr(arith, "mobius_spf_sieve", refuse)
    monkeypatch.setattr(arith, "primes_upto", refuse)


class TestCaps:
    @pytest.mark.parametrize("series", [density_series, density_bk_series, inclusion_exclusion_check])
    def test_series_depth(self, series, no_sieves):
        with pytest.raises(OutOfRangeError):
            series(1, density.SERIES_DEPTH_CAP + 1)

    def test_generator_bound(self, no_sieves):
        with pytest.raises(OutOfRangeError):
            lk_generators(1, density.GENERATOR_BOUND_CAP + 1)

    def test_low_rank_limit(self, no_sieves):
        with pytest.raises(OutOfRangeError):
            scan_low_rank_primes(Fraction(1, 3), oracle.STRUCTURE_CAP + 1)

    def test_nonmultiple_limit(self):
        with pytest.raises(OutOfRangeError):
            nonmultiple_density(GeneratorSet(1, (), (), 2), oracle.STRUCTURE_CAP + 1)

    def test_ell_sum_limit(self):
        with pytest.raises(OutOfRangeError):
            partial_ell_sum(oracle.B_SCAN_CAP + 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "1", "--depth", str(density.SERIES_DEPTH_CAP + 1)],
            ["density-b", "1", "--depth", str(density.SERIES_DEPTH_CAP + 1)],
            ["iecheck", "1", "--depth", str(density.SERIES_DEPTH_CAP + 1)],
            ["lowrank", "--gamma", "1/3", "--limit", str(oracle.STRUCTURE_CAP + 1)],
            ["nonmult", "1", "--pbound", str(density.GENERATOR_BOUND_CAP + 1), "--limit", "10"],
            ["nonmult", "1", "--pbound", "10", "--limit", str(oracle.STRUCTURE_CAP + 1)],
            ["ellsum", "--limit", str(oracle.B_SCAN_CAP + 1)],
        ],
        ids=["density", "density-b", "iecheck", "lowrank", "nonmult-pbound", "nonmult-limit", "ellsum"],
    )
    def test_cli_exit_code(self, argv, capsys):
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("error: out-of-range:")

    def test_gamma_denominator(self, no_sieves):
        with pytest.raises(OutOfRangeError):
            scan_low_rank_primes(Fraction(1, oracle.GAMMA_DENOMINATOR_CAP + 1), 30)

    def test_gamma_denominator_at_cap(self):
        assert scan_low_rank_primes(Fraction(1, oracle.GAMMA_DENOMINATOR_CAP), 30)[0].count == 0

    def test_cli_gamma_denominator_exit_code(self, capsys):
        assert main(["lowrank", "--gamma", f"1/{oracle.GAMMA_DENOMINATOR_CAP + 1}", "--limit", "30"]) == 4
        assert capsys.readouterr().err.startswith("error: out-of-range: gamma denominator")

    def test_documented_sizes_fit(self):
        # README and demo sizes: --depth 100000, --limit 100000, --pbound 100
        assert density.SERIES_DEPTH_CAP >= 100_000 and density.GENERATOR_BOUND_CAP >= 100
        assert oracle.B_SCAN_CAP >= 100_000 and oracle.STRUCTURE_CAP >= 100_000


P64 = 18446744073709551557  # the largest prime below 2^64
# two 32-bit primes: Pollard-Brent's hardest 64-bit input; ell exceeds 64 bits
# only once the number is factored
P32_SEMIPRIME = (2**32 - 5) * (2**32 - 17)


def main_within(argv, seconds):
    """cli.main(argv), failing the test if it runs past seconds."""

    def over_budget(signum, frame):
        pytest.fail(f"{argv} ran past its {seconds:g} s budget")

    previous = signal.signal(signal.SIGALRM, over_budget)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSixtyFourBitInputs:
    """64-bit inputs get their answer or exit 4 within a 1 s budget: no
    hidden scan takes time linear in a prime."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", str(P64)],
            ["member", str(P64)],
            ["density", str(P64), "--depth", "10"],
            ["ell", str(2**64 - 1)],
            ["rank", str(P32_SEMIPRIME)],
            ["member", str(P32_SEMIPRIME)],
        ],
        ids=["rank", "member", "density", "ell", "rank-p32-semiprime", "member-p32-semiprime"],
    )
    def test_out_of_range(self, argv, capsys):
        assert main_within(argv, 1.0) == 4
        assert capsys.readouterr().err.startswith("error: out-of-range:")

    def test_prime_of_discriminant(self, capsys):
        # (1, (p - 1) / 4) has disc = p, so z(p) is lifted from e = p
        assert main_within(["rank", str(P64), "--a1", "1", "--a2", str((P64 - 1) // 4)], 1.0) == 0
        assert capsys.readouterr().out == f"z({P64}) = {P64}, ell({P64}) = {P64}\n"


# the largest value a spec argument draws besides the edge values, 2000 for
# an argument not named here, so that a new argument is fuzzed as it stands
_ARG_TOPS = {"k": 3000, "m": 3000, "--max": 3000}
_EDGES = [0, 1, 2, -1, 10**9, 2**63, 2**64 - 1, 2**64]
# left out of some cases; every other argument always gets a value, since the
# defaults --depth 100000 and witnesses --limit 1000000 are multi-second jobs
_OPTIONAL = {"--checkpoints", "--witnesses"}


def _sized(arg):
    return st.one_of(st.integers(1, _ARG_TOPS.get(arg, 2000)), st.sampled_from(_EDGES)).map(str)


@st.composite
def cli_argv(draw):
    """A command line for a random subcommand, built from its _COMMANDS spec."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [name]
    for arg, options in _COMMANDS[name].args:
        if arg in _OPTIONAL and draw(st.booleans()):
            continue
        if arg == "--gamma":
            argv.append(f"--gamma={draw(st.integers(-2, 1001))}/{draw(st.integers(0, 1001))}")
        elif options.get("nargs") == "+":
            argv += [arg, *draw(st.lists(_sized(arg), min_size=1, max_size=3))]
        elif arg.startswith("--"):
            argv.append(f"{arg}={draw(_sized(arg))}")  # so -1 reaches the type check
        else:
            argv.append(draw(_sized(arg)))
    if draw(st.integers(0, 9)) < 6:  # degenerate and non-coprime pairs included
        argv += [f"--a1={draw(st.integers(-12, 12))}", f"--a2={draw(st.integers(-12, 12))}"]
    return argv + draw(st.sampled_from([[], ["--text"], ["--json"], ["--csv"]]))


# exit code -> how stderr starts
_STDERR_PREFIXES = {2: ("error: usage:", "usage:"), 3: ("error: domain:",), 4: ("error: out-of-range:",)}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cli_argv())
def test_cli_fuzz(argv):
    """Every command line built from the specs exits 0, 2, 3 or 4 within
    5 s, with the stderr of its exit code and parseable --json output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main_within(argv, 5.0)
    if code == 0:
        if "--json" in argv:
            json.loads(out.getvalue())
    else:
        assert code in _STDERR_PREFIXES, (argv, code, err.getvalue())
        assert err.getvalue().startswith(_STDERR_PREFIXES[code]), (argv, err.getvalue())


# (call, exception type, message): each input check that no other test reaches
REJECTIONS = {
    "density_series-k": (lambda: density_series(0, 10), ValueError, "need k >= 1, got 0"),
    "is_member-k": (lambda: is_member(0), ValueError, "need k >= 1, got 0"),
    "density_series-depth": (lambda: density_series(1, 0), ValueError, "need depth >= 1, got 0"),
    "lk_generators-p_bound": (lambda: lk_generators(1, 1), ValueError, "need p_bound >= 2, got 1"),
    "count_Ak-checkpoint-above-x": (lambda: count_Ak(1, 10, [11]), ValueError, "checkpoints must lie in [1, x]"),
    "count_Ak-checkpoint-zero": (lambda: count_Ak(1, 10, [0]), ValueError, "checkpoints must lie in [1, x]"),
    "count_Ak-witness_cap": (lambda: count_Ak(1, 50, witness_cap=-1), ValueError, "need witness_cap >= 0, got -1"),
    "scan_low_rank_primes-x": (lambda: scan_low_rank_primes(Fraction(1, 2), 0), ValueError, "need x >= 1, got 0"),
    "partial_ell_sum-N": (lambda: partial_ell_sum(0), ValueError, "need N >= 1, got 0"),
    "nonmultiple_density-x": (lambda: nonmultiple_density(lk_generators(1, 5), 0), ValueError, "need x >= 1, got 0"),
    "rank_prime_power-p": (lambda: rank_prime_power(4, 2), ValueError, "4 is not prime"),
    "rank_prime_power-e": (lambda: rank_prime_power(7, 0), ValueError, "need e >= 1, got 0"),
    "rank_naive-m": (lambda: rank_naive(0), ValueError, "need m >= 1, got 0"),
    "RankCache-fibonacci-algorithms": (
        lambda: RankCache(PELL, lucas_algorithms=False),
        ValueError,
        "the Fibonacci-specific algorithms only apply to (a1, a2) = (1, 1)",
    ),
    "fib_exact-n": (lambda: fib_exact(-1), ValueError, "Fibonacci index must be >= 0, got -1"),
    "fib_pair_mod-n": (lambda: fib_pair_mod(-1, 7), ValueError, "Fibonacci index must be >= 0, got -1"),
    "lucas_pair_mod-n": (lambda: lucas_pair_mod(PELL, -1, 7), ValueError, "Lucas index must be >= 0, got -1"),
    "gcd_n_fib-n": (lambda: gcd_n_fib(0), ValueError, "need n >= 1, got 0"),
    "gcd_n_lucas-n": (lambda: gcd_n_lucas(PELL, 0), ValueError, "need n >= 1, got 0"),
    "fib_valuation-n": (lambda: fib_valuation(7, 0), ValueError, "need n >= 1, got 0"),
    "lucas_valuation-p": (lambda: lucas_valuation(PELL, 4, 3, 2), ValueError, "4 is not prime"),
    "lucas_valuation-n": (lambda: lucas_valuation(PELL, 3, 0, 2), ValueError, "need n >= 1 and precision >= 1"),
    "gcd_lcm-negative": (lambda: gcd_lcm(-1, 2), ValueError, "gcd_lcm needs nonnegative arguments"),
    "MembershipVerdict-g": (lambda: MembershipVerdict(2, 3, 2, True), ValueError, "g must divide ell_k"),
    "MembershipVerdict-g-zero": (lambda: MembershipVerdict(2, 4, 0, False), ValueError, "g = 0 requires ell_k = 0"),
    "SeriesApproximation-partial": (
        lambda: SeriesApproximation(1, 1, Fraction(2), Fraction(0), 2.0),
        ValueError,
        "partial sums of mu(d)/ell(dk) stay within [-1, 1]",
    ),
    "SeriesApproximation-tail": (
        lambda: SeriesApproximation(1, 1, Fraction(0), Fraction(-1), 0.0),
        ValueError,
        "tail window is a sum of positive terms",
    ),
    "GeneratorSet-order": (
        lambda: GeneratorSet(1, (), ((3, 4), (2, 3)), 5),
        ValueError,
        "ratio_part must be sorted by prime",
    ),
    "scan_B-limit": (
        lambda: scan_B(oracle.B_SCAN_CAP + 1),
        OutOfRangeError,
        f"membership scan limit {oracle.B_SCAN_CAP + 1} outside [1, {oracle.B_SCAN_CAP}]",
    ),
    "rank_prime-p": (lambda: rank_prime(4), ValueError, "4 is not prime"),
    "rank_prime-range": (
        lambda: rank_prime(2**64 + 13),
        OutOfRangeError,
        "argument 18446744073709551629 out of supported range [1, 2^64 - 1]",
    ),
    "rank_prime-cache": (
        lambda: rank_prime(7, RankCache(PELL)),
        ValueError,
        "cache was built for different Lucas parameters",
    ),
}


@pytest.mark.parametrize("call, error, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejection(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "seq", [LucasParams(1, 2), LucasParams(1, 6), LucasParams(3, -10)], ids=lambda s: f"lucas-{s.a1}-{s.a2}"
)
def test_no_public_path_asks_prime_rank_of_a_divisor_of_a2(seq, monkeypatch):
    """_prime_rank_lucas does not check p | a2, where z_u(p) is undefined:
    _rank_with rejects such m, and every other caller skips such p.  A guard
    in its place sees every prime rank that the public functions ask for."""
    asked = []
    real = rank_module._prime_rank_lucas

    def guard(cache, p, **kwargs):
        assert math.gcd(p, cache.seq.a2) == 1, (cache.seq, p)
        asked.append(p)
        return real(cache, p, **kwargs)

    monkeypatch.setattr(rank_module, "_prime_rank_lucas", guard)
    cache = RankCache(seq)
    a2 = seq.a2
    for m in range(1, 61):
        if math.gcd(m, a2) == 1:
            lucas_rank(seq, m, cache)
        else:
            with pytest.raises(RankUndefinedError) as info:
                lucas_rank(seq, m, cache)
            assert str(info.value) == f"z_u({m}) undefined: gcd({m}, a2 = {a2}) > 1"
    members = [k for k in range(1, 31) if lucas_is_member(seq, k, cache).member]
    assert members and all(math.gcd(k, a2) == 1 for k in members)
    for k in (1, 2, 3, 5):
        if math.gcd(k, a2) == 1:
            lucas_density_series(seq, k, 300, cache)
        else:
            with pytest.raises(RankUndefinedError):
                lucas_density_series(seq, k, 300, cache)
    for k in members[:3]:
        density_bk_series(k, 300, cache)
        inclusion_exclusion_check(k, 200, cache)
        lk_generators(k, 200, cache)
        assert verify_structure(k, 2000, cache)
    scan_low_rank_primes(Fraction(1, 2), 2000, cache=cache)
    partial_ell_sum(300, cache)
    scan_B(300, cache=cache)
    assert asked


def test_private_prime_rank_of_a_divisor_of_a2_fails_loudly():
    """u_n = a1^(n-1) (mod p) for p | a2 is never 0, so the lift's own check
    rejects a direct call.  3 | a2 = 6 is split, (25/3) = 1, and a root of
    x^2 - x - 6 is 0 mod 3, so the root ratio of the pow lift does not exist:
    the same check rejects it, not a failed modular inverse."""
    with pytest.raises(RuntimeError, match="2 does not divide u_6; this indicates a bug"):
        cache = RankCache(LucasParams(1, 2))
        cache._prime_rank(cache, 2)
    with pytest.raises(RuntimeError, match="3 does not divide u_2; this indicates a bug"):
        cache = RankCache(LucasParams(1, 6))
        cache._prime_rank(cache, 3)


def _cpus(monkeypatch, n):
    """Fake an affinity mask of n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestWorkers:
    """threads is validated (negative is a ValueError) and otherwise ignored.
    count_many scans in the calling process plus one forked worker per other
    CPU of the affinity mask and reports the same for every worker count;
    every other scan is serial.
    No thread is ever started, and no worker process outlives the call."""

    @pytest.fixture
    def no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Small scans fork, and the pids of the forked workers are listed;
        a scan on W CPUs forks W - 1 of them."""
        monkeypatch.setattr(oracle, "FORK_MIN_SPAN", 100)
        pids = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @pytest.mark.parametrize("seq", [FIBONACCI, LucasParams(1, 3)], ids=["fibonacci", "lucas-1-3"])
    @pytest.mark.parametrize("ks", [None, [1, 2, 5, 12, 4, 25]], ids=["all-k", "k-list"])
    @pytest.mark.parametrize("witness_cap", [0, 3])
    # with ks None, 999 and 1499 are worker cuts on three and two CPUs
    @pytest.mark.parametrize("checkpoints", [None, [700, 999, 1499, 2200]], ids=["at-x", "inside-spans"])
    def test_count_same_for_every_worker_count(self, seq, ks, witness_cap, checkpoints, no_threads, forks, monkeypatch):
        _cpus(monkeypatch, 1)
        serial = count_many(ks, 2999, checkpoints, witness_cap=witness_cap, seq=seq)
        assert forks == []
        for cpus in (2, 3):
            _cpus(monkeypatch, cpus)
            assert count_many(ks, 2999, checkpoints, witness_cap=witness_cap, seq=seq) == serial
        assert len(forks) == 1 + 2

    def test_count_forks_at_most_one_worker_per_cpu(self, no_threads, forks, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        reports = count_many(None, 3000)
        assert len(forks) <= cpus - 1
        _cpus(monkeypatch, 1)
        assert count_many(None, 3000) == reports

    def test_threads_select_no_worker_count(self, no_threads, forks, monkeypatch):
        _cpus(monkeypatch, 2)
        workers = []
        for threads in (0, 1, 2, 10**5):
            forks.clear()
            count_many(None, 3000, threads=threads)
            workers.append(len(forks))
        assert workers == [1, 1, 1, 1]

    def test_worker_count(self, monkeypatch):
        span = oracle.FORK_MIN_SPAN
        _cpus(monkeypatch, 4)
        assert [oracle._workers(n) for n in (1, 2 * span - 1, 2 * span, 3 * span, 10 * span)] == [1, 1, 2, 3, 4]
        _cpus(monkeypatch, 1)
        assert oracle._workers(10 * span) == 1
        _cpus(monkeypatch, 4)
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert oracle._workers(10 * span) == 1
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.delattr(os, "fork")
        assert oracle._workers(10 * span) == 1

    def test_worker_failure_raises_and_reaps(self, no_threads, forks, monkeypatch):
        parent = os.getpid()
        real_block = oracle._gcd_block

        def failing_block(seq, lo, hi, *rest):
            if os.getpid() != parent and lo > 1:
                raise RuntimeError("worker fails on purpose")
            return real_block(seq, lo, hi, *rest)

        monkeypatch.setattr(oracle, "_gcd_block", failing_block)
        _cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError):
            count_many(None, 3000)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_worker_raises_and_reaps(self, no_threads, forks, monkeypatch):
        """A worker killed by a signal, as by the OOM killer, has a negative
        exit code and fails the scan like a worker that exits nonzero."""
        parent = os.getpid()
        real_block = oracle._gcd_block

        def killed_block(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_block(*args)

        monkeypatch.setattr(oracle, "_gcd_block", killed_block)
        _cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=rf"\[{-signal.SIGKILL}\]"):
            count_many(None, 3000)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open fds")
    def test_failed_fork_closes_its_pipe_and_reaps(self, no_threads, monkeypatch):
        monkeypatch.setattr(oracle, "FORK_MIN_SPAN", 100)
        real_fork = os.fork
        calls = []

        def second_fork_fails():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "fork fails on purpose")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        _cpus(monkeypatch, 3)  # the caller scans one run and forks for the other two
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="fork fails on purpose"):
            count_many(None, 3000)
        assert len(calls) == 2 and len(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_kills_and_reaps_workers(self, no_threads, forks, monkeypatch):
        parent = os.getpid()
        real_block = oracle._gcd_block

        def slow_block(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return real_block(*args)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(oracle, "_gcd_block", slow_block)
        _cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            t0 = time.perf_counter()
            with pytest.raises(KeyboardInterrupt):
                count_many(None, 3000)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1 and time.perf_counter() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cli_workers_write_stdout_once(self, no_threads, forks, monkeypatch, tmp_path):
        """Workers leave without flushing the stdout buffer they inherit."""
        argv = ["count", "1", "--limit", "5000", "--checkpoints", "1000", "5000", "--witnesses", "2", "--json"]
        outputs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            path = tmp_path / f"stdout-{cpus}"
            with open(path, "w") as stdout:  # block-buffered, so a flush at a worker's exit would repeat "pending"
                monkeypatch.setattr(sys, "stdout", stdout)
                stdout.write("pending\n")
                assert main(argv) == 0
            outputs.append(path.read_bytes())
        assert len(forks) == 1
        assert outputs[0] == outputs[1] and outputs[0].count(b"pending") == 1

    def test_series_ignores_threads(self, no_threads):
        assert density_series(2, 2000, threads=10**5) == density_series(2, 2000, threads=1)

    def test_scan_b_ignores_threads(self, no_threads):
        assert scan_B(300, [100, 200, 300], threads=10**5) == scan_B(300, [100, 200, 300], threads=1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: density_series(2, 10, threads=-1),
            lambda: inclusion_exclusion_check(2, 10, threads=-1),
            lambda: count_many(None, 10, threads=-1),
            lambda: scan_B(10, threads=-1),
        ],
        ids=["density_series", "inclusion_exclusion_check", "count_many", "scan_B"],
    )
    def test_negative_threads_rejected(self, call, no_threads):
        with pytest.raises(ValueError, match="threads >= 0"):
            call()
