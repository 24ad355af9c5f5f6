"""Command-line frontend.

Every subcommand works for any nondegenerate Lucas sequence through the
global --a1/--a2 flags (default 1 1, the Fibonacci numbers).  Output goes
to stdout as text (default), JSON (--json, schema_version 1, exact
rationals rendered as "numerator/denominator" strings) or CSV (--csv,
floats with 15 significant digits).  Warnings and errors go to stderr.

Each subcommand is one _Command spec: its arguments, one call into the
library with the sequence's shared RankCache, a text template and a CSV
header.  The JSON params echo every argument of the spec under its dest
name, except count --witnesses.  The call returns a result dict that keeps
exact values typed; JSON, CSV and text are all rendered from it by _emit.

--threads takes FIBRANK_THREADS as its default and validates it the same
way, so an invalid value of either exits 2 on every subcommand; otherwise
both are ignored.  count scans in the calling process plus one forked
worker per other CPU of its affinity mask (limit the CPUs with taskset),
and every other subcommand runs serially.

Exit codes: 0 success, 2 usage error, 3 domain error (rank undefined,
non-member where a member is required), 4 overflow / out of range,
including a size flag (--depth, --limit, --pbound) above its library cap.
"""

import argparse
import decimal
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from . import oracle
from .arith import OutOfRangeError
from .density import (
    NonMemberError,
    density_bk_series,
    density_series,
    heilbronn_lower_bound,
    inclusion_exclusion_check,
    is_member,
    lk_generators,
)
from .fib import LucasParams
from .rank import RankUndefinedError, default_cache, lucas_rank

SCHEMA_VERSION = "1"

TAIL_WARNING = "tail estimate is heuristic"
HEILBRONN_WARNING = "lower bound certified only in the limit p_bound -> infinity"
DEFAULT_DEPTH = 100_000


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _gamma(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"gamma must be a fraction A/Q, got {text}") from exc
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"gamma must lie in (0, 1), got {text}")
    return value


# str(int) is quadratic in the digit count before CPython 3.12 (a 5.8M-bit
# series tail takes minutes), so the numerator and denominator of every
# Fraction are converted by binary halves in libmpdec arithmetic; a half of
# at most this many bits is one Decimal.  Plain ints (echoed arguments,
# ranks, counts) go through json.dumps, f-strings and str() instead; an
# oversized one, such as an echoed --a1 of 5,000 digits, renders only
# because main lifts CPython's int-to-str digit guard.
_STR_BITS = 1 << 13


def _int_str(n: int) -> str:
    """str(n), in time subquadratic in the bits of n: the binary halves of n
    become Decimals joined as hi * 2^h + lo (CPython 3.12's
    _pylong.int_to_decimal_string; Brent & Zimmermann, Modern Computer
    Arithmetic, sec. 1.7), with each power of two built once."""
    D = decimal.Decimal

    @functools.cache
    def two_to(w):
        return D(1 << w) if w <= _STR_BITS else two_to(w >> 1) * two_to(w - (w >> 1))

    def to_decimal(m, w):
        if w <= _STR_BITS:
            return D(m)
        h = w >> 1
        hi = m >> h
        return to_decimal(m - (hi << h), h) + to_decimal(hi, w - h) * two_to(h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True  # every operation must be exact
        digits = str(to_decimal(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def _frac_str(f: Fraction) -> str:
    return f"{_int_str(f.numerator)}/{_int_str(f.denominator)}"


class _Command(NamedTuple):
    help: str
    args: tuple  # (name, add_argument keywords) pairs, echoed in order as JSON params; None is left out
    run: Callable  # (args, cache) -> result dict
    text: Callable  # result with fractions as "n/d" strings -> text output
    csv: tuple  # CSV header: result keys, or keys of csv_rows' rows
    csv_rows: Callable | None = None  # result -> CSV rows; default: result["rows"], else [result]
    warnings: tuple = ()
    quiet: tuple = ()  # argument dests left out of the JSON params


_K = ("k", {"type": _positive})
_LIMIT = ("--limit", {"type": _positive, "required": True})
_CHECKPOINTS = ("--checkpoints", {"type": _positive, "nargs": "+", "default": None})
_DEPTH = ("--depth", {"type": _positive, "default": DEFAULT_DEPTH})


def _series_command(help_, series):
    """The spec of a subcommand that prints one truncated density series."""

    def run(a, cache):
        s = series(a.k, a.depth, cache, a.threads)
        return {
            "k": s.k,
            "depth": s.depth,
            "partial_sum": s.partial_sum,
            "float_value": s.float_value,
            "tail_window": s.tail_window,
            "tail_window_float": float(s.tail_window),
        }

    return _Command(
        help_,
        (_K, _DEPTH),
        run,
        lambda r: (
            f"k = {r['k']}: partial_sum = {r['partial_sum']} ~ {r['float_value']:.15g} "
            f"(depth {r['depth']}, tail window ~ {r['tail_window_float']:.3g})"
        ),
        ("k", "depth", "partial_sum", "tail_window"),
        warnings=(TAIL_WARNING,),
    )


def _member(a, cache):
    v = is_member(a.k, cache)
    return {"k": v.k, "ell": v.ell_k, "gcd": v.g, "member": v.member}


def _iecheck(a, cache):
    lhs, rhs, gap = inclusion_exclusion_check(a.k, a.depth, cache, a.threads)
    return {"k": a.k, "depth": a.depth, "lhs": lhs, "rhs": rhs, "gap": gap, "exact_zero": gap == 0}


def _count(a, cache):
    reports = oracle.count_Ak(a.k, a.limit, a.checkpoints, witness_cap=a.witnesses, seq=cache.seq, threads=a.threads)
    return {
        "k": a.k,
        "reports": [
            {"x": r.x, "count": r.count, "ratio": r.ratio}
            | ({"witnesses": list(r.witnesses)} if r.witnesses is not None else {})
            for r in reports
        ],
    }


def _count_text(r):
    lines = []
    for rep in r["reports"]:
        line = f"#A_{r['k']}({rep['x']}) = {rep['count']} (ratio {rep['ratio']:.6g})"
        if "witnesses" in rep:
            line += f"; witnesses {rep['witnesses']}"
        lines.append(line)
    return "\n".join(lines)


def _scan_b(a, cache):
    rows, unknown = oracle.scan_B(a.limit, a.checkpoints, cache, a.threads)
    return {
        "rows": [
            {"x": r.x, "count": r.count, "ratio": r.ratio, "ratio_logx": r.count * math.log(r.x) / r.x} for r in rows
        ],
        "unknown": unknown,
    }


def _scan_b_text(r):
    return "\n".join(
        f"#B({row['x']}) = {row['count']} (ratio {row['ratio']:.6g}, ratio*log(x) {row['ratio_logx']:.6g})"
        for row in r["rows"]
    )


def _ellsum(a, cache):
    total = oracle.partial_ell_sum(a.limit, cache)
    return {"limit": a.limit, "sum": total, "float_value": float(total)}


def _nonmult(a, cache):
    gens = lk_generators(a.k, a.pbound, cache)
    measured = oracle.nonmultiple_density(gens, a.limit)
    bound = heilbronn_lower_bound(gens)
    return {
        "k": a.k,
        "pbound": a.pbound,
        "limit": a.limit,
        "generators": len(gens.elements()),
        "density": measured,
        "density_float": float(measured),
        "heilbronn": bound,
        "heilbronn_float": float(bound),
    }


def _witnesses(a, cache):
    first = islice(oracle.iter_Ak(a.k, a.limit, seq=cache.seq), a.max)
    return {"k": a.k, "limit": a.limit, "witnesses": list(first)}


_COMMANDS = {
    "rank": _Command(
        "rank of appearance z(M) and ell(M)",
        (("m", {"type": _positive}),),
        lambda a, cache: asdict(lucas_rank(cache.seq, a.m, cache)),
        lambda r: f"z({r['m']}) = {r['z']}, ell({r['m']}) = {r['ell']}",
        ("m", "z", "ell"),
    ),
    "ell": _Command(
        "ell(M) = lcm(M, z(M))",
        (("m", {"type": _positive}),),
        lambda a, cache: {"m": a.m, "ell": lucas_rank(cache.seq, a.m, cache).ell},
        lambda r: f"ell({r['m']}) = {r['ell']}",
        ("m", "ell"),
    ),
    "member": _Command(
        "decide whether A_K is nonempty",
        (_K,),
        _member,
        lambda r: (
            f"k = {r['k']}: member = {'yes' if r['member'] else 'no'} (ell = {r['ell']}, gcd = {r['gcd']})"
        ),
        ("k", "ell", "gcd", "member"),
    ),
    "density": _series_command("truncated density series of A_K", density_series),
    "density-b": _series_command("truncated density series of B_K (d coprime to K)", density_bk_series),
    "iecheck": _Command(
        "inclusion-exclusion identity check on aligned support",
        (_K, _DEPTH),
        _iecheck,
        lambda r: (
            f"k = {r['k']}: lhs = {r['lhs']}, rhs = {r['rhs']}, "
            f"gap = {r['gap']} ({'exactly zero' if r['exact_zero'] else 'NONZERO'})"
        ),
        ("k", "depth", "lhs", "rhs", "gap"),
    ),
    "count": _Command(
        "#A_K(x) by direct enumeration",
        (
            _K,
            _LIMIT,
            _CHECKPOINTS,
            ("--witnesses", {"type": _nonnegative, "default": 0, "help": "include the first W witnesses"}),
        ),
        _count,
        _count_text,
        ("k", "x", "count", "ratio"),
        csv_rows=lambda r: [{"k": r["k"], **rep} for rep in r["reports"]],
        quiet=("witnesses",),
    ),
    "verify-structure": _Command(
        "check A_K = ell(K) * nonmultiples(L_K)",
        (_K, _LIMIT),
        lambda a, cache: {
            "k": a.k, "limit": a.limit, "verified": oracle.verify_structure(a.k, a.limit, cache)
        },
        lambda r: (
            f"k = {r['k']}: structural decomposition {'verified' if r['verified'] else 'FAILED'} up to {r['limit']}"
        ),
        ("k", "limit", "verified"),
    ),
    "scan-b": _Command(
        "#B(x) = #{k <= x : A_k nonempty}",
        (_LIMIT, _CHECKPOINTS),
        _scan_b,
        _scan_b_text,
        ("x", "count", "ratio", "ratio_logx"),
    ),
    "lowrank": _Command(
        "primes with z(p) <= p^gamma",
        (("--gamma", {"type": _gamma, "required": True, "metavar": "A/Q"}), _LIMIT, _CHECKPOINTS),
        lambda a, cache: {
            "rows": [asdict(r) for r in oracle.scan_low_rank_primes(a.gamma, a.limit, a.checkpoints, cache)]
        },
        lambda r: "\n".join(
            f"#Q({row['x']}) = {row['count']} (count/x^(2 gamma) = {row['ratio']:.6g})" for row in r["rows"]
        ),
        ("x", "count", "ratio"),
    ),
    "ellsum": _Command(
        "partial sum of 1/ell(n)",
        (_LIMIT,),
        _ellsum,
        lambda r: f"sum 1/ell(n), n <= {r['limit']}: {r['sum']} ~ {r['float_value']:.15g}",
        ("limit", "sum"),
    ),
    "nonmult": _Command(
        "density of nonmultiples of L_K vs Heilbronn bound",
        (_K, ("--pbound", {"type": _positive, "required": True}), _LIMIT),
        _nonmult,
        lambda r: (
            f"k = {r['k']}: measured density {r['density_float']:.6g}, "
            f"Heilbronn bound {r['heilbronn_float']:.6g} "
            f"({r['generators']} distinct generators, p <= {r['pbound']})"
        ),
        ("k", "pbound", "limit", "density", "heilbronn"),
        warnings=(HEILBRONN_WARNING,),
    ),
    "witnesses": _Command(
        "first elements of A_K",
        (
            _K,
            ("--max", {"type": _positive, "default": 10, "metavar": "MAX_WITNESSES"}),
            ("--limit", {"type": _positive, "default": 10**6}),
        ),
        _witnesses,
        lambda r: f"A_{r['k']} up to {r['limit']}: {r['witnesses']}",
        ("k", "n"),
        csv_rows=lambda r: [{"k": r["k"], "n": n} for n in r["witnesses"]],
    ),
}


# validated only: count scans in the calling process plus one forked worker
# per other CPU of its affinity mask whatever the value, and each process
# runs in one thread
_THREADS_HELP = "validated (>= 0), otherwise ignored: every job runs in one thread (default: FIBRANK_THREADS or 1)"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a1", type=int, default=1, help="Lucas coefficient a1 (default 1)")
    common.add_argument("--a2", type=int, default=1, help="Lucas coefficient a2 (default 1)")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")
    fmt.add_argument("--text", dest="fmt", action="store_const", const="text")
    common.set_defaults(fmt="text")
    common.add_argument(
        "--threads",
        type=_nonnegative,
        default=os.environ.get("FIBRANK_THREADS") or "1",
        help=_THREADS_HELP,
    )
    common.add_argument("--seed", type=int, default=None, help="accepted and ignored; no randomness affects results")

    parser = argparse.ArgumentParser(prog="fibrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for arg, options in command.args:
            p.add_argument(arg, **options)
    return parser


def _dispatch(args):
    """Run one subcommand.  Returns (params, result)."""
    command = _COMMANDS[args.command]
    seq = LucasParams(args.a1, args.a2)
    if getattr(args, "checkpoints", None):
        args.checkpoints = sorted(set(args.checkpoints))
    params = {"a1": seq.a1, "a2": seq.a2}
    for name, _ in command.args:
        key = name.lstrip("-")
        if key not in command.quiet and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return params, command.run(args, default_cache(seq))


def _csv_cell(value) -> str:
    return format(float(value), ".15g") if isinstance(value, (Fraction, float)) else str(value)


def _emit(cmd, params, result, fmt):
    """Print a result as the spec of cmd says: exact fractions become "n/d"
    in JSON and text, and fractions and floats become 15 significant digits
    in CSV."""
    command = _COMMANDS[cmd]
    if fmt == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": cmd,
            "params": params,
            "result": result,
            "warnings": command.warnings,
        }
        # Fraction is the only type in a record that JSON lacks
        print(json.dumps(record, separators=(",", ":"), default=_frac_str))
        return
    for w in command.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if fmt == "csv":
        rows = command.csv_rows(result) if command.csv_rows else result.get("rows", [result])
        print(f"# fibrank schema_version={SCHEMA_VERSION} command={cmd}")
        print(",".join(command.csv))
        for row in rows:
            print(",".join(_csv_cell(row[h]) for h in command.csv))
        return
    print(command.text({k: _frac_str(v) if isinstance(v, Fraction) else v for k, v in result.items()}))


def main(argv=None) -> int:
    # an integer argument past CPython's default int-to-str conversion guard
    # must parse and reach the range checks (exit 4), whose messages echo it;
    # the guard is lifted for this call only
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    guard = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(guard)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params, result = _dispatch(args)
    except (RankUndefinedError, NonMemberError) as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 3
    except OutOfRangeError as exc:
        print(f"error: out-of-range: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    _emit(args.command, params, result, args.fmt)
    return 0


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
