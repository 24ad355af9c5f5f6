"""CLI contract tests: exact payload shapes, formats, exit codes, and
thread-count independence of the emitted bytes."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from fibrank import cli, density_series
from fibrank.cli import _STR_BITS, _int_str, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def no_digit_guard():
    """Lift CPython's int-to-str digit guard (3.11+) so str() can be the reference."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def parse_by_halves(s: str) -> int:
    """int(s) for a canonical decimal string, by halves in int arithmetic:
    an exact reference that, unlike str() before 3.12, is not quadratic."""
    if len(s) <= 2000:
        return int(s)
    k = len(s) // 2
    return parse_by_halves(s[:-k]) * 10**k + parse_by_halves(s[-k:])


class TestIntStr:
    """_int_str renders every int by binary halves; it must equal str()."""

    def test_small(self, no_digit_guard):
        for n in (0, 1, -1, 9, -10, 2**64, -(2**64) + 1):
            assert _int_str(n) == str(n)

    # the leaf size and the first doublings, where the halves are split off
    @pytest.mark.parametrize("bits", [_STR_BITS << i for i in range(5)])
    def test_powers_of_ten_around_splits(self, bits, no_digit_guard):
        j0 = int(bits * math.log10(2))
        for j in range(j0 - 2, j0 + 3):
            for n in (10**j, 10**j - 1, 10**j + 1, -(10**j), 1 - 10**j):
                assert _int_str(n) == str(n), (j, n % 1000)
        for n in (2**bits - 1, 2**bits, 2**bits + 1, -(2**bits)):
            assert _int_str(n) == str(n), n.bit_length()

    def test_random_vs_str(self, no_digit_guard):
        rng = random.Random(1)
        for bits in (_STR_BITS - 1, _STR_BITS, _STR_BITS + 1, 3 * _STR_BITS + 7, 40_000, 150_001):
            for sign in (1, -1):
                n = sign * rng.getrandbits(bits)
                assert _int_str(n) == str(n), bits

    def test_random_up_to_two_million_bits(self):
        # str() of a 2M-bit int takes seconds before 3.12; parse the output back instead
        rng = random.Random(2)
        for bits in (300_000, 1_000_003, 2_000_000):
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            s = _int_str(-n)
            assert s[0] == "-" and s[1] != "0" and s[1:].isdigit()
            assert parse_by_halves(s[1:]) == n, bits


class TestTextOutput:
    def test_rank_example(self, capsys):
        code, out, _ = run(capsys, "rank", "10")
        assert code == 0
        assert out == "z(10) = 15, ell(10) = 30\n"

    def test_ell(self, capsys):
        code, out, _ = run(capsys, "ell", "7")
        assert code == 0 and out == "ell(7) = 56\n"

    def test_warnings_go_to_stderr(self, capsys):
        code, out, err = run(capsys, "density", "1", "--depth", "10")
        assert code == 0
        assert "tail estimate is heuristic" in err
        assert "tail estimate" not in out


class TestJsonOutput:
    def test_member_payload_exact(self, capsys):
        code, out, _ = run(capsys, "member", "3", "--json")
        assert code == 0
        assert '"result":{"k":3,"ell":12,"gcd":12,"member":false}' in out.strip()
        record = json.loads(out)
        assert record["schema_version"] == "1"
        assert record["command"] == "member"
        assert record["params"] == {"a1": 1, "a2": 1, "k": 3}
        assert record["warnings"] == []

    def test_density_payload_fields(self, capsys):
        record = run_json(capsys, "density", "1", "--depth", "100")
        result = record["result"]
        assert set(result) == {"k", "depth", "partial_sum", "float_value", "tail_window", "tail_window_float"}
        num, den = map(int, result["partial_sum"].split("/"))
        assert abs(num / den - result["float_value"]) < 1e-12
        assert record["warnings"] == ["tail estimate is heuristic"]

    def test_density_huge_exact_rational_renders(self, capsys):
        # deep truncations produce rationals far beyond the default
        # int-to-str conversion guard; the CLI must still emit them
        record = run_json(capsys, "density", "3", "--depth", "20000")
        text = record["result"]["partial_sum"]
        assert "/" in text and len(text) > 4300
        assert abs(record["result"]["float_value"]) < 0.01

    def test_fraction_past_str_bits_renders_like_str(self, capsys, no_digit_guard):
        record = run_json(capsys, "density", "1", "--depth", "2000")
        s = density_series(1, 2000)
        assert s.tail_window.denominator.bit_length() > _STR_BITS
        for key, value in (("partial_sum", s.partial_sum), ("tail_window", s.tail_window)):
            assert record["result"][key] == f"{value.numerator}/{value.denominator}", key

    def test_iecheck_gap_field(self, capsys):
        record = run_json(capsys, "iecheck", "12", "--depth", "200")
        assert record["result"]["gap"] == "0/1"
        assert record["result"]["exact_zero"] is True

    def test_count_with_witnesses(self, capsys):
        record = run_json(capsys, "count", "5", "--limit", "30", "--witnesses", "10")
        assert record["result"]["reports"][0]["count"] == 4
        assert record["result"]["reports"][0]["witnesses"] == [5, 10, 15, 20]

    def test_scan_b_rows(self, capsys):
        record = run_json(capsys, "scan-b", "--limit", "100", "--checkpoints", "10", "100")
        rows = record["result"]["rows"]
        assert [r["x"] for r in rows] == [10, 100]
        assert [r["count"] for r in rows] == [5, 37]

    def test_witnesses_cmd(self, capsys):
        record = run_json(capsys, "witnesses", "7", "--max", "2", "--limit", "200")
        assert record["result"]["witnesses"] == [56, 112]

    def test_ellsum(self, capsys):
        record = run_json(capsys, "ellsum", "--limit", "3")
        assert record["result"]["sum"] == "5/4"

    def test_nonmult(self, capsys):
        record = run_json(capsys, "nonmult", "1", "--pbound", "7", "--limit", "1000")
        assert record["result"]["heilbronn"] == "605/1008"
        assert record["warnings"] == ["lower bound certified only in the limit p_bound -> infinity"]

    def test_lowrank(self, capsys):
        record = run_json(capsys, "lowrank", "--gamma", "1/3", "--limit", "1000")
        assert record["result"]["rows"][0]["count"] == 0

    def test_verify_structure(self, capsys):
        record = run_json(capsys, "verify-structure", "2", "--limit", "5000")
        assert record["result"]["verified"] is True


class TestCsvOutput:
    def test_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "count", "5", "--limit", "30", "--checkpoints", "10", "30", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# fibrank schema_version=1 command=count"
        assert lines[1] == "k,x,count,ratio"
        assert lines[2].startswith("5,10,2,")
        assert lines[3].startswith("5,30,4,")

    def test_float_rendering(self, capsys):
        code, out, _ = run(capsys, "density", "2", "--depth", "50", "--csv")
        value = out.strip().splitlines()[-1].split(",")[2]
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) <= 15


class TestLucasFlags:
    def test_explicit_fibonacci_matches_default(self, capsys):
        for argv in (["rank", "10"], ["member", "7"], ["density", "2", "--depth", "50"], ["ellsum", "--limit", "20"]):
            _, default_out, _ = run(capsys, *argv, "--json")
            _, explicit_out, _ = run(capsys, *argv, "--a1", "1", "--a2", "1", "--json")
            assert default_out == explicit_out, argv

    def test_pell_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "10", "--a1", "2", "--a2", "1")
        assert code == 0 and out == "z(10) = 6, ell(10) = 30\n"

    def test_pell_member(self, capsys):
        record = run_json(capsys, "member", "2", "--a1", "2", "--a2", "1")
        assert record["result"]["member"] is True
        assert record["params"]["a1"] == 2


class TestExitCodes:
    def test_usage_error_missing_arg(self, capsys):
        code, _, _ = run(capsys, "rank")
        assert code == 2

    def test_usage_error_bad_value(self, capsys):
        code, _, _ = run(capsys, "rank", "0")
        assert code == 2

    def test_usage_error_bad_gamma(self, capsys):
        assert run(capsys, "lowrank", "--gamma", "3/2", "--limit", "10")[0] == 2
        assert run(capsys, "lowrank", "--gamma", "x", "--limit", "10")[0] == 2

    def test_usage_error_degenerate_lucas(self, capsys):
        code, _, err = run(capsys, "rank", "3", "--a1", "1", "--a2", "-1")
        assert code == 2
        assert err.startswith("error: usage:")

    def test_domain_error_rank_undefined(self, capsys):
        code, _, err = run(capsys, "rank", "3", "--a1", "1", "--a2", "-3")
        assert code == 3
        assert err.startswith("error: domain:")

    def test_domain_error_nonmember(self, capsys):
        code, _, err = run(capsys, "verify-structure", "3", "--limit", "100")
        assert code == 3
        assert err.startswith("error: domain:")

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "member", str(2**63))
        assert code == 4
        assert err.startswith("error: out-of-range:")

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit guard")
class TestDigitGuard:
    """main lifts CPython's int-to-str digit guard for its own call only."""

    @pytest.fixture(params=[4300, 5000])
    def guard(self, request):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        try:
            yield request.param
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("rank", "10"), 0),
            (("--help",), 0),  # argparse's SystemExit(0)
            (("rank", "0"), 2),  # argparse's SystemExit(2)
            (("ellsum", "--limit", "-1"), 2),
            (("rank", "3", "--a1", "1", "--a2", "-3"), 3),
            (("member", str(2**63)), 4),
            (("rank", "9" * 5000), 4),  # parses only with the guard lifted
        ],
    )
    def test_restored_on_every_exit(self, capsys, guard, argv, code):
        assert run(capsys, *argv)[0] == code
        assert sys.get_int_max_str_digits() == guard

    def test_oversized_argument_is_echoed_whole(self, capsys, guard):
        code, _, err = run(capsys, "rank", "9" * 5000)
        assert code == 4 and "9" * 5000 in err

    def test_oversized_int_is_rendered_whole(self, capsys, guard):
        """A plain int reaches stdout through json.dumps, whose str(int) works
        past the guard only because main lifts it."""
        a1 = "1" + "0" * 4999 + "1"  # 10**5000 + 1, past either guard
        code, out, err = run(capsys, "rank", "5", "--a1", a1, "--a2", "1", "--json")
        assert code == 0, err
        assert f'"params":{{"a1":{a1},"a2":1,"m":5}}' in out
        assert sys.get_int_max_str_digits() == guard

    def test_restored_when_an_exception_escapes(self, guard, monkeypatch):
        def fail(args):
            raise RuntimeError("escapes main")

        monkeypatch.setattr(cli, "_dispatch", fail)
        with pytest.raises(RuntimeError, match="escapes main"):
            main(["rank", "10"])
        assert sys.get_int_max_str_digits() == guard


class TestEntry:
    """cli.entry, the console-script hook, exits with main's code and
    writes main's bytes."""

    @staticmethod
    def entry(*argv):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        code = "from fibrank.cli import entry; entry()"
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=60)

    def test_exit_code_and_bytes(self, capsys):
        proc = self.entry("rank", "10", "--json")
        code, out, _ = run(capsys, "rank", "10", "--json")
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()
        assert self.entry("rank", "0").returncode == 2


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, capsys):
        for argv in (
            ["density", "2", "--depth", "2000"],
            ["count", "1", "--limit", "20000", "--checkpoints", "7000", "20000"],
            ["scan-b", "--limit", "500"],
        ):
            _, one, _ = run(capsys, *argv, "--threads", "1", "--json")
            _, eight, _ = run(capsys, *argv, "--threads", "8", "--json")
            assert one == eight, argv

    def test_seed_is_ignored(self, capsys):
        _, a, _ = run(capsys, "density", "1", "--depth", "100", "--seed", "1", "--json")
        _, b, _ = run(capsys, "density", "1", "--depth", "100", "--seed", "999", "--json")
        assert a == b

    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("FIBRANK_THREADS", "4")
        _, with_env, _ = run(capsys, "density", "2", "--depth", "500", "--json")
        monkeypatch.delenv("FIBRANK_THREADS")
        _, without, _ = run(capsys, "density", "2", "--depth", "500", "--json")
        assert with_env == without

    def test_threads_zero_is_auto(self, capsys):
        code, out, _ = run(capsys, "rank", "10", "--threads", "0")
        assert code == 0 and "z(10)" in out


# one minimal valid invocation of every subcommand
_EVERY_SUBCOMMAND = [
    ["rank", "10"],
    ["ell", "7"],
    ["member", "3"],
    ["density", "1", "--depth", "10"],
    ["density-b", "1", "--depth", "10"],
    ["iecheck", "1", "--depth", "10"],
    ["count", "1", "--limit", "10"],
    ["verify-structure", "1", "--limit", "10"],
    ["scan-b", "--limit", "10"],
    ["lowrank", "--gamma", "1/2", "--limit", "10"],
    ["ellsum", "--limit", "10"],
    ["nonmult", "1", "--pbound", "5", "--limit", "10"],
    ["witnesses", "1", "--limit", "10"],
]


class TestThreadsEnv:
    """FIBRANK_THREADS is the default of --threads and is validated the same way."""

    def test_covers_every_subcommand(self):
        from fibrank.cli import _COMMANDS

        assert sorted(argv[0] for argv in _EVERY_SUBCOMMAND) == sorted(_COMMANDS)

    @pytest.mark.parametrize("value", ["-1", "abc"])
    @pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_invalid_env_is_usage_error(self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("FIBRANK_THREADS", value)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "argument --threads" in err

    @pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_flag_overrides_invalid_env(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("FIBRANK_THREADS", "-1")
        assert run(capsys, *argv, "--threads", "2")[0] == 0


class TestWitnessesScan:
    def test_stops_at_last_witness(self, capsys, gcd_calls):
        payload = run_json(capsys, "witnesses", "7", "--max", "5", "--limit", "1000000")
        witnesses = payload["result"]["witnesses"]
        assert len(witnesses) == 5
        assert gcd_calls == list(range(1, witnesses[-1] + 1))

    def test_limit_above_cap_is_out_of_range(self, capsys):
        code, out, err = run(capsys, "witnesses", "1", "--limit", "100000001")
        assert code == 4 and out == ""
        assert "error: out-of-range" in err
