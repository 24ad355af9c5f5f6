"""Size caps and worker counts: every size input that sizes an allocation
fails fast above its cap, and no thread count ever starts a thread."""

import threading
from fractions import Fraction

import pytest

from fibrank import (
    GeneratorSet,
    OutOfRangeError,
    count_many,
    density_bk_series,
    density_series,
    inclusion_exclusion_check,
    lk_generators,
    nonmultiple_density,
    partial_ell_sum,
    scan_B,
    scan_low_rank_primes,
)
from fibrank import arith, density, oracle
from fibrank.cli import main


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


class TestWorkers:
    """threads is validated (negative is a ValueError) and otherwise ignored:
    whatever its value, the work runs in the calling thread."""

    @pytest.fixture
    def no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_count_clamped_to_cpus(self, no_threads):
        assert count_many(None, 3000, threads=10**5) == count_many(None, 3000, threads=1)

    def test_series_clamped_to_cpus(self, no_threads):
        assert density_series(2, 2000, threads=10**5) == density_series(2, 2000, threads=1)

    def test_scan_b_clamped_to_spans(self, no_threads):
        assert scan_B(300, [100, 200, 300], threads=10**5) == scan_B(300, [100, 200, 300], threads=1)

    def test_zero_means_one_per_cpu(self, no_threads):
        assert count_many(None, 3000, threads=0) == count_many(None, 3000, threads=1)

    def test_cli_threads_clamped(self, no_threads, capsys):
        assert main(["count", "1", "--limit", "5000", "--threads", "100000"]) == 0

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
