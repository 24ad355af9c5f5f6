"""Harness tests: tracing must not change a single result byte.

    python3 -m pytest perfbench/test_harness.py -q

Each workload runs once untraced, writing its per-operation digests, and
once traced, reading them back; any differing digest is a failed
operation.  The runs are short: about half a minute in all.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def _run(*args) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["density", "census", "queries"])
def test_digests_identical_with_tracing_on_and_off(workload, tmp_path):
    digests = tmp_path / "untraced.json"
    untraced = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--digests-out", str(digests))
    traced = _run("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1", "--digests-in", str(digests))
    for result in (untraced, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads(digests.read_text())["digests"]
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_self_time_excludes_children_and_results_pass_through():
    tracer = tracing.Tracer()

    def inner(x):
        time.sleep(0.02)
        return x + 1

    inner_t = tracer.wrap("inner", inner)

    def outer(x):
        time.sleep(0.01)
        return inner_t(x) * 2

    outer_t = tracer.wrap("outer", outer)
    assert outer_t(1) == 4
    sums = tracer.summary()["sums"]
    assert sums["outer.calls"] == sums["inner.calls"] == 1
    assert sums["outer.s"] >= sums["inner.s"] >= 0.02
    assert sums["outer.self_s"] == pytest.approx(sums["outer.s"] - sums["inner.s"])
    assert sums["inner.self_s"] == sums["inner.s"]
    assert sums["trace.spans"] == 2
