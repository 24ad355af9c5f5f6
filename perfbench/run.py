"""fibrank benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload density|census|queries --seed N \
        --seconds S --trace 0|1 [--digests-out FILE] [--digests-in FILE]

Run from the root of a source checkout; the package is imported from src/.

--trace 0 measures set-up time (fresh interpreters importing fibrank.cli),
then runs the workload's operation cycle back to back until operations
have been busy for S seconds, and reports every end-to-end metric named in
BENCHMARK.json.  Times are scaled to a reference host speed measured by a
calibration loop during the run (perfbench/hostspeed.py); each report line
also gives the value as measured.  The latency of an operation is the
median over its repeats in the run, and the latency percentiles are taken
over the operations of the cycle.

--trace 1 first runs the workload untraced for S/2 seconds in a child
process, then replays the same operations with spans recorded around the
calls into each fibrank module (perfbench/tracing.py), and reports the
per-layer metrics and the tracing overhead.

Every operation's result is checked independently (perfbench/numtheory.py)
and by digest: against perfbench/reference/<workload>.json, recorded at the
seed commit, when the seed matches it; against --digests-in, a file written
by --digests-out on another commit; against the untraced child of a traced
run; and against the same operation earlier in the run.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from workloads import HERE, NPROC, ROOT, SRC, WORKLOADS, child_env

SETUP_SAMPLES = 15
IMPORT_CODE = "import time\nt = time.perf_counter()\nimport fibrank.cli\nprint(time.perf_counter() - t)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--digests-out", type=Path, help="write the result digests of one pass over the cycle")
    p.add_argument("--digests-in", type=Path, help="fail operations whose digest differs from this file's")
    return p.parse_args(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def op_latencies(latencies, cycle: int) -> list[float]:
    """Sorted latency of each operation of the cycle: the median of its repeats."""
    return sorted(statistics.median(latencies[j::cycle]) for j in range(min(cycle, len(latencies))))


def measure_setup(host: HostSpeed) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import fibrank.cli: (as measured, scaled)."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        host.sample()
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, check=True)
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * host.scale())
    return raw, scaled


class Run:
    """Operations run so far, judged as they complete."""

    def __init__(self, workload, ops, expected: dict[str, list[str]]):
        self.workload, self.ops, self.expected = workload, ops, expected
        self.host = HostSpeed()
        # one float32 per operation: the benchmark's memory should not grow
        # with the program's speed, because peak_rss_mb counts it
        self.latencies = array("f")  # seconds as measured
        self.scaled = array("f")  # seconds at the reference host speed
        self.work = 0
        self.output_bytes = 0
        self.traces = []
        self.first: list[str] = []  # digests of the first pass over the cycle
        self.bad_ops: set[int] = set()
        self.failed = 0
        self.messages: list[str] = []

    def step(self, traced: bool):
        i = len(self.latencies)
        j = i % len(self.ops)
        op = self.ops[j]
        self.host.maybe_sample()
        out = self.workload.run(op, traced)
        self.latencies.append(out.latency)
        self.scaled.append(out.latency * self.host.scale())
        self.work += op.work
        self.output_bytes += len(out.output)
        if out.trace is not None:
            self.traces.append(out.trace)
        d = digest(out.output)
        if j == len(self.first):
            self.first.append(d)
            try:
                errors = self.workload.check(op, out)
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                errors = [f"malformed result: {exc!r}"]
            if errors:
                self.bad_ops.add(j)
        elif d != self.first[j]:
            errors = ["result differs from the same operation earlier in this run"]
        else:
            errors = ["repeat of a failed operation"] if j in self.bad_ops else []
        errors += [f"digest differs from {name}" for name, ref in self.expected.items() if j < len(ref) and ref[j] != d]
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {i} {' '.join(map(str, op.spec))}: {'; '.join(errors)}")

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_busy_s(self) -> float:
        return sum(self.scaled)


def run_ops(run: Run, *, seconds=None, count=None, traced=False) -> Run:
    """Closed loop: the next operation starts when the previous one ends.

    Stops after count operations, or once operations have been busy for
    seconds; time spent checking results is not counted.
    """
    busy = 0.0
    while True:
        n = len(run.latencies)
        done = n >= count if count is not None else n > 0 and busy >= seconds
        if done:
            return run
        run.step(traced)
        busy += run.latencies[-1]


def load_digests(path: Path, workload: str, seed: int) -> list[str]:
    data = json.loads(path.read_text())
    if data["workload"] != workload or data["seed"] != seed:
        raise SystemExit(f"{path} holds digests of {data['workload']} seed {data['seed']}")
    return data["digests"]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def environment(seed) -> str:
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (f"nproc={NPROC} python={platform.python_version()} commit={commit} "
            f"src_sha256={source.hexdigest()[:16]} seed={seed}")


def untraced_reference(args, seconds) -> dict:
    """Run the workload untraced in a child process; return its digests file."""
    # the benchmark writes only inside its checkout
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "untraced.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0", "--digests-out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"untraced reference run failed:\n{proc.stderr}")
        return json.loads(out.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fibrank" / "__init__.py").is_file():
        print(f"error: no fibrank package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)  # the CLI prints fractions with tens of thousands of digits
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = WORKLOADS[args.workload]()
    if workload.pin_cpu:
        # One CPU for this process, its calibration and its job processes.  A
        # neighbour can slow one CPU of a shared host and not the other, and
        # the calibration must see the CPU the operations run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = workload.make_ops(random.Random(args.seed))
    expected = {}
    reference = HERE / "reference" / f"{args.workload}.json"
    if reference.is_file() and json.loads(reference.read_text())["seed"] == args.seed:
        expected["the seed-commit reference"] = load_digests(reference, args.workload, args.seed)
    if args.digests_in:
        expected[str(args.digests_in)] = load_digests(args.digests_in, args.workload, args.seed)

    run = Run(workload, ops, expected)
    try:
        return measure(args, spec, workload, run)
    finally:
        run.host.close()


def measure(args, spec, workload, run) -> int:
    expected = run.expected
    notes: dict[str, str] = {}
    if args.trace:
        import tracing

        untraced = untraced_reference(args, args.seconds / 2)
        expected["the untraced run"] = untraced["digests"]
        tracer = tracing.install() if workload.in_process else None
        run_ops(run, count=untraced["ops"], traced=True)
        n = len(run.latencies)
        values = tracing.layer_metrics(tracer.summary() if tracer else tracing.merge(run.traces), n)
        # only the CLI jobs, which run in child processes, print output
        values["cli.output_bytes"] = 0.0 if workload.in_process else run.output_bytes / n
        values["trace.overhead_ratio"] = run.scaled_busy_s / untraced["scaled_busy_s"]
        notes["trace.overhead_ratio"] = (
            f"traced {run.scaled_busy_s:.3f} s vs untraced {untraced['scaled_busy_s']:.3f} s at reference host speed"
        )
        metric_specs = spec["per_layer"]
    else:
        setup_raw, setup = measure_setup(run.host)
        run_ops(run, seconds=args.seconds)
        rss = peak_rss_mb(workload)  # before the latencies are copied
        n = len(run.latencies)
        # an operation's latency is the median of its repeats, so that a
        # preempted repeat does not set the tail
        scaled, raw = op_latencies(run.scaled, len(run.ops)), op_latencies(run.latencies, len(run.ops))
        values = {
            "setup_s": statistics.median(setup),
            "throughput_per_s": run.work / run.scaled_busy_s,
            "latency_p50_ms": 1000 * percentile(scaled, 0.50),
            "latency_p99_ms": 1000 * percentile(scaled, 0.99),
            "peak_rss_mb": rss,
        }
        samples = f"{len(scaled)} operations, {n / len(scaled):.3g} repeats each"
        few = "" if len(scaled) >= 1000 else ", under 1000: near the slowest operation"
        notes = {
            "setup_s": f"median of {len(setup)} fresh imports of fibrank.cli; {statistics.median(setup_raw):.6g} as measured",
            "throughput_per_s": f"{workload.unit}; {run.work / run.busy_s:.6g} as measured",
            "latency_p50_ms": f"{samples}; {1000 * percentile(raw, 0.50):.6g} as measured",
            "latency_p99_ms": f"{samples}{few}; {1000 * percentile(raw, 0.99):.6g} as measured",
            "peak_rss_mb": "this process" if workload.in_process else "largest job process",
        }
        metric_specs = spec["end_to_end"]

    if args.digests_out:
        args.digests_out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "ops": n,
                                                "scaled_busy_s": run.scaled_busy_s, "digests": run.first},
                                               indent=0) + "\n")

    attempted, failed = n, run.failed
    print(f"perfbench {args.workload} trace={args.trace} {environment(args.seed)}")
    print(f"  digests checked against: {', '.join(expected) or 'independent checks only'}")
    speeds = run.host.samples
    print(f"  host calibration: {len(speeds)} samples, median {statistics.median(speeds) * 1000:.4g} ms, "
          f"reference {REFERENCE_S * 1000:.4g} ms; times below are scaled to the reference unless marked")
    for m in metric_specs:
        print(f"  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']:<8} {notes.get(m['name'], '')}")
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} {'ratio':<8} {failed} of {attempted} operations")
    for msg in run.messages:
        print(f"  FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
