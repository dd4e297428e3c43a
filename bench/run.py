#!/usr/bin/env python3
"""Benchmark of certified-verdict throughput for cayley_spectra.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.
With --trace 0 the run measures the end-to-end metrics; with --trace 1
it makes a separate single-process run with every layer entry point
wrapped (tracer.py) and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check
passed, 1 when one failed and 2 when the program cannot be found.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# set-up is timed in fresh interpreters, before and after the measured
# rounds, so that the samples see the machine at different moments
SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER = 5, 6

def machine_info() -> str:
    return (
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} platform={platform.platform()}"
    )


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def setup_samples(workload: str, k: int) -> list:
    """Set-up seconds of k fresh interpreters (import included), raw:
    a calibration loop timed right after a set-up does not follow it
    (README.md)."""
    samples = []
    for _ in range(k):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_rounds(wl, seconds: float, min_ops: int, single_process: bool = False):
    """Run whole rounds until `seconds` of operation time would be passed,
    but at least one round and min_ops operations.

    Returns (rounds run, [(op, output, raw seconds, seconds)]).  The
    calibration loop runs before the first operation and right after
    each one, on the same core in the same state.  An operation's
    seconds are its raw seconds scaled by the mean of the calibration
    times just before and after it (calibration.py), which takes out the
    machine's drift.
    """
    cal = wl.calibration
    done, results, busy, last = [], [], 0.0, 0.0
    after = calibration.seconds(cal)
    while not (done and busy + last > seconds and len(results) >= min_ops):
        ops = wl.round(len(done))
        if single_process:
            ops = [wl.single_process(op) for op in ops]
        start = busy
        for op in ops:
            t0 = time.perf_counter()
            out = wl.run(op)
            raw = time.perf_counter() - t0
            before, after = after, calibration.seconds(cal)
            dt = raw * cal.ref_s / ((before + after) / 2)
            results.append((op, out, raw, dt))
            busy += dt
        last = busy - start
        done.append(ops)
    return done, results


def tail_latency(times):
    """p99 where a run has at least ten samples beyond it, else the median."""
    if len(times) >= 1000:
        return "p99", statistics.quantiles(times, n=100)[98]
    return "median", statistics.median(times)


def check_all(wl, results):
    failed, problems = 0, []
    for op, out, *_ in results:
        found = wl.check(op, out)
        if found:
            failed += 1
            problems += found
    return failed, problems


def timed_run(wl, seconds: float):
    setups = setup_samples(wl.name, SETUP_SAMPLES_BEFORE)
    wl.setup()
    rounds, results = run_rounds(wl, seconds, wl.min_ops)
    setups += setup_samples(wl.name, SETUP_SAMPLES_AFTER)
    raw = sum(r for _, _, r, _ in results)
    times = [dt for _, _, _, dt in results]
    busy = sum(times)
    subsets = sum(wl.subsets(op, out) for op, out, _, _ in results)
    if wl.request_is_round:
        per_op = iter(times)
        times = [sum(next(per_op) for _ in ops) for ops in rounds]
    tail_name, tail = tail_latency(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "subsets_per_s": (subsets / busy, "subsets/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
    }
    notes = [f"{len(results)} operations, {subsets} subsets in {busy:.3f} s calibrated "
             f"({subsets / raw:.3f} subsets/s raw, in {raw:.3f} s); "
             f"{len(times)} latency samples, op_tail_ms is the {tail_name}"]
    failed, problems = check_all(wl, results)
    return len(results), failed, problems, metrics, notes


def traced_run(wl, seconds: float):
    from tracer import ENTRY_POINTS, Tracer

    wl.setup()
    # raw times: the traced run compares times within itself only
    rounds, plain = run_rounds(wl, seconds / 2, 1, single_process=True)
    plain_s = sum(raw for _, _, raw, _ in plain)
    efficiency = 0.0
    if wl.parallel_op is not None:
        t0 = time.perf_counter()
        out = wl.run(wl.parallel_op)
        two = time.perf_counter() - t0
        efficiency = statistics.median(raw for _, _, raw, _ in plain) / (2 * two)
        plain.append((wl.parallel_op, out, two, two))

    tracer = Tracer()
    tracer.install()
    build_cached = getattr(wl.catalog, "build_cached", None)
    if hasattr(build_cached, "cache_clear"):
        build_cached.cache_clear()
    t0 = time.perf_counter()
    tracer.call("setup", wl.setup)
    traced = []
    for ops in rounds:
        for op in ops:
            t1 = time.perf_counter()
            out = tracer.call(op.name, wl.run, op)
            traced.append((op, out, time.perf_counter() - t1))
            if op.name == "verdict":
                tracer.count("subsets_in", 1)
    wall_ns = (time.perf_counter() - t0) * 1e9
    tracer.uninstall()
    traced_s = sum(raw for _, _, raw in traced)

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{wl.name}-{wl.seed}.json")

    def share(ns: int) -> float:
        return 100.0 * ns / wall_ns

    # self times of every layer; find_witness's own loop is predicate
    # work, so these and trace.unattributed_pct sum to 100
    layers = dict.fromkeys(lay for _, _, lay in ENTRY_POINTS if lay != "search.witness_pass")
    selfs = {lay: tracer.ns(tracer.self_ns, lay) for lay in layers}
    selfs["search.predicate"] += tracer.ns(tracer.self_ns, "search.witness_pass")
    accounted = sum(selfs.values())
    counts = tracer.counts
    verdicts = max(counts.get("verdicts", 0), 1)
    metrics = {f"{lay}_pct": (share(ns), "%") for lay, ns in selfs.items()}
    metrics.update({
        "trace.unattributed_pct": (100.0 - share(accounted), "%"),
        "search.witness_pass_pct": (share(tracer.ns(tracer.total_ns, "search.witness_pass")), "%"),
        "suites.main_pct": (share(tracer.ns(tracer.total_ns, "suites.main")), "%"),
        "suites.cis_pct": (share(tracer.ns(tracer.total_ns, "suites.cis")), "%"),
        "suites.bounds_pct": (share(tracer.ns(tracer.total_ns, "suites.bounds")), "%"),
        "search.orbit_keep_ratio": (counts.get("verdicts", 0) / max(counts.get("subsets_in", 0), 1), "ratio"),
        "search.witness_pass_subsets": (counts.get("witness_subsets", 0) / len(rounds), "count"),
        "search.parallel_efficiency": (efficiency, "ratio"),
        "integrality.crt_primes_per_verdict": (counts.get("crt_prime_rows", 0) / verdicts, "count"),
        "intlinalg.divide_calls_per_verdict": (tracer.ns(tracer.calls, "intlinalg.divide") / verdicts, "count"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
        "trace.absent_entry_points": (len(tracer.absent), "count"),
    })
    notes = [f"traced {len(traced)} operations in {traced_s:.3f} s against {plain_s:.3f} s untraced"]
    notes += [f"absent entry point: {name}" for name in tracer.absent]
    if tracer.dropped:
        notes.append(f"{tracer.dropped} spans past the in-memory cap were aggregated only")
    per_round = len(rounds)
    for lay in sorted(selfs, key=selfs.get, reverse=True):
        notes.append(f"  {lay:<28} self {selfs[lay] / 1e9 / per_round:10.4f} s/round  {share(selfs[lay]):6.2f} %")
    failed, problems = check_all(wl, plain + traced)
    return len(plain) + len(traced), failed, problems, metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "cayley_spectra" / "__init__.py").is_file():
        print(f"error: no cayley_spectra package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else timed_run
    attempted, failed, problems, metrics, notes = run(wl, args.seconds)

    print(machine_info())
    print(f"workload {wl.name}: seed={args.seed} trace={args.trace} attempted={attempted} failed={failed}")
    for line in notes:
        print(line)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
