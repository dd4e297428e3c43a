#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent REV --change REV --pr N --seed S
        [--pairs 5] [--pairs-for WORKLOAD=N ...] [--claim WORKLOAD/METRIC]
        [--note TEXT ...]

Both revisions are extracted with `git archive` into a temporary
directory, so each side runs its own committed files and the working
tree is not read.  To measure uncommitted work, stage it and pass
`--change $(git stash create)`, which makes a commit object without
moving any ref.

Each pair runs `bench/run.py --workload W --seed S --seconds T --trace 0`
(BENCHMARK.json's command and run_seconds) once in each checkout, in a
fresh interpreter, with the same seed: odd pairs run the parent first,
even pairs the change first.  Every workload of BENCHMARK.json runs
--pairs pairs, or N for a workload named in --pairs-for.  Every pair takes the next unused seed, from
--seed up.  The file has BENCH_16.json's layout: per workload the seeds,
every run's end-to-end metrics, and per metric the median and inclusive
quartiles of each side, change_over_parent (ratio of medians),
change_better_in_pairs, within_bound (the change's median no worse than
the parent's by more than BENCHMARK.json's bound) and unresolved (the
parent's interquartile range is wider than the bound, so the pairs
cannot tell).  --claim adds the claim line for one metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = (
    "alternating pairs: odd pairs run the parent first, even pairs the change first; "
    "every run in a fresh interpreter from its own checkout; "
    "quartiles by statistics.quantiles(method='inclusive')"
)


# ---------------------------------------------------------------------------
# statistics (no subprocess: tested on canned outputs)
# ---------------------------------------------------------------------------


def first_side(pair: int) -> str:
    """Which side pair number `pair` (counted from 1) runs first."""
    return "parent" if pair % 2 else "change"


def parse_output(stdout: str) -> dict:
    """The last line of bench/run.py's standard output: its JSON result."""
    return json.loads(stdout.strip().splitlines()[-1])


def metric_values(result: dict) -> dict:
    """{metric: value} of one run.py result."""
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _better(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def spread(xs: list) -> dict:
    """Median and inclusive quartiles, rounded as in the BENCH files."""
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize_metric(runs: list, name: str, better: str, bound: float) -> dict:
    """One metric's entry over the pairs; runs hold "parent" and "new"
    metric dicts."""
    parent = [r["parent"][name] for r in runs]
    change = [r["new"][name] for r in runs]
    p, c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    ratio = c / p
    return {
        "better": better,
        "parent": spread(parent),
        "change": spread(change),
        "change_over_parent": round(ratio, 4),
        "change_better_in_pairs": sum(_better(y, x, better) for x, y in zip(parent, change)),
        "within_bound": ratio <= 1 + bound if better == "lower" else ratio >= 1 - bound,
        "bound": bound,
        "unresolved": (q3 - q1) / p > bound,
    }


def summarize(runs: list, end_to_end: list) -> dict:
    """{metric: entry} for every end-to-end metric of BENCHMARK.json."""
    return {m["name"]: summarize_metric(runs, m["name"], m["better"], m["bound"]) for m in end_to_end}


def _amount(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 100 else f"{x:.3g}"


def claim_line(workload: str, runs: list, name: str, better: str, unit: str) -> str:
    """The claim in BENCH_16.json's words: ratio of medians, pairs won,
    and the median gain against the parent's interquartile range."""
    entry = summarize_metric(runs, name, better, 0.0)
    p, c = entry["parent"], entry["change"]
    return (
        f"{workload} {name}: change median {entry['change_over_parent']:.2f}x the parent's, "
        f"change {better} in {entry['change_better_in_pairs']} of {len(runs)} pairs, "
        f"median gain {_amount(abs(c['median'] - p['median']))} {unit} against a parent "
        f"interquartile range of {_amount(p['q3'] - p['q1'])} {unit}"
    )


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def extract(rev: str, into: Path) -> str:
    """Write revision rev's committed files under `into`; its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    data = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return sha


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a check failed, still a result
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return parse_output(proc.stdout)


def machine() -> dict:
    import numpy

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    names = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return {
        "cpu": names[0] if names else platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="revision of the parent")
    ap.add_argument("--change", required=True, help="revision of the change")
    ap.add_argument("--pr", required=True, type=int, help="names the output BENCH_<pr>.json")
    ap.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=5, help="pairs per workload (default 5)")
    ap.add_argument("--pairs-for", action="append", default=[], metavar="WORKLOAD=N")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC")
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    pairs = {w: args.pairs for w in workloads}
    for item in args.pairs_for:
        name, _, count = item.partition("=")
        if name not in pairs:
            ap.error(f"--pairs-for names {name!r}, which is not among {workloads}")
        pairs[name] = int(count)
    if min(pairs.values()) < 2:
        ap.error("quartiles need at least 2 pairs per workload")
    if args.claim:
        claim_workload, _, claim_name = args.claim.partition("/")
        claimed = [m for m in spec["end_to_end"] if m["name"] == claim_name]
        if claim_workload not in pairs or not claimed:
            ap.error(f"--claim {args.claim!r} names no workload/end-to-end metric of BENCHMARK.json")
    seconds = spec["run_seconds"]
    command = [sys.executable] + spec["command"][1:]
    out = ROOT / f"BENCH_{args.pr}.json"

    doc = {
        "command": " ".join(spec["command"] + ["--workload", "W", "--seed", "S", "--seconds", f"{seconds:g}", "--trace", "0"]),
        "parent_commit": None,
        "machine": machine(),
        "protocol": PROTOCOL,
        "workloads": {},
    }
    seed = args.seed
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        doc["parent_commit"] = extract(args.parent, dirs["parent"])
        extract(args.change, dirs["change"])
        for workload in workloads:
            runs, failed, correct = [], {"parent": 0, "change": 0}, True
            for pair in range(1, pairs[workload] + 1):
                first = first_side(pair)
                order = (first, "change" if first == "parent" else "parent")
                got = {side: run_once(dirs[side], command, workload, seed, seconds) for side in order}
                for side, result in got.items():
                    failed[side] += result["failed"]
                    correct &= result["correct"]
                runs.append({
                    "seed": seed, "first": first,
                    "parent": metric_values(got["parent"]), "new": metric_values(got["change"]),
                })
                print(f"{workload} pair {pair} seed {seed}: parent {runs[-1]['parent']} "
                      f"change {runs[-1]['new']}", file=sys.stderr, flush=True)
                seed += 1
            doc["workloads"][workload] = {
                "seeds": [r["seed"] for r in runs],
                "pairs": len(runs),
                "all_correct": correct,
                "failed": failed,
                "metrics": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
    if args.claim:
        runs = doc["workloads"][claim_workload]["runs"]
        doc["claim"] = claim_line(claim_workload, runs, claim_name, claimed[0]["better"], claimed[0]["unit"])
    doc["notes"] = args.note
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
