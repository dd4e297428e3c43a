"""scripts/bench_pairs.py's statistics, on canned bench/run.py outputs:
BENCH_16.json's recorded runs must give back its recorded metrics."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH_16 = json.loads((ROOT / "BENCH_16.json").read_text())
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.mark.parametrize("workload", sorted(BENCH_16["workloads"]))
def test_summary_reproduces_bench_16(workload):
    entry = BENCH_16["workloads"][workload]
    assert bench_pairs.summarize(entry["runs"], END_TO_END) == entry["metrics"]
    assert [r["first"] for r in entry["runs"]] == [bench_pairs.first_side(k + 1) for k in range(entry["pairs"])]


def test_claim_line_reproduces_bench_16():
    runs = BENCH_16["workloads"]["scan-q8z22"]["runs"]
    assert bench_pairs.claim_line("scan-q8z22", runs, "subsets_per_s", "higher", "subsets/s") == BENCH_16["claim"]


def _result(**values):
    """A run.py result line with these metric values."""
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def test_parse_output_reads_the_last_line():
    stdout = "machine: nproc=2\nworkload scan-q8z22: seed=1\n" + json.dumps(_result(subsets_per_s=5.0)) + "\n"
    assert bench_pairs.metric_values(bench_pairs.parse_output(stdout)) == {"subsets_per_s": 5.0}


def test_bounds_and_unresolved():
    """A lower-is-better metric 10 % worse is within a 25 % bound and not
    within a 5 % one; a parent whose quartiles spread 40 % of its median
    is unresolved at a 25 % bound."""
    runs = [{"parent": {"m": p}, "new": {"m": c}} for p, c in [(10, 11), (10, 11), (10, 11), (10, 9)]]
    wide = bench_pairs.summarize_metric(runs, "m", "lower", 0.25)
    assert (wide["change_over_parent"], wide["change_better_in_pairs"]) == (1.1, 1)
    assert wide["within_bound"] and not wide["unresolved"]
    assert not bench_pairs.summarize_metric(runs, "m", "lower", 0.05)["within_bound"]
    assert bench_pairs.summarize_metric(runs, "m", "higher", 0.05)["change_better_in_pairs"] == 3
    noisy = [{"parent": {"m": p}, "new": {"m": 10}} for p in (6, 8, 10, 12, 14)]
    entry = bench_pairs.summarize_metric(noisy, "m", "higher", 0.25)
    assert entry["parent"] == {"median": 10, "q1": 8, "q3": 12}
    assert entry["unresolved"] and entry["within_bound"]
