"""The committed ``BENCH_*.json`` files against ``BENCHMARK.json``.

Each file holds the last JSON line of every run of one A/B comparison of
``perfbench/run.py``, parent and change, with its seed and its place in
the pair order. Its metric names and units must be those of the
benchmark's end-to-end list, so that files from different changes compare.
Every run it holds must have succeeded, and every median in its summary
must follow from its runs.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_metrics_are_the_benchmarks(path):
    record = json.loads(path.read_text())
    assert record["workload"] in {w["name"] for w in SPEC["workloads"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    runs = record["runs"]
    assert {run["side"] for run in runs} == {"parent", "change"}
    for run in runs:
        assert isinstance(run["seed"], int) and isinstance(run["pair"], int)
        assert run["position"] in (1, 2)
        metrics = run["result"]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == units
        assert all(isinstance(m["value"], (int, float))
                   for m in metrics.values())
    # every pair has one parent run and one change run
    pairs = sorted((run["pair"], run["side"]) for run in runs)
    assert pairs == sorted((pair, side) for pair in {p for p, _ in pairs}
                           for side in ("parent", "change"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_runs_succeeded_and_summaries_follow_from_them(path):
    record = json.loads(path.read_text())
    for run in record["runs"]:
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    for batch, summary in record["summary"].items():
        runs = [run for run in record["runs"]
                if f"batch_{run['batch']}" == batch]
        for side in ("parent", "change"):
            side_runs = [run["result"] for run in runs if run["side"] == side]
            assert side_runs, (batch, side)
            for name in names:
                values = [r["metrics"][name]["value"] for r in side_runs]
                assert summary[name][side]["median"] == statistics.median(
                    values), (batch, side, name)
            if "jobs_median" in summary:
                assert summary["jobs_median"][side] == statistics.median(
                    r["attempted"] for r in side_runs), (batch, side)
