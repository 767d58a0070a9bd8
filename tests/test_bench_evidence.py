"""Every committed perf claim carries its evidence: each ``BENCH_*.json`` at
the repository root parses and records how it was measured (the
``perfbench/run.py`` command, the machine, the parent commit and the change,
the run order and how quartiles were taken) and the measured workloads, with
parent and change medians for every end-to-end metric of ``BENCHMARK.json``."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EVIDENCE = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_evidence():
    assert EVIDENCE


@pytest.mark.parametrize("path", EVIDENCE, ids=lambda p: p.name)
def test_bench_file_records_how_it_was_measured(path):
    bench = json.loads(path.read_text())
    assert "perfbench/run.py" in bench["command"]
    for key in ("machine", "change", "order", "quartiles"):
        assert isinstance(bench[key], str) and bench[key].strip(), key
    # the parent is a commit; the change is described (or named) apart from it
    assert re.fullmatch(r"[0-9a-f]{7,40}", bench["parent"])
    assert bench["change"] != bench["parent"]


@pytest.mark.parametrize("path", EVIDENCE, ids=lambda p: p.name)
def test_bench_file_has_both_sides_of_every_end_to_end_metric(path):
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    runs = json.loads(path.read_text())["workloads"]
    assert isinstance(runs, list) and runs
    for run in runs:
        assert run["workload"] in workloads
        assert isinstance(run["seed"], int)
        assert isinstance(run["pairs"], int) and run["pairs"] > 0
        assert set(run["metrics"]) == metrics
        for name, metric in run["metrics"].items():
            for side in ("parent", "change"):
                median = metric[side]["median"]
                assert isinstance(median, (int, float)), (run["workload"], name, side)
