"""Checks on the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q perfbench
"""

import csv
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

# work counts that a traced run must reproduce exactly on the same seed
EXACT_COUNTERS = (
    "online.breakpoints_built",
    "core.breakpoints_kept_frac",
    "core.first_service_time_calls",
    "offline.dp_cells",
    "offline.dp_repeat_frac",
    "offline.orders_evaluated",
    "adversary.probe_runs",
)


def _bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _printed(lines):
    """Metric lines ``name value unit`` of the human-readable output."""
    out = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 3:
            out[fields[0]] = fields[2]
    return out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counters_repeat_and_every_layer_metric_is_printed(workload):
    first, lines = _bench(workload, trace=1)
    second, _ = _bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    for name in EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    printed = _printed(lines)
    for metric in BENCHMARK["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_untraced_run_prints_every_end_to_end_metric():
    result, lines = _bench("dp-oracle", trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    printed = _printed(lines)
    assert printed["failed_frac"] == "ratio"
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert printed[metric["name"]] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_self_times_of_a_unit_add_up_to_its_span():
    _bench("release-game", trace=1)
    with open(ROOT / ".perfbench_out" / "spans-release-game.tsv") as fh:
        spans = list(csv.DictReader(fh, delimiter="\t"))
    duration = {int(s["id"]): float(s["end"]) - float(s["start"]) for s in spans}
    own = dict(duration)
    for s in spans:
        if int(s["parent"]) >= 0:
            own[int(s["parent"])] -= duration[int(s["id"])]
    total, unit_span = defaultdict(float), {}
    for s in spans:
        unit = int(s["unit"])
        if unit < 0:
            continue
        total[unit] += own[int(s["id"])]
        if s["name"] == "bench.unit":
            unit_span[unit] = duration[int(s["id"])]
    assert unit_span and set(unit_span) == set(total)
    for unit, span in unit_span.items():
        assert total[unit] == pytest.approx(span, rel=1e-9, abs=1e-12)
    names = {s["name"] for s in spans}
    assert {"adversary.play", "simulator.run", "online.on_arrivals", "offline.dp"} <= names


def test_a_raising_unit_counts_as_failed_and_the_run_goes_on(capsys):
    run.import_linetrp()
    from workloads import WORKLOADS

    workload = WORKLOADS["dp-oracle"]
    inputs = [inp for inp in workload.inputs(0) if inp.kind in ("brute-5", "brute-6")][:4]

    def flaky(payload):
        if payload == inputs[1].payload:
            raise ValueError("boom")
        return workload.run(payload)

    passes, _, failed, digests = run.timed_passes(workload, inputs, 0, flaky)
    assert len(passes) == max(run.MIN_PASSES, -(-run.MIN_UNITS // len(inputs)))
    assert failed == len(passes)
    assert len(set(digests)) == 1
    assert "ValueError: boom" in capsys.readouterr().err


def test_without_the_package_the_benchmark_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "digests.json").write_text((HERE / "digests.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cert-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
