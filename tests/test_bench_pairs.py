"""``tools/bench_pairs.py`` on canned ``perfbench/run.py`` output: the pairs
alternate with the parent first on even pairs, the summary's quartiles,
IQRs, wins and bounds are the ones worked out by hand, and the file it
writes passes the evidence checks every ``BENCH_*.json`` must pass.  No
subprocess is started."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import test_bench_evidence as evidence

BENCHMARK = evidence.BENCHMARK

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# units_per_s by pair: the change wins pairs 0, 1 and 3, and ties pair 2
PARENT_UPS = [100.0, 104.0, 101.0, 99.0]
CHANGE_UPS = [110.0, 112.0, 101.0, 115.0]


def _stdout(units_per_s, correct=True, failed=0):
    """A run's stdout: report lines, then the JSON result on the last line."""
    values = {"setup_s": 0.05, "units_per_s": units_per_s, "unit_ms_p50": 1000 / units_per_s,
              "unit_ms_p90": 2.0, "peak_rss_mb": 23.0}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    result = {"correct": correct, "attempted": 300, "failed": failed,
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
    lines = [f"{name} {v!r} {units[name]}" for name, v in values.items()]
    return "workload dp-oracle seed 0: 300 units\n" + "\n".join(lines) + "\n" + json.dumps(result) + "\n"


def _canned(calls):
    """A runner that records each call and replays the next canned run of
    that side."""
    queues = {"parent": list(PARENT_UPS), "change": list(CHANGE_UPS)}

    def runner(tree, workload, seed):
        calls.append(tree)
        return _stdout(queues[tree].pop(0))

    return runner


@pytest.fixture
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", refuse)


def test_pairs_alternate_and_summarise(no_subprocess):
    calls = []
    results = bench_pairs.run_pairs("dp-oracle", 0, 4, ("parent", "change"), _canned(calls))
    assert calls == ["parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    entry = bench_pairs.summarise("dp-oracle", 0, results, BENCHMARK)
    assert (entry["pairs"], entry["all_correct"]) == (4, True)
    assert entry["attempted"] == {"parent": 1200, "change": 1200}
    ups = entry["metrics"]["units_per_s"]
    assert (ups["parent_runs"], ups["change_runs"]) == (PARENT_UPS, CHANGE_UPS)
    # inclusive quartiles of 99, 100, 101, 104 and of 101, 110, 112, 115
    assert (ups["parent"]["q1"], ups["parent"]["median"], ups["parent"]["q3"]) == (99.75, 100.5, 101.75)
    assert ups["parent"]["iqr"] == 2.0
    assert (ups["change"]["median"], ups["change"]["iqr"]) == (111.0, 112.75 - 107.75)
    assert (ups["wins"], ups["change_wins"]) == (3, "3/4")
    assert ups["median_change_rel"] == pytest.approx(10.5 / 100.5)
    assert ups["within_bound"] and ups["beyond_parent_iqr"] and ups["improved"]
    # lower is better for p50 (1000/units_per_s): the same three pairs win
    assert entry["metrics"]["unit_ms_p50"]["wins"] == 3
    assert entry["metrics"]["setup_s"]["wins"] == 0 and not entry["metrics"]["setup_s"]["beyond_parent_iqr"]
    # three wins in four pairs is short of nine in ten
    assert not bench_pairs.claim_met([entry], ("dp-oracle", "units_per_s"))
    entry["metrics"]["units_per_s"]["wins"] = 4
    assert bench_pairs.claim_met([entry], ("dp-oracle", "units_per_s"))
    assert not bench_pairs.claim_met([entry], ("cert-sweep", "units_per_s"))


def test_a_metric_past_its_bound_fails_the_claim():
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "units_per_s")
    worse = bench_pairs.compare([100.0, 100.0], [100.0 * (1 - 2 * bound)] * 2, "higher", bound)
    assert not worse["within_bound"] and worse["wins"] == 0
    assert bench_pairs.compare([10.0, 10.0], [10.0 * (1 + bound / 2)] * 2, "lower", bound)["within_bound"]


def test_the_written_file_passes_the_evidence_checks(no_subprocess, tmp_path):
    results = bench_pairs.run_pairs("dp-oracle", 0, 4, ("parent", "change"), _canned([]))
    entries = [bench_pairs.summarise("dp-oracle", 0, results, BENCHMARK)]
    args = SimpleNamespace(note="a canned change", claim=("dp-oracle", "units_per_s"))
    doc = bench_pairs.document(args, "f15d7aa", entries, "canned machine", BENCHMARK)
    assert doc["claim_met"] is False
    path = tmp_path / "BENCH_canned.json"
    path.write_text(json.dumps(doc))
    evidence.test_bench_file_records_how_it_was_measured(path)
    evidence.test_bench_file_has_both_sides_of_every_end_to_end_metric(path)


def test_runs_take_the_benchmarks_command_and_length(no_subprocess):
    """The tool has no run setting of its own: the argv is BENCHMARK.json's
    command at its ``run_seconds``, and there is no option to change it."""
    seconds = f"{BENCHMARK['run_seconds']:g}"
    argv = bench_pairs.perfbench_argv(BENCHMARK, "dp-oracle", 4242)
    assert argv == [*BENCHMARK["command"], "--workload", "dp-oracle", "--seed", "4242",
                    "--seconds", seconds, "--trace", "0"]
    results = bench_pairs.run_pairs("dp-oracle", 0, 1, ("parent", "change"), _canned([]))
    assert bench_pairs.summarise("dp-oracle", 0, results, BENCHMARK)["seconds"] == BENCHMARK["run_seconds"]
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD~1", "--slug", "x", "--note", "n", "--run", "dp-oracle,0,1",
                          "--seconds", "5"])


def test_a_run_without_a_result_line_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.parse_run("")
    with pytest.raises(ValueError):
        bench_pairs.parse_run('workload x\n{"correct": true}\n')
    assert bench_pairs.parse_run(_stdout(50.0))["metrics"]["units_per_s"]["value"] == 50.0
