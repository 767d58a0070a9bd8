"""Run perfbench in alternating parent/change pairs and write the evidence file.

    python3 tools/bench_pairs.py --parent f15d7aa --change HEAD --slug dp_potentials \\
        --note "what the change does" \\
        --run dp-oracle,0,10 --run dp-oracle,4242,3 --claim dp-oracle:units_per_s

Each side is exported with ``git archive`` into its own temporary directory
and ``BENCHMARK.json``'s ``command`` runs there untraced, as ``command
--workload W --seed S --seconds T --trace 0`` with ``T`` the benchmark's
``run_seconds``, so both sides build from their committed files alone and
the tool has no run setting of its own.  For each
``--run workload,seed,pairs`` the pairs alternate which side goes first: the
parent on even pairs, the change on odd ones.  The last stdout line of each
run is its JSON result.

``BENCH_<slug>.json`` gets, for every run spec and every end-to-end metric
of ``BENCHMARK.json``: each side's runs in pair order, their quartiles and
interquartile range (IQR), the change's strict wins over the parent per
pair, the relative change of the medians, whether it is within the
metric's bound and whether it moves by more than the parent's IQR.  A
``--claim workload:metric`` is met when, on every run spec of that
workload, the change wins at least nine pairs in ten and its median is
better by more than the parent's IQR, and every metric of every spec stays
within its bound.  The file is rewritten after each spec, so an
interrupted session keeps the specs it finished.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = (
    "pairs alternate which side runs first (even pairs: parent first); each side runs from "
    "a clean git archive export of its commit"
)
QUARTILES = (
    "statistics.quantiles(method='inclusive'); change_wins counts strict wins per pair; "
    "iqr = q3 - q1; beyond_parent_iqr: |median change - median parent| > parent iqr; "
    "within_bound: the change's median is worse than the parent's by at most the "
    "BENCHMARK.json bound"
)


def parse_run(stdout: str) -> dict:
    """The JSON result on the last non-empty line of a ``run.py`` stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"not a perfbench result: {lines[-1][:200]!r}")
    return result


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (inclusive method; one value is its
    own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent_runs, change_runs, better: str, bound: float) -> dict:
    """Both sides of one metric, taken in pairs: quartiles, IQRs, wins and
    whether the change's median stays within ``bound``."""
    sides = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}
    p, c = sides["parent"]["median"], sides["change"]["median"]
    higher = better == "higher"
    wins = sum(1 for a, b in zip(parent_runs, change_runs) if (b > a if higher else b < a))
    worse_by = (p - c if higher else c - p) / p if p else 0.0
    return {
        **sides,
        "wins": wins,
        "change_wins": f"{wins}/{len(parent_runs)}",
        "median_change_rel": (c - p) / p if p else 0.0,
        "within_bound": worse_by <= bound,
        "beyond_parent_iqr": abs(c - p) > sides["parent"]["iqr"],
        "improved": (c > p) if higher else (c < p),
    }


def perfbench_argv(benchmark, workload, seed) -> list:
    """``benchmark``'s command for one untraced run of ``workload`` on
    ``seed``, at the benchmark's ``run_seconds``."""
    return [*benchmark["command"], "--workload", str(workload), "--seed", str(seed),
            "--seconds", f"{benchmark['run_seconds']:g}", "--trace", "0"]


def summarise(workload: str, seed: int, results, benchmark) -> dict:
    """One run spec's entry: ``results`` holds ``(parent, change)`` parsed
    results, one per pair, in pair order."""
    entry = {
        "workload": workload,
        "seed": seed,
        "seconds": benchmark["run_seconds"],
        "pairs": len(results),
        "all_correct": all(r["correct"] for pair in results for r in pair),
        "failed": {side: sum(pair[k]["failed"] for pair in results) for k, side in enumerate(("parent", "change"))},
        "attempted": {
            side: sum(pair[k]["attempted"] for pair in results) for k, side in enumerate(("parent", "change"))
        },
        "metrics": {},
    }
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        parent_runs = [pair[0]["metrics"][name]["value"] for pair in results]
        change_runs = [pair[1]["metrics"][name]["value"] for pair in results]
        entry["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **compare(parent_runs, change_runs, spec["better"], spec["bound"]),
            "parent_runs": parent_runs,
            "change_runs": change_runs,
        }
    return entry


def claim_met(entries, claim) -> bool:
    """The claimed metric wins nine pairs in ten and beats the parent's IQR
    on every spec of its workload; no metric anywhere leaves its bound;
    every run is correct with as few failures as the parent's."""
    workload, metric = claim
    claimed = [e for e in entries if e["workload"] == workload]
    if not claimed:
        return False
    for e in claimed:
        m = e["metrics"][metric]
        if not (10 * m["wins"] >= 9 * e["pairs"] and m["improved"] and m["beyond_parent_iqr"]):
            return False
    return all(
        e["all_correct"]
        and e["failed"]["change"] <= e["failed"]["parent"]
        and all(m["within_bound"] for m in e["metrics"].values())
        for e in entries
    )


def run_pairs(workload: str, seed: int, pairs: int, trees, runner):
    """``pairs`` alternating runs of both trees; ``runner(tree, workload,
    seed)`` returns one run's stdout.  The parent goes first on even pairs."""
    results = []
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            pair[side] = parse_run(runner(trees[side], workload, seed))
        results.append(tuple(pair))
    return results


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written under ``dest`` by ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def perfbench_runner(benchmark):
    """A runner that starts ``benchmark``'s command in the exported tree."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)

    def run(tree: Path, workload: str, seed: int) -> str:
        argv = perfbench_argv(benchmark, workload, seed)
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
        return done.stdout

    return run


def document(args, parent: str, entries, machine: str, benchmark) -> dict:
    doc = {
        "command": " ".join(perfbench_argv(benchmark, "W", "S")),
        "machine": machine,
        "parent": parent,
        "change": args.note,
        "order": ORDER,
        "quartiles": QUARTILES,
    }
    if args.claim:
        doc["claim"] = (
            f"{args.claim[0]} {args.claim[1]} improves: the change wins at least 9 of 10 pairs on every "
            f"seed run, by more than the parent's IQR; no end-to-end metric leaves its bound"
        )
        doc["claim_met"] = claim_met(entries, args.claim)
    doc["workloads"] = entries
    return doc


def _run_spec(text: str):
    workload, seed, pairs = text.split(",")
    return workload, int(seed), int(pairs)


def _claim(text: str):
    workload, metric = text.split(":")
    return workload, metric


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the parent commit")
    p.add_argument("--change", default="HEAD", help="the commit with the change (default HEAD)")
    p.add_argument("--slug", required=True, help="writes BENCH_<slug>.json at the repository root")
    p.add_argument("--note", required=True, help="what the change does, for the file's 'change' field")
    p.add_argument("--run", type=_run_spec, action="append", required=True, metavar="WORKLOAD,SEED,PAIRS")
    p.add_argument("--claim", type=_claim, metavar="WORKLOAD:METRIC")
    p.add_argument("--workdir", help="where the exports go (default: the system's temporary directory)")
    args = p.parse_args(argv)

    def short(rev):
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", rev], check=True, capture_output=True, text=True
        ).stdout.strip()

    parent, change = short(args.parent), short(args.change)
    if parent == change:
        p.error("the parent and the change are the same commit")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = (
        f"{len(os.sched_getaffinity(0))}-CPU {platform.system()}, Python {platform.python_version()}, "
        "PYTHONDONTWRITEBYTECODE=1"
    )
    out = ROOT / f"BENCH_{args.slug}.json"
    runner = perfbench_runner(benchmark)
    entries = []
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = (Path(tmp) / "parent", Path(tmp) / "change")
        for tree, rev in zip(trees, (parent, change)):
            tree.mkdir()
            export(rev, tree)
        for workload, seed, pairs in args.run:
            results = run_pairs(workload, seed, pairs, trees, runner)
            entries.append(summarise(workload, seed, results, benchmark))
            out.write_text(json.dumps(document(args, parent, entries, machine, benchmark), indent=1) + "\n")
            e = entries[-1]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['parent']['median']:.4g} -> {m['change']['median']:.4g} ({m['change_wins']})"
                for name, m in e["metrics"].items()
            ), flush=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
