"""linetrp benchmark: one workload, one seed, closed loop, exact checks.

    python3 perfbench/run.py --workload cert-sweep --seed 0 --seconds 20 --trace 0

Run from a source checkout: linetrp is imported from ``src/`` next to this
directory, never from anywhere else.  One caller runs one unit at a time, the
next starting when the previous one ends.  Inputs are built from ``--seed``
during set-up, a warm-up runs the first input of each kind, and then whole
passes over the inputs are timed until ``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced (for the overhead ratio), then runs the same passes with spans
around every layer call and prints the per-layer metrics; the spans are
written to ``.perfbench_out/spans-<workload>.tsv``.  See README.md.

Every unit carries its own verdict (certified ratio, verified witness, DP
equals exhaustive search).  The exact outputs of a pass fold into a digest,
which must repeat on every pass, match the untraced pass when tracing, and
match ``digests.json`` when that file records the seed.  The last line of
stdout is one JSON object; the exit code is 0 only when everything held.
"""

from fractions import Fraction
from time import perf_counter


def reference_kernel() -> float:
    """Seconds taken by a fixed stdlib computation in the style of linetrp's
    exact arithmetic (Fraction sums, products, comparisons, a tuple sort)."""
    t0 = perf_counter()
    acc, step, pts = Fraction(0), Fraction(1, 3), []
    for i in range(150):
        acc += step * i - Fraction(i, 7)
        if acc > 5:
            acc -= 5
        pts.append((acc, -i))
    pts.sort()
    return perf_counter() - t0


def kernel_median() -> float:
    return sorted(reference_kernel() for _ in range(3))[1]


_KERNEL_AT_START = kernel_median()
_T_START = perf_counter()  # set-up is measured from here

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # set-ups per run: this process plus fresh ones
MIN_UNITS = 100  # p90 needs ten samples beyond it
MIN_PASSES = 3  # for a per-input median
REFERENCE_KERNEL_S = 0.001  # timings are scaled to a machine that runs the kernel in 1 ms
KERNEL_EVERY_S = 0.02  # unit time between kernel samples

E2E_UNITS = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def import_linetrp() -> float:
    """Import linetrp from this checkout's ``src``; returns the seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import linetrp  # noqa: F401  (imports every module of the package)

    elapsed = perf_counter() - t0
    if Path(linetrp.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"linetrp came from {linetrp.__file__}, not from {SRC}")
    return elapsed


def setup(workload, seed, tracer=None):
    """Build the inputs and warm up on the first input of each kind.  A tracer
    is installed only around input generation; the warm-up runs bare."""
    if tracer is not None:
        tracer.install()
    try:
        inputs = workload.inputs(seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    seen = set()
    for inp in inputs:
        if inp.kind not in seen:
            seen.add(inp.kind)
            workload.run(inp.payload)
    return inputs


def attempt(unit, payload):
    """``(ok, out)`` of one unit; a unit that raises has failed, and the
    exception takes the place of its output."""
    try:
        return unit(payload)
    except Exception as exc:
        return False, exc


def digest_line(workload, out) -> bytes:
    """The exact text a unit's output adds to its pass's digest."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}\n".encode()
    return workload.record(out).encode() + b"\n"


def timed_passes(workload, inputs, seconds, unit, tracer=None):
    """Whole passes until ``seconds`` of unit time, MIN_PASSES and MIN_UNITS.

    The machine's speed drifts by up to half under other tenants' load, so
    the reference kernel runs between units, at least every KERNEL_EVERY_S of
    unit time and at the end of each pass, and each unit's latency is scaled
    by REFERENCE_KERNEL_S over the mean of the kernel times just before and
    just after it.  Returns the per-pass lists of scaled and of raw
    latencies, the failed count and the per-pass digests.  A unit that raises
    counts as failed; the first traceback goes to stderr.
    """
    passes, raw_passes, failed, digests = [], [], 0, []
    reported = False
    spent = units = 0
    kernel = reference_kernel()
    while spent < seconds or len(passes) < MIN_PASSES or units < MIN_UNITS:
        h = hashlib.sha256()
        raw, latencies = [], []
        pending = 0  # raw latencies still waiting for the kernel time after them
        for k, inp in enumerate(inputs):
            if tracer is not None:
                tracer.begin_unit(units)
            t0 = perf_counter()
            ok, out = attempt(unit, inp.payload)
            raw.append(perf_counter() - t0)
            units += 1
            pending += 1
            if sum(raw[-pending:]) >= KERNEL_EVERY_S or k == len(inputs) - 1:
                after = reference_kernel()
                scale = REFERENCE_KERNEL_S / ((kernel + after) / 2)
                latencies += [t * scale for t in raw[-pending:]]
                kernel, pending = after, 0
            if isinstance(out, Exception) and not reported:
                traceback.print_exception(out, file=sys.stderr)
                reported = True
            failed += not ok
            h.update(digest_line(workload, out))
        passes.append(latencies)
        raw_passes.append(raw)
        digests.append(h.hexdigest())
        spent += sum(raw)
    return passes, raw_passes, failed, digests


def unit_costs(passes):
    """Each input's median latency over the passes: every pass repeats the
    same work, so the median drops passes slowed by other load."""
    return [statistics.median(per_input) for per_input in zip(*passes)]


def units_per_s(passes) -> float:
    costs = unit_costs(passes)
    return len(costs) / sum(costs)


def e2e_metrics(passes, setups):
    costs = unit_costs(passes)
    return {
        "setup_s": statistics.median(setups),
        "units_per_s": len(costs) / sum(costs),
        "unit_ms_p50": statistics.median(costs) * 1e3,
        "unit_ms_p90": statistics.quantiles(costs, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fresh_setup_seconds(workload_name, seed) -> float:
    """Set-up time of a fresh interpreter, as it measures itself."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def recorded_digest(workload_name, seed):
    with open(HERE / "digests.json") as fh:
        return json.load(fh)["digests"].get(workload_name, {}).get(str(seed))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        import_s = import_linetrp()
    except ImportError as exc:
        print(f"error: cannot import linetrp from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import PER_LAYER_UNITS, Tracer, layer_metrics

        tracer = Tracer()
    inputs = setup(workload, args.seed, tracer)
    setup_raw = perf_counter() - _T_START
    setups = [setup_raw * REFERENCE_KERNEL_S / ((_KERNEL_AT_START + kernel_median()) / 2)]
    if args.setup_only:
        print(setups[0])
        return 0
    if not args.trace:
        setups += [fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]

    # tracing splits the run: half untraced (for the overhead ratio), half traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes, raw_passes, failed, digests = timed_passes(workload, inputs, seconds, workload.run)
    digest = digests[0]
    problems = []
    if any(d != digest for d in digests):
        problems.append("digest changed between passes")
    expected = recorded_digest(args.workload, args.seed)
    if expected is not None and expected != digest:
        problems.append(f"digest {digest} != recorded {expected}")
    if failed:
        problems.append(f"{failed} units failed their check or raised")
    attempted = sum(map(len, passes))
    print(f"workload {args.workload} seed {args.seed}: {attempted} units in "
          f"{len(passes)} passes of {len(inputs)}, closed loop, 1 caller")
    print(f"digest {digest} (recorded: {expected or 'none for this seed'})")
    print(f"failed_frac {failed / attempted!r} ratio")

    if args.trace:
        tracer.install()
        try:
            traced, _, traced_failed, traced_digests = timed_passes(
                workload, inputs, seconds, tracer.wrap("bench.unit", workload.run), tracer
            )
        finally:
            tracer.uninstall()
        if any(d != digest for d in traced_digests):
            problems.append("traced digest differs from untraced digest")
        traced_units = sum(map(len, traced))
        attempted += traced_units
        failed += traced_failed
        metrics = layer_metrics(tracer, traced_units)
        metrics["import_s"] = import_s
        metrics["trace_overhead_ratio"] = units_per_s(traced) / units_per_s(passes)
        drift = max(abs(d - s) for d, s in tracer.unit_sums().values())
        print(f"traced: {traced_units} units; max |sum of self times - unit span| = {drift:.3g} s")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv")
        units = PER_LAYER_UNITS
    else:
        metrics = e2e_metrics(passes, setups)
        units = E2E_UNITS
        raw = e2e_metrics(raw_passes, setups)
        print("unscaled: " + ", ".join(
            f"{name} {raw[name]:.6g} {units[name]}"
            for name in ("units_per_s", "unit_ms_p50", "unit_ms_p90")
        ))

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
