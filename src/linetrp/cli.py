"""Command-line interface.

Subcommands: ``generate`` (random instances), ``oracle`` (exact offline
optimum), ``simulate`` (run a strategy, optionally certify its ratios),
``adversary`` (play the lower-bound game), ``sweep`` (seeded certification
sweeps to CSV).

The CSV columns are the explicit lists ``_REQUEST_COLUMNS`` (``simulate
--out``) and ``_SWEEP_COLUMNS`` (``sweep``, after its trial columns) below;
each column named in ``_DECIMAL`` is followed by ``<name>_dec``, its value to
6 decimal places.

Exit codes: 0 success, 1 usage, 2 bad input, 3 failed certification or
cross-check.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import io
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .adversary import GameConfig, play_lowerbound_game, verify_witness
from .core import (
    LineSegment,
    Model,
    ParseError,
    format_decimal,
    format_scalar,
    parse_instance,
    parse_scalar,
    serialize_instance,
)
from .generate import _DENOM, _check_sizes, perturbed_instance, random_instance
from .offline import brute_force_latency, optimal_latency_tour
from .online import (
    CERT_RATIO,
    STRATEGY_NAMES,
    make_strategy,
    parse_alpha,
    select_algorithm,
)
from .simulator import CoverageError, evaluate, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="linetrp",
        description="Online repairperson on a line segment, with location predictions.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded random instance")
    gen.add_argument("--line", nargs=2, metavar=("A", "B"), default=("0", "1"))
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--max-arrival", type=int, default=50)
    gen.add_argument("--delta", default=None, help="prediction error bound, exact (e.g. 1/100)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--denom", type=int, default=_DENOM)
    gen.add_argument("--model", choices=[m.value for m in Model], default="prediction")
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.set_defaults(run=_cmd_generate)

    orc = sub.add_parser("oracle", help="exact offline latency optimum of an instance")
    orc.add_argument("instance")
    orc.add_argument("--brute", action="store_true", help="cross-check against exhaustive search")
    orc.set_defaults(run=_cmd_oracle)

    sim = sub.add_parser("simulate", help="run a strategy on an instance")
    sim.add_argument("instance")
    sim.add_argument("--strategy", choices=("auto",) + STRATEGY_NAMES, default="auto")
    sim.add_argument("--alpha", default="sqrt3/2", help="trip growth knob ('sqrt3/2' or rational)")
    sim.add_argument("--delta", default="0", help="promised prediction error bound, exact")
    sim.add_argument(
        "--certify",
        choices=("simple", "tour"),
        default=None,
        help=(
            "exit 3 unless the worst per-request ratio stays within the certified bound;"
            " the bounds assume integer arrival times (time unit 1), see the README"
        ),
    )
    sim.add_argument("--out", default=None, help="write per-request CSV")
    sim.set_defaults(run=_cmd_simulate)

    adv = sub.add_parser("adversary", help="play the release-time lower-bound game")
    adv.add_argument("--strategy", choices=STRATEGY_NAMES, default="halfline")
    adv.add_argument("--alpha", default="sqrt3/2")
    adv.add_argument("--delta", default="1/100")
    adv.add_argument("--max-steps", type=int, default=120)
    adv.set_defaults(run=_cmd_adversary)

    sw = sub.add_parser("sweep", help="seeded certification sweep, CSV output")
    sw.add_argument("--strategy", choices=("auto",) + STRATEGY_NAMES, default="auto")
    sw.add_argument("--trials", type=int, default=100)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--line", nargs=2, metavar=("A", "B"), default=("0", "1"))
    sw.add_argument("--n", type=int, default=10)
    sw.add_argument("--max-arrival", type=int, default=50)
    sw.add_argument("--delta", default="0")
    sw.add_argument("--alpha", default="sqrt3/2")
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--out", default=None, help="output CSV (default stdout)")
    sw.set_defaults(run=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (OSError, ValueError, TypeError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _write(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# CSV columns as (header, attribute) pairs.  The lists are explicit, so a field
# added to a report does not change the default CSV.
_REQUEST_COLUMNS = tuple([
    (attr, attr)
    for attr in ("index", "predicted", "actual", "arrival", "completion", "bound_simple",
                 "bound_tour", "ratio_simple", "ratio_tour")
])
_SWEEP_COLUMNS = (
    ("on_sum", "on_sum"),
    ("opt_floor", "opt_sum_bound"),
    ("sum_ratio", "sum_ratio"),
    ("max_ratio_simple", "max_ratio_simple"),
    ("max_ratio_tour", "max_ratio_tour"),
)
_DECIMAL = {"completion", "ratio_simple", "ratio_tour"} | {name for name, _ in _SWEEP_COLUMNS}


def _header(columns) -> list:
    header = []
    for name, _ in columns:
        header += [name, f"{name}_dec"] if name in _DECIMAL else [name]
    return header


def _cells(record, columns) -> list:
    cells = []
    for name, attr in columns:
        value = getattr(record, attr)
        cells += [value, format_decimal(value)] if name in _DECIMAL else [value]
    return cells


def _csv_text(header, rows) -> str:
    """CSV text, one line per row; a ``None`` cell is written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _exact_text(value) -> str:
    return f"{value} ({format_decimal(value)})"


def _read_instance(path):
    """The instance in the UTF-8 file at ``path``, decoded as ``utf-8-sig``
    does: a leading byte-order mark is dropped.  A byte that is not UTF-8
    raises ParseError naming its line, counted as ``parse_instance`` counts."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte is valid; the byte sits on its last line
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(lineno, f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from exc
    return parse_instance(text)


def _knobs(alpha_text, delta_text):
    """``(alpha, delta)`` read from their option texts; delta nonnegative."""
    alpha = parse_alpha(alpha_text)
    delta = parse_scalar(delta_text)
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta_text}")
    return alpha, delta


def _resolve_strategy(name, alpha, delta, instance):
    if name == "auto":
        return select_algorithm(instance, delta, alpha)
    return make_strategy(name, alpha, delta)


def _cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    line = LineSegment(parse_scalar(args.line[0]), parse_scalar(args.line[1]))
    if args.delta is not None:
        if Model(args.model) is not Model.PREDICTION:
            raise ValueError("--delta only makes sense with --model prediction")
        delta = parse_scalar(args.delta)
        inst = perturbed_instance(rng, line, args.n, delta, args.max_arrival, args.denom)
    else:
        inst = random_instance(
            rng, line, args.n, args.max_arrival, args.denom, Model(args.model)
        )
    _write(serialize_instance(inst), args.out)
    return 0


def _tour_text(tour) -> str:
    if not tour.turning_points:
        return "stay at origin"
    return "origin -> " + " -> ".join(format_scalar(tp) for tp in tour.turning_points)


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    actuals = [r.actual for r in inst.requests]
    if args.brute:  # first: past its size cap, exhaustive search fails before any output
        brute_total, order = brute_force_latency(actuals)
    tour, total = optimal_latency_tour(actuals)
    print(f"requests: {len(actuals)}")
    print(f"optimal latency sum: {_exact_text(total)}")
    print(f"optimal walk: {_tour_text(tour)}")
    if args.brute:
        if brute_total != total:
            print(
                f"cross-check FAILED: exhaustive search got {brute_total}"
                f" via {', '.join(str(p) for p in order)}",
                file=sys.stderr,
            )
            return 3
        print("cross-check ok: exhaustive search agrees")
    return 0


def _cmd_simulate(args) -> int:
    inst = _read_instance(args.instance)
    alpha, delta = _knobs(args.alpha, args.delta)
    strategy = _resolve_strategy(args.strategy, alpha, delta, inst)
    result = run(inst, strategy)
    report = evaluate(result)
    print(f"strategy: {strategy.name}")
    print(f"requests: {len(inst.requests)}")
    print(f"completion sum: {_exact_text(result.on_sum)}")
    print(
        f"optimal-sum floor: {_exact_text(report.opt_sum_bound)}"
        f"  sum ratio: {format_decimal(report.sum_ratio)}"
    )
    print(f"worst ratio vs distance/arrival floor: {_exact_text(report.max_ratio_simple)}")
    print(f"worst ratio vs tour-prefix floor: {_exact_text(report.max_ratio_tour)}")
    if args.out:
        rows = (_cells(row, _REQUEST_COLUMNS) for row in report.rows)
        _write(_csv_text(_header(_REQUEST_COLUMNS), rows), args.out)
    if args.certify:
        bound = CERT_RATIO + 4 * delta
        worst = report.max_ratio_simple if args.certify == "simple" else report.max_ratio_tour
        if worst > bound:
            print(f"certification FAILED: {worst} > {bound}", file=sys.stderr)
            return 3
        scope = ""
        if args.certify == "tour" and not inst.line.is_halfline():
            scope = (
                " (per request, against the tour-prefix floor; on a full line that floor"
                " does not bound the sum ratio against OPT)"
            )
        print(f"certified: worst ratio within {bound}{scope}")
    return 0


def _cmd_adversary(args) -> int:
    strategy = make_strategy(args.strategy, *_knobs(args.alpha, args.delta))
    transcript = play_lowerbound_game(strategy, GameConfig(max_steps=args.max_steps))
    for line in transcript.log:
        print(line)
    if transcript.witness is None:
        print(f"outcome: no witness (worst ratio {format_decimal(transcript.max_ratio)})")
        return 0
    w = transcript.witness
    print(
        f"outcome: witness at step {w.declared_step}; request {w.request_index}"
        f" (location {w.location}, arrival {w.arrival}) completed {w.completion}"
        f" = {format_decimal(w.ratio)}x its floor {w.floor}"
    )
    if not verify_witness(strategy, transcript):
        print("witness verification FAILED", file=sys.stderr)
        return 3
    print("witness verified by independent re-run")
    return 0


def _sweep_trial(args, line, alpha, delta, trial: int) -> list:
    rng = random.Random(f"{args.seed}:{trial}")
    if delta > 0:
        inst = perturbed_instance(rng, line, args.n, delta, args.max_arrival)
    else:
        inst = random_instance(rng, line, args.n, args.max_arrival)
    strategy = _resolve_strategy(args.strategy, alpha, delta, inst)
    report = evaluate(run(inst, strategy))
    return [trial, strategy.name, args.n, args.delta] + _cells(report, _SWEEP_COLUMNS)


def _cmd_sweep(args) -> int:
    if args.trials < 0:
        raise ValueError(f"trials must be nonnegative, got {args.trials}")
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    # every argument is read and checked once, so a bad one fails even with no trials
    line = LineSegment(parse_scalar(args.line[0]), parse_scalar(args.line[1]))
    _check_sizes(args.n, args.max_arrival, _DENOM)
    alpha, delta = _knobs(args.alpha, args.delta)
    trial = functools.partial(_sweep_trial, args, line, alpha, delta)
    # a forked pool starts every worker up front, so never ask for more
    # workers than there are trials or CPUs
    workers = min(args.jobs, args.trials, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(trial, range(args.trials)))
    else:
        rows = map(trial, range(args.trials))
    header = ["trial", "strategy", "n", "delta"] + _header(_SWEEP_COLUMNS)
    _write(_csv_text(header, rows), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
