"""The benchmark's three workloads: seeded inputs, one timed unit, its exact check.

A workload turns a seed into one *pass*: a fixed list of inputs.  The harness
times ``run(payload)`` on every input and repeats whole passes.  ``run``
returns ``(ok, out)``: ``ok`` is the unit's independent verdict and ``out``
the raw result, which ``record(out)`` renders as exact text for the digest
outside the timed region.

Every call into linetrp goes through a module attribute (``simulator.run``,
not a name imported from it), so the tracer's wrappers see the calls.

The shapes are enumerated, not drawn: the seed only picks locations,
arrivals and game knobs.  That keeps the cost of a pass, and so every timing
percentile, at the same place in the cost distribution for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

import linetrp
from linetrp import adversary, generate, offline, online, simulator


@dataclass(frozen=True)
class Input:
    kind: str  # the first input of each kind is run once as warm-up
    payload: tuple


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], List[Input]]
    run: Callable[[tuple], Tuple[bool, object]]
    record: Callable[[object], str]


def _interleave(*groups):
    """Merge lists so each group's items are spread evenly through the result."""
    keyed = []
    for g, items in enumerate(groups):
        keyed += [((k + 0.5) / len(items), g, item) for k, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda e: (e[0], e[1]))]


# --- cert-sweep: what `linetrp sweep` does, on the acceptance-corpus shapes ----

SWEEP_ROUNDS = 3
HALFLINE_ENDS = (1, 2, 10, 50)
PREDICTION_LINES = ((-2, 3), (-10, 10))
ROBUST_DELTAS = (Fraction(1, 100), Fraction(3, 100), Fraction(1, 20))
MAX_ARRIVAL = 50
DENOM = 1000


def cert_sweep_inputs(seed: int) -> List[Input]:
    rng = random.Random(f"cert-sweep:{seed}")
    shapes = []
    for _ in range(SWEEP_ROUNDS):
        shapes += _interleave(
            [("halfline", (0, b), n, Fraction(0)) for b in HALFLINE_ENDS for n in range(1, 21)],
            [("perfect", line, n, Fraction(0)) for line in PREDICTION_LINES for n in range(1, 13)],
            [("robust", (0, 1), n, d) for d in ROBUST_DELTAS for n in range(1, 13)],
        )
    inputs = []
    for name, line, n, delta in shapes:
        if delta > 0:
            inst = generate.perturbed_instance(rng, line, n, delta, MAX_ARRIVAL, DENOM)
        else:
            inst = generate.random_instance(rng, line, n, MAX_ARRIVAL, DENOM)
        inputs.append(Input(name, (name, inst, delta)))
    return inputs


def cert_sweep_run(payload):
    name, inst, delta = payload
    strategy = online.make_strategy(name, online.DEFAULT_ALPHA, delta)
    result = simulator.run(inst, strategy)
    report = simulator.evaluate(result)
    # each strategy is certified against the floor tests/test_acceptance.py uses
    worst = report.max_ratio_tour if name == "perfect" else report.max_ratio_simple
    ok = worst <= online.CERT_RATIO + 4 * delta
    return ok, (name, result.completions, report.max_ratio_simple, report.max_ratio_tour)


def cert_sweep_record(out) -> str:
    name, completions, ratio_simple, ratio_tour = out
    return f"{name}|{';'.join(map(str, completions))}|{ratio_simple}|{ratio_tour}"


# --- release-game: `linetrp adversary` on the published roster ----------------

ROUNDS = 8  # one game per strategy in each round
RATIONAL_ALPHA_ROUNDS = (0, 4)


def release_game_inputs(seed: int) -> List[Input]:
    """Round k gives greedy a max-steps in its own narrow stratum, so every
    seed carries the same greedy load: greedy's work grows linearly with
    max-steps, and p90 moves about 2% per step of the fifth stratum.
    Six rounds keep the CLI's default alpha and two draw a small-denominator
    rational, which the committed schedules lose faster.  Sorted by cost, p50
    then falls among the default-alpha committed games and p90 among the
    greedy ones, both mid-group."""
    rng = random.Random(f"release-game:{seed}")
    inputs = []
    for k in range(ROUNDS):
        max_steps = 30 + 5 * k + rng.randint(0, 1)
        alpha = f"{rng.randint(3, 8)}/4" if k in RATIONAL_ALPHA_ROUNDS else "sqrt3/2"
        delta = f"{rng.randint(1, 20)}/100"
        for name in online.STRATEGY_NAMES:
            inputs.append(Input(name, (name, alpha, delta, max_steps)))
    return inputs


def release_game_run(payload):
    name, alpha, delta, max_steps = payload
    strategy = online.make_strategy(name, online.parse_alpha(alpha), Fraction(delta))
    transcript = adversary.play_lowerbound_game(
        strategy, adversary.GameConfig(max_steps=max_steps)
    )
    ok = transcript.witness is None or adversary.verify_witness(strategy, transcript)
    return ok, transcript


def release_game_record(transcript) -> str:
    w = transcript.witness
    witness = "none" if w is None else (
        f"{w.request_index},{w.location},{w.arrival},{w.completion},{w.floor},"
        f"{w.ratio},{w.declared_step}"
    )
    return f"{transcript.strategy_name}|{witness}|{transcript.max_ratio}"


# --- dp-oracle: `linetrp oracle --brute` ---------------------------------------

BRUTE_SIZES = (5, 6, 7, 8, 9) * 3 + (9,)
DP_SIZES = (40,) * 6 + (80, 120, 160, 200) * 2
ORACLE_LINE = (-10, 10)
BRUTE_MAX_N = 9  # the cap of brute_force_latency, which `oracle --brute` uses


def dp_oracle_inputs(seed: int) -> List[Input]:
    """16 brute-checked sets and 14 DP-only ones.  Sorted by cost, the 12
    brute sets of n <= 8 sit below the six 40-point DP sets and the 12 others
    above them, so p50 falls mid-way through the 40-point sets and p90
    between the two 160-point ones: neither sits at a jump between kinds of
    unit, and both time pure-Python DP work."""
    rng = random.Random(f"dp-oracle:{seed}")
    sizes = _interleave(list(BRUTE_SIZES), list(DP_SIZES))
    inputs = []
    for n in sizes:
        text = linetrp.serialize_instance(
            generate.random_instance(rng, ORACLE_LINE, n, MAX_ARRIVAL, DENOM)
        )
        inputs.append(Input(f"brute-{n}" if n <= BRUTE_MAX_N else "dp", (text,)))
    return inputs


def dp_oracle_run(payload):
    (text,) = payload
    inst = linetrp.parse_instance(text)
    actuals = [r.actual for r in inst.requests]
    tour, total = offline.optimal_latency_tour(actuals)
    brute = None
    if len(actuals) <= BRUTE_MAX_N:
        brute, _ = offline.brute_force_latency(actuals)
    return brute is None or brute == total, (tour, total, brute)


def dp_oracle_record(out) -> str:
    tour, total, brute = out
    points = ",".join(map(str, tour.turning_points))
    return f"{tour.first_direction.name}:{points}|{total}|{brute}"


WORKLOADS = {
    "cert-sweep": Workload(cert_sweep_inputs, cert_sweep_run, cert_sweep_record),
    "release-game": Workload(release_game_inputs, release_game_run, release_game_record),
    "dp-oracle": Workload(dp_oracle_inputs, dp_oracle_run, dp_oracle_record),
}
