"""Seeded random instance builders for experiments and certification sweeps.

Locations are uniform on a grid of denominator ``denom`` inside the line;
arrivals are uniform integers, matching the timing granularity the ratio
guarantees are stated for.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .core import Instance, LineSegment, Model, _as_line, _exact, make_instance

_DENOM = 1000  # the location grid's denominator when none is given


def _check_sizes(n: int, max_arrival: int, denom: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if max_arrival < 0:
        raise ValueError(f"max_arrival must be nonnegative, got {max_arrival}")
    if denom < 1:
        raise ValueError(f"denom must be a positive integer, got {denom}")


def _random_position(rng: random.Random, line: LineSegment, denom: int) -> Fraction:
    lo = math.ceil(line.a * denom)
    hi = math.floor(line.b * denom)
    return Fraction(rng.randint(lo, hi), denom)


def random_instance(
    rng: random.Random,
    line,
    n: int,
    max_arrival: int = 50,
    denom: int = _DENOM,
    model: Model = Model.PREDICTION,
) -> Instance:
    """Instance with exact predictions (predicted == actual) and integer arrivals."""
    _check_sizes(n, max_arrival, denom)
    seg = _as_line(line)
    triples = []
    for _ in range(n):
        loc = _random_position(rng, seg, denom)
        arrival = Fraction(rng.randint(0, max_arrival))
        predicted = loc if model is Model.PREDICTION else None
        triples.append((predicted, loc, arrival))
    return make_instance(seg, triples, model)


def perturbed_instance(
    rng: random.Random,
    line,
    n: int,
    delta,
    max_arrival: int = 50,
    denom: int = _DENOM,
) -> Instance:
    """Prediction-model instance whose actual locations stray from the
    predictions by at most ``delta``, clamped to the line."""
    _check_sizes(n, max_arrival, denom)
    seg = _as_line(line)
    delta = _exact(delta, "delta")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    steps = int(delta * denom)  # error grid stays within [-delta, delta]
    triples = []
    for _ in range(n):
        predicted = _random_position(rng, seg, denom)
        err = Fraction(rng.randint(-steps, steps), denom)
        actual = seg.clamp(predicted + err)
        arrival = Fraction(rng.randint(0, max_arrival))
        triples.append((predicted, actual, arrival))
    return make_instance(seg, triples, Model.PREDICTION)
