"""Exact simulation of a strategy on an instance, and ratio evaluation.

A run starts one session of the strategy (``Strategy.start``), feeds it
every request in one batch and reads each request's completion (first visit
at or after its arrival) from it: in closed form, for a committed plan
(``roundtrip_completions``) and for the replanner alike, so no trajectory is
built.  The trajectory, the session's motion cut at the last completion
(``motion``), the event log and the completion sum are built on first use.

Evaluation rates each completion against two per-request floors: the coarse
``max(|location|, arrival)`` and the sharper one, the request's first visit
along a latency-optimal walk of the actual locations (the rule of
``Tour.first_visit``) floored by its arrival.  It scales every completion,
location and arrival once, in one call, to integer pairs ``(a, b)``,
meaning ``(a + b*sqrt(3))/d`` over one common ``d``, and refuses a surd
location there (``core._rational_ints``).  The walk and its
total come from the interval DP's integer entry (``offline._latency_walk``)
on the locations over their own common denominator, so the completions'
denominators do not grow the DP's integers; no ``Tour`` is built.  From
those integers, the walk scaled to ``d``, it finds both floors and both
maximal ratios by integer comparison (cross-multiplied, no division), and
adds the completion sum and the arrival sum; it divides only the DP total,
the two winning ratios and the sum ratio exactly.  The per-request rows are
built when first read, and a row's own ratios when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Tuple

from .core import Instance, Trajectory, _exact_sum, _pair_scalar, _pair_sign, _pairs_sum
from .core import _rational_ints, _scaled_pairs
from .offline import _first_visit, _latency_walk
from .offline import optimal_latency_tour  # not called here; perfbench/tracer.py wraps it under this name
from .online import (
    Strategy,
    coverage_horizon,  # not called here; perfbench/tracer.py wraps it under this name
    roundtrip_trajectory,  # not called here; perfbench/tracer.py wraps it under this name
    visible_info,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CoverageError(RuntimeError):
    """The planned motion never reaches some request's location."""


@dataclass(frozen=True)
class Event:
    time: object
    kind: str  # 'arrival' | 'service' | 'turnaround'
    position: object
    request_index: Optional[int] = None


_EVENT_RANK = {"arrival": 0, "service": 1, "turnaround": 2}


@dataclass(frozen=True)
class RunResult:
    instance: Instance
    strategy_name: str
    completions: Tuple[object, ...]
    build_trajectory: Callable[[], Trajectory] = field(repr=False, compare=False)

    @cached_property
    def on_sum(self):
        """The completion sum, as ``sum(completions, Fraction(0))`` gives it
        (a ``QuadraticScalar`` iff some completion is one), added in integers
        by ``core._exact_sum``."""
        return _exact_sum(self.completions)

    @cached_property
    def trajectory(self) -> Trajectory:
        """The session's motion cut at the last completion, built on first use."""
        return self.build_trajectory()

    @cached_property
    def events(self) -> Tuple[Event, ...]:
        return _events(self.instance, self.trajectory, self.completions)


def run(instance: Instance, strategy: Strategy) -> RunResult:
    """Simulate ``strategy`` on ``instance`` exactly: one session, fed every
    request in one batch."""
    session = strategy.start(visible_info(instance))
    session.on_arrivals([(r.actual, r.arrival) for r in instance.requests])
    completions = session.completions()
    _check_coverage(instance, completions, strategy.name)

    def build() -> Trajectory:
        # through the checked constructor: a session's motion may be a caller's own
        d, pts = session.motion(max(completions, default=_ZERO))
        return Trajectory(tuple([(_pair_scalar(*t, d), _pair_scalar(*p, d)) for t, p in pts]))

    return RunResult(instance, strategy.name, tuple(completions), build)


def _check_coverage(instance: Instance, completions, name: str) -> None:
    """Raise CoverageError for the first request left without a completion."""
    for r, c in zip(instance.requests, completions):
        if c is None:
            raise CoverageError(f"request {r.index} at {r.actual} is never reached by {name}")


def _events(instance, traj, completions) -> Tuple[Event, ...]:
    evs = []
    for r, c in zip(instance.requests, completions):
        evs.append(Event(r.arrival, "arrival", r.actual, r.index))
        evs.append(Event(c, "service", r.actual, r.index))
    # a moving leg against the last moving one, waits skipped: the server
    # turns where it starts back
    bps, last = traj.breakpoints, 0
    for (t0, p0), (_, p1) in zip(bps, bps[1:]):
        step = (p1 > p0) - (p1 < p0)
        if step:
            if step == -last:
                evs.append(Event(t0, "turnaround", p0))
            last = step
    evs.sort(
        key=lambda e: (
            e.time,
            _EVENT_RANK[e.kind],
            -1 if e.request_index is None else e.request_index,
        )
    )
    return tuple(evs)


def _ratio(completion, floor):
    """Completion over a floor; 1 when the floor is zero, which only requests
    at the origin arriving at time 0 have, and they are served at once."""
    return _ONE if floor == 0 else completion / floor


@dataclass(frozen=True)
class RequestReport:
    index: int
    predicted: Optional[object]
    actual: object
    arrival: object
    completion: object
    bound_simple: object  # max(|actual|, arrival)
    bound_tour: object  # max(first visit along the latency-optimal walk, arrival)

    @property
    def ratio_simple(self):
        return _ratio(self.completion, self.bound_simple)

    @property
    def ratio_tour(self):
        return _ratio(self.completion, self.bound_tour)


@dataclass(frozen=True)
class EvaluationReport:
    on_sum: object
    opt_sum_bound: object  # lower bound on the optimal completion-time sum
    sum_ratio: object
    max_ratio_simple: object
    max_ratio_tour: object
    build_rows: Callable[[], Tuple[RequestReport, ...]] = field(repr=False, compare=False)

    @cached_property
    def rows(self) -> Tuple[RequestReport, ...]:
        """One report per request, in request order, built on first use."""
        return self.build_rows()


def _first_max(ratios) -> int:
    """Index of the first largest ``num/floor`` over ``(num, floor)`` integer
    pairs on one denominator, as ``max()`` would pick it, or -1 when empty.
    A zero floor stands for ratio 1; the others are positive, so comparing
    cross products compares the ratios."""
    best = -1
    for i, (num, floor) in enumerate(ratios):
        (a, b), (u, v) = ((1, 0), (1, 0)) if floor == (0, 0) else (num, floor)
        # (a + b*r)/(u + v*r) > (p + q*r)/(s + w*r), for r = sqrt(3)
        if best < 0 or _pair_sign(
            a * s + 3 * b * w - p * u - 3 * q * v, a * w + b * s - p * v - q * u
        ) > 0:
            best, p, q, s, w = i, a, b, u, v
    return best


def _arrival_binds(t, reach: int) -> bool:
    """Whether an arrival, the pair ``t``, lies strictly beyond ``reach`` on
    the same denominator; a tie keeps ``reach``, as ``max(reach, arrival)``
    does."""
    return _pair_sign(t[0] - reach, t[1]) > 0


def evaluate(result: RunResult) -> EvaluationReport:
    """Rate every completion in a run against both per-request floors.

    A floor keeps the distance (or the first visit) when it ties with the
    arrival, and each maximum is the first maximal row's ratio, as with
    ``max()``; no rows give 1."""
    requests, completions = result.instance.requests, result.completions
    values = [v for r, c in zip(requests, completions) for v in (r.actual, r.arrival, c)]
    d, pairs = _scaled_pairs(values)
    scaled = list(zip(_rational_ints(d, pairs[::3]), pairs[1::3], pairs[2::3]))
    # the DP runs over the locations' own common denominator, d/g, so the
    # completions' denominators do not grow its integers
    g = math.gcd(d, *[x for x, _, _ in scaled])
    walk, total = _latency_walk([x // g for x, _, _ in scaled])
    walk = [(arc * g, pos * g) for arc, pos in walk]  # over d
    reaches, simple, tour_ratios = [], [], []
    for x, t, num in scaled:
        near, visit = abs(x), _first_visit(walk, x)
        reaches.append((near, visit))
        simple.append((num, t if _arrival_binds(t, near) else (near, 0)))
        tour_ratios.append((num, t if _arrival_binds(t, visit) else (visit, 0)))

    def bound(k: int, side: int):
        """The k-th request's simple (side 0) or tour (side 1) floor."""
        reach = reaches[k][side]
        return requests[k].arrival if _arrival_binds(scaled[k][1], reach) else Fraction(reach, d)

    def build_rows() -> Tuple[RequestReport, ...]:
        return tuple([
            RequestReport(r.index, r.predicted, r.actual, r.arrival, c, bound(k, 0), bound(k, 1))
            for k, (r, c) in enumerate(zip(requests, completions))
        ])

    def worst(side: int, ratios):
        k = _first_max(ratios)
        return _ratio(completions[k], bound(k, side)) if k >= 0 else _ONE

    on_sum = _pairs_sum(completions, d, [num for _, _, num in scaled])
    arrivals = _pairs_sum([r.arrival for r in requests], d, [t for _, t, _ in scaled])
    opt_bound = max(Fraction(total * g, d), arrivals)
    return EvaluationReport(
        on_sum=on_sum,
        opt_sum_bound=opt_bound,
        sum_ratio=_ratio(on_sum, opt_bound),
        max_ratio_simple=worst(0, simple),
        max_ratio_tour=worst(1, tour_ratios),
        build_rows=build_rows,
    )
