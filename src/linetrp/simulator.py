"""Exact simulation of a strategy on an instance, and ratio evaluation.

A run reads every request's completion (first visit at or after its arrival)
off the strategy's motion.  For a fixed-path strategy the completions come in
closed form from the round-trip schedule (``roundtrip_completions``), so no
trajectory is built; an adaptive strategy's replanned trajectory is scanned
instead.  The trajectory, the event log and the completion sum are built on
first use.
Evaluation rates each completion against two per-request floors: the coarse
``max(|location|, arrival)`` and the sharper one, the request's first visit
along a latency-optimal walk of the actual locations (``Tour.first_visit``)
floored by its arrival.  It scales every completion, location, arrival and
breakpoint of that walk once to integer pairs ``(a, b)``, meaning
``(a + b*sqrt(3))/d`` over one common ``d``, finds both floors and both
maximal ratios by integer comparison (cross-multiplied, no division), and
divides only the two winning ratios and the sum ratio exactly.  A row's own
ratios are computed when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Tuple

from .core import Instance, Trajectory, _exact_sum, _pair_sign, _scaled_pairs
from .offline import _first_visit, distance_arrival_floor, opt_sum_floor, optimal_latency_tour
from .online import (
    AdaptiveStrategy,
    FixedPathStrategy,
    Strategy,
    coverage_horizon,  # not called here; perfbench/tracer.py wraps it under this name
    roundtrip_completions,
    roundtrip_trajectory,
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
        """The motion, built on first use and cut at the last completion."""
        return self.build_trajectory()

    @cached_property
    def events(self) -> Tuple[Event, ...]:
        return _events(self.instance, self.trajectory, self.completions)


def run(instance: Instance, strategy: Strategy) -> RunResult:
    """Simulate ``strategy`` on ``instance`` exactly."""
    info = visible_info(instance)
    if isinstance(strategy, FixedPathStrategy):
        planned = strategy.plan(info)
        completions = roundtrip_completions(
            planned, [(r.actual, r.arrival) for r in instance.requests]
        )

        def build() -> Trajectory:
            end = max(completions, default=_ZERO)
            return roundtrip_trajectory(planned.path, planned.schedule, end).truncated(end)

    elif isinstance(strategy, AdaptiveStrategy):
        session = strategy.start(info)
        by_time = {}
        for r in instance.requests:
            by_time.setdefault(r.arrival, []).append(r.actual)
        for t in sorted(by_time):
            session.on_arrivals(t, by_time[t])
        traj = session.trajectory()
        completions = [traj.first_service_time(r.actual, r.arrival) for r in instance.requests]

        def build() -> Trajectory:
            return traj.truncated(max(completions, default=_ZERO))

    else:
        raise TypeError(f"unknown strategy type {type(strategy).__name__}")

    _check_coverage(instance, completions, strategy.name)
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
    bps = traj.breakpoints
    for (t0, p0), (t1, p1), (t2, p2) in zip(bps, bps[1:], bps[2:]):
        before = (p1 > p0) - (p1 < p0)
        after = (p2 > p1) - (p2 < p1)
        if before and after and before != after:
            evs.append(Event(t1, "turnaround", p1))
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


def request_ratio(actual, arrival, completion):
    """Completion over the distance/arrival floor; 1 when both are zero."""
    return _ratio(completion, distance_arrival_floor(actual, arrival))


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
    rows: Tuple[RequestReport, ...]
    on_sum: object
    opt_sum_bound: object  # lower bound on the optimal completion-time sum
    sum_ratio: object
    max_ratio_simple: object
    max_ratio_tour: object


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


def evaluate(result: RunResult) -> EvaluationReport:
    """Rate every completion in a run against both per-request floors.

    A floor keeps the distance (or the first visit) when it ties with the
    arrival, and each maximum is the first maximal row's ratio, as with
    ``max()``; no rows give 1."""
    inst = result.instance
    tour, dp_total = optimal_latency_tour(r.actual for r in inst.requests)
    walk = tour.walk.breakpoints
    requests = list(zip(inst.requests, result.completions))
    values = [v for r, c in requests for v in (r.actual, r.arrival, c)]
    d, pairs = _scaled_pairs(values + [v for bp in walk for v in bp])
    it = iter(pairs)
    scaled = [(next(it)[0], next(it), next(it)) for _ in requests]  # actual is rational
    walk_d = [(next(it)[0], next(it)[0]) for _ in walk]  # rational
    rows, simple, tour_ratios = [], [], []
    for (r, c), (x, t, num) in zip(requests, scaled):
        if _pair_sign(t[0] - abs(x), t[1]) > 0:
            bound_s, floor_s = r.arrival, t
        else:
            bound_s, floor_s = abs(r.actual), (abs(x), 0)
        visit = _first_visit(walk_d, x)
        if _pair_sign(t[0] - visit, t[1]) > 0:
            bound_t, floor_t = r.arrival, t
        else:
            bound_t, floor_t = Fraction(visit, d), (visit, 0)
        rows.append(RequestReport(r.index, r.predicted, r.actual, r.arrival, c, bound_s, bound_t))
        simple.append((num, floor_s))
        tour_ratios.append((num, floor_t))
    i, j = _first_max(simple), _first_max(tour_ratios)
    on_sum = result.on_sum
    opt_bound = opt_sum_floor(inst.requests, dp_total)
    return EvaluationReport(
        rows=tuple(rows),
        on_sum=on_sum,
        opt_sum_bound=opt_bound,
        sum_ratio=_ratio(on_sum, opt_bound),
        max_ratio_simple=rows[i].ratio_simple if rows else _ONE,
        max_ratio_tour=rows[j].ratio_tour if rows else _ONE,
    )
