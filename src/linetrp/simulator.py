"""Exact simulation of a strategy on an instance, and ratio evaluation.

A run reads every request's completion (first visit at or after its arrival)
off the strategy's motion.  For a fixed-path strategy the completions come in
closed form from the round-trip schedule (``roundtrip_completions``), so no
trajectory is built; an adaptive strategy's replanned trajectory is scanned
instead.  The trajectory and the event log are built on first use.
Evaluation rates each completion against two per-request floors: the coarse
``max(|location|, arrival)`` and the sharper one, the request's first visit
along a latency-optimal walk of the actual locations (``Tour.first_visit``)
floored by its arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Tuple

from .core import Instance, Trajectory
from .offline import distance_arrival_floor, opt_sum_floor, optimal_latency_tour
from .online import (
    AdaptiveStrategy,
    FixedPathStrategy,
    Strategy,
    coverage_horizon,
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

    @property
    def on_sum(self):
        return sum(self.completions, _ZERO)

    @cached_property
    def trajectory(self) -> Trajectory:
        """The motion, built on first use: cut at the last completion unless
        the run was asked not to truncate."""
        return self.build_trajectory()

    @cached_property
    def events(self) -> Tuple[Event, ...]:
        return _events(self.instance, self.trajectory, self.completions)


def run(instance: Instance, strategy: Strategy, *, truncate: bool = True) -> RunResult:
    """Simulate ``strategy`` on ``instance`` exactly."""
    info = visible_info(instance)
    if isinstance(strategy, FixedPathStrategy):
        planned = strategy.plan(info)
        completions = roundtrip_completions(
            planned, [(r.actual, r.arrival) for r in instance.requests]
        )

        def build() -> Trajectory:
            path, schedule = planned.path, planned.schedule
            if truncate:
                end = max(completions, default=_ZERO)
                return roundtrip_trajectory(path, schedule, end).truncated(end)
            horizon = coverage_horizon(path, schedule, instance.max_arrival())
            return roundtrip_trajectory(path, schedule, horizon)

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
            return traj.truncated(max(completions, default=_ZERO)) if truncate else traj

    else:
        raise TypeError(f"unknown strategy type {type(strategy).__name__}")

    for r, c in zip(instance.requests, completions):
        if c is None:
            raise CoverageError(
                f"request {r.index} at {r.actual} is never reached by {strategy.name}"
            )
    return RunResult(instance, strategy.name, tuple(completions), build)


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
    ratio_simple: object
    ratio_tour: object


@dataclass(frozen=True)
class EvaluationReport:
    rows: Tuple[RequestReport, ...]
    on_sum: object
    opt_sum_bound: object  # lower bound on the optimal completion-time sum
    sum_ratio: object
    max_ratio_simple: object
    max_ratio_tour: object


def evaluate(result: RunResult) -> EvaluationReport:
    """Rate every completion in a run against both per-request floors."""
    inst = result.instance
    tour, dp_total = optimal_latency_tour(r.actual for r in inst.requests)
    rows = []
    for r, c in zip(inst.requests, result.completions):
        bound_s = distance_arrival_floor(r.actual, r.arrival)
        bound_t = max(tour.first_visit(r.actual), r.arrival)
        rows.append(
            RequestReport(
                r.index,
                r.predicted,
                r.actual,
                r.arrival,
                c,
                bound_s,
                bound_t,
                _ratio(c, bound_s),
                _ratio(c, bound_t),
            )
        )
    on_sum = result.on_sum
    opt_bound = opt_sum_floor(inst.requests, dp_total)
    return EvaluationReport(
        rows=tuple(rows),
        on_sum=on_sum,
        opt_sum_bound=opt_bound,
        sum_ratio=_ratio(on_sum, opt_bound),
        max_ratio_simple=max((row.ratio_simple for row in rows), default=_ONE),
        max_ratio_tour=max((row.ratio_tour for row in rows), default=_ONE),
    )
