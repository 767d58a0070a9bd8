"""Online strategies: geometric round-trip schedules and prediction-guided tours.

All schedule arithmetic is exact, in Q[sqrt(3)] (``core.QuadraticScalar``):
the optimal trip growth rate involves ``sqrt(3)``.  The closed-form
completions (``roundtrip_completions``) work on the plan's trips and legs as
integer pairs ``(a, b)``, meaning ``(a + b*sqrt(3))/d`` over a common
denominator ``d``, and convert each request's completion back once.  A
``PlannedTrips`` scales them once, on first use, and keeps them with one
rescale per distinct request denominator, so every call on the same plan
reuses them.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (
    SQRT3,  # not used here; re-exported with the scalar for callers of this module
    Instance,
    LineSegment,
    Model,
    QuadraticScalar,
    Trajectory,
    _exact,
    _pair_sign,
    _parts,
    _scaled_pairs,
    _surd_floor,
    parse_scalar,
)
from .offline import Tour, _first_visit, canonical_tour, optimal_latency_tour

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def _times(rows, f: int):
    """Every integer pair ``(a, b)`` of ``rows`` (tuples of pairs) times ``f``."""
    return [tuple([(a * f, b * f) for a, b in row]) for row in rows]


class ModelMismatchError(ValueError):
    """Strategy asked for information the instance's model does not provide."""


DEFAULT_ALPHA = QuadraticScalar(0, _HALF)  # sqrt(3)/2, the ratio-optimal growth knob
CERT_RATIO = QuadraticScalar(2, 1)  # 2 + sqrt(3): certified per-request ratio
FALLBACK_THRESHOLD = QuadraticScalar(_HALF, Fraction(-1, 4))  # (2 - sqrt(3))/4 ~ 0.067


def parse_alpha(text: str):
    """Parse the trip-growth knob: the literal ``sqrt3/2`` or a positive rational."""
    cleaned = text.strip().lower()
    if cleaned == "sqrt3/2":
        return DEFAULT_ALPHA
    try:
        value = parse_scalar(cleaned)
    except ValueError as exc:
        raise ValueError(f"bad alpha {text!r} (use 'sqrt3/2' or a rational)") from exc
    if value <= 0:
        raise ValueError("alpha must be positive")
    return value


@dataclass(frozen=True)
class RoundTripSchedule:
    """Geometric growth schedule for origin-anchored round trips.

    Trip j has virtual length ``(2+2a)`` for j=1 and ``(2+2a)^(j-1) * (1+2a)``
    after that, plus a constant ``pad`` per trip; the trip lengths telescope so
    that the first j trips together take ``(2+2a)^j + j*pad`` time.  A trip's
    reach is its turnaround distance, half its length.
    """

    alpha: object = DEFAULT_ALPHA
    pad: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "alpha", _exact(self.alpha, "alpha"))
        object.__setattr__(self, "pad", _exact(self.pad, "pad"))
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.pad < 0:
            raise ValueError("pad must be nonnegative")

    @property
    def growth(self):
        return 2 + 2 * self.alpha

    def trips(self, until):
        """Trips 1, 2, ... as ``(start, end, reach)``, up to and including the
        first whose reach is at least ``until``.

        Trip j starts when trip j-1 ends, ends at ``growth**j + j*pad`` and
        reaches half its length (see the class docstring).  Every schedule
        with this ``alpha`` and ``pad`` (types included: a ``Fraction``
        alpha and an equal rational ``QuadraticScalar`` one give trips of
        different types) shares one memoized list of trips, extended
        one trip at a time as a caller walks past its end, so each trip is
        built once; a call yields a prefix of that list.
        """
        trips = _trip_memo(self.alpha, self.pad)
        j = 0
        while True:
            if j == len(trips):  # trip j ends at growth**j + j*pad; trip j+1 starts there
                start = trips[-1][1] if trips else _ZERO
                power = (start - j * self.pad) * self.growth if trips else self.growth
                end = power + (j + 1) * self.pad
                trips.append((start, end, (end - start) / 2))
            trip = trips[j]
            yield trip
            if trip[2] >= until:
                return
            j += 1


@functools.lru_cache(maxsize=64, typed=True)
def _trip_memo(alpha, pad) -> list:
    """The trips built so far for one ``(alpha, pad)``, only ever appended
    to; see ``RoundTripSchedule.trips``."""
    return []


def roundtrip_trajectory(path: Tour, schedule: RoundTripSchedule, horizon) -> Trajectory:
    """Clamped geometric round trips over a path, until ``horizon``.

    Each trip walks the path from the origin out to arc ``min(reach, length)``
    and back.  Once the reach passes the path length, every further trip
    sweeps the whole path.  An empty path parks at the origin.
    """
    walk = path.walk
    total = walk.end_time
    if total == 0 or horizon <= 0:
        return Trajectory(((_ZERO, _ZERO),))
    # arc marks of the path's own turning points (direction changes in space)
    marks = walk.breakpoints[1:]
    *geometric, _ = schedule.trips(total)
    reaches = [reach for _, _, reach in geometric]
    pts: List[Tuple[object, object]] = [(_ZERO, _ZERO)]
    t = _ZERO
    j = 0
    while t < horizon:
        reach = reaches[j] if j < len(reaches) else total
        turn_pos = walk.position_at(reach)
        for c, p in marks:
            if c < reach:
                pts.append((t + c, p))
        pts.append((t + reach, turn_pos))
        for c, p in reversed(marks):
            if c < reach:
                pts.append((t + 2 * reach - c, p))
        t = t + 2 * reach
        pts.append((t, _ZERO))
        j += 1
    return Trajectory(tuple(pts))


def coverage_horizon(path: Tour, schedule: RoundTripSchedule, latest_arrival):
    """A time by which every on-path location has surely been visited after
    every arrival: full-coverage trips repeat every round after the reach
    first exceeds the path length."""
    total = path.walk.end_time
    if total == 0:
        return _ZERO
    *_, (_, end, _) = schedule.trips(total)
    return end + latest_arrival + 4 * total + 1


def _sweep_at(x, y, period) -> int:
    """The full sweep under way ``(x, y)`` after the first starts, in integer
    pairs: ``max(floor((x, y)/period), 0)``, times the conjugate over the norm."""
    pa, pb = period
    return max(_surd_floor(x * pa - 3 * y * pb, y * pa - x * pb, pa * pa - 3 * pb * pb), 0)


def _trip_moves(legs, reach):
    """The moves ``(ta, pa, tb, pb)`` of one round trip out to arc ``reach``
    along the path's ``legs`` (``_trip_geometry``) and back, timed from the
    trip's start; integer pairs over the legs' denominator."""
    out, back = [], []
    ra, rb = reach
    for (ca, cb), (ua, ub), (va, vb) in legs:
        if _pair_sign(ra - ca, rb - cb) <= 0:
            break
        s = _pair_sign(va - ua, vb - ub)
        ea, eb = ca + s * (va - ua), cb + s * (vb - ub)  # the arc at the leg's end
        if _pair_sign(ea - ra, eb - rb) > 0:  # the trip turns on this leg
            ea, eb, va, vb = ra, rb, ua + s * (ra - ca), ub + s * (rb - cb)
        out.append(((ca, cb), (ua, ub), (ea, eb), (va, vb)))
        back.append(((2 * ra - ea, 2 * rb - eb), (va, vb), (2 * ra - ca, 2 * rb - cb), (ua, ub)))
    return out + back[::-1]


def _next_pass(geometric, base, period, s, arrival):
    """Earliest time at or after ``arrival`` at which the round trips are at
    arc ``s``: out and back in each geometric trip ``(start, end, reach)``
    that reaches it, then at ``base + k*period + s`` and
    ``base + (k+1)*period - s`` for ``k >= 0``.

    Every value is an integer pair ``(a, b)`` standing for
    ``(a + b*sqrt(3))/d``, over one ``d`` shared by all of them; so is the
    result.  ``_pair_sign`` orders the pairs and ``_surd_floor`` counts the
    whole periods before the arrival."""
    (sa, sb), (aa, ab) = s, arrival
    # start + s >= arrival iff start >= early; end - s >= arrival iff end >= late
    ea, eb, la, lb = aa - sa, ab - sb, aa + sa, ab + sb
    for (ta, tb), (na, nb), (ra, rb) in geometric:
        if _pair_sign(na - la, nb - lb) >= 0 and _pair_sign(ra - sa, rb - sb) >= 0:
            if _pair_sign(ta - ea, tb - eb) >= 0:
                return ta + sa, tb + sb
            return na - sa, nb - sb
    (ba, bb), (pa, pb) = base, period
    k = _sweep_at(ea - ba, eb - bb, period)
    wa, wb = ba + k * pa, bb + k * pb  # the sweep of period k starts at (wa, wb)
    if _pair_sign(wa - ea, wb - eb) >= 0:
        return wa + sa, wb + sb
    wa, wb = wa + pa, wb + pb
    if _pair_sign(wa - la, wb - lb) >= 0:
        return wa - sa, wb - sb
    return wa + sa, wb + sb


def _trip_geometry(planned: PlannedTrips):
    """``(d0, over)``: the round trips of ``planned`` in integer pairs
    ``(a, b)``, meaning ``(a + b*sqrt(3))/d0`` over their common
    denominator ``d0``, and ``over``, a dict from each denominator ``d``
    rescaled to so far (``d0`` first) to ``(geometric, legs, sweeps)`` over
    ``d``: the geometric trips as ``(start, end, reach)``, the path's legs as
    ``(arc at start, start, end)`` and the full sweeps as ``(base,
    period)``.  The path must have positive length."""
    pts, total = planned.path.walk.breakpoints, planned.path.walk.end_time
    trips = list(planned.schedule.trips(total))
    d0, scaled = _scaled_pairs([v for row in trips + list(pts) for v in row] + [2 * total])
    it = iter(scaled)
    *geometric, (base, _, _) = [(next(it), next(it), next(it)) for _ in trips]
    walk = [(next(it), next(it)) for _ in pts]
    legs = [(at, u, v) for (at, u), (_, v) in zip(walk, walk[1:])]
    return d0, {d0: (geometric, legs, (base, next(it)))}


def roundtrip_completions(planned: PlannedTrips, requests) -> List[Optional[object]]:
    """Exact completion of every ``(location, arrival)`` in ``requests`` under
    the clamped round trips of ``planned``; None where the path never
    reaches the location.

    The path passes a location at one arc per leg crossing it.  A geometric
    trip ``(start, end, reach)`` with ``reach >= s`` is at arc ``s`` at
    ``start + s`` and ``end - s``; from the first trip whose reach clamps to
    the path length ``L``, trips repeat with period ``2L``.  The completion
    is the earliest of those times at or after the arrival, taken over all
    arcs, so the cost grows with the legs and the geometric trips, not with
    the arrival.  It equals ``roundtrip_trajectory(...).first_service_time``
    on a trajectory long enough to serve the request.

    The trips and the legs come in integer pairs from the plan's own
    geometry (``PlannedTrips._geometry``), scaled once per plan over their
    common denominator ``d0`` and rescaled once per distinct ``d = lcm(d0,
    denominators of the request)``, so pairwise coprime requests do not grow
    each other's integers, and a plan read by many calls is scaled once.
    The per-request work is integer arithmetic; each request's earliest pass
    is converted back once, to a ``Fraction`` when ``b == 0`` and a
    ``QuadraticScalar`` otherwise.
    """
    if planned.path.walk.end_time == 0:  # parked at the origin
        return [arrival if loc == 0 else None for loc, arrival in requests]
    d0, over = planned._geometry
    out: List[Optional[object]] = []
    for loc, arrival in requests:
        (lp, lq), (ap, aq) = _parts(loc), _parts(arrival)
        d = math.lcm(d0, lp.denominator, lq.denominator, ap.denominator, aq.denominator)
        if d not in over:
            f, (geometric, legs, sweeps) = d // d0, over[d0]
            over[d] = (_times(geometric, f), _times(legs, f), _times([sweeps], f)[0])
        geometric_d, legs_d, (base, period) = over[d]
        xa, xb = lp.numerator * (d // lp.denominator), lq.numerator * (d // lq.denominator)
        arrival = ap.numerator * (d // ap.denominator), aq.numerator * (d // aq.denominator)
        arcs = set()
        for (ca, cb), (ua, ub), (va, vb) in legs_d:
            from_u, from_v = _pair_sign(xa - ua, xb - ub), _pair_sign(xa - va, xb - vb)
            if from_u * from_v <= 0:  # the leg crosses the location, at arc + |loc - u|
                arcs.add((ca + from_u * (xa - ua), cb + from_u * (xb - ub)))
        best = None
        for s in arcs:
            t = _next_pass(geometric_d, base, period, s, arrival)
            if best is None or _pair_sign(t[0] - best[0], t[1] - best[1]) < 0:
                best = t
        if best is None:
            out.append(None)
        elif best[1] == 0:
            out.append(Fraction(best[0], d))
        else:
            out.append(QuadraticScalar(Fraction(best[0], d), Fraction(best[1], d)))
    return out


# --- strategies ----------------------------------------------------------------


@dataclass(frozen=True)
class VisibleInfo:
    """What a strategy may see before time 0."""

    line: LineSegment
    predictions: Optional[Tuple[Fraction, ...]]  # None in the original model


def visible_info(instance: Instance) -> VisibleInfo:
    preds = instance.predictions if instance.model is Model.PREDICTION else None
    return VisibleInfo(instance.line, preds)


@dataclass(frozen=True)
class PlannedTrips:
    """Round trips of ``schedule`` over ``path``, committed before time 0."""

    path: Tour
    schedule: RoundTripSchedule

    @functools.cached_property
    def _geometry(self):
        """The trips, legs and sweeps in integer pairs (``_trip_geometry``),
        built on first use and kept with this plan; ``roundtrip_completions``
        adds each new denominator's rescale to it."""
        return _trip_geometry(self)

    def moves(self, lo: int):
        """``(d0, moves)``: the committed motion from the trip under way at
        integer time ``lo``, as unit-speed moves ``(ta, pa, tb, pb)`` in integer
        pairs over ``d0``: the geometric trips left, then the full sweeps.  With
        a rational period integer steps fall alike in sweeps ``d0/gcd(pa, d0)``
        apart, so the sweeps end after those.  The path must have positive length."""
        d0, over = self._geometry
        geometric, legs, (base, period) = over[d0]
        (ba, bb), (pa, pb), at = base, period, lo * d0
        ahead = [(t, r) for t, (na, nb), r in geometric if _pair_sign(na - at, nb) > 0]
        first = _sweep_at(at - ba, -bb, period)
        ks = itertools.count(first) if pb else range(first, first + 1 + d0 // math.gcd(pa, d0))
        # a full sweep reaches the path's length, half the period
        tail = (((ba + k * pa, bb + k * pb), (pa // 2, pb // 2)) for k in ks)
        return d0, (
            ((ta + sa, tb + sb), p, (ua + sa, ub + sb), q)
            for (sa, sb), reach in itertools.chain(ahead, tail)
            for (ta, tb), p, (ua, ub), q in _trip_moves(legs, reach)
        )


class Strategy(abc.ABC):
    name: str = "strategy"


class FixedPathStrategy(Strategy):
    """Commits to a path and a trip schedule before time 0."""

    @abc.abstractmethod
    def plan(self, info: VisibleInfo) -> PlannedTrips:
        ...


class AdaptiveStrategy(Strategy):
    """Reacts to arrivals as they happen."""

    @abc.abstractmethod
    def start(self, info: VisibleInfo) -> "ReplanSession":
        """A fresh session for one run.  The caller feeds it each batch of
        requests with ``on_arrivals(time, locations)``, in time order, and
        reads the motion so far from ``trajectory()`` and one completion per
        fed request, in feed order, from ``completions()``; the release game
        needs each move of ``trajectory()`` to the right at unit speed."""


def extend_tour_to_line(tour: Tour, line: LineSegment) -> Tour:
    """Append the line endpoints to a tour's visit order, so the walk keeps
    sweeping the whole segment once the planned targets are covered."""
    return canonical_tour(tour.turning_points + (line.a, line.b))


@dataclass(frozen=True)
class LineSweepRoundTrips(FixedPathStrategy):
    """Prediction-free fallback on a general segment: round trips over a
    zigzag that sweeps the whole line, left end first."""

    alpha: object = DEFAULT_ALPHA
    name: str = field(default="line-sweep", init=False)

    def plan(self, info: VisibleInfo) -> PlannedTrips:
        path = canonical_tour((info.line.a, info.line.b))
        return PlannedTrips(path, RoundTripSchedule(self.alpha))


@dataclass(frozen=True)
class HalflineRoundTrips(LineSweepRoundTrips):
    """The line sweep on a half-line, where its zigzag is one leg out to the far end."""

    name: str = field(default="halfline-roundtrips", init=False)

    def plan(self, info: VisibleInfo) -> PlannedTrips:
        if not info.line.is_halfline():
            raise ValueError("halfline-roundtrips needs the origin at an endpoint")
        return super().plan(info)


@dataclass(frozen=True)
class PerfectPredictionTour(FixedPathStrategy):
    """Trusts the predicted locations outright: round trips along the
    latency-optimal tour of the predictions, extended to sweep the line."""

    alpha: object = DEFAULT_ALPHA
    name: str = field(default="prediction-tour", init=False)

    def plan(self, info: VisibleInfo) -> PlannedTrips:
        if info.predictions is None:
            raise ModelMismatchError(f"{self.name} needs predicted locations")
        tour, _ = optimal_latency_tour(info.predictions)
        return PlannedTrips(extend_tour_to_line(tour, info.line), RoundTripSchedule(self.alpha))


def shrink_toward_origin(p, delta):
    """Move a location ``delta`` toward the origin, stopping there."""
    if p >= 0:
        return max(p - delta, _ZERO)
    return min(p + delta, _ZERO)


def padded_robust_path(predictions: Sequence, delta, line: LineSegment) -> Tour:
    """Error-tolerant walk for predictions off by at most ``delta``.

    Plans the latency-optimal tour of the predictions pulled ``delta`` toward
    the origin, pushes each turning point ``2*delta`` outward (clamped to the
    line), and finally guarantees coverage of every point within ``delta`` of
    a prediction -- the pull can flatten near-origin predictions onto 0, which
    would otherwise leave their error neighborhoods uncovered.
    """
    delta = _exact(delta, "delta")
    shrunk = [shrink_toward_origin(p, delta) for p in predictions]
    tour, _ = optimal_latency_tour(shrunk)
    padded = [
        min(tp + 2 * delta, line.b) if tp > 0 else max(tp - 2 * delta, line.a)
        for tp in tour.turning_points
    ]
    if predictions:
        lo_req = max(min(predictions) - delta, line.a)
        hi_req = min(max(predictions) + delta, line.b)
        padded += [lo_req, hi_req]
    return canonical_tour(padded)


@dataclass(frozen=True)
class RobustPredictionTour(FixedPathStrategy):
    """Prediction tour hardened against location error up to ``delta``.

    Below the fallback threshold ``(2-sqrt(3))/4`` of the line length it runs
    padded round trips over the error-tolerant walk; at or above it, the
    predictions are too noisy to help and it degrades to the prediction-free
    sweep.
    """

    delta: Fraction = _ZERO
    alpha: object = DEFAULT_ALPHA
    name: str = field(default="robust-tour", init=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", _exact(self.delta, "delta"))
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def plan(self, info: VisibleInfo) -> PlannedTrips:
        if info.predictions is None:
            raise ModelMismatchError(f"{self.name} needs predicted locations")
        if self.delta >= FALLBACK_THRESHOLD * info.line.length:
            return LineSweepRoundTrips(self.alpha).plan(info)
        path = padded_robust_path(info.predictions, self.delta, info.line)
        return PlannedTrips(path, RoundTripSchedule(self.alpha, pad=4 * self.delta))


class ReplanSession:
    """Mutable state of one adaptive run; see GreedyReplan."""

    def __init__(self):
        self._trajectory = Trajectory(((_ZERO, _ZERO),))
        self._last = _ZERO  # the latest arrival time fed
        self._locations: List[object] = []  # one per fed request, in feed order
        self._completions: List[object] = []  # likewise
        self._unserved: List[int] = []  # indices of the requests unserved at ``_last``

    def on_arrivals(self, time, locations: Sequence) -> None:
        """Fold in all requests arriving at ``time`` and replan from here.

        Each request's completion comes in closed form.  One served by
        ``time`` keeps its completion; a new one at the server's position
        ``pos`` completes at ``time``; every other one is replanned and
        completes at ``time`` plus its first visit along the new walk from
        ``pos``.  A ``QuadraticScalar`` time with no ``sqrt(3)`` part is read
        as its ``Fraction``, so the cut splits no leg at a surd-typed point
        and the trajectory replays the completions in their own type.  Raises
        ValueError, before any state changes, when ``time`` comes before an
        earlier arrival or finds the server at a surd position.
        """
        rational, surd = _parts(time)
        if not surd:
            time = rational
        if time < self._last:
            raise ValueError(f"arrival {time} comes before the earlier arrival {self._last}")
        committed = self._trajectory.truncated(time)
        t, at = committed.breakpoints[-1]
        pos, surd = _parts(at)
        if surd:
            raise ValueError(f"arrival {time} finds the server at the surd position {at}")
        fed = len(self._locations)
        locations = self._locations + list(locations)
        completions = self._completions + [t if loc == pos else None for loc in locations[fed:]]
        unserved = [i for i in self._unserved if completions[i] > time]
        unserved += [i for i in range(fed, len(locations)) if completions[i] is None]
        targets = [locations[i] - pos for i in unserved]
        tour, _ = optimal_latency_tour(targets)
        walk = tour.walk.breakpoints
        # first visits along the walk, in integers over one denominator
        d, scaled = _scaled_pairs([v for bp in walk for v in bp] + targets)
        it = iter(scaled)
        walk_d = [(next(it)[0], next(it)[0]) for _ in walk]  # rational
        for i, (x, _) in zip(unserved, it):
            completions[i] = t + Fraction(_first_visit(walk_d, x), d)
        suffix = [(t + s, pos + x) for s, x in walk[1:]]
        self._trajectory = committed.extended(suffix)
        self._last, self._locations, self._completions = time, locations, completions
        self._unserved = unserved

    def trajectory(self) -> Trajectory:
        return self._trajectory

    def completions(self) -> List[object]:
        """The completion of every request fed so far, in feed order: the
        first time at or after its arrival that ``trajectory()`` reaches it."""
        return list(self._completions)


@dataclass(frozen=True)
class GreedyReplan(AdaptiveStrategy):
    """On every arrival, replans a latency-optimal walk over the requests
    still unserved, from the current position.  Ignores predictions."""

    name: str = field(default="greedy-replan", init=False)

    def start(self, info: VisibleInfo) -> ReplanSession:
        return ReplanSession()


def select_algorithm(instance: Instance, delta=None, alpha=DEFAULT_ALPHA) -> Strategy:
    """Pick a strategy for an instance given the promised error bound.

    With predictions and an error bound strictly below ``(2-sqrt(3))/4``
    (about 0.067) of the line length, prediction-guided round trips keep their
    worst-case guarantee; from the threshold up (or without predictions) the
    prediction-free schedule is the safe choice.
    """
    if instance.model is Model.PREDICTION:
        if delta is None or delta == 0:
            return PerfectPredictionTour(alpha)
        if delta < FALLBACK_THRESHOLD * instance.line.length:
            return RobustPredictionTour(_exact(delta, "delta"), alpha)
    if instance.line.is_halfline():
        return HalflineRoundTrips(alpha)
    return LineSweepRoundTrips(alpha)


STRATEGY_NAMES = ("halfline", "sweep", "perfect", "robust", "greedy")


def make_strategy(name: str, alpha=DEFAULT_ALPHA, delta=_ZERO) -> Strategy:
    """Build a strategy from its CLI name."""
    if name == "halfline":
        return HalflineRoundTrips(alpha)
    if name == "sweep":
        return LineSweepRoundTrips(alpha)
    if name == "perfect":
        return PerfectPredictionTour(alpha)
    if name == "robust":
        return RobustPredictionTour(delta, alpha)
    if name == "greedy":
        return GreedyReplan()
    raise ValueError(f"unknown strategy {name!r} (choose from {', '.join(STRATEGY_NAMES)})")
