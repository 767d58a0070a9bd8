"""Online strategies: geometric round-trip schedules and prediction-guided tours.

Every strategy serves the one stream of requests, each learnt when it
arrives, through one session protocol (``Strategy.start``).  A committed
plan's session (``CommittedSession``) reads its completions in closed form;
the replanner's (``ReplanSession``) keeps them in closed form as it replans.

All schedule arithmetic is exact, in Q[sqrt(3)] (``core.QuadraticScalar``):
the optimal trip growth rate involves ``sqrt(3)``.  A ``PlannedTrips`` owns
the committed motion: it scales the schedule's trips and the path's turning
points once, on first use, to integer pairs ``(a, b)``, meaning ``(a +
b*sqrt(3))/d`` over a common denominator ``d``, adds up the legs' arcs
in those integers and ends the geometric trips, compared in integers too,
at the first that reaches the path's length (``_trip_geometry``; no
``Trajectory`` of the path is built).  Those trips are one stream of
breakpoints ``(time, position)`` in integer pairs (``PlannedTrips._trips``),
the one format of every motion: a session's motion
(``CommittedSession.motion``, which ``roundtrip_trajectory`` converts back)
and the release game's (``CommittedSession.motion_from``) read it; the
closed-form completions (``roundtrip_completions``) read the same geometry,
with one rescale kept per distinct request denominator.  The replanner
keeps its motion in the same form: breakpoints in integer pairs over one
denominator, cut (``core._cut``, which ``CommittedSession.motion`` and a
``Trajectory`` apply too) and extended as it replans, and handed out as
they are by its ``motion`` and ``motion_from``; each replan's walk is the
interval DP's integer entry (``offline._latency_walk``) over the targets
less the server's position, on that denominator.  The completions convert
their pairs back once (``core._pair_scalar``): a pair with a ``sqrt(3)``
part over ``d`` is already a ``QuadraticScalar``'s own triple, reduced by
one gcd, and the scalars they are given are read back as triples
(``core._triples``) with no ``Fraction`` built; the motion stays integers.
The robust plan (``padded_robust_path``) pulls, solves, pads and clamps in
integers too, and builds one scalar per waypoint.
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
    _common_scale,
    _cut,
    _exact,
    _pair_scalar,
    _pair_sign,
    _rational_ints,
    _scaled_pairs,
    _segment_at,
    _surd_floor,
    _triples,
    parse_scalar,
)
from .offline import Tour, _first_visit, _latency_walk, canonical_tour, optimal_latency_tour

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
        for trip in self._memo_trips():
            yield trip
            if trip[2] >= until:
                return

    def _memo_trips(self):
        """Every trip, without end: the memoized list of ``trips``, extended
        as the caller walks past its end."""
        trips = _trip_memo(type(self.alpha), type(self.pad), *_triples([self.alpha, self.pad]))
        for j in itertools.count():
            if j == len(trips):  # trip j ends at growth**j + j*pad; trip j+1 starts there
                start = trips[-1][1] if trips else _ZERO
                power = (start - j * self.pad) * self.growth if trips else self.growth
                end = power + (j + 1) * self.pad
                trips.append((start, end, (end - start) / 2))
            yield trips[j]


@functools.lru_cache(maxsize=64)
def _trip_memo(alpha_type, pad_type, alpha, pad) -> list:
    """The trips built so far for one ``(alpha, pad)``, keyed by their types
    and integer triples (``core._triples``), only ever appended to; see
    ``RoundTripSchedule.trips``."""
    return []


def roundtrip_trajectory(path: Tour, schedule: RoundTripSchedule, horizon) -> Trajectory:
    """Clamped geometric round trips over a path, cut at ``horizon``: the
    committed session's motion (``CommittedSession.motion``), converted back
    once (``Trajectory._of_pairs``).  Each trip walks the path from the
    origin out to arc ``min(reach, length)`` and back; once the reach passes
    the path length, every further trip sweeps the whole path.  An empty
    path parks at the origin."""
    return Trajectory._of_pairs(*CommittedSession(PlannedTrips(path, schedule)).motion(horizon))


def coverage_horizon(path: Tour, schedule: RoundTripSchedule, latest_arrival):
    """A time by which every on-path location has surely been visited after
    every arrival: full-coverage trips repeat every round after the reach
    first exceeds the path length."""
    if not path.turning_points:
        return _ZERO
    total = path.walk.end_time
    *_, (_, end, _) = schedule.trips(total)
    return end + latest_arrival + 4 * total + 1


def _sweep_at(x, y, period) -> int:
    """The full sweep under way ``(x, y)`` after the first starts, in integer
    pairs: ``max(floor((x, y)/period), 0)``, times the conjugate over the norm."""
    pa, pb = period
    return max(_surd_floor(x * pa - 3 * y * pb, y * pa - x * pb, pa * pa - 3 * pb * pb), 0)


def _trip_points(legs, start, reach):
    """The breakpoints ``(time, position)`` after its start of the round
    trip from the origin at time ``start`` out to arc ``reach`` along the
    path's ``legs`` (``_trip_geometry``) and back by ``start + 2*reach``: the
    outward legs' ends, then the return legs', in the legs' integer pairs."""
    out, back = [], []
    (sa, sb), (ra, rb) = start, reach
    fa, fb = sa + 2 * ra, sb + 2 * rb  # the trip's end
    for (ca, cb), (ua, ub), (va, vb) in legs:
        if _pair_sign(ra - ca, rb - cb) <= 0:
            break
        s = _pair_sign(va - ua, vb - ub)
        ea, eb = ca + s * (va - ua), cb + s * (vb - ub)  # the arc at the leg's end
        if _pair_sign(ea - ra, eb - rb) > 0:  # the trip turns on this leg
            ea, eb, va, vb = ra, rb, ua + s * (ra - ca), ub + s * (rb - cb)
        out.append(((sa + ea, sb + eb), (va, vb)))
        back.append(((fa - ca, fb - cb), (ua, ub)))
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
    period)``.  The path's turning points and the trips are scaled once
    each: the legs' arcs and the period, twice the path's length, are added
    up in integers over the turning points' denominator, and the trips are
    taken from the schedule's memo up to the first whose reach, read as its
    integer triple, is at least that length.  The path must have positive
    length."""
    e, turns = _scaled_pairs(planned.path.turning_points)
    legs, (ca, cb), (ua, ub) = [], (0, 0), (0, 0)
    for va, vb in turns:  # each leg runs from (ua, ub) at arc (ca, cb)
        legs.append(((ca, cb), (ua, ub), (va, vb)))
        s = _pair_sign(va - ua, vb - ub)
        ca, cb, ua, ub = ca + s * (va - ua), cb + s * (vb - ub), va, vb
    trips = []  # up to the first that reaches the path's length, (ca, cb) over e
    for trip in planned.schedule._memo_trips():
        trips.append(trip)
        [(ra, rb, rd)] = _triples([trip[2]])
        if _pair_sign(ra * e - ca * rd, rb * e - cb * rd) >= 0:
            break
    d, scaled = _scaled_pairs([v for trip in trips for v in trip])
    d0 = math.lcm(d, e)
    f, g = d0 // d, d0 // e
    it = iter([(a * f, b * f) for a, b in scaled])
    *geometric, (base, _, _) = [(next(it), next(it), next(it)) for _ in trips]
    period = (2 * ca * g, 2 * cb * g)
    return d0, {d0: (geometric, _times(legs, g), (base, period))}


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
    Every location and arrival is read as its integer triple in one pass
    (``core._triples``), so a request's ``d`` is one lcm over its two
    denominators.  The per-request work is integer arithmetic; each
    request's earliest pass is converted back once (``core._pair_scalar``).
    """
    if not planned.path.turning_points:  # parked at the origin
        return [
            _exact(arrival, "arrival") if _exact(loc, "location") == 0 else None
            for loc, arrival in requests
        ]
    d0, over = planned._geometry
    out: List[Optional[object]] = []
    triples = iter(_triples([v for pair in requests for v in pair]))
    for (xa, xb, xd), (ta, tb, td) in zip(triples, triples):  # location, arrival
        d = math.lcm(d0, xd, td)
        if d not in over:
            f, (geometric, legs, sweeps) = d // d0, over[d0]
            over[d] = (_times(geometric, f), _times(legs, f), _times([sweeps], f)[0])
        geometric_d, legs_d, (base, period) = over[d]
        f, g = d // xd, d // td
        xa, xb, arrival = xa * f, xb * f, (ta * g, tb * g)
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
        out.append(None if best is None else _pair_scalar(*best, d))
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

    def _trips(self, lo: int, once: bool = False):
        """``(d0, points)``: the committed motion from the round trip under
        way at integer time ``lo``, as one stream of breakpoints ``(time,
        position)`` in integer pairs over ``d0``: that trip's start at the
        origin, then each trip's own (``_trip_points``), the geometric trips
        left, then the full sweeps from the one under way, with no end.
        With a rational period integer steps fall alike in sweeps
        ``d0/gcd(pa, d0)`` apart; with ``once``, the sweeps end after those.
        The path must have positive length."""
        d0, over = self._geometry
        geometric, legs, (base, period) = over[d0]
        (ba, bb), (pa, pb), at = base, period, lo * d0
        ahead = [(t, r) for t, (na, nb), r in geometric if _pair_sign(na - at, nb) > 0]
        # a full sweep reaches the path's length, half the period
        ks = itertools.count(_sweep_at(at - ba, -bb, period))
        if once and not pb:
            ks = itertools.islice(ks, 1 + d0 // math.gcd(pa, d0))
        sweeps = (((ba + k * pa, bb + k * pb), (pa // 2, pb // 2)) for k in ks)
        trips = itertools.chain(ahead, sweeps)
        first = next(trips)
        points = (p for t, r in itertools.chain([first], trips) for p in _trip_points(legs, t, r))
        return d0, itertools.chain([(first[0], (0, 0))], points)


class Strategy(abc.ABC):
    name: str = "strategy"

    @abc.abstractmethod
    def start(self, info: VisibleInfo):
        """A fresh session for one run.  The caller feeds it each batch of
        requests with ``on_arrivals(pairs)``, ``(location, arrival)`` pairs
        none earlier than one fed before, and reads one completion per fed
        request, in feed order, from ``completions()`` (None where the
        motion never reaches it); the motion, in integer pairs, from
        ``motion(until)``: ``(d, pts)``, the breakpoints ``(time,
        position)`` from ``(0, 0)`` up to ``until >= 0``, each value a pair
        ``(a, b)`` meaning ``(a + b*sqrt(3))/d``, with the server parked
        after the last one; and, from ``motion_from(lo, beyond)``, those
        breakpoints from the one that starts the segment under way at
        integer time ``lo``, all that take the server right of ``beyond >=
        0`` included.  Between breakpoints the server waits or moves at unit
        speed, as a ``Trajectory`` does; the release game and its witness
        replay refuse a slower move where they read one.  These four are all
        a session has."""


class FixedPathStrategy(Strategy):
    """Commits to a path and a trip schedule before time 0."""

    @abc.abstractmethod
    def plan(self, info: VisibleInfo) -> PlannedTrips:
        ...

    def start(self, info: VisibleInfo) -> "CommittedSession":
        return CommittedSession(self.plan(info))


class CommittedSession:
    """One run of a committed plan: arrivals change no motion, so the fed
    requests wait until ``completions()`` is read and are resolved then, in
    one ``roundtrip_completions`` call."""

    def __init__(self, planned: PlannedTrips):
        self.planned, self._pending, self._completions = planned, [], []

    def on_arrivals(self, pairs) -> None:
        self._pending += pairs

    def completions(self) -> List[Optional[object]]:
        if self._pending:
            self._completions += roundtrip_completions(self.planned, self._pending)
            self._pending = []
        return list(self._completions)

    def motion(self, until):
        """The plan's own breakpoints (``PlannedTrips._trips(0)``) up to the
        first at or after ``ceil(until)``, brought to one denominator with
        ``until`` (``core._common_scale``) and cut there (``core._cut``), in
        integer pairs; an empty path is the origin alone."""
        d0, points = 1, [((0, 0), (0, 0))]
        if self.planned.path.turning_points:
            d0, points = self.planned._trips(0)
        pts, past = [], math.ceil(until) * d0
        for t, p in points:
            pts.append((t, p))
            if _pair_sign(t[0] - past, t[1]) >= 0:  # a breakpoint at the cut, or later
                break
        d, pts, [cut] = _common_scale(d0, pts, [until])
        _cut(pts, cut)
        return d, pts

    def motion_from(self, lo: int, beyond):
        """The plan's breakpoints from the start of the trip under way at ``lo``,
        up to where their integer steps repeat (``PlannedTrips._trips``); none
        when the path never goes right of ``beyond``."""
        if max(self.planned.path.turning_points, default=0) <= beyond:
            return 1, ()
        return self.planned._trips(lo, once=True)


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


def padded_robust_path(predictions: Sequence, delta, line: LineSegment) -> Tour:
    """Error-tolerant walk for predictions off by at most ``delta``.

    Plans the latency-optimal tour of the predictions pulled ``delta`` toward
    the origin (stopping there), pushes each turning point ``2*delta``
    outward (clamped to the line), and finally guarantees coverage of every
    point within ``delta`` of a prediction -- the pull can flatten
    near-origin predictions onto 0, which would otherwise leave their error
    neighborhoods uncovered.

    ``delta``, the predictions and the line's ends are scaled once to
    integers over one denominator ``d``; the pull, the tour
    (``offline._latency_walk``), the push and the clamps run in integers.
    Each waypoint handed to ``canonical_tour`` is one ``Fraction``, or the
    line's own end where it is clamped, so a line end may have a
    ``sqrt(3)`` part; a ``delta`` or prediction with one is refused
    (``core._rational_ints``).
    """
    delta = _exact(delta, "delta")
    d, [lo, hi, *pairs] = _scaled_pairs([line.a, line.b, delta, *predictions])
    da, *xs = _rational_ints(d, pairs, "delta and predictions")
    shrunk = [max(x - da, 0) if x >= 0 else min(x + da, 0) for x in xs]
    # each waypoint with the side it is clamped on: the turning points pushed out, then
    # the ends of the predictions' error neighborhoods
    turns = [x for _, x in _latency_walk(shrunk)[0][1:]]
    ends = [(x + 2 * da, 1) if x > 0 else (x - 2 * da, -1) for x in turns]
    if xs:
        ends += [(min(xs) - da, -1), (max(xs) + da, 1)]
    waypoints = []
    for x, side in ends:
        (ea, eb), end = (hi, line.b) if side > 0 else (lo, line.a)
        waypoints.append(end if _pair_sign(side * (x - ea), -side * eb) > 0 else Fraction(x, d))
    return canonical_tour(waypoints)


def _too_noisy(delta, line: LineSegment) -> bool:
    """Whether ``delta`` is at least ``FALLBACK_THRESHOLD`` times the line's
    length."""
    return delta >= FALLBACK_THRESHOLD * line.length


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
        if _too_noisy(self.delta, info.line):
            return LineSweepRoundTrips(self.alpha).plan(info)
        path = padded_robust_path(info.predictions, self.delta, info.line)
        return PlannedTrips(path, RoundTripSchedule(self.alpha, pad=4 * self.delta))


class ReplanSession:
    """Mutable state of one adaptive run; see GreedyReplan.

    The motion is kept as its breakpoints ``(time, position)`` in integer
    pairs ``(a, b)``, meaning ``(a + b*sqrt(3))/d`` over one denominator
    ``d``, as ``motion`` and ``motion_from`` hand it out; so is each fed
    location and each completion, the latter beside its scalar.  They are
    rescaled only when a batch brings a new denominator."""

    def __init__(self):
        self._d = 1
        self._pts = [((0, 0), (0, 0))]  # the motion's breakpoints, over ``_d``
        self._last = _ZERO  # the latest arrival time fed
        self._at: List[tuple] = []  # one location per fed request, in feed order
        self._done: List[tuple] = []  # likewise, its completion
        self._completions: List[object] = []  # likewise, as a scalar
        self._unserved: List[int] = []  # indices of the requests unserved at ``_last``

    def on_arrivals(self, pairs) -> None:
        """Replan at each arrival time of the batch, in time order.

        At time ``time`` the motion is cut (``core._cut``) at the server's
        position ``pos``.  Each completion comes in closed form: a request
        served by then keeps it, a new one at ``pos`` completes at ``time``,
        and every other one at ``time`` plus its first visit along the new
        walk from ``pos``, whose moves are appended; each is converted to a
        scalar once.  The walk is ``offline._latency_walk`` over the
        unserved locations less ``pos``, integers over the session's
        denominator.  A ``QuadraticScalar`` time or location with no
        ``sqrt(3)`` part is read as its ``Fraction``.  Raises ValueError,
        before any state changes, when a time comes before an earlier
        arrival or finds the server at a surd position, and TypeError,
        likewise, naming a location to walk to that has a ``sqrt(3)`` part
        (``core._rational_ints``).
        """
        d, pts, scaled = _common_scale(self._d, self._pts, [v for pair in pairs for v in pair])
        f, new = d // self._d, list(zip(scaled[::2], scaled[1::2]))
        at = [(a * f, b * f) for a, b in self._at] + [loc for loc, _ in new]
        done = [(a * f, b * f) for a, b in self._done] + [None] * len(pairs)
        completions = self._completions + [None] * len(pairs)
        # each arrival time: its pair and the requests fed at it; a rational
        # QuadraticScalar equals and hashes as its Fraction, so they share a key
        by_time: dict = {}
        for i, ((_, arrival), (_, when)) in enumerate(zip(pairs, new), len(self._at)):
            by_time.setdefault(arrival, (when, []))[1].append(i)
        last, unserved = self._last, self._unserved
        for time in sorted(by_time):
            if time < last:
                raise ValueError(f"arrival {time} comes before the earlier arrival {last}")
            (ca, cb), batch = by_time[time]
            _cut(pts, (ca, cb))
            pa, pb = pts[-1][1]
            if pb:
                pos = _pair_scalar(pa, pb, d)
                raise ValueError(f"arrival {time} finds the server at the surd position {pos}")
            unserved = [
                i for i in unserved if _pair_sign(done[i][0] - ca, done[i][1] - cb) > 0
            ]
            for i in batch:
                if at[i] == (pa, 0):
                    done[i], completions[i] = (ca, cb), _pair_scalar(ca, cb, d)
                else:
                    unserved.append(i)
            xs = [x - pa for x in _rational_ints(d, [at[i] for i in unserved])]  # from ``pos``
            walk = _latency_walk(xs)[0]  # over ``d``
            pts += [((ca + s, cb), (pa + x, 0)) for s, x in walk[1:]]
            for i, x in zip(unserved, xs):
                s = ca + _first_visit(walk, x)
                done[i], completions[i] = (s, cb), _pair_scalar(s, cb, d)
            last = time
        self._d, self._pts, self._last, self._unserved = d, pts, last, unserved
        self._at, self._done, self._completions = at, done, completions

    def motion(self, until):
        """The motion cut at ``until`` (``core._cut``), in integer pairs."""
        d, pts, [cut] = _common_scale(self._d, self._pts, [until])
        _cut(pts, cut)
        return d, pts

    def motion_from(self, lo: int, beyond):
        """The motion so far from the breakpoint that starts the segment
        under way at ``lo`` (``core._segment_at``), all of it."""
        return self._d, self._pts[_segment_at(self._pts, (lo * self._d, 0)) :]

    def completions(self) -> List[object]:
        """The completion of every request fed so far, in feed order: the
        first time at or after its arrival that the motion reaches it."""
        return list(self._completions)


@dataclass(frozen=True)
class GreedyReplan(Strategy):
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
        if not _too_noisy(_exact(delta, "delta"), instance.line):
            return RobustPredictionTour(delta, alpha)
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
