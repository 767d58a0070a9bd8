"""An independent reference for the committed round-trip motion, in scalar
arithmetic.

``online.roundtrip_trajectory`` builds the motion from the plan's integer
trips (``PlannedTrips``).  This module walks the same trips the plain way:
the schedule's trips as ``(start, end, reach)`` scalars, the path's turning
marks by arc, and each turnaround read off the path's walk by
``scalar_service.reference_position``, not by the engine's cut.  Tests
compare the two, on plans ``random_plan`` draws.
"""

from fractions import Fraction as F

from linetrp.core import LineSegment, Trajectory
from linetrp.online import (
    DEFAULT_ALPHA,
    LineSweepRoundTrips,
    PerfectPredictionTour,
    RobustPredictionTour,
    VisibleInfo,
)
from scalar_service import reference_position

_ZERO = F(0)


def reference_trajectory(path, schedule, horizon) -> Trajectory:
    """Clamped geometric round trips over ``path``, until ``horizon``.

    Each trip walks the path from the origin out to arc ``min(reach,
    length)`` and back; whole trips are taken while the time is before
    ``horizon``.  Once the reach passes the path length, every further trip
    sweeps the whole path.  An empty path parks at the origin."""
    walk = path.walk
    total = walk.end_time
    if total == 0 or horizon <= 0:
        return Trajectory(((_ZERO, _ZERO),))
    # arc marks of the path's own turning points (direction changes in space)
    marks = walk.breakpoints[1:]
    *geometric, _ = schedule.trips(total)
    reaches = [reach for _, _, reach in geometric]
    pts = [(_ZERO, _ZERO)]
    t = _ZERO
    j = 0
    while t < horizon:
        reach = reaches[j] if j < len(reaches) else total
        turn_pos = reference_position(walk, reach)
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


def random_plan(rng):
    """A committed plan on a random half or full line: the sweep, the
    prediction tour or the robust tour, at a rational or the default alpha."""
    alpha = rng.choice([DEFAULT_ALPHA, F(3, 4), F(1, 2), F(2), F(7, 5)])
    lo_end = 0 if rng.random() < 0.4 else -rng.randint(1, 60)
    hi_end = rng.randint(1, 60)
    if rng.random() < 0.2:  # a half-line left of the origin
        lo_end, hi_end = -hi_end, 0
    line = LineSegment(F(lo_end, 4), F(hi_end, 4))
    preds = tuple(F(rng.randint(lo_end, hi_end), 4) for _ in range(rng.randint(1, 6)))
    info = VisibleInfo(line, preds)
    kind = rng.randrange(3)
    if kind == 0:
        return LineSweepRoundTrips(alpha).plan(info)
    if kind == 1:
        return PerfectPredictionTour(alpha).plan(info)
    return RobustPredictionTour(F(rng.randint(0, 6), 100), alpha).plan(info)
