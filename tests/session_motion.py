"""Test helpers for a session's motion, and an independent replanner.

``motion(until)`` is the one motion a session gives, in integer pairs.
``checked_trajectory`` converts it back with ``Trajectory._of_pairs``, the
one door into ``Trajectory``, whose constructor re-checks the motion on
every replay: it starts at the origin, its times increase and it waits or
moves at unit speed.  ``count_trajectories`` records every ``Trajectory``
built, as every one passes that check.
``RecheckAllSession`` is the replanner written the plain way, in scalar
arithmetic, as a reference for ``online.ReplanSession``.  Both cut motions
by ``scalar_cut``, whose positions come from ``scalar_service``'s own rule,
so neither runs the engine's cut (``core._cut``).
"""

from fractions import Fraction as F

from linetrp.core import QuadraticScalar, Trajectory
from linetrp.offline import optimal_latency_tour
from scalar_service import reference_position


def checked_trajectory(session, until) -> Trajectory:
    """``session.motion(until)`` as a ``Trajectory`` (``Trajectory._of_pairs``),
    checked by its constructor."""
    return Trajectory._of_pairs(*session.motion(until))


def count_trajectories(monkeypatch) -> list:
    """Patch ``Trajectory``'s check so that every one built from now on is
    appended to the list returned."""
    built = []
    check = Trajectory.__post_init__

    def post_init(self):
        check(self)
        built.append(self)

    monkeypatch.setattr(Trajectory, "__post_init__", post_init)
    return built


def scalar_cut(traj, until) -> list:
    """The breakpoints of ``traj`` cut and parked at ``until``, in scalar
    arithmetic: those before ``until`` (the start at least), then ``until``
    and the position there (``scalar_service.reference_position``) unless a
    breakpoint is there."""
    pts = traj.breakpoints
    kept = [bp for bp in pts if bp[0] < until] or [pts[0]]
    if kept[-1][0] < until:
        kept.append((until, reference_position(traj, until)))
    return kept


class RecheckAllSession:
    """Oracle for ``ReplanSession``: the replanner as it was written before it
    kept only the unserved requests.  It re-checks every known request
    against the committed motion, a ``Trajectory`` cut with ``scalar_cut``,
    on every arrival; a batch holds one arrival time."""

    def __init__(self):
        self._trajectory = Trajectory(((F(0), F(0)),))
        self._known = []

    def on_arrivals(self, pairs):
        (time,) = {arrival for _, arrival in pairs}
        locations = [loc for loc, _ in pairs]
        committed = Trajectory(tuple(scalar_cut(self._trajectory, time)))
        self._known.extend((loc, time) for loc in locations)
        unserved = [
            loc
            for loc, arrival in self._known
            if committed.first_service_time(loc, arrival) is None
        ]
        t, pos = committed.breakpoints[-1]
        if isinstance(pos, QuadraticScalar) and pos.q == 0:  # a rational cut at a surd time
            pos = pos.p
        tour, _ = optimal_latency_tour(loc - pos for loc in unserved)
        points = list(committed.breakpoints)
        prev = F(0)
        for v in tour.turning_points:
            t += abs(v - prev)
            points.append((t, pos + v))
            prev = v
        self._trajectory = Trajectory(tuple(points))
