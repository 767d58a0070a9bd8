"""Test helpers for a session's motion, and an independent replanner.

``motion(until)`` is the one motion a session gives, in integer pairs.
``checked_trajectory`` converts it back and passes it through the checked
``Trajectory`` constructor, so every replay of it re-checks the motion: it
starts at the origin, its times increase and it waits or moves at unit speed.
``count_trajectories`` records every ``Trajectory`` built, checked or not.
``RecheckAllSession`` is the replanner written the plain way, in scalar
arithmetic, as a reference for ``online.ReplanSession``.  Both cut motions
by ``scalar_cut``, whose positions come from ``scalar_service``'s own rule,
so neither runs the engine's cut (``core._cut``).
"""

from fractions import Fraction as F

from linetrp.core import QuadraticScalar, Trajectory, _pair_scalar
from linetrp.offline import optimal_latency_tour
from scalar_service import reference_position


def checked_trajectory(session, until) -> Trajectory:
    """``session.motion(until)`` as a ``Trajectory``, through the checked
    constructor: each pair converted back with ``core._pair_scalar``."""
    d, pts = session.motion(until)
    return Trajectory(tuple([(_pair_scalar(*t, d), _pair_scalar(*p, d)) for t, p in pts]))


def count_trajectories(monkeypatch) -> list:
    """Patch ``Trajectory`` so that every one built from now on, by the
    checked constructor or by ``Trajectory._unchecked``, is appended to the
    list returned."""
    built = []
    check, unchecked = Trajectory.__post_init__, Trajectory._unchecked.__func__

    def post_init(self):
        check(self)
        built.append(self)

    def counted_unchecked(cls, pts):
        built.append(unchecked(cls, pts))
        return built[-1]

    monkeypatch.setattr(Trajectory, "__post_init__", post_init)
    monkeypatch.setattr(Trajectory, "_unchecked", classmethod(counted_unchecked))
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
