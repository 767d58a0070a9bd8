"""Independent references for the position and the crossing rule, in scalar
arithmetic.

``Trajectory.position_at`` and ``truncated`` cut the motion on integer
pairs (``core._cut``), and ``Trajectory.first_service_time`` and the release
game's witness replay share one crossing rule on them (``core._pair_visit``).
This module keeps both the plain way: bisect to the segment in progress at
the time asked, then compare and add the scalars themselves.  A unit-speed
move from ``pa`` at ``ta`` is at ``pa +- (t - ta)`` at ``t``, and at ``loc``
at ``ta + abs(loc - pa)``.  Tests compare the two.
"""

import bisect


def _segment(pts, t) -> int:
    """The index of the last breakpoint at or before ``t``, 0 when none is."""
    return max(bisect.bisect_right([bt for bt, _ in pts], t) - 1, 0)


def reference_position(traj, t):
    """The server's position on ``traj`` at ``t >= 0``: ``pa`` on a wait
    from ``pa`` or on the parked tail, ``pa +- (t - ta)`` on a move from
    ``pa`` at ``ta``, in the types those give."""
    pts = traj.breakpoints
    k = _segment(pts, t)
    ta, pa = pts[k]
    if k == len(pts) - 1 or pts[k + 1][1] == pa:
        return pa
    return pa + (t - ta) if pts[k + 1][1] > pa else pa - (t - ta)


def reference_first_service_time(traj, loc, not_before=0):
    """Earliest t >= not_before with ``traj.position_at(t) == loc``, or None:
    a wait's start or ``not_before`` itself, the parked tail's likewise, and
    ``ta + abs(loc - pa)`` on a move, in the types those give."""
    pts = traj.breakpoints
    k = _segment(pts, not_before)
    for (ta, pa), (_, pb) in zip(pts[k:], pts[k + 1 :]):
        if pa == pb:
            if pa == loc:
                return ta if ta >= not_before else not_before
        elif min(pa, pb) <= loc <= max(pa, pb):
            tc = ta + abs(loc - pa)
            if tc >= not_before:
                return tc
    if pts[-1][1] == loc:
        tail = pts[-1][0]
        return tail if tail >= not_before else not_before
    return None
