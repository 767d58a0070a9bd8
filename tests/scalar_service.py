"""An independent reference for the crossing rule, in scalar arithmetic.

``Trajectory.first_service_time`` and the release game's witness replay
share one crossing rule on integer pairs (``core._pair_visit``).  This
module keeps the scan the plain way: bisect to the segment in progress at
``not_before``, then walk the segments and the parked tail in time order,
comparing and adding the scalars themselves: a unit-speed move from ``pa``
at ``ta`` is at ``loc`` at ``ta + abs(loc - pa)``.  Tests compare the two.
"""

import bisect


def reference_first_service_time(traj, loc, not_before=0):
    """Earliest t >= not_before with ``traj.position_at(t) == loc``, or None:
    a wait's start or ``not_before`` itself, the parked tail's likewise, and
    ``ta + abs(loc - pa)`` on a move, in the types those give."""
    pts = traj.breakpoints
    k = max(bisect.bisect_right([t for t, _ in pts], not_before) - 1, 0)
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
