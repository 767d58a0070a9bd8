"""Offline latency machinery: zigzag tours, their first visits, and the exact
latency-optimal service walk.

A tour starts at the origin and alternates direction, each turning point
strictly extending coverage on its side; ``canonical_tour`` collapses any
visit list into one in a single pass.  ``Tour.first_visit`` reads a
point's first-visit arc length off the tour's walk, with no division.  The
latency optimum is computed two independent ways: an interval dynamic
program (used everywhere) and a Held-Karp exhaustive search over every
service order (used as a cross-check oracle on small inputs).  Both scale
the locations once to integer pairs over their common denominator and
refuse a surd one with the same ``TypeError`` (``core._rational_ints``), so
a ``QuadraticScalar`` with no ``sqrt(3)`` part counts as its ``Fraction``;
they share no other code.  The DP's own entry, ``_latency_walk``, takes
integer positions and gives its walk, as ``(arc, position)`` pairs from
``(0, 0)``, and its total, integers in their scale:
``optimal_latency_tour`` wraps it in that scaling and a ``Tour``, and the
callers that already hold integers (the ratio evaluation, the replanner and
the robust plan) call it directly.
The search runs in pull form over (set of served points, last point
served): a set's full row of costs by last point is filled member by
member, each with one C-level minimum over the row of the set without it,
and the walk back recomputes predecessors instead of storing them.  The DP
counts repeats and sorts those integers, so it never hashes or orders a
``Fraction``.  Its states are (interval around the origin, end it stands
at), each keyed by one int that orders exactly as its
(cost, turns, first move) tuple and stored less a potential that makes going
straight on free: a relaxation costs one multiply, and the walk back turns
where a stored value differs from its straight-on predecessor's.  The DP's
tour is the walk it found, its turns alone.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import Scalar, Trajectory, _exact, _rational_ints, _scaled_pairs

_ZERO = Fraction(0)


class Direction(enum.Enum):
    LEFT = -1
    RIGHT = 1


@dataclass(frozen=True)
class Tour:
    """Alternating service walk from the origin.

    Leg k goes to ``turning_points[k]``; directions alternate and every
    turning point strictly extends the covered interval on its side.  An
    empty tour stays parked at the origin.
    """

    turning_points: Tuple[Scalar, ...]

    def __post_init__(self):
        tps = tuple([_exact(tp, "turning point") for tp in self.turning_points])
        object.__setattr__(self, "turning_points", tps)
        lo = hi = _ZERO
        left = self.first_direction is Direction.LEFT
        for tp in tps:
            if left:
                if not tp < lo:
                    raise ValueError(f"turning point {tp} does not extend left of {lo}")
                lo = tp
            else:
                if not tp > hi:
                    raise ValueError(f"turning point {tp} does not extend right of {hi}")
                hi = tp
            left = not left

    @property
    def first_direction(self) -> Direction:
        """LEFT iff the first turning point is negative; RIGHT when empty."""
        tps = self.turning_points
        return Direction.LEFT if tps and tps[0] < 0 else Direction.RIGHT

    @cached_property
    def walk(self) -> Trajectory:
        """The tour walked once at unit speed from time 0, then parked: each
        breakpoint time is the arc length walked to that turning point."""
        pts = [(_ZERO, _ZERO)]
        for tp in self.turning_points:
            arc, pos = pts[-1]
            pts.append((arc + abs(tp - pos), tp))
        return Trajectory(tuple(pts))

    def first_visit(self, x) -> Optional[Scalar]:
        """Arc length at which the walk first reaches ``x``, or None when it
        never does."""
        return _first_visit(self.walk.breakpoints, x)


def _first_visit(breakpoints, x):
    """The first-visit rule over a walk's ``(arc, position)`` breakpoints, in
    any exact numbers (``evaluate`` passes integers): the walk first reaches
    ``x`` on its way into the first breakpoint at or beyond ``x`` (on ``x``'s
    side of the origin), and overshoots it by the distance between the two."""
    for arc, p in breakpoints:
        if (p >= x) if x > 0 else (p <= x):
            return arc - abs(p - x)
    return None


def canonical_tour(waypoints: Iterable[Scalar]) -> Tour:
    """Collapse an ordered visit list into a canonical alternating tour.

    One pass: waypoints already covered by the walk so far are dropped, and a
    further extension on the same side as the last kept turning point
    replaces it, so no first visit happens later than in the literal walk.
    """
    kept: List[Scalar] = []
    lo = hi = _ZERO
    for w in waypoints:
        w = _exact(w, "waypoint")
        if lo <= w <= hi:
            continue
        lo, hi = min(lo, w), max(hi, w)
        if kept and (kept[-1] > 0) == (w > 0):
            kept[-1] = w
        else:
            kept.append(w)
    return Tour(tuple(kept))


# --- exact latency optimum ----------------------------------------------------


def optimal_latency_tour(points: Iterable[Scalar]) -> Tuple[Tour, Scalar]:
    """Minimum-latency service walk over the given rational locations (with
    repeats).

    Returns the optimal tour, as the walk back through the table finds its
    turns, and the exact minimal sum of first-visit times.  Locations at the
    origin are served at time 0 and do not influence the walk.  Ties prefer
    fewer direction changes, then a first move to the left (see
    ``_latency_walk``, which this scales the locations for: integers over
    their common denominator, and its turns and total back over it).  A
    location with a ``sqrt(3)`` part is refused (``core._rational_ints``).
    """
    scale, pairs = _scaled_pairs(list(points), "location")
    walk, total = _latency_walk(_rational_ints(scale, pairs))
    return Tour(tuple([Fraction(x, scale) for _, x in walk[1:]])), Fraction(total, scale)


def _latency_walk(positions: Sequence[int]) -> Tuple[List[Tuple[int, int]], int]:
    """The interval DP over integer ``positions`` (repeats allowed, those at
    the origin ignored): ``(walk, total)``, a minimum-latency walk from the
    origin at unit speed, as ``(arc, position)`` pairs from ``(0, 0)`` to
    each turning point, and its sum of first-visit times, integers in the
    positions' own scale.  ``optimal_latency_tour`` wraps it; callers that
    already hold integers (``evaluate``, the replanner and the robust plan)
    call it directly.

    Ties prefer fewer direction changes, then a first move to the left.
    That does not pin the walk down: every state then keeps its straight-on
    predecessor unless turning back is strictly cheaper, and the walk ends
    at the left end unless the right end is strictly better (turns and first
    move already fix the end, so this last rule never decides).

    Each state's (cost, turns, first_move_right) is packed into the int
    ``(cost*(m+1) + turns)*2 + first`` over the ``m`` distinct positions, the
    origin included; a step adds its length times the requests still waiting
    (the one it reaches included) times ``unit = 2*(m+1)``, a turn 2.  The
    table stores keys in potential form: over the sorted positions ``x``
    (origin at ``o``), with ``P_i``, ``O_j`` the requests waiting left of
    ``x_i`` and right of ``x_j`` times ``unit``, a walk over ``x_i..x_j``
    stores its key less ``D_i - x_i*O_j`` standing at ``x_i`` and less
    ``C_j + x_j*P_i`` at ``x_j`` (``D``, ``C``: what walking straight out
    there costs the requests on that side, 0 at ``o``).  Going straight on
    keeps the stored value; a turn back costs one multiply:
    ``L(i,j) = min(L(i+1,j), R(i+1,j) + 2*P_{i+1}*x_j + HL_j + gL_i)`` and
    ``R(i,j) = min(R(i,j-1), L(i,j-1) - 2*x_i*O_{j-1} + HR_j + gR_i)``, with
    ``HL_j = C_j + x_j*O_j + 2``, ``HR_j = x_j*O_{j-1} - C_j + 2``,
    ``gL_i = -x_i*P_{i+1} - D_i`` and ``gR_i = D_i - x_i*P_i``.  Potentials
    are multiples of ``unit``, shared by a state's candidates and at least 0
    (``x <= 0`` left of the origin), so stored values compare as the keys do
    and none exceeds its key.
    """
    weights = Counter(positions)
    del weights[0]  # a Counter ignores a missing key
    if not weights:
        return [(0, 0)], 0

    at = sorted([0, *weights])
    prefix = list(accumulate([weights[x] for x in at], initial=0))
    m, o = len(at), at.index(0)
    unit = 2 * (m + 1)
    # above every key (fewer than m steps, none longer than the span, at most
    # prefix[m] waiting), so above every stored value: an end no walk stands at
    never = (prefix[m] * (at[-1] - at[0]) * m + 1) * unit
    # the columns right of the origin, in one pass: (x_j, O_{j-1}, HL_j, HR_j)
    cols, c = [], 0
    wait = (prefix[m] - prefix[o + 1]) * unit
    for j in range(o + 1, m):
        xj, wait_before = at[j], wait
        c += (xj - at[j - 1]) * wait_before
        wait = (prefix[m] - prefix[j + 1]) * unit
        cols.append((xj, wait_before, c + xj * wait + 2, xj * wait_before - c + 2))
    # best[side][i][j - o]: the cheapest walk over at[i..j] standing at at[i]
    # (side 0) or at[j] (side 1); the origin's row is 1 (first move right), its column 0
    best = [[None] * o + [[0] + [never] * (m - o - 1)], [None] * o + [[1] * (m - o)]]
    d = 0
    for i in range(o - 1, -1, -1):
        xi = at[i]
        here, before = prefix[i + 1] * unit, prefix[i] * unit  # P_{i+1}, P_i
        d += (at[i + 1] - xi) * here
        g_left, g_right, twice_here, twice_x = -xi * here - d, d - xi * before, 2 * here, 2 * xi
        left, right = 0, never
        lrow, rrow = [0], [never]
        for (xj, wait_before, hl, hr), lnj, rnj in zip(cols, best[0][i + 1][1:], best[1][i + 1][1:]):
            turn = left - twice_x * wait_before + hr + g_right
            if turn < right:
                right = turn
            turn = rnj + twice_here * xj + hl + g_left
            left = turn if turn < lnj else lnj
            lrow.append(left)
            rrow.append(right)
        best[0][i], best[1][i] = lrow, rrow

    # the corners back in keys: add D_0 at the left end, C_{m-1} at the right
    key, side = min((best[0][0][-1] + d, 0), (best[1][0][-1] + c, 1))
    # walk back to the origin's row or column, keeping the final end and each end
    # turned back from: where a stored value differs from its straight-on predecessor's
    i, j = 0, m - 1
    value = best[side][i][j - o]
    turns = [at[j] if side else at[i]]
    while i < o < j:
        if side:
            j -= 1
        else:
            i += 1
        if best[side][i][j - o] != value:
            side ^= 1
            turns.append(at[j] if side else at[i])
            value = best[side][i][j - o]
    walk = [(0, 0)]
    for x in reversed(turns):
        walk.append((walk[-1][0] + abs(x - walk[-1][1]), x))
    return walk, key // unit




def brute_force_latency(points: Iterable[Scalar], max_n: int = 9) -> Tuple[Scalar, Tuple[Scalar, ...]]:
    """Exhaustive latency optimum over every service order (Held-Karp).

    Independent of the dynamic program above: its states are (set of served
    points, last point served), not intervals around the origin.  The
    locations are scaled to integers over a common denominator; one with a
    ``sqrt(3)`` part is refused, as the DP refuses it.
    A move costs its distance times the number of requests still waiting,
    the one it reaches included.  The search pulls: each set holds a full
    row of costs by last point, ``never`` (above every real cost) for the
    points outside it, and each member's cost is one C-level minimum of the
    row of the set without it plus the cost of each move into the member.
    No predecessor table is kept: the walk back takes, at each state, the
    first predecessor that gives its cost, so ties go to the smallest index,
    as does the choice of the last point.  The order found is then re-costed
    exactly.  Returns (total, order).
    """
    scale, pairs = _scaled_pairs(list(points), "location")
    ints = sorted([x for x in _rational_ints(scale, pairs) if x])
    n = len(ints)
    if n == 0:
        return _ZERO, ()
    if n > max_n:
        raise ValueError(f"brute force capped at {max_n} non-origin points, got {n}")

    pts = [Fraction(x, scale) for x in ints]
    # step[w][j][i]: the cost of moving from point i to point j with w
    # requests waiting
    dist = [[abs(xi - xj) for xi in ints] for xj in ints]
    step = [None] + [[[w * d for d in row] for row in dist] for w in range(1, n + 1)]
    # n moves: the first costs at most n*|x|, each other at most n*span
    never = n * sum(map(abs, ints)) + n * n * (ints[-1] - ints[0]) + 1
    # cost[mask][last]: cheapest way to serve exactly the points in `mask`,
    # ending at `last`; members[mask]: the points in `mask`, in index order
    full = (1 << n) - 1
    cost = [None] * (full + 1)
    members = [[]] + [None] * full
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        mem = members[mask] = [low.bit_length() - 1, *members[rest]]
        row = [never] * n
        if rest:
            moves = step[n + 1 - len(mem)]
            for j in mem:
                row[j] = min(map(add, cost[mask ^ (1 << j)], moves[j]))
        else:
            row[mem[0]] = abs(ints[mem[0]]) * n
        cost[mask] = row

    # walk back from the cheapest full state: before each state, the first
    # point whose cost plus the move into the state gives the state's cost
    mask, best_scaled = full, min(cost[full])
    last = cost[full].index(best_scaled)
    key, rev = best_scaled, [pts[last]]
    for w in range(1, n):
        mask ^= 1 << last
        last = list(map(add, cost[mask], step[w][last])).index(key)
        key = cost[mask][last]
        rev.append(pts[last])
    order = tuple(reversed(rev))

    t = _ZERO
    pos = _ZERO
    total = _ZERO
    for p in order:
        t += abs(p - pos)
        pos = p
        total += t
    assert total == Fraction(best_scaled, scale)
    return total, order


# --- per-request reference value ---------------------------------------------


def distance_arrival_floor(location, arrival) -> Scalar:
    """No unit-speed schedule finishes a request before its distance from the
    origin or before its arrival."""
    return max(abs(location), arrival)

