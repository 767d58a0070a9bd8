"""Tests for offline latency machinery: alternating tours, their first
visits, and the exact latency optimum (interval dynamic program, cross
checked against an independent Held-Karp exhaustive search)."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import linetrp
from linetrp import offline
from linetrp.core import LineSegment, Request, Trajectory, make_instance
from linetrp.offline import (
    Direction,
    Tour,
    brute_force_latency,
    canonical_tour,
    distance_arrival_floor,
    optimal_latency_tour,
)
from linetrp.online import SQRT3, PerfectPredictionTour
from linetrp.simulator import evaluate, run

fractions_8 = st.fractions(min_value=-8, max_value=8, max_denominator=8)
point_lists = st.lists(fractions_8, min_size=0, max_size=6)


def _literal_walk(waypoints):
    """Trajectory of the raw waypoint walk, before any canonicalisation."""
    pts = [(F(0), F(0))]
    t = F(0)
    pos = F(0)
    for w in waypoints:
        if w == pos:
            continue
        t += abs(w - pos)
        pos = w
        pts.append((t, pos))
    return Trajectory(tuple(pts))


def _extent(tour):
    """Covered interval (lo, hi) of a tour."""
    marks = (F(0),) + tour.turning_points
    return min(marks), max(marks)


# --- tours ---------------------------------------------------------------


def test_tour_requires_strictly_extending_turns():
    with pytest.raises(ValueError):
        Tour((F(2), F(1)))  # second point is not left of 0
    with pytest.raises(ValueError):
        Tour((F(2), F(-1), F(1)))  # 1 is already covered
    with pytest.raises(ValueError):
        Tour((F(0),))  # the origin extends neither side


def test_tour_geometry():
    tour = Tour((F(-1), F(2)))
    assert tour.first_direction is Direction.LEFT
    assert tour.walk.breakpoints == ((F(0), F(0)), (F(1), F(-1)), (F(4), F(2)))
    assert tour.walk.end_time == 4
    assert _extent(tour) == (F(-1), F(2))
    assert tour.first_visit(F(1, 2)) is not None and tour.first_visit(F(-1)) is not None
    assert tour.first_visit(F(3)) is None
    assert tour.walk.position_at(F(1, 2)) == F(-1, 2)
    assert tour.walk.position_at(F(3)) == 1
    assert tour.walk.position_at(F(99)) == 2  # parked past the end


def test_empty_tour_parks_at_origin():
    tour = Tour(())
    assert tour.first_direction is Direction.RIGHT
    assert tour.walk.end_time == 0
    assert _extent(tour) == (0, 0)
    assert tour.walk.position_at(F(5)) == 0


def test_canonical_tour_drops_covered_and_merges():
    tour = canonical_tour([F(2), F(5), F(-1), F(3)])
    assert (tour.first_direction, tour.turning_points) == (Direction.RIGHT, (F(5), F(-1)))
    tour = canonical_tour([F(1), F(-1), F(1)])
    assert (tour.first_direction, tour.turning_points) == (Direction.RIGHT, (F(1), F(-1)))
    assert canonical_tour([]).turning_points == ()
    assert canonical_tour([F(-1)]).first_direction is Direction.LEFT


@given(point_lists)
@settings(max_examples=200)
def test_canonical_tour_never_delays_first_visits(waypoints):
    tour = canonical_tour(waypoints)
    literal = _literal_walk(waypoints)
    lo = min([F(0)] + waypoints)
    hi = max([F(0)] + waypoints)
    assert _extent(tour) == (lo, hi)
    for w in waypoints:
        assert tour.first_visit(w) <= literal.first_service_time(w)


# --- first visits --------------------------------------------------------


def test_arc_index_frozen_values():
    tour = Tour((F(-1), F(2)))
    assert tour.first_visit(F(0)) == 0
    assert tour.first_visit(F(-1, 2)) == F(1, 2)
    assert tour.first_visit(F(-1)) == 1
    assert tour.first_visit(F(3, 2)) == F(7, 2)
    assert tour.first_visit(F(2)) == 4
    assert tour.first_visit(F(5)) is None


def test_tour_trajectory_walks_then_parks():
    traj = Tour((F(-1), F(2))).walk
    assert traj.breakpoints == ((F(0), F(0)), (F(1), F(-1)), (F(4), F(2)))
    assert traj.position_at(F(2)) == 0  # inbound through the origin
    assert traj.position_at(F(100)) == 2
    assert traj.first_service_time(F(1)) == 3


@given(point_lists, st.booleans(), st.lists(fractions_8, max_size=4))
@settings(max_examples=300)
def test_arc_index_agrees_with_tour_trajectory(points, dp, extra):
    # DP tours and canonical tours of arbitrary waypoints; queried at the
    # turning points, the origin, between them, beyond both ends and at
    # arbitrary points, covered or not
    tour = optimal_latency_tour(points)[0] if dp else canonical_tour(points)
    marks = sorted({F(0), *tour.turning_points})
    between = [(u + v) / 2 for u, v in zip(marks, marks[1:])]
    beyond = [marks[0] - 1, marks[0] - F(1, 3), marks[-1] + F(1, 3), marks[-1] + 1]
    for x in marks + between + beyond + points + extra:
        assert tour.first_visit(x) == tour.walk.first_service_time(x)


# --- latency optimum -----------------------------------------------------


def test_optimal_latency_frozen_values():
    tour, total = optimal_latency_tour([F(-1), F(2)])
    assert total == 5
    assert (tour.first_direction, tour.turning_points) == (Direction.LEFT, (F(-1), F(2)))

    # two optima exist; ties break towards fewer turns, then a first move left
    tour, total = optimal_latency_tour([F(-1), F(-2), F(1)])
    assert total == 8
    assert (tour.first_direction, tour.turning_points) == (Direction.LEFT, (F(-2), F(1)))

    tour, total = optimal_latency_tour([F(n) for n in (1, 4, 5, 6, 7, 8, 9, 10)])
    assert total == 50
    assert tour.turning_points == (F(10),)

    # (2, -8, 26/3) ties this on total, turns and first move: the relaxation
    # keeps going straight on unless turning back is strictly cheaper
    pts = [F(1, 3), F(26, 3), F(-8), F(2), F(1, 3), F(1, 3), F(-1), F(-6), F(-8)]
    tour, total = optimal_latency_tour(pts)
    assert total == F(212, 3)
    assert tour.turning_points == (F(1, 3), F(-8), F(26, 3))


def test_optimal_latency_digest():
    """Tours and totals over 600 seeded sets (n 0-20, negatives, repeats,
    denominators 1/3/7/1000) hash to a recorded constant.  Small spans make
    full ties common enough that trying the turn-back predecessor first, or
    preferring a first move right, changes the hash."""
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for k in range(600):
        n = k % 21
        denom = (1, 3, 7, 1000)[k % 4]
        span = rng.choice((2, 3, 5, 12)) * denom
        pts = [F(rng.randint(-span, span), denom) for _ in range(n)]
        for i in range(1, n):
            if rng.random() < 0.1:
                pts[i] = rng.choice(pts[:i])
        tour, total = optimal_latency_tour(pts)
        digest.update(repr((tour.turning_points, total)).encode())
    assert digest.hexdigest() == "de4f4e1a6ab5901bd4588fdce285fa346b5d5033bb77605ed41e067219ef101e"


def test_optimal_latency_digest_large():
    """Tours and totals over 60 seeded sets of n = 30-200 hash to a recorded
    constant.  A quarter of the sets lie right of the origin and a quarter
    left of it, so the origin's own row or column of the interval table
    carries the whole walk; the rest straddle it.  Denominators are 1/7/1000,
    spans small enough to repeat locations and large enough to spread them."""
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for k in range(60):
        n = 30 + k * 170 // 59
        denom = (1, 7, 1000)[k % 3]
        span = rng.choice((3, 20, 150)) * denom
        lo, hi = {1: (1, span), 2: (-span, -1)}.get(k % 4, (-span, span))
        pts = [F(rng.randint(lo, hi), denom) for _ in range(n)]
        for i in range(1, n):
            if rng.random() < 0.1:
                pts[i] = rng.choice(pts[:i])
        tour, total = optimal_latency_tour(pts)
        digest.update(repr((tour.turning_points, total)).encode())
    assert digest.hexdigest() == "4db0be6b7f12ff0ee3d5a05061e18055b15bfc54b2d7da574fbe6518ad57c441"


def test_dp_scales_and_reflects_with_its_input():
    """Metamorphic relations that need no recorded value, on 400 seeded sets
    of n = 1-200 (a third on one side of the origin, repeats, denominators
    1/3/1000).  Scaling every location by a positive rational c scales every
    cost by c and changes no turn count or first move, so the tour's turning
    points and the total scale by exactly c.  Reflecting x to -x maps every
    walk to its mirror, so the total stays (the tie-break towards a first
    move left may pick another tour)."""
    rng = random.Random(20261020)
    for k in range(400):
        n = 1 + k * 199 // 399
        denom = (1, 3, 1000)[k % 3]
        span = rng.choice((4, 30, 400)) * denom
        lo, hi = {1: (0, span), 2: (-span, 0)}.get(k % 6, (-span, span))
        pts = [F(rng.randint(lo, hi), denom) for _ in range(n)]
        for i in range(1, n):
            if rng.random() < 0.1:
                pts[i] = rng.choice(pts[:i])
        tour, total = optimal_latency_tour(pts)
        c = F(rng.randint(1, 60), rng.randint(1, 60))
        scaled_tour, scaled_total = optimal_latency_tour([c * p for p in pts])
        assert scaled_tour.turning_points == tuple([c * t for t in tour.turning_points]), k
        assert scaled_total == c * total, k
        assert optimal_latency_tour([-p for p in pts])[1] == total, k


def test_integer_entry_is_the_tour_scaled():
    """``_latency_walk`` on integer positions over any ``d`` (not only the
    lcm of their denominators) gives the walk (``Tour.walk``'s breakpoints)
    and the total of ``optimal_latency_tour`` on the positions over ``d``,
    times ``d``, as ints; on small sets the total is also the exhaustive search's.  The sets
    hold repeats, the origin, one-sided and mirrored positions."""
    rng = random.Random(32)
    for k in range(300):
        n = rng.randint(0, 12)
        span = rng.choice((3, 40, 1000))
        lo, hi = [(-span, span), (0, span), (-span, 0)][k % 3]
        xs = [rng.randint(lo, hi) for _ in range(n)]
        xs += rng.sample(xs, min(len(xs), rng.randint(0, 3))) + [0] * rng.randint(0, 2)
        if k % 4 == 3:
            xs = [-x for x in xs]
        d = rng.choice((1, 2, 6, 1000))
        xs = [x * rng.choice((1, d)) for x in xs]  # over d, with a common factor or not
        walk, total = offline._latency_walk(xs)
        tour, expected = optimal_latency_tour([F(x, d) for x in xs])
        assert walk == [(arc * d, pos * d) for arc, pos in tour.walk.breakpoints], k
        assert total == expected * d, k
        assert all(type(v) is int for v in (*[v for bp in walk for v in bp], total)), k
        if len([x for x in xs if x]) <= 7:
            assert total == brute_force_latency([F(x, d) for x in xs])[0] * d, k
    assert offline._latency_walk([]) == offline._latency_walk([0, 0]) == ([(0, 0)], 0)


def test_dp_returns_the_walk_it_found(monkeypatch):
    """The walk back through the table keeps the turns as it finds them; the
    tour is never re-collapsed."""

    def refuse(waypoints):
        raise AssertionError("optimal_latency_tour re-collapsed its walk")

    monkeypatch.setattr(offline, "canonical_tour", refuse)
    pts = [F(1, 3), F(26, 3), F(-8), F(2), F(1, 3), F(1, 3), F(-1), F(-6), F(-8)]
    tour, total = optimal_latency_tour(pts)
    assert tour.turning_points == (F(1, 3), F(-8), F(26, 3))
    assert total == F(212, 3)
    assert optimal_latency_tour([F(5), F(2), F(0)])[0].turning_points == (F(5),)
    assert optimal_latency_tour([F(-5), F(-2)])[0].turning_points == (F(-5),)


class _Unordered(F):
    """A rational that refuses to be hashed or ordered."""

    def __hash__(self):
        raise AssertionError("a location was hashed")

    def __lt__(self, other):
        raise AssertionError("a location was ordered")

    __gt__ = __le__ = __ge__ = __lt__


def test_dp_orders_and_counts_scaled_integers():
    """The DP scales every location to an integer before it counts repeats
    or sorts, so it never hashes or orders a Fraction, and its (tour, total),
    types included, are those for plain Fractions."""
    rng = random.Random(15)
    sets = [
        [F(0), F(0)],
        [F(1, 3), F(-2, 7), F(1, 3), F(0), F(5, 1000), F(-2, 7), F(9, 2)],
        [F(rng.randint(-60, 60), rng.choice((1, 3, 7, 1000))) for _ in range(40)],
        [F(rng.randint(1, 9), 4) for _ in range(12)] + [F(0)] * 3,
    ]
    for pts in sets:
        tour, total = optimal_latency_tour([_Unordered(p) for p in pts])
        expected = optimal_latency_tour(pts)
        assert repr((tour.turning_points, total)) == repr((expected[0].turning_points, expected[1]))
        assert {type(x) for x in (*tour.turning_points, total)} == {F}


def test_optimal_latency_rejects_irrational_locations():
    with pytest.raises(TypeError, match="location must be rational"):
        optimal_latency_tour([F(1), SQRT3])


def test_the_latency_oracles_name_a_float_location():
    """Both oracles refuse a float with ``_exact``'s message, naming it a location."""
    for solve in (optimal_latency_tour, brute_force_latency):
        with pytest.raises(TypeError, match=r"^location must be exact \(int/Fraction\), got float 1\.5$"):
            solve([F(1), 1.5])


def test_optimal_latency_trivial_inputs():
    tour, total = optimal_latency_tour([])
    assert total == 0 and tour.turning_points == ()
    tour, total = optimal_latency_tour([F(0), F(0)])
    assert total == 0 and tour.turning_points == ()
    tour, total = optimal_latency_tour([F(3)])
    assert total == 3 and tour.turning_points == (F(3),)


def test_brute_force_frozen_values():
    total, order = brute_force_latency([F(-1), F(2)])
    assert total == 5 and order == (F(-1), F(2))
    total, _ = brute_force_latency([F(-1), F(-2), F(1)])
    assert total == 8
    total, _ = brute_force_latency([F(n) for n in (1, 4, 5, 6, 7, 8, 9, 10)])
    assert total == 50


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_latency([F(n) for n in range(1, 11)])


@given(point_lists)
@settings(max_examples=200, deadline=None)
def test_dp_matches_brute_force(points):
    _, dp_total = optimal_latency_tour(points)
    brute_total, _ = brute_force_latency(points)
    assert dp_total == brute_total


def test_dp_matches_brute_force_on_larger_sets():
    """Sizes the default cap and the hypothesis lists above never reach:
    10-12 points with negative positions and repeated locations."""
    rng = random.Random(2024)
    for _ in range(40):
        denom = rng.choice((1, 3, 16))
        pts = [F(rng.randint(-8 * denom, 8 * denom), denom) for _ in range(rng.randint(7, 9))]
        pts += rng.choices(pts, k=3)
        _, dp_total = optimal_latency_tour(pts)
        brute_total, _ = brute_force_latency(pts, max_n=12)
        assert dp_total == brute_total, pts


def test_brute_force_refuses_a_surd_like_the_dp():
    for solve in (optimal_latency_tour, brute_force_latency):
        with pytest.raises(TypeError, match="location must be rational"):
            solve([SQRT3, F(1)])


def _latency(order):
    """Sum of completion times of serving ``order`` from the origin, in Fractions."""
    t = pos = total = F(0)
    for p in order:
        t += abs(p - pos)
        pos = p
        total += t
    return total


def test_brute_force_matches_every_permutation():
    """Seeded sets of up to 7 points on both sides of the origin, with
    repeats and points at 0, and a few with magnitudes and denominators up
    to 10**40 (a cap on costs that is too small picks a wrong order there):
    the total is the permutation minimum, and the order serves every
    non-origin point once and re-costs to the total."""
    rng = random.Random(20261021)
    sets = []
    for k in range(64):
        n = k % 8
        denom = (1, 3, 16, 1000)[k % 4]
        pts = [F(rng.randint(-6 * denom, 6 * denom), denom) for _ in range(n)]
        for i in range(1, n):
            if rng.random() < 0.2:
                pts[i] = rng.choice(pts[:i])
        sets.append(pts)
    for n in (2, 4, 6, 7):
        sets.append([F(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40)) for _ in range(n)])
    sets.append([F(10**40), F(-(10**40), 3), F(1, 10**40), F(0), F(10**40)])
    for pts in sets:
        total, order = brute_force_latency(pts)
        assert total == min(map(_latency, permutations(pts))), pts
        assert sorted(order) == sorted(p for p in pts if p != 0)
        assert _latency(order) == total


def _tie_sets():
    """300 seeded sets built to tie: mirror pairs +-x, repeated locations
    and points at the origin, with n = 1-9 non-origin points, and six sets
    of 10-12 searched with ``max_n=12``."""
    rng = random.Random(20261020)
    for k in range(300):
        denom = (1, 3, 16, 1000)[k % 4]
        n = 10 + k // 100 if k % 50 == 0 else 1 + k % 9
        xs = [rng.randint(1, rng.choice((2, 3, 5)) * denom) for _ in range((n + 1) // 2)]
        pts = [F(s * x, denom) for x in xs for s in (1, -1)][:n]
        for i in range(1, n):
            if rng.random() < 0.2:
                pts[i] = rng.choice(pts[:i])
        pts += [F(0)] * rng.choice((0, 0, 1, 2))
        rng.shuffle(pts)
        yield pts, max(n, 9)


def test_brute_force_orders_digest():
    """Totals and orders, type and printed form, over sets built to tie hash
    to a constant recorded before the search took its pull form: `oracle
    --brute` prints the order when its cross-check fails, so how ties break
    is part of the interface."""
    digest = hashlib.sha256()
    for pts, max_n in _tie_sets():
        total, order = brute_force_latency(pts, max_n=max_n)
        digest.update(repr([(type(v).__name__, str(v)) for v in (total, *order)]).encode())
    assert digest.hexdigest() == "c38ec05e62a5f1e62441b60378e8cbf118bdf5d64051f35173b50a4e3845c186"


def test_import_loads_no_third_party_module():
    """linetrp has no runtime dependencies: in a fresh interpreter, importing
    it adds only standard-library modules and the package itself."""
    src = os.path.dirname(os.path.dirname(linetrp.__file__))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import linetrp\n"
        "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names) - {'linetrp'})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == []


@given(point_lists)
@settings(max_examples=200)
def test_dp_total_is_cost_of_its_own_tour(points):
    tour, total = optimal_latency_tour(points)
    assert total == sum((tour.first_visit(p) for p in points), F(0))


# --- reference bounds ------------------------------------------------------


def test_per_request_bounds():
    req = Request(0, None, F(-3), F(5))
    assert distance_arrival_floor(req.actual, req.arrival) == 5
    assert distance_arrival_floor(F(-3), F(1)) == 3


def test_opt_sum_lower_bound_takes_the_larger_floor():
    """A run's ``opt_sum_bound`` is the larger of the latency optimum over
    the actual locations and the arrival sum."""
    line = LineSegment(F(-2), F(3))
    geometric = make_instance(line, [(F(-1), F(-1), F(0)), (F(2), F(2), F(0))])
    late = make_instance(line, [(F(-1), F(-1), F(9)), (F(2), F(2), F(0))])
    for inst, floor in ((geometric, 5), (late, 9)):
        _, dp_total = optimal_latency_tour(r.actual for r in inst.requests)
        assert max(dp_total, sum([r.arrival for r in inst.requests], F(0))) == floor
        assert evaluate(run(inst, PerfectPredictionTour())).opt_sum_bound == floor
