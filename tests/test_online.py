"""Tests for the online strategies: exact quadratic-surd arithmetic, the
geometric round-trip schedule, trajectory synthesis, and the planning rules
of every strategy."""

import copy
import math
import pickle
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from linetrp import core, online
from linetrp.core import LineSegment, Model, make_instance
from linetrp.offline import Direction, Tour, canonical_tour, optimal_latency_tour
from linetrp.online import (
    CERT_RATIO,
    DEFAULT_ALPHA,
    FALLBACK_THRESHOLD,
    SQRT3,
    GreedyReplan,
    HalflineRoundTrips,
    LineSweepRoundTrips,
    ModelMismatchError,
    PerfectPredictionTour,
    QuadraticScalar,
    RobustPredictionTour,
    RoundTripSchedule,
    _pair_sign,
    _surd_floor,
    coverage_horizon,
    extend_tour_to_line,
    make_strategy,
    padded_robust_path,
    parse_alpha,
    roundtrip_trajectory,
    select_algorithm,
    visible_info,
)
from linetrp.simulator import run

from committed_motion import random_plan, reference_trajectory
from session_motion import RecheckAllSession, checked_trajectory, count_trajectories, scalar_cut

QS = QuadraticScalar

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
surds = st.builds(QS, small_fractions, small_fractions)


# --- exact arithmetic in Q[sqrt(3)] ---------------------------------------


def test_surd_frozen_identities():
    assert SQRT3 * SQRT3 == 3
    assert CERT_RATIO == 2 + SQRT3
    assert CERT_RATIO**2 == QS(7, 4)
    assert (2 + SQRT3) * (2 - SQRT3) == 1
    assert 1 / (2 + SQRT3) == QS(2, -1)
    assert 1 / SQRT3 == QS(0, F(1, 3))
    assert 4 * FALLBACK_THRESHOLD + SQRT3 == 2
    assert 2 * DEFAULT_ALPHA == SQRT3


def test_surd_ordering():
    assert F(173, 100) < SQRT3 < F(174, 100)
    assert QS(2, -1) > 0
    assert QS(2, -1) < F(27, 100)
    assert SQRT3 > 1 and SQRT3 < 2
    assert QS(-1, 1) > 0  # sqrt(3) - 1
    assert QS(5, -3) < 0  # 5 - 3 sqrt(3)


def test_surd_mixes_with_fractions():
    assert QS(F(5, 2), 0) == F(5, 2)
    assert hash(QS(F(5, 2), 0)) == hash(F(5, 2))
    assert {QS(1, 0), F(1)} == {F(1)}  # surds collapse into rational keys


def test_surd_pickles_and_copies():
    # a sweep's worker processes send their surd results back pickled
    x = QS(F(5, 2), F(-1, 3))
    for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert clone == x and type(clone) is QS
        assert (clone.p, clone.q) == (x.p, x.q)


def test_surd_floor_and_float():
    assert math.floor(SQRT3) == 1
    assert math.floor(QS(2, 1)) == 3
    assert math.floor(-SQRT3) == -2
    assert math.floor(QS(F(7, 2), 0)) == 3
    assert math.ceil(SQRT3) == 2
    assert math.ceil(QS(2, 1)) == 4
    assert math.ceil(-SQRT3) == -1
    assert math.ceil(QS(F(7, 2), 0)) == 4
    assert math.ceil(QS(3, 0)) == 3 and type(math.ceil(QS(3, 0))) is int
    assert abs(float(SQRT3) - 3**0.5) < 1e-12


def test_surd_rejects_floats():
    with pytest.raises(TypeError):
        QS(1.5)
    with pytest.raises(TypeError):
        SQRT3 + 0.1
    with pytest.raises(TypeError):
        0.1 * SQRT3


def test_surd_powers():
    assert SQRT3**3 == QS(0, 3)
    assert QS(2, 1) ** 0 == 1
    assert QS(1, 1) ** 2 == QS(4, 2)
    with pytest.raises(TypeError):
        SQRT3 ** (-1)  # only nonnegative integer powers are defined


@given(surds, surds, surds)
@settings(max_examples=150)
def test_surd_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a * b == b * a


@given(surds, surds)
@settings(max_examples=150)
def test_surd_total_order(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
    if a != b:
        assert (a < b) == (float(a) < float(b)) or abs(float(a) - float(b)) < 1e-6


@given(surds)
@settings(max_examples=150)
def test_surd_inverse_and_abs(a):
    assert abs(a) >= 0
    assert -(-a) == a
    if a != 0:
        assert a * (1 / a) == 1
    assert math.floor(a) <= float(a) < math.floor(a) + 1 or a == math.floor(a)


def _sqrt3_convergents(count):
    """Convergents h/k of sqrt(3) = [1; 1, 2, 1, 2, ...].  Each has
    |h - k*sqrt(3)| < 1/k, so an integer plus that surd lies within 1/k of
    the integer."""
    h0, k0, h1, k1 = 1, 0, 1, 1
    out = [(h1, k1)]
    for i in range(count - 1):
        a = 1 if i % 2 == 0 else 2
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        out.append((h1, k1))
    return out


_CONVERGENTS = _sqrt3_convergents(900)  # k reaches about 10^256
huge_fractions = st.builds(F, st.integers(-(10**400), 10**400), st.integers(1, 10**12))
near_integers = st.builds(
    lambda hk, n, sign: n + sign * QS(hk[0], -hk[1]),
    st.sampled_from(_CONVERGENTS),
    st.integers(-(10**400), 10**400),
    st.sampled_from([1, -1]),
)


def test_sqrt3_convergents_come_within_one_over_k():
    assert all(abs(QS(h, -k)) < F(1, k) for h, k in _CONVERGENTS)
    assert sum(k > 10**12 for _, k in _CONVERGENTS) > 850  # most within 10^-12


@given(
    st.one_of(
        st.builds(QS, huge_fractions, st.one_of(small_fractions, huge_fractions)),
        near_integers,
    )
)
@settings(max_examples=300)
def test_surd_floor_is_exact_at_any_magnitude(x):
    n = math.floor(x)
    assert type(n) is int
    assert n <= x < n + 1


@given(
    st.integers(-(10**400), 10**400),
    st.one_of(st.integers(-(10**400), 10**400), st.integers(-50, 50)),
    st.one_of(st.integers(1, 10**400), st.integers(1, 12)),
)
@settings(max_examples=300)
def test_surd_floor_helper_brackets_the_value(x, y, d):
    # n <= (x + y*sqrt(3))/d < n + 1, decided without the root
    n = _surd_floor(x, y, d)
    assert _pair_sign(x - n * d, y) >= 0
    assert _pair_sign(x - (n + 1) * d, y) < 0
    assert _surd_floor(-x, -y, -d) == n


def _fraction_cmp(a, b):
    """The comparison by differences of ``Fraction`` parts, independent of
    the integer cross products ``QuadraticScalar`` compares by."""
    u, v = (b.p, b.q) if isinstance(b, QS) else (F(b), F(0))
    return _pair_sign(a.p - u, a.q - v)


wide_ints = st.integers(-(10**30), 10**30)
wide_fractions = st.builds(F, wide_ints, st.integers(1, 10**6))
wide_surds = st.builds(QS, wide_fractions, st.one_of(st.just(F(0)), wide_fractions))


@given(wide_surds, st.data())
@settings(max_examples=400)
def test_surd_comparison_matches_the_fraction_oracle(a, data):
    b = data.draw(
        st.one_of(
            wide_surds,
            wide_fractions,
            wide_ints,
            st.booleans(),
            # ties and near ties with a's own parts
            st.sampled_from([F(0), F(1, 10**6), -F(1, 10**6)]).map(lambda e: QS(a.p + e, a.q)),
            st.sampled_from([F(0), F(1, 10**6)]).map(lambda e: a.p + e),
        )
    )
    s = _fraction_cmp(a, b)
    assert (a < b, a == b, a > b) == (s < 0, s == 0, s > 0)
    assert (a <= b, a >= b, a != b) == (s <= 0, s >= 0, s != 0)
    assert (b > a, b == a, b < a) == (s < 0, s == 0, s > 0)  # reflected
    if a.q == 0:
        assert a == a.p and hash(a) == hash(a.p)
        if a.p.denominator == 1:
            assert hash(a) == hash(a.p.numerator) and a == a.p.numerator
    with pytest.raises(TypeError):
        a < float(a)  # noqa: B015
    with pytest.raises(TypeError):
        a == 0.5  # noqa: B015
    assert a.__lt__("1") is NotImplemented and a != "1"


def test_surd_division():
    assert QS(3, 6) / 3 == QS(1, 2)
    assert QS(3, 6) / F(3, 2) == QS(2, 4)
    for zero in (0, F(0), QS(0)):
        with pytest.raises(ZeroDivisionError):
            QS(1) / zero
        with pytest.raises(ZeroDivisionError):
            SQRT3 / zero


def test_parse_alpha():
    assert parse_alpha("sqrt3/2") == DEFAULT_ALPHA
    assert parse_alpha("1/2") == F(1, 2)
    assert parse_alpha("2") == 2
    for bad in ("0", "-1", "abc", "1.5.2"):
        with pytest.raises(ValueError):
            parse_alpha(bad)


# --- round-trip schedule ---------------------------------------------------


# The schedule's closed form, the oracle independent of the incremental
# ``RoundTripSchedule.trips`` (test_acceptance imports it too): trip j is
# ``2+2a`` long for j = 1 and ``(2+2a)^(j-1) * (1+2a)`` after that, plus the
# pad; the lengths telescope, so the first j trips take ``(2+2a)^j + j*pad``.
def _trip_length(s, j):
    base = s.growth if j == 1 else s.growth ** (j - 1) * (1 + 2 * s.alpha)
    return base + s.pad


def _reach(s, j):
    return _trip_length(s, j) / 2


def _cumulative_length(s, j):
    return F(0) if j == 0 else s.growth**j + j * s.pad


def test_schedule_frozen_values():
    s = RoundTripSchedule()
    assert s.growth == QS(2, 1)
    assert _reach(s, 1) == QS(1, F(1, 2))
    assert _reach(s, 2) == QS(F(5, 2), F(3, 2))
    assert _cumulative_length(s, 0) == 0
    assert _cumulative_length(s, 1) == QS(2, 1)
    assert _cumulative_length(s, 2) == QS(7, 4)  # (2 + sqrt(3))^2
    padded = RoundTripSchedule(pad=F(4))
    assert _reach(padded, 1) == QS(3, F(1, 2))
    assert list(s.trips(_reach(s, 2)))[1] == (QS(2, 1), QS(7, 4), _reach(s, 2))


def test_schedule_validation():
    with pytest.raises(ValueError):
        RoundTripSchedule(alpha=F(0))
    with pytest.raises(ValueError):
        RoundTripSchedule(pad=F(-1))


alphas = st.one_of(
    st.just(DEFAULT_ALPHA),
    st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8),
)


@given(alphas, st.fractions(min_value=0, max_value=2, max_denominator=4), st.integers(1, 8))
@settings(max_examples=150)
def test_schedule_lengths_telescope(alpha, pad, j):
    s = RoundTripSchedule(alpha, pad)
    direct = sum((_trip_length(s, k) for k in range(1, j + 1)), F(0))
    assert direct == _cumulative_length(s, j)
    # the incremental trip walk stops at the first trip reaching its bound
    assert list(s.trips(_reach(s, j))) == _closed_form_trips(s, j)



def _closed_form_trips(s, j):
    cumulative = [_cumulative_length(s, k) for k in range(j + 1)]
    return [(cumulative[k - 1], cumulative[k], _reach(s, k)) for k in range(1, j + 1)]


def _typed(trips):
    return [tuple([(type(v), str(v)) for v in trip]) for trip in trips]


@given(
    st.sampled_from([DEFAULT_ALPHA, F(1, 2), F(5, 2), QS(F(1, 3), F(1, 4))]),
    st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4),
    st.integers(1, 9),
)
@settings(max_examples=100)
def test_memoized_trips_are_the_closed_form(alpha, pad, j):
    s = RoundTripSchedule(alpha, pad)
    expected = _closed_form_trips(s, j)
    assert _typed(s.trips(_reach(s, j))) == _typed(expected)
    assert _typed(online._trip_memo(s.alpha, s.pad)[:j]) == _typed(expected)
    # a short walk after a long one still stops at its own bound
    assert _typed(s.trips(_reach(s, 1))) == _typed(expected[:1])


def test_interleaved_trip_walks_share_one_memo():
    online._trip_memo.cache_clear()
    s = RoundTripSchedule(DEFAULT_ALPHA, F(1, 3))
    expected = _closed_form_trips(s, 6)
    long, short = s.trips(_reach(s, 6)), s.trips(_reach(s, 4))
    head = [next(long), next(long)]  # builds trips 1 and 2
    mid = list(short)  # reads 1 and 2, builds 3 and 4
    tail = list(long)  # reads 3 and 4, builds 5 and 6
    assert _typed(head + tail) == _typed(expected)
    assert _typed(mid) == _typed(expected[:4])
    assert len(online._trip_memo(s.alpha, s.pad)) == 6


def test_trip_memo_keeps_alpha_types_apart():
    rational, surd = RoundTripSchedule(F(3, 4)), RoundTripSchedule(QS(F(3, 4)))
    assert rational.alpha == surd.alpha and hash(rational.alpha) == hash(surd.alpha)
    # in either order, each alpha type gets trips of its own type
    for s, kind in ((surd, QS), (rational, F), (surd, QS)):
        trips = list(s.trips(100))
        assert trips == _closed_form_trips(s, len(trips))
        assert {type(v) for _, end, reach in trips for v in (end, reach)} == {kind}


def test_repeated_trips_multiply_no_surds(monkeypatch):
    first = list(RoundTripSchedule().trips(10**6))
    calls = []
    real = QS.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(QS, "__mul__", counting)
    monkeypatch.setattr(QS, "__rmul__", counting)
    assert list(RoundTripSchedule().trips(10**6)) == first
    short = list(RoundTripSchedule().trips(10))
    assert short == first[: len(short)] and len(short) < len(first)
    assert calls == []


def test_first_visit_trip():
    s = RoundTripSchedule()

    def first_visit_trip(arc):
        return sum(1 for _ in s.trips(arc))

    assert first_visit_trip(F(0)) == 1
    assert first_visit_trip(_reach(s, 1)) == 1  # reach is inclusive
    assert first_visit_trip(_reach(s, 2)) == 2
    assert first_visit_trip(_reach(s, 2) + F(1, 1000)) == 3


# --- trajectory synthesis ----------------------------------------------------


def test_roundtrip_trajectory_frozen_breakpoints():
    path = Tour((F(-1), F(2)))
    traj = roundtrip_trajectory(path, RoundTripSchedule(), QS(6, 1))
    assert traj.breakpoints == (
        (F(0), F(0)),
        (F(1), F(-1)),  # path turning point on the way out
        (QS(1, F(1, 2)), QS(-1, F(1, 2))),  # first turnaround at arc reach(1)
        (QS(1, 1), F(-1)),
        (QS(2, 1), F(0)),  # back home after trip 1
        (QS(3, 1), F(-1)),
        (QS(6, 1), F(2)),  # trip 2 reaches past the path end: clamped
        (QS(9, 1), F(-1)),
        (QS(10, 1), F(0)),
    )
    assert traj.first_service_time(F(-1)) == 1
    assert traj.first_service_time(F(2)) == QS(6, 1)


def test_roundtrip_trajectory_trivial_cases():
    parked = roundtrip_trajectory(Tour(()), RoundTripSchedule(), F(10))
    assert parked.breakpoints == ((F(0), F(0)),)
    zero_horizon = roundtrip_trajectory(
        Tour((F(1),)), RoundTripSchedule(), F(0)
    )
    assert zero_horizon.position_at(F(5)) == 0


def test_roundtrip_trajectory_clamped_trips_stay_cheap():
    # once the reach covers the path, trips repeat with period 2*length and
    # the construction must not keep expanding geometric terms
    traj = roundtrip_trajectory(Tour((F(1),)), RoundTripSchedule(), F(2000))
    assert len(traj.breakpoints) == 2001
    assert traj.breakpoints[-1] == (F(2000), F(0))


def test_roundtrip_trajectory_matches_the_scalar_reference():
    """The trajectory built from the plan's integer trips has the breakpoints
    of the scalar round-trip loop (``committed_motion``), by ``==`` and by
    ``str``, on sweep, prediction and robust plans on half and full lines at
    rational and ``sqrt3/2`` alphas; each at horizons 0 and -1, a random
    rational, ``coverage_horizon`` and three breakpoint times."""
    rng = random.Random(2025)
    for case in range(300):
        planned = random_plan(rng)
        path, schedule = planned.path, planned.schedule
        covered = coverage_horizon(path, schedule, F(rng.randint(0, 50)))
        probe = reference_trajectory(path, schedule, covered).breakpoints
        horizons = [F(0), F(-1), F(rng.randint(0, 4000), rng.randint(1, 40)), covered]
        horizons += [rng.choice(probe)[0] for _ in range(3)]
        for horizon in horizons:
            got = roundtrip_trajectory(path, schedule, horizon).breakpoints
            expected = reference_trajectory(path, schedule, horizon).breakpoints
            assert got == expected, (case, planned, horizon)
            assert [(str(t), str(p)) for t, p in got] == [(str(t), str(p)) for t, p in expected]


def test_coverage_horizon_frozen():
    path = Tour((F(1),))
    assert coverage_horizon(path, RoundTripSchedule(), F(0)) == QS(7, 1)
    assert coverage_horizon(Tour(()), RoundTripSchedule(), F(9)) == 0


lines = st.builds(
    lambda lo, hi: LineSegment(-lo, hi),
    st.fractions(min_value=0, max_value=4, max_denominator=4),
    st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
)


@given(
    lines,
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16), min_size=1, max_size=4),
    st.fractions(min_value=0, max_value=3, max_denominator=8),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_trajectory_serves_everything_by_the_horizon(line, rel, latest):
    path = Tour((line.a, line.b)) if line.a < 0 else Tour((line.b,))
    schedule = RoundTripSchedule()
    horizon = coverage_horizon(path, schedule, latest)
    traj = roundtrip_trajectory(path, schedule, horizon)
    for r in rel:
        x = line.a + r * line.length
        served = traj.first_service_time(x, latest)
        assert served is not None and served <= horizon


# --- strategy planning -------------------------------------------------------


def test_extend_tour_to_line():
    tour = Tour((F(1),))
    assert extend_tour_to_line(tour, LineSegment(F(-2), F(3))).turning_points == (F(1), F(-2), F(3))
    assert extend_tour_to_line(tour, LineSegment(F(0), F(3))).turning_points == (F(3),)


def test_halfline_strategy_paths():
    info = visible_info(make_instance(LineSegment(F(0), F(10)), [(None, F(1), F(0))], Model.ORIGINAL))
    plan = HalflineRoundTrips().plan(info)
    assert plan.path.turning_points == (F(10),)
    assert plan.schedule.pad == 0

    neg = visible_info(make_instance(LineSegment(F(-10), F(0)), [(None, F(-1), F(0))], Model.ORIGINAL))
    assert HalflineRoundTrips().plan(neg).path.turning_points == (F(-10),)

    full = visible_info(make_instance(LineSegment(F(-1), F(10)), [(None, F(1), F(0))], Model.ORIGINAL))
    with pytest.raises(ValueError):
        HalflineRoundTrips().plan(full)


@pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, F(3, 4), QS(F(1, 2), F(1, 4))])
@pytest.mark.parametrize(
    "a, b", [(F(0), F(10)), (F(-7, 2), F(0)), (F(0), QS(1, 2)), (QS(F(-1, 3), -1), F(0))]
)
def test_halfline_strategy_is_the_sweep_on_a_half_line(a, b, alpha):
    line = LineSegment(a, b)
    info = online.VisibleInfo(line, None)
    half, sweep = HalflineRoundTrips(alpha), LineSweepRoundTrips(alpha)
    assert isinstance(half, LineSweepRoundTrips) and half != sweep
    assert (half.name, sweep.name) == ("halfline-roundtrips", "line-sweep")
    assert half.plan(info) == sweep.plan(info)
    rng = random.Random(f"{a}:{b}:{alpha}")
    ends = [a, b, F(0)]
    for n in range(1, 6):
        triples = []
        for _ in range(n):
            loc = rng.choice(ends + [line.clamp(F(rng.randint(-60, 60), 6))])
            triples.append((None, loc, F(rng.randint(0, 40), rng.randint(1, 3))))
        inst = make_instance(line, triples, Model.ORIGINAL)
        got, expected = run(inst, half).completions, run(inst, sweep).completions
        assert got == expected
        assert [(type(c), str(c)) for c in got] == [(type(c), str(c)) for c in expected]
    full = online.VisibleInfo(LineSegment(-1, b if b > 0 else -a), None)
    with pytest.raises(ValueError, match="^halfline-roundtrips needs the origin at an endpoint$"):
        half.plan(full)


def test_sweep_strategy_path():
    info = visible_info(make_instance(LineSegment(F(-2), F(3)), [(None, F(1), F(0))], Model.ORIGINAL))
    plan = LineSweepRoundTrips().plan(info)
    assert (plan.path.first_direction, plan.path.turning_points) == (Direction.LEFT, (F(-2), F(3)))


def test_perfect_strategy_path():
    inst = make_instance(LineSegment(F(-1), F(2)), [(F(-1), F(-1), F(0)), (F(2), F(2), F(0))])
    plan = PerfectPredictionTour().plan(visible_info(inst))
    assert (plan.path.first_direction, plan.path.turning_points) == (Direction.LEFT, (F(-1), F(2)))

    interior = make_instance(LineSegment(F(-2), F(3)), [(F(1), F(1), F(0))])
    assert PerfectPredictionTour().plan(visible_info(interior)).path.turning_points == (F(1), F(-2), F(3))

    blind = visible_info(make_instance(LineSegment(F(-1), F(2)), [(None, F(1), F(0))], Model.ORIGINAL))
    with pytest.raises(ModelMismatchError):
        PerfectPredictionTour().plan(blind)


def shrink_toward_origin(p, delta):
    """Move a location ``delta`` toward the origin, stopping there."""
    if p >= 0:
        return max(p - delta, F(0))
    return min(p + delta, F(0))


def scalar_padded_robust_path(predictions, delta, line) -> Tour:
    """``online.padded_robust_path`` written in scalar arithmetic, the
    reference for its integer form: the tour of the pulled predictions, its
    turning points pushed ``2*delta`` out and clamped, then both ends of the
    predictions' error neighborhoods, collapsed by ``canonical_tour``."""
    shrunk = [shrink_toward_origin(p, delta) for p in predictions]
    tour, _ = optimal_latency_tour(shrunk)
    padded = [
        min(tp + 2 * delta, line.b) if tp > 0 else max(tp - 2 * delta, line.a)
        for tp in tour.turning_points
    ]
    if predictions:
        padded += [max(min(predictions) - delta, line.a), min(max(predictions) + delta, line.b)]
    return canonical_tour(padded)


def test_shrink_toward_origin():
    assert shrink_toward_origin(F(5), F(1)) == 4
    assert shrink_toward_origin(F(-5), F(1)) == -4
    assert shrink_toward_origin(F(1, 2), F(1)) == 0
    assert shrink_toward_origin(F(0), F(3)) == 0


def test_padded_robust_path_frozen():
    path = padded_robust_path((F(5),), F(1), LineSegment(F(0), F(10)))
    assert (path.first_direction, path.turning_points) == (Direction.RIGHT, (F(6),))

    # the pull toward the origin can flatten a near-origin prediction onto 0;
    # the error neighborhood must still end up covered
    flat = padded_robust_path((F(1, 200),), F(1, 100), LineSegment(F(0), F(1)))
    assert flat.turning_points == (F(3, 200),)

    neg = padded_robust_path((F(-5),), F(1), LineSegment(F(-10), F(0)))
    assert (neg.first_direction, neg.turning_points) == (Direction.LEFT, (F(-6),))

    assert padded_robust_path((), F(1), LineSegment(F(0), F(10))).turning_points == ()


@given(
    lines,
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=1, max_size=5),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=8),
)
@settings(max_examples=200, deadline=None)
def test_padded_robust_path_covers_all_error_neighborhoods(line, rel, delta):
    preds = tuple(line.a + r * line.length for r in rel)
    path = padded_robust_path(preds, delta, line)
    for p in preds:
        for x in (max(p - delta, line.a), p, min(p + delta, line.b)):
            assert path.first_visit(x) is not None


def test_integer_robust_path_is_the_scalar_one():
    """The integer robust path equals the scalar reference, value and type,
    on seeded predictions: full lines and both half-lines, repeats, the
    origin, predictions the pull flattens onto it, deltas from 0 up to the
    line's length, and no predictions at all."""
    rng = random.Random(20261020)
    lines = [LineSegment(F(a), F(b)) for a, b in [(-10, 10), (0, 10), (-10, 0), (-3, 7), (-1, 1)]]
    cases = 0
    for trial in range(600):
        line = rng.choice(lines)
        den = rng.choice([1, 2, 7, 12, 100])
        grid = [F(k, den) for k in range(int(line.a * den), int(line.b * den) + 1)]
        near = [x for x in grid if abs(x) <= F(1, 2)]  # within reach of the pull
        preds = tuple(rng.choice(near if rng.random() < 0.3 else grid) for _ in range(rng.randint(0, 7)))
        delta = rng.choice([F(0), F(1, 100), F(1, 7), F(1, 2), F(3, 2), line.length])
        path = padded_robust_path(preds, delta, line)
        expected = scalar_padded_robust_path(preds, delta, line)
        assert path.turning_points == expected.turning_points, (preds, delta, line)
        assert [type(tp) for tp in path.turning_points] == [F] * len(expected.turning_points)
        cases += any(p != 0 and shrink_toward_origin(p, delta) == 0 for p in preds)
    assert cases > 50  # the flattening ran


def test_integer_robust_path_clamps_to_surd_line_ends():
    """Line ends with a ``sqrt(3)`` part are compared in integer pairs and
    kept as the line's own ends where a waypoint is clamped, as the scalar
    reference's ``min`` and ``max`` keep them; a surd ``delta`` or
    prediction is refused, by name."""
    line = LineSegment(QS(-1, -1), QS(2, 1))  # about [-2.73, 3.73]
    for preds, delta in [((F(7, 2), F(-2)), F(1, 2)), ((F(1, 2),), F(1, 100)), ((), F(1))]:
        path = padded_robust_path(preds, delta, line)
        expected = scalar_padded_robust_path(preds, delta, line).turning_points
        assert path.turning_points == expected
        assert [type(tp) for tp in path.turning_points] == [type(tp) for tp in expected]
    assert padded_robust_path((F(7, 2),), F(1, 2), line).turning_points == (line.b,)
    refused = r"^delta and predictions must be rational, got QuadraticScalar\({}\)$"
    for preds, delta, surd in [((F(3),), QS(0, F(1, 100)), "0, 1/100"), ((QS(1, 1),), F(1), "1, 1")]:
        with pytest.raises(TypeError, match=refused.format(surd)):
            padded_robust_path(preds, delta, LineSegment(F(0), F(10)))


@pytest.mark.parametrize(
    "line", [LineSegment(F(-1), F(1)), LineSegment(F(0), F(10)), LineSegment(QS(-1, -1), F(3))]
)
def test_the_fallback_test_is_the_threshold_product(line):
    """Robust plans and ``select_algorithm`` fall back exactly where
    ``delta >= FALLBACK_THRESHOLD * length``, the product the integer test
    stands for: at the threshold, on either side of it, and far from it."""
    info = visible_info(make_instance(line, [(F(0), F(0), F(0))]))
    threshold = FALLBACK_THRESHOLD * line.length
    below = F(math.floor(threshold * 10**6), 10**6)  # rational, as a robust plan's delta must be
    for delta in [F(0), F(1, 1000), below, threshold, below + F(1, 10**6), line.length]:
        sweep = RobustPredictionTour(delta).plan(info) == LineSweepRoundTrips().plan(info)
        assert sweep is (delta >= threshold), delta
        if delta:
            picked = select_algorithm(make_instance(line, [(F(0), F(0), F(0))]), delta)
            assert isinstance(picked, RobustPredictionTour) is (delta < threshold), delta


def test_robust_strategy_fallback_threshold():
    line = LineSegment(F(0), F(10))
    info = visible_info(make_instance(line, [(F(5), F(5), F(0))]))

    below = RobustPredictionTour(delta=F(1, 100)).plan(info)
    assert below.path.turning_points == (F(501, 100),)
    assert below.schedule.pad == F(1, 25)

    # at the threshold (weak inequality) predictions are too noisy: full sweep
    at = RobustPredictionTour(delta=FALLBACK_THRESHOLD * line.length).plan(info)
    assert at.path.turning_points == (F(10),)
    assert at.schedule.pad == 0

    with pytest.raises(ValueError):
        RobustPredictionTour(delta=F(-1))
    blind = visible_info(make_instance(line, [(None, F(1), F(0))], Model.ORIGINAL))
    with pytest.raises(ModelMismatchError):
        RobustPredictionTour(delta=F(1, 100)).plan(blind)


def test_every_session_has_exactly_the_methods_strategy_start_names():
    """The session protocol is the four methods the ``Strategy.start``
    docstring names: ``on_arrivals``, ``completions``, ``motion`` and
    ``moves``.  Both sessions expose exactly those public methods, so a
    second motion accessor cannot grow back unnoticed, and every strategy
    starts one of them."""
    named = set(re.findall(r"``(\w+)\(", online.Strategy.start.__doc__))
    assert named == {"on_arrivals", "completions", "motion", "moves"}
    sessions = (online.CommittedSession, online.ReplanSession)
    for session in sessions:
        public = {n for n in dir(session) if not n.startswith("_") and callable(getattr(session, n))}
        assert public == named, session.__name__
    info = online.VisibleInfo(LineSegment(F(0), F(4)), (F(1),))
    for name in online.STRATEGY_NAMES:
        assert type(make_strategy(name).start(info)) in sessions, name


def test_greedy_session_replans_from_current_position():
    info = visible_info(make_instance(LineSegment(F(-2), F(3)), [(F(2), F(2), F(0))]))
    session = GreedyReplan().start(info)
    session.on_arrivals([(F(2), F(0))])
    assert _whole(session, F(0)).breakpoints == ((F(0), F(0)), (F(2), F(2)))
    session.on_arrivals([(F(-1), F(1))])
    # at time 1 the server sits at 1; serving 2 first is latency-optimal
    assert _whole(session, F(1)).breakpoints == (
        (F(0), F(0)),
        (F(1), F(1)),
        (F(2), F(2)),
        (F(5), F(-1)),
    )


def test_greedy_session_rejects_a_surd_position():
    """The replanner plans from rational positions: an arrival that finds the
    server mid-leg at a surd position is refused by name, before any state
    changes, while one that finds it parked at a rational spot is served.
    A refused batch leaves everything a reader sees as it was, even when an
    earlier time of the batch replanned and its values bring a new
    denominator."""
    info = visible_info(make_instance(LineSegment(F(0), F(4)), [(F(3), F(3), F(0))]))
    session = GreedyReplan().start(info)
    session.on_arrivals([(F(3), F(0))])

    def seen():
        d, moves = session.moves(0, 1)
        return _whole(session, F(0)), session.motion(F(5, 2)), session.motion(F(9)), d, list(moves)

    before, kept = seen(), session.completions()
    refused = [
        [(F(1), QuadraticScalar(1, F(1, 2)))],
        [(F(2, 7), F(1, 3)), (F(1), QuadraticScalar(1, F(1, 2)))],  # 1/3 replans first
    ]
    for batch in refused:
        with pytest.raises(ValueError, match=r"^arrival 1 \+ 1/2\*sqrt\(3\) finds the server"):
            session.on_arrivals(batch)
        assert seen() == before
        assert all(a is b for a, b in zip(session.completions(), kept, strict=True))
    session.on_arrivals([(F(1), QuadraticScalar(4, F(1, 2)))])  # parked at 3
    last = QuadraticScalar(4, F(1, 2))
    assert _whole(session, last).breakpoints[-1] == (QuadraticScalar(6, F(1, 2)), F(1))
    late = session.completions()[-1]
    assert type(late) is QuadraticScalar and late == QuadraticScalar(6, F(1, 2))
    fed = [(F(3), F(0)), (F(1), QuadraticScalar(4, F(1, 2)))]
    _assert_completions_match_the_trajectory(session, fed, last)


def test_greedy_session_serves_a_request_at_its_position_on_arrival():
    """A request released where the server stands completes at its arrival,
    and the walk replanned around it does not go back for it."""
    info = visible_info(make_instance(LineSegment(F(-2), F(3)), [(F(2), F(2), F(0))]))
    session = GreedyReplan().start(info)
    session.on_arrivals([(F(2), F(0)), (F(0), F(0))])
    session.on_arrivals([(F(1), F(1)), (F(-1), F(1))])  # the server passes 1 at time 1
    assert session.completions() == [F(2), F(0), F(1), F(5)]
    assert _whole(session, F(1)).breakpoints == (
        (F(0), F(0)),
        (F(1), F(1)),
        (F(2), F(2)),
        (F(5), F(-1)),
    )
    _assert_completions_match_the_trajectory(
        session, [(F(2), F(0)), (F(0), F(0)), (F(1), F(1)), (F(-1), F(1))], F(1)
    )


def test_greedy_session_refuses_an_arrival_out_of_order():
    """Completions are kept in closed form, which holds only while time runs
    forward: an arrival before an earlier one is refused, and nothing changes."""
    info = visible_info(make_instance(LineSegment(F(0), F(4)), [(F(3), F(3), F(0))]))
    session = GreedyReplan().start(info)
    session.on_arrivals([(F(3), F(2))])
    before = _whole(session, F(2)), session.completions()
    with pytest.raises(ValueError, match=r"^arrival 1 comes before the earlier arrival 2$"):
        session.on_arrivals([(F(1), F(1))])
    assert (_whole(session, F(2)), session.completions()) == before
    session.on_arrivals([(F(1), F(2))])  # the same time again is fine
    assert session.completions() == [F(5), F(3)]  # 1 first, then 3


def test_greedy_session_reads_a_rational_surd_arrival_as_a_fraction():
    """An arrival time that is a ``QuadraticScalar`` with no ``sqrt(3)`` part
    cuts the motion as its ``Fraction`` would, so a request served on the
    leg it splits replays to the same ``Fraction`` the closed form keeps."""
    info = visible_info(make_instance(LineSegment(F(0), F(4)), [(F(2), F(2), F(0))]))
    session = GreedyReplan().start(info)
    session.on_arrivals([(F(2), F(0)), (F(4), F(0))])
    session.on_arrivals([(F(1), QuadraticScalar(3))])
    assert session.completions() == [F(2), F(4), F(7)]
    assert all(type(bp[0]) is F for bp in _whole(session, F(3)).breakpoints)
    fed = [(F(2), F(0)), (F(4), F(0)), (F(1), QuadraticScalar(3))]
    _assert_completions_match_the_trajectory(session, fed, F(3))


def test_greedy_session_reads_a_rational_surd_location_as_a_fraction():
    """A location that is a ``QuadraticScalar`` with no ``sqrt(3)`` part is
    planned for as its ``Fraction``, as such an arrival time is read; one
    with a ``sqrt(3)`` part is refused by the rational walk, named as it was
    fed, not less the server's position."""
    session = GreedyReplan().start(None)
    session.on_arrivals([(QuadraticScalar(3), F(0))])
    session.on_arrivals([(F(-1), F(3))])
    assert session.completions() == [F(3), F(7)]
    assert all(type(c) is F for c in session.completions())
    with pytest.raises(TypeError, match=r"^location must be rational, got QuadraticScalar\(-1, 1\)$"):
        session.on_arrivals([(QuadraticScalar(-1, 1), F(8))])  # parked at -1


def test_greedy_session_replans_without_a_scalar_trajectory(monkeypatch):
    """A replan cuts and extends the motion in integer pairs: over 24
    arrivals it builds no ``Trajectory``, checked or not, so its work does
    not grow with the run, and the motion it keeps still passes the checked
    constructor."""
    info = visible_info(make_instance(LineSegment(F(-5), F(5)), [(None, F(0), F(0))], Model.ORIGINAL))
    session = GreedyReplan().start(info)
    built = count_trajectories(monkeypatch)
    for step in range(1, 25):
        time = F(step, 2)
        session.on_arrivals([(F((-1) ** step * (step % 5)), time)])
        assert built == []
        whole = _whole(session, time)
        assert built == [whole]
        built.clear()
    assert len(whole.breakpoints) > 10


def _whole(session, last):
    """A replanner's whole motion after its latest arrival ``last``, through
    the checked constructor (``checked_trajectory``): it ends at the last
    completion, or at ``last`` when that comes later."""
    return checked_trajectory(session, max([last, *session.completions()]))


def _assert_completions_match_the_trajectory(session, fed, last):
    """The session's closed-form completions are the first visits its
    trajectory makes, value, type and printed form alike."""
    traj = _whole(session, last)
    replay = [traj.first_service_time(loc, arrival) for loc, arrival in fed]
    closed = session.completions()
    assert closed == replay
    assert [type(c) for c in closed] == [type(c) for c in replay]
    assert [str(c) for c in closed] == [str(c) for c in replay]


arrival_batches = st.lists(
    st.tuples(
        st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=7,
)


@given(st.fractions(min_value=0, max_value=3, max_denominator=4), arrival_batches)
@settings(max_examples=200, deadline=None)
def test_greedy_session_matches_the_recheck_all_oracle(first, batches):
    info = visible_info(make_instance(LineSegment(F(-5), F(5)), [(None, F(0), F(0))], Model.ORIGINAL))
    session, oracle = GreedyReplan().start(info), RecheckAllSession()
    time, fed = first, []
    for gap, locations in batches:
        batch = [(loc, time) for loc in locations]
        session.on_arrivals(batch)
        oracle.on_arrivals(batch)
        fed += batch
        assert _whole(session, time).breakpoints == oracle._trajectory.breakpoints
        _assert_completions_match_the_trajectory(session, fed, time)
        time += gap


def _over(d, pts, common):
    """Integer pairs over ``d`` (tuples of pairs) as pairs over ``common``."""
    f = common // d
    return [tuple([(a * f, b * f) for a, b in row]) for row in pts]


def _same_pairs(ours, theirs):
    """Two ``(d, rows)`` of integer pairs stand for the same values."""
    (d, a), (e, b) = ours, theirs
    common = math.lcm(d, e)
    return _over(d, a, common) == _over(e, b, common)


@given(
    st.fractions(min_value=0, max_value=3, max_denominator=4),
    arrival_batches,
    st.lists(st.booleans(), min_size=7, max_size=7),
    st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8),
)
@settings(max_examples=200, deadline=None)
def test_greedy_session_motion_is_its_trajectory_in_pairs(first, batches, parked, q):
    """A second path for the replanner's motion in pairs: after every batch,
    ``motion(until)`` is the motion of the plain replanner
    (``RecheckAllSession``), cut in scalar arithmetic (``scalar_cut``) and
    scaled (``core._scaled_pairs``), at every breakpoint, between every two,
    at 0 and after the end; it passes the checked constructor; and
    ``moves(lo, 1)`` is that motion's tail from the leg under way at ``lo``,
    scaled alike.  A batch drawn ``parked`` arrives after the motion ends,
    at a time moved by ``q*sqrt(3)``: a surd time that finds the server
    parked, from which later times keep that surd part, so they never cut
    at a surd position."""
    info = visible_info(make_instance(LineSegment(F(-5), F(5)), [(None, F(0), F(0))], Model.ORIGINAL))
    session, oracle, time = GreedyReplan().start(info), RecheckAllSession(), first
    for (gap, locations), park in zip(batches, parked):
        if park:
            time = max([time, *session.completions()]) + gap + QS(0, q)
        session.on_arrivals([(loc, time) for loc in locations])
        oracle.on_arrivals([(loc, time) for loc in locations])
        whole = oracle._trajectory
        times = [t for t, _ in whole.breakpoints]
        untils = times + [(a + b) / 2 for a, b in zip(times, times[1:])] + [times[-1] + 1]
        for until in untils:
            checked_trajectory(session, until)
            cut = scalar_cut(whole, until)
            d, flat = core._scaled_pairs([v for bp in cut for v in bp])
            assert _same_pairs(session.motion(until), (d, list(zip(flat[::2], flat[1::2])))), until
        for lo in range(0, math.ceil(times[-1]) + 2):
            tail = whole.breakpoints[max(len([t for t in times if t <= lo]) - 1, 0) :]
            d, flat = core._scaled_pairs([v for bp in tail for v in bp])
            expected = list(zip(flat[::2], flat[1::2], flat[2::2], flat[3::2]))
            e, moves = session.moves(lo, 1)
            assert _same_pairs((e, list(moves)), (d, expected)), lo
        time += gap


def test_select_algorithm():
    line = LineSegment(F(0), F(10))
    predicted = make_instance(line, [(F(5), F(5), F(0))])
    assert isinstance(select_algorithm(predicted), PerfectPredictionTour)
    assert isinstance(select_algorithm(predicted, delta=F(0)), PerfectPredictionTour)
    assert isinstance(select_algorithm(predicted, delta=F(1, 100)), RobustPredictionTour)
    assert isinstance(select_algorithm(predicted, delta=F(5)), HalflineRoundTrips)

    blind = make_instance(line, [(None, F(5), F(0))], Model.ORIGINAL)
    assert isinstance(select_algorithm(blind), HalflineRoundTrips)
    full = make_instance(LineSegment(F(-1), F(10)), [(None, F(5), F(0))], Model.ORIGINAL)
    assert type(select_algorithm(full, delta=F(5))) is LineSweepRoundTrips


def test_make_strategy_names():
    assert make_strategy("halfline").name == "halfline-roundtrips"
    assert make_strategy("sweep").name == "line-sweep"
    assert make_strategy("perfect").name == "prediction-tour"
    assert make_strategy("robust", delta=F(1, 100)).delta == F(1, 100)
    assert make_strategy("greedy").name == "greedy-replan"
    with pytest.raises(ValueError):
        make_strategy("nope")
