"""Tests for the exact simulator: completions, event logs, coverage failures,
the two-floor ratio evaluation, and the closed-form completions of round-trip
schedules against the trajectory replay they replace."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from linetrp.core import LineSegment, Model, make_instance
from linetrp.generate import perturbed_instance, random_instance
from linetrp import core, offline, online
from linetrp.offline import optimal_latency_tour
from linetrp.online import (
    CERT_RATIO,
    DEFAULT_ALPHA,
    SQRT3,
    GreedyReplan,
    HalflineRoundTrips,
    LineSweepRoundTrips,
    PerfectPredictionTour,
    QuadraticScalar,
    RobustPredictionTour,
    VisibleInfo,
    coverage_horizon,
    make_strategy,
    roundtrip_completions,
    roundtrip_trajectory,
    visible_info,
)
from linetrp import simulator
from linetrp.simulator import CoverageError, RunResult, evaluate, run

from session_motion import checked_trajectory

QS = QuadraticScalar


def test_perfect_run_frozen_completions():
    inst = make_instance(
        LineSegment(F(-1), F(2)), [(F(-1), F(-1), F(0)), (F(2), F(2), F(0))]
    )
    result = run(inst, PerfectPredictionTour())
    assert result.completions == (F(1), QS(6, 1))
    assert result.on_sum == QS(7, 1)
    assert result.strategy_name == "prediction-tour"
    # trajectory is truncated at the last completion
    assert result.trajectory.breakpoints[-1][0] == QS(6, 1)
    assert result.trajectory.position_at(QS(6, 1)) == 2


def test_event_log_is_ordered_and_complete():
    inst = make_instance(
        LineSegment(F(-1), F(2)), [(F(-1), F(-1), F(0)), (F(2), F(2), F(0))]
    )
    result = run(inst, PerfectPredictionTour())
    times = [e.time for e in result.events]
    assert times == sorted(times)
    kinds = [(e.kind, e.request_index) for e in result.events]
    assert kinds.count(("arrival", 0)) == 1 and kinds.count(("arrival", 1)) == 1
    services = {e.request_index: e.time for e in result.events if e.kind == "service"}
    assert services == {0: F(1), 1: QS(6, 1)}
    assert any(e.kind == "turnaround" for e in result.events)
    # same-time events order arrivals before services before turnarounds
    first_two = [e.kind for e in result.events[:2]]
    assert first_two == ["arrival", "arrival"]


def test_a_turnaround_after_a_wait_is_logged_where_the_server_starts_back():
    # the replanner reaches 2, waits there for the next arrival, then heads to -1
    inst = make_instance((-5, 5), [(None, 2, 0), (None, -1, 5)], Model.ORIGINAL)
    result = run(inst, GreedyReplan())
    assert result.trajectory.breakpoints == ((0, 0), (2, 2), (5, 2), (8, -1))
    assert [(e.time, e.kind, e.position) for e in result.events] == [
        (0, "arrival", 2),
        (2, "service", 2),
        (5, "arrival", -1),
        (5, "turnaround", 2),
        (8, "service", -1),
    ]


def test_uncovered_request_raises():
    # a robust path below the fallback threshold only covers the error
    # neighborhoods; an actual far outside the promise is a planning bug
    inst = make_instance(LineSegment(F(0), F(1)), [(F(1, 2), F(1), F(0))])
    with pytest.raises(CoverageError):
        run(inst, RobustPredictionTour(delta=F(1, 100)))


def test_greedy_serves_late_arrivals():
    inst = make_instance(
        LineSegment(F(-2), F(3)),
        [(F(1), F(1), F(0)), (F(-2), F(-2), F(2)), (F(3), F(3), F(0))],
    )
    result = run(inst, GreedyReplan())
    assert result.completions == (F(1), F(8), F(3))


def test_greedy_run_trajectory_is_the_session_motion_cut_at_the_last_completion():
    inst = make_instance(
        LineSegment(F(-2), F(3)),
        [(F(1), F(1), F(0)), (F(-2), F(-2), F(2)), (F(3), F(3), F(0)), (F(1), F(1), F(9))],
    )
    result = run(inst, GreedyReplan())
    session = GreedyReplan().start(visible_info(inst))
    session.on_arrivals([(F(1), F(0)), (F(3), F(0))])
    session.on_arrivals([(F(-2), F(2))])
    session.on_arrivals([(F(1), F(9))])
    last = max(result.completions)
    cut = checked_trajectory(session, last).breakpoints
    assert result.trajectory.breakpoints == cut
    assert [type(v) for bp in result.trajectory.breakpoints for v in bp] == [
        type(v) for bp in cut for v in bp
    ]
    assert result.trajectory.breakpoints[-1] == (last, F(1))
    assert list(result.completions) == [
        result.trajectory.first_service_time(r.actual, r.arrival) for r in inst.requests
    ]


@given(st.integers(0, 10**9), st.integers(1, 8), st.sampled_from([0, 3, 20]))
@settings(max_examples=100, deadline=None)
def test_greedy_run_completions_are_its_trajectory_replayed(seed, n, max_arrival):
    """``run`` reads the replanner's closed-form completions, fed in one
    batch; its trajectory, replayed, serves every request at that
    completion, value, type and printed form alike."""
    rng = random.Random(seed)
    inst = random_instance(rng, LineSegment(F(-3), F(5)), n, max_arrival=max_arrival, denom=8)
    result = run(inst, GreedyReplan())
    replay = [result.trajectory.first_service_time(r.actual, r.arrival) for r in inst.requests]
    assert list(result.completions) == replay
    assert [type(c) for c in result.completions] == [type(c) for c in replay]
    assert [str(c) for c in result.completions] == [str(c) for c in replay]


def test_a_committed_run_scales_its_plan_once(monkeypatch):
    """A run, its trajectory and its evaluation read one plan, whose trips
    and legs are scaled to integer pairs once, and the run resolves every
    request in one closed-form call."""
    scaled, calls = [], []
    real, real_completions = online._trip_geometry, online.roundtrip_completions
    monkeypatch.setattr(online, "_trip_geometry", lambda planned: scaled.append(planned) or real(planned))
    monkeypatch.setattr(
        online, "roundtrip_completions", lambda p, pairs: calls.append(pairs) or real_completions(p, pairs)
    )
    inst = make_instance(
        LineSegment(F(-1), F(2)),
        [(F(-1), F(-1), F(0)), (F(2), F(2), F(0)), (F(1), F(1), F(3))],
    )
    result = run(inst, PerfectPredictionTour())
    assert result.trajectory.breakpoints[-1][0] == max(result.completions)
    evaluate(result)
    assert len(scaled) == 1
    assert [len(pairs) for pairs in calls] == [3]


def test_request_ratio_frozen_pairs():
    """A row's simple ratio is its completion over ``max(|location|,
    arrival)``, and 1 when that floor is 0."""
    for actual, arrival, completion, ratio in [
        (F(1), F(0), F(4), 4),
        (F(1, 1000), F(2), F(7), F(7, 2)),
        (F(0), F(0), F(0), 1),  # served instantly at the origin
        (F(0), F(3), F(3), 1),
    ]:
        floor = max(abs(actual), arrival)
        row = simulator.RequestReport(0, None, actual, arrival, completion, floor, floor)
        assert row.ratio_simple == ratio


def test_evaluate_frozen_report():
    inst = make_instance(
        LineSegment(F(-2), F(3)),
        [(F(1), F(1), F(0)), (F(-2), F(-2), F(2)), (F(3), F(3), F(0))],
    )
    report = evaluate(run(inst, GreedyReplan()))
    assert report.on_sum == 12
    assert report.opt_sum_bound == 12
    assert report.sum_ratio == 1
    assert report.max_ratio_simple == 4
    assert report.max_ratio_tour == 1
    late = report.rows[1]
    assert (late.completion, late.bound_simple, late.bound_tour) == (F(8), F(2), F(8))
    assert (late.ratio_simple, late.ratio_tour) == (F(4), F(1))


def test_tour_floor_is_floored_by_the_arrival():
    # the latency-optimal walk of {-1, 2} first visits 2 at arc 4; arriving
    # at 7, that request's tour floor is its arrival
    inst = make_instance(
        LineSegment(F(-1), F(2)), [(None, F(-1), F(0)), (None, F(2), F(7))], Model.ORIGINAL
    )
    report = evaluate(run(inst, GreedyReplan()))
    assert optimal_latency_tour([F(-1), F(2)])[0].first_visit(F(2)) == 4
    assert [row.bound_tour for row in report.rows] == [F(1), F(7)]


strategy_pool = st.sampled_from(
    [HalflineRoundTrips(), LineSweepRoundTrips(), PerfectPredictionTour(), GreedyReplan()]
)


@given(st.integers(0, 10**9), st.integers(1, 6), strategy_pool)
@settings(max_examples=100, deadline=None)
def test_completions_respect_floors(seed, n, strategy):
    rng = random.Random(seed)
    line = LineSegment(F(0), F(5)) if isinstance(strategy, HalflineRoundTrips) else LineSegment(F(-3), F(5))
    inst = random_instance(rng, line, n, max_arrival=20, denom=8)
    result = run(inst, strategy)
    for r, c in zip(inst.requests, result.completions):
        assert c >= r.arrival
        assert c >= abs(r.actual)


@given(st.integers(0, 10**9), st.integers(1, 6), strategy_pool)
@settings(max_examples=100, deadline=None)
def test_tour_floor_dominates_simple_floor(seed, n, strategy):
    rng = random.Random(seed)
    line = LineSegment(F(0), F(5)) if isinstance(strategy, HalflineRoundTrips) else LineSegment(F(-3), F(5))
    inst = random_instance(rng, line, n, max_arrival=20, denom=8)
    report = evaluate(run(inst, strategy))
    for row in report.rows:
        # the reference walk starts at the origin, so its first visit can
        # never beat the distance floor; a strategy CAN beat the reference
        # walk on an individual request, so no floor claim is made there
        assert row.bound_tour >= row.bound_simple
        assert row.ratio_tour <= row.ratio_simple
        assert row.completion >= row.bound_simple


@given(st.integers(0, 10**9), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_greedy_is_latency_optimal_when_everything_arrives_at_zero(seed, n):
    rng = random.Random(seed)
    inst = random_instance(rng, LineSegment(F(-3), F(5)), n, max_arrival=0, denom=8)
    result = run(inst, GreedyReplan())
    _, dp_total = optimal_latency_tour(r.actual for r in inst.requests)
    assert result.on_sum == dp_total


def test_permuting_the_requests_permutes_the_completions():
    """A metamorphic relation that needs no recorded value: every strategy
    sees the requests as a set, so feeding them in another order gives each
    request the same completion, value and printed form.  240 seeded
    instances with repeated locations and arrivals, 108 of them on a half
    line (the only ones ``halfline`` serves); robust runs with the
    instance's own error bound."""
    rng = random.Random(20261020)
    for k in range(240):
        halfline = k % 20 < 9
        line = LineSegment(F(0), F(6)) if halfline else LineSegment(F(-4), F(5))
        delta = F(rng.randint(0, 4), 8)
        denom = rng.choice((1, 2, 8))
        inst = perturbed_instance(rng, line, rng.randint(1, 7), delta, max_arrival=12, denom=denom)
        order = list(range(len(inst.requests)))
        rng.shuffle(order)
        reqs = inst.requests
        shuffled = make_instance(line, [(reqs[i].predicted, reqs[i].actual, reqs[i].arrival) for i in order])
        for name in online.STRATEGY_NAMES:
            if name == "halfline" and not halfline:
                continue
            strategy = make_strategy(name, delta=delta)
            before = run(inst, strategy).completions
            got = run(shuffled, strategy).completions
            assert [(c, str(c)) for c in got] == [(before[i], str(before[i])) for i in order], (k, name)


# --- closed-form completions against the trajectory replay ------------------


def _draw_plan(data):
    """A fixed-path strategy planned on a drawn line from drawn predictions,
    with sqrt(3)/2 or a rational alpha; the robust tour brings pad > 0."""
    name = data.draw(st.sampled_from(["halfline", "sweep", "perfect", "robust"]))
    alpha = data.draw(st.sampled_from([DEFAULT_ALPHA, F(1, 2), F(3, 4), F(1), F(5, 2)]))
    b = data.draw(st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4))
    a = F(0) if name == "halfline" else -data.draw(
        st.fractions(min_value=0, max_value=6, max_denominator=4)
    )
    line = LineSegment(a, b)
    unit = st.fractions(min_value=0, max_value=1, max_denominator=8)
    points = data.draw(st.lists(unit.map(lambda u: a + u * line.length), min_size=1, max_size=5))
    # up to 26/400 of the line keeps the robust tour below its fallback threshold
    delta = line.length * data.draw(st.integers(0, 26)) / 400
    strategy = make_strategy(name, alpha, delta)
    planned = strategy.plan(VisibleInfo(line, tuple(points)))
    return strategy, line, points, planned


def _replay(planned, latest_arrival):
    path, schedule = planned.path, planned.schedule
    return roundtrip_trajectory(path, schedule, coverage_horizon(path, schedule, latest_arrival))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_the_trajectory_replay(data):
    _, line, points, planned = _draw_plan(data)
    probe = _replay(planned, F(8))
    # on the predictions, the origin, the path's turning points and every
    # breakpoint of the motion (trip turnarounds included, surds among them)
    spots = points + [F(0), line.a, line.b, *planned.path.turning_points]
    spots += [p for _, p in probe.breakpoints]
    times = [t for t, _ in probe.breakpoints]
    pairs = []
    for _ in range(data.draw(st.integers(1, 8))):
        loc = data.draw(st.sampled_from(spots))
        arrival = data.draw(
            st.one_of(
                st.fractions(min_value=0, max_value=8, max_denominator=6),
                st.sampled_from(times),
            )
        )
        pairs.append((loc, arrival))
        visit = probe.first_service_time(loc, arrival)
        if visit is not None:
            pairs.append((loc, visit))  # arriving exactly as the server passes
    replay = _replay(planned, max(arrival for _, arrival in pairs))
    expected = [replay.first_service_time(loc, arrival) for loc, arrival in pairs]
    got = roundtrip_completions(planned, pairs)
    assert got == expected
    assert [str(c) for c in got] == [str(c) for c in expected]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_the_committed_motion_passes_the_trajectory_checks(data):
    """The round trips are built unchecked, valid by construction; the
    checked constructor takes the same breakpoints and keeps them as they
    are."""
    _, _, _, planned = _draw_plan(data)
    motion = _replay(planned, F(8))
    assert core.Trajectory(motion.breakpoints).breakpoints == motion.breakpoints


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_run_matches_the_trajectory_replay(data):
    strategy, line, points, planned = _draw_plan(data)
    probe = _replay(planned, F(8))
    rational_times = [t for t, _ in probe.breakpoints if not isinstance(t, QuadraticScalar)]
    spots = points + [F(0), line.a, line.b, *planned.path.turning_points]
    triples = []
    for pred in points:
        actual = data.draw(st.sampled_from(spots))
        arrival = data.draw(
            st.one_of(
                st.fractions(min_value=0, max_value=8, max_denominator=6),
                st.sampled_from(rational_times),
            )
        )
        triples.append((pred, actual, arrival))
    inst = make_instance(line, triples)
    replay = _replay(planned, max([r.arrival for r in inst.requests], default=F(0)))
    expected = [replay.first_service_time(r.actual, r.arrival) for r in inst.requests]
    if None in expected:  # a robust path misses an actual far from its prediction
        with pytest.raises(CoverageError):
            run(inst, strategy)
        return
    result = run(inst, strategy)
    assert result.completions == tuple(expected)
    assert [str(c) for c in result.completions] == [str(c) for c in expected]
    cut = replay.truncated(max(expected))
    assert result.trajectory.breakpoints == cut.breakpoints
    assert result.events == RunResult(inst, strategy.name, tuple(expected), lambda: cut).events


def test_a_path_of_length_zero_parks_at_the_origin():
    # robust tour, delta 0, every prediction at the origin: nothing to walk
    inst = make_instance(LineSegment(F(-1), F(1)), [(F(0), F(0), F(5, 2)), (F(0), F(0), F(0))])
    result = run(inst, RobustPredictionTour())
    assert result.completions == (F(5, 2), F(0))
    assert result.trajectory.breakpoints == ((F(0), F(0)), (F(5, 2), F(0)))
    off = make_instance(LineSegment(F(-1), F(1)), [(F(0), F(1, 2), F(1))])
    with pytest.raises(CoverageError):
        run(off, RobustPredictionTour())


def test_large_arrivals_are_served_without_walking_to_them():
    # about 5*10^8 round trips of [0, 1] lie before these arrivals; the
    # completions come from the schedule's period, not from walking them
    inst = make_instance(
        LineSegment(F(0), F(1)),
        [(None, F(1, 2), F(10**9)), (None, F(1), 10**9 + F(1, 3)), (None, F(0), F(7, 2))],
        Model.ORIGINAL,
    )
    result = run(inst, HalflineRoundTrips())
    assert result.completions == (F(2000000001, 2), F(1000000001), F(4))
    report = evaluate(result)
    assert [row.completion for row in report.rows] == list(result.completions)
    assert report.max_ratio_simple == F(8, 7)
    # on [0, 10] the full sweeps start at a surd time; shifting an arrival by
    # whole periods of 20 shifts its completion by exactly as much
    planned = HalflineRoundTrips().plan(VisibleInfo(LineSegment(F(0), F(10)), None))
    shift = 20 * 10**30
    near, far = roundtrip_completions(planned, [(F(7), F(30)), (F(7), 30 + shift)])
    assert isinstance(near, QuadraticScalar) and near.q != 0
    assert far == near + shift


@pytest.mark.parametrize(
    "strategy, line, predictions",
    [
        (HalflineRoundTrips(), LineSegment(F(0), F(10)), ()),
        # pad 4*delta = 1/100
        (RobustPredictionTour(F(1, 400)), LineSegment(F(-1), F(2)), (F(-2, 3), F(7, 5))),
        # a surd line length makes the period a surd
        (LineSweepRoundTrips(), LineSegment(-SQRT3, F(5, 2) + SQRT3), ()),
    ],
)
def test_one_huge_denominator_scales_every_request(strategy, line, predictions):
    # every value of a call is scaled to the common denominator of all of
    # them, here about 10**50 times the schedule's own; shifting the arrival
    # by whole periods still shifts each completion by exactly as much
    planned = strategy.plan(VisibleInfo(line, predictions))
    shift = 2 * planned.path.walk.end_time * 10**30
    arrival = 30 + F(1, 10**50 + 1)
    spots = [F(0), F(1, 3), *predictions, *planned.path.turning_points]
    got = roundtrip_completions(
        planned, [(x, arrival) for x in spots] + [(x, arrival + shift) for x in spots]
    )
    near, far = got[: len(spots)], got[len(spots) :]
    assert far == [c + shift for c in near]
    replay = _replay(planned, arrival)
    expected = [replay.first_service_time(x, arrival) for x in spots]
    assert near == expected
    assert [str(c) for c in near] == [str(c) for c in expected]


@pytest.mark.parametrize(
    "strategy, line, predictions, span",
    [
        (HalflineRoundTrips(), LineSegment(F(0), F(10)), (), (F(0), F(10))),
        (RobustPredictionTour(F(1, 400)), LineSegment(F(-1), F(2)), (F(-2, 3), F(7, 5)), (F(-1), F(2))),
        (LineSweepRoundTrips(), LineSegment(-SQRT3, F(5, 2) + SQRT3), (), (F(-1), F(5, 2))),
    ],
)
def test_coprime_request_denominators_match_the_trajectory_replay(strategy, line, predictions, span):
    # every location and every arrival has its own prime denominator, so no
    # two requests share one; each is served over its own rescaled geometry
    planned = strategy.plan(VisibleInfo(line, predictions))
    primes = [p for p in range(1009, 2000) if all(p % q for q in range(2, 45))][:80]
    lo, hi = span
    pairs = [
        (lo + (hi - lo) * F(k * 37 % p, p), F(k * 7919 % (20 * q), q))
        for k, (p, q) in enumerate(zip(primes[::2], primes[1::2]))
    ]
    replay = _replay(planned, max(arrival for _, arrival in pairs))
    expected = [replay.first_service_time(x, arrival) for x, arrival in pairs]
    got = roundtrip_completions(planned, pairs)
    assert got == expected
    assert [str(c) for c in got] == [str(c) for c in expected]


def test_robust_certificate_is_per_request_on_half_lines_only():
    # on a full line the padded walk goes left first, so one request just
    # right of the origin waits out the left excursion: 33/1000 against a
    # floor of 7/1000, above 2 + sqrt(3) + 4*delta = 3.772...
    delta = F(1, 100)
    inst = make_instance(LineSegment(F(-1), F(1)), [(F(-3, 1000), F(7, 1000), F(0))])
    report = evaluate(run(inst, RobustPredictionTour(delta)))
    assert report.rows[0].completion == F(33, 1000)
    assert report.max_ratio_simple == report.max_ratio_tour == F(33, 7)
    assert report.max_ratio_simple > CERT_RATIO + 4 * delta


# --- evaluation reports, pinned byte for byte --------------------------------

_REPORT_FIELDS = ("on_sum", "opt_sum_bound", "sum_ratio", "max_ratio_simple", "max_ratio_tour")
_ROW_FIELDS = ("index", "predicted", "actual", "arrival", "completion", "bound_simple",
               "bound_tour", "ratio_simple", "ratio_tour")


def _report_text(report) -> str:
    """The type and ``str`` of every report field and every row field."""
    cells = [(name, getattr(report, name)) for name in _REPORT_FIELDS]
    for row in report.rows:
        cells += [(name, getattr(row, name)) for name in _ROW_FIELDS]
    return "".join(f"{name}:{type(v).__name__}:{v}\n" for name, v in cells)


def _pinned_runs():
    """Seeded half-line, prediction, robust and greedy runs at three alphas,
    then surd arrivals, origin requests at time 0 and an empty instance."""
    rng = random.Random("evaluate-pin")
    for alpha in (DEFAULT_ALPHA, F(1, 2), F(5, 2)):
        for n in range(1, 11):
            b = rng.choice([1, 2, 10, 50])
            yield random_instance(rng, (0, b), n, 50, 1000), HalflineRoundTrips(alpha)
            line = rng.choice([(-2, 3), (-10, 10)])
            yield random_instance(rng, line, n, 50, 1000), PerfectPredictionTour(alpha)
            delta = rng.choice([F(1, 100), F(3, 100), F(1, 20)])
            robust = perturbed_instance(rng, (0, 1), n, delta, 50, 1000)
            yield robust, RobustPredictionTour(delta, alpha)
            yield random_instance(rng, (-3, 5), n, 20, 8), GreedyReplan()
    surd = [(F(1), F(1), QS(1, F(1, 2))), (F(3), F(3), 2 * SQRT3), (F(1, 3), F(1, 3), F(0)),
            (F(0), F(0), QS(F(1, 7), F(2, 7)))]
    yield make_instance(LineSegment(F(0), F(4)), surd), GreedyReplan()
    # arrivals in Q written as surds tie with, and beat, the distance floor
    surd += [(F(2), F(2), QS(2)), (F(1, 2), F(1, 2), QS(3))]
    for strategy in (HalflineRoundTrips(), PerfectPredictionTour(F(1, 2))):
        yield make_instance(LineSegment(F(0), F(4)), surd), strategy
    origin = [(F(0), F(0), F(0)), (F(2), F(2), F(0)), (F(0), F(0), F(0)), (F(-1), F(-1), F(3))]
    yield make_instance(LineSegment(F(-1), F(2)), origin), PerfectPredictionTour()
    yield make_instance(LineSegment(F(-1), F(2)), origin), GreedyReplan()
    yield make_instance(LineSegment(F(0), F(2)), [(F(0), F(0), F(0))] * 3), HalflineRoundTrips()
    # every ratio is 1: the origin request's Fraction comes before a surd one
    tie = [(F(0), F(0), F(0)), (F(1), F(1), 1 + SQRT3)]
    yield make_instance(LineSegment(F(0), F(4)), tie), HalflineRoundTrips()
    for strategy in (HalflineRoundTrips(), GreedyReplan()):
        yield make_instance(LineSegment(F(0), F(2)), []), strategy


def test_greedy_refuses_to_replan_from_a_surd_position():
    """The pinned surd arrivals plus two more: at arrival 2 the server stands
    at 1 - sqrt(3)/2, and the replanner refuses it by name."""
    surd = [(F(1), F(1), QS(1, F(1, 2))), (F(3), F(3), 2 * SQRT3), (F(1, 3), F(1, 3), F(0)),
            (F(0), F(0), QS(F(1, 7), F(2, 7))), (F(2), F(2), QS(2)), (F(1, 2), F(1, 2), QS(3))]
    inst = make_instance(LineSegment(F(0), F(4)), surd)
    with pytest.raises(ValueError, match=r"^arrival 2 finds the server at the surd position 1 - 1/2\*sqrt\(3\)$"):
        run(inst, GreedyReplan())


# sha256 of _report_text over _pinned_runs, recorded while every row still
# divided its own two ratios and the maxima came from max()
EVALUATE_DIGEST = "115cb483e39a359194764e61fc44a4b2e23457747e960ee21b76140a6693564e"


def test_evaluation_reports_are_pinned():
    text = "".join(_report_text(evaluate(run(inst, s))) for inst, s in _pinned_runs())
    assert hashlib.sha256(text.encode()).hexdigest() == EVALUATE_DIGEST


# --- the maxima against max() over the rows' own ratios -----------------------


@st.composite
def _evaluated_runs(draw):
    """A run on drawn requests: origin requests at time 0 and ties come up
    often, and the fixed-path strategies also see surd arrivals."""
    name = draw(st.sampled_from(["halfline", "sweep", "perfect", "greedy"]))
    alpha = draw(st.sampled_from([DEFAULT_ALPHA, F(1, 2), F(5, 2)]))
    line = LineSegment(F(0), F(4)) if name == "halfline" else LineSegment(F(-3), F(4))
    spot = st.fractions(min_value=line.a, max_value=line.b, max_denominator=2)
    rational = st.fractions(min_value=0, max_value=6, max_denominator=2)
    arrival = rational if name == "greedy" else st.one_of(
        rational, st.builds(lambda p, q: p + q * SQRT3, rational, st.sampled_from([F(1), F(1, 2)]))
    )
    requests = draw(st.lists(st.tuples(spot, arrival), max_size=8))
    inst = make_instance(line, [(x, x, t) for x, t in requests])
    return run(inst, make_strategy(name, alpha))


@given(_evaluated_runs())
@settings(max_examples=200, deadline=None)
def test_maxima_and_sum_ratio_match_the_row_ratios(result):
    report = evaluate(result)
    for worst, ratio in (("max_ratio_simple", "ratio_simple"), ("max_ratio_tour", "ratio_tour")):
        expected = max((getattr(row, ratio) for row in report.rows), default=F(1))
        got = getattr(report, worst)
        assert got == expected
        assert (type(got), str(got)) == (type(expected), str(expected))
    if report.opt_sum_bound == 0:
        assert report.sum_ratio == 1
    else:
        assert report.sum_ratio == report.on_sum / report.opt_sum_bound
    total = sum(result.completions, F(0))
    assert (report.on_sum, type(report.on_sum)) == (total, type(total))
    # the sums from evaluate's one scaling against their own public paths
    requests = result.instance.requests
    dp_total = optimal_latency_tour([r.actual for r in requests])[1]
    floor = max(dp_total, sum([r.arrival for r in requests], F(0)))
    for got, expected in ((report.opt_sum_bound, floor), (report.on_sum, result.on_sum)):
        assert (got, type(got), str(got)) == (expected, type(expected), str(expected))


def _reference_report(result):
    """``evaluate``'s floors written the plain way, in scalars: the
    latency-optimal tour of the actual locations and its total
    (``optimal_latency_tour``), each request's first visit along it
    (``Tour.first_visit``), ``max`` against the arrival (the reach kept on
    a tie) and the first largest row ratio."""
    requests, completions = result.instance.requests, result.completions
    tour, dp_total = optimal_latency_tour([r.actual for r in requests])
    rows = [
        simulator.RequestReport(
            r.index, r.predicted, r.actual, r.arrival, c,
            max(abs(r.actual), r.arrival), max(tour.first_visit(r.actual), r.arrival),
        )
        for r, c in zip(requests, completions)
    ]
    worst = max([row.ratio_tour for row in rows], default=F(1))
    return max(dp_total, sum([r.arrival for r in requests], F(0))), worst, rows


def test_evaluate_matches_the_scalar_reference():
    """On seeded runs of all five strategies (full lines, half-lines, surd
    arrivals for the committed ones, arrivals with a denominator the
    locations lack), ``evaluate``'s integer DP and walk give the
    reference's optimal-sum floor, worst tour ratio and rows, value and
    type."""
    rng = random.Random("evaluate-reference")
    runs = 0
    for trial in range(150):
        name = ["halfline", "sweep", "perfect", "robust", "greedy"][trial % 5]
        if name == "halfline":
            line = (0, rng.choice([1, 4, 10]))
        else:
            line = rng.choice([(-2, 3), (-10, 10), (-5, 0)])
        delta = F(rng.randint(1, 5), 100) if name == "robust" else F(0)
        n = rng.randint(0, 9)
        if name == "robust":
            inst = perturbed_instance(rng, line, n, delta, 30, rng.choice([1, 8, 1000]))
        else:
            inst = random_instance(rng, line, n, 30, rng.choice([1, 8, 1000]))
        if inst.requests and rng.random() < 0.5:
            # a surd arrival, or one whose denominator the locations do not have
            late = SQRT3 / 2 if name != "greedy" and rng.random() < 0.5 else F(1, 7)
            first = inst.requests[0]
            triples = [(r.predicted, r.actual, r.arrival) for r in inst.requests]
            triples[0] = (first.predicted, first.actual, first.arrival + late)
            inst = make_instance(inst.line, triples)
        strategy = make_strategy(name, rng.choice([DEFAULT_ALPHA, F(1, 2)]), delta)
        result = run(inst, strategy)
        report, (floor, worst, rows) = evaluate(result), _reference_report(result)
        for got, expected in ((report.opt_sum_bound, floor), (report.max_ratio_tour, worst)):
            assert (got, type(got)) == (expected, type(expected)), trial
        assert report.rows == tuple(rows), trial
        for row, ref in zip(report.rows, rows):
            types = [(type(getattr(row, f)), type(getattr(ref, f))) for f in _ROW_FIELDS]
            assert all(got is expected for got, expected in types), trial
        runs += bool(rows)
    assert runs > 100


def test_evaluate_refuses_a_surd_location_by_name():
    """The DP takes rational locations: a run whose request sits at a surd
    location is served, but not rated, with the DP's ``TypeError``."""
    line = LineSegment(F(0), F(4))
    inst = make_instance(line, [(None, F(1), F(0)), (None, 1 + SQRT3, F(0))], Model.ORIGINAL)
    result = run(inst, HalflineRoundTrips())
    assert None not in result.completions
    with pytest.raises(TypeError, match=r"^location must be rational, got QuadraticScalar\(1, 1\)$"):
        evaluate(result)


_REPORT_FIELDS = ("on_sum", "opt_sum_bound", "sum_ratio", "max_ratio_simple", "max_ratio_tour")


def test_a_rational_quadratic_scalar_location_counts_as_its_fraction():
    """A location that is a ``QuadraticScalar`` with no ``sqrt(3)`` part is
    a location: every strategy's run, ``evaluate`` and both latency oracles
    give on it the values they give on its ``Fraction`` twin."""
    line = LineSegment(F(0), F(6))
    rows = [(F(2), F(0)), (F(9, 2), F(1)), (F(1), F(3)), (F(5), F(3))]
    twin = make_instance(line, [(x, x, t) for x, t in rows])
    inst = make_instance(line, [(QS(x), QS(x), t) for x, t in rows])
    for name in online.STRATEGY_NAMES:
        strategy = make_strategy(name, DEFAULT_ALPHA, F(1, 100))
        got, expected = run(inst, strategy), run(twin, strategy)
        assert got.completions == expected.completions, name
        got, expected = evaluate(got), evaluate(expected)
        for f in _REPORT_FIELDS:
            assert getattr(got, f) == getattr(expected, f), (name, f)
    locations = [x for x, _ in rows] + [F(0), F(-3, 2)]
    for solve in (optimal_latency_tour, offline.brute_force_latency):
        assert repr(solve([QS(x) for x in locations])) == repr(solve(locations))


def test_a_surd_location_is_refused_with_one_message():
    """Every entry that needs a rational location refuses a surd one with
    the one message, naming it: ``evaluate``, both latency oracles and the
    runs of the prediction tour and the replanner.  The half-line and sweep
    round trips serve it; the robust tour names its predictions."""
    surd = 1 + SQRT3
    inst = make_instance(LineSegment(F(0), F(6)), [(F(2), F(2), F(0)), (surd, surd, F(1))])
    refused = r"^location must be rational, got QuadraticScalar\(1, 1\)$"
    for name in ("halfline", "sweep"):
        result = run(inst, make_strategy(name))
        assert None not in result.completions
        with pytest.raises(TypeError, match=refused):
            evaluate(result)
    for name in ("perfect", "greedy"):
        with pytest.raises(TypeError, match=refused):
            run(inst, make_strategy(name))
    with pytest.raises(TypeError, match=r"^delta and predictions must be rational, got QuadraticScalar\(1, 1\)$"):
        run(inst, make_strategy("robust", DEFAULT_ALPHA, F(1, 100)))
    for solve in (optimal_latency_tour, offline.brute_force_latency):
        with pytest.raises(TypeError, match=refused):
            solve([F(2), surd])


def test_evaluate_divides_only_the_winning_ratios(monkeypatch):
    # the rows' ratios are compared in integers: only the two maxima and the
    # sum ratio are ever divided out
    rng = random.Random(20)
    inst = random_instance(rng, (0, 10), 20, 50, 1000)
    result = run(inst, HalflineRoundTrips())
    calls = []
    real = simulator._ratio
    monkeypatch.setattr(simulator, "_ratio", lambda c, f: calls.append(1) or real(c, f))
    evaluate(result)
    assert len(calls) <= 3


def test_evaluate_builds_rows_on_first_read(monkeypatch):
    rng = random.Random(20)
    inst = random_instance(rng, (-3, 5), 12, 20, 8)
    result = run(inst, PerfectPredictionTour())
    built = []
    real = simulator.RequestReport
    monkeypatch.setattr(
        simulator, "RequestReport", lambda index, *rest: built.append(index) or real(index, *rest)
    )
    report = evaluate(result)
    assert built == []
    assert "build_rows" not in repr(report)
    rows = report.rows
    assert built == list(range(12)) and [row.index for row in rows] == built
    assert report.rows is rows and len(built) == 12


def test_evaluate_scales_the_turning_points_not_the_walk(monkeypatch):
    # both sums come from evaluate's own integer pairs, and the walk is the
    # DP's integer walk scaled, not ``Tour.walk``
    rng = random.Random(21)
    inst = random_instance(rng, (-3, 5), 12, 20, 8)
    result = run(inst, GreedyReplan())
    calls = []
    exact_sum = core._exact_sum
    for module in (core, simulator):
        monkeypatch.setattr(module, "_exact_sum", lambda v: calls.append("_exact_sum") or exact_sum(v))
    walk = offline.Tour.walk
    monkeypatch.setattr(
        offline.Tour, "walk", property(lambda tour: calls.append("walk") or walk.func(tour))
    )
    report = evaluate(result)
    report.rows
    assert calls == []
    assert report.on_sum == result.on_sum and calls == ["_exact_sum"]
