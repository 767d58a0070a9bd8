"""Tests for the adversarial release-time game: committed schedules get
caught by a near-origin release, the replanner escapes, and every claimed
violation survives an independent re-run."""

import bisect
import dataclasses
import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from linetrp import adversary, online
from linetrp.adversary import (
    GameConfig,
    GameTranscript,
    Witness,
    play_lowerbound_game,
    verify_witness,
)
from linetrp.core import LineSegment, Trajectory, _interpolate, _scaled_pairs, make_instance
from linetrp.offline import Tour, distance_arrival_floor, optimal_latency_tour
from linetrp.online import (
    AdaptiveStrategy,
    FixedPathStrategy,
    GreedyReplan,
    HalflineRoundTrips,
    LineSweepRoundTrips,
    PerfectPredictionTour,
    PlannedTrips,
    QuadraticScalar,
    RobustPredictionTour,
    RoundTripSchedule,
    VisibleInfo,
    coverage_horizon,
    roundtrip_completions,
    roundtrip_trajectory,
)
from linetrp.simulator import CoverageError, _check_coverage, request_ratio, run

QS = QuadraticScalar

COMMITTED = [
    HalflineRoundTrips(),
    LineSweepRoundTrips(),
    PerfectPredictionTour(),
    RobustPredictionTour(delta=F(1, 100)),
    HalflineRoundTrips(F(3, 4)),
    LineSweepRoundTrips(F(3, 4)),
    PerfectPredictionTour(F(3, 4)),
    RobustPredictionTour(F(1, 100), F(3, 4)),
]


def test_committed_halfline_schedule_is_caught():
    transcript = play_lowerbound_game(HalflineRoundTrips())
    w = transcript.witness
    assert w is not None
    assert w.request_index == 8  # first near-origin release
    assert w.location == F(1, 1000)
    assert w.arrival == 1
    # the server is past the release point on an outward leg; it only comes
    # back at the end of the first full trip
    assert w.completion == QS(F(1999, 1000), 1)
    assert w.floor == 1
    assert w.ratio > 3
    assert w.declared_step == 3
    assert verify_witness(HalflineRoundTrips(), transcript)


def test_committed_prediction_tour_is_caught():
    transcript = play_lowerbound_game(PerfectPredictionTour())
    w = transcript.witness
    assert w is not None
    assert w.completion == QS(F(1999, 1000), 1)
    assert w.declared_step == 3
    assert verify_witness(PerfectPredictionTour(), transcript)


def test_committed_robust_tour_is_caught():
    strategy = RobustPredictionTour(delta=F(1, 100))
    transcript = play_lowerbound_game(strategy)
    w = transcript.witness
    assert w is not None
    # same trap, shifted by the per-trip pad of 4*delta
    assert w.completion == QS(F(2039, 1000), 1)
    assert w.ratio > 3
    assert verify_witness(strategy, transcript)


def test_committed_sweep_schedule_is_caught():
    # on [0, 10] the sweep's zigzag is the half-line path, so the same trap
    strategy = LineSweepRoundTrips()
    transcript = play_lowerbound_game(strategy)
    late = QS(F(1999, 1000), 1)
    assert transcript.witness == Witness(8, F(1, 1000), F(1), late, F(1), late, 3)
    assert verify_witness(strategy, transcript)


@pytest.mark.parametrize("strategy", COMMITTED[4:], ids=lambda s: s.name)
def test_rational_growth_is_caught_by_the_same_trap(strategy):
    # alpha 3/4: the first trip turns at 7/4 and is back at 7/2, so the
    # release at 1/1000 is served at 7/2 - 1/1000, plus the robust pad
    transcript = play_lowerbound_game(strategy)
    pad = F(4, 100) if isinstance(strategy, RobustPredictionTour) else F(0)
    late = F(3499, 1000) + pad
    assert transcript.witness == Witness(8, F(1, 1000), F(1), late, F(1), late, 3)
    assert verify_witness(strategy, transcript)


@pytest.mark.parametrize("strategy", COMMITTED, ids=lambda s: f"{s.name}-{s.alpha}")
@pytest.mark.parametrize("target", [F(3), F(100)])
def test_transcript_completions_match_the_trajectory_replay(strategy, target):
    """The game reads committed completions off the schedule; replaying the
    released instance on the materialized trajectory must agree."""
    cfg = GameConfig(ratio_target=target)
    transcript = play_lowerbound_game(strategy, cfg)
    info = VisibleInfo(cfg.line, cfg.bases + cfg.near_origin)
    planned = strategy.plan(info)
    requests = transcript.instance.requests
    latest = max([r.arrival for r in requests], default=F(0))
    horizon = coverage_horizon(planned.path, planned.schedule, latest)
    traj = roundtrip_trajectory(planned.path, planned.schedule, horizon)
    replay = [traj.first_service_time(r.actual, r.arrival) for r in requests]
    assert list(transcript.completions) == replay
    assert [str(c) for c in transcript.completions] == [str(c) for c in replay]
    assert len(requests) == 11


def test_greedy_replanner_escapes():
    transcript = play_lowerbound_game(GreedyReplan())
    assert transcript.witness is None
    assert transcript.max_ratio == F(2499, 1000)

    inst = transcript.instance
    assert len(inst.requests) == 11
    # all three near-origin requests were eventually released, one per return
    near = [(r.actual, r.arrival) for r in inst.requests if abs(r.actual) < 1]
    assert near == [(F(1, 1000), F(1)), (F(2, 1000), F(3)), (F(3, 1000), F(5))]
    by_loc = {r.actual: transcript.completions[r.index] for r in inst.requests}
    assert by_loc[F(1, 1000)] == F(1999, 1000)
    assert by_loc[F(2, 1000)] == 4
    assert by_loc[F(3, 1000)] == F(5999, 1000)
    # the worst ratio comes from a base target pushed back by the detours
    assert by_loc[F(4)] == F(2499, 250)


def test_transcript_log_is_reproducible():
    a = play_lowerbound_game(HalflineRoundTrips())
    b = play_lowerbound_game(HalflineRoundTrips())
    assert a.log == b.log
    assert a.completions == b.completions


def test_game_respects_custom_target():
    # an unreachable target means no witness even for committed schedules
    cfg = GameConfig(ratio_target=F(100))
    transcript = play_lowerbound_game(HalflineRoundTrips(), cfg)
    assert transcript.witness is None
    assert transcript.max_ratio > 3


@pytest.mark.parametrize(
    "field, changes",
    [
        ("near_origin", {"near_origin": (F(-1, 1000),)}),
        ("near_origin", {"bases": (F(1),), "near_origin": (F(1, 1000), F(11))}),
        ("bases", {"bases": (F(1), F(21, 2))}),
        ("bases", {"line": LineSegment(F(-3), F(10)), "bases": (F(-4),)}),
        ("bases", {"bases": (F(1), 6 * QS(0, 1))}),
        ("bases", {"line": LineSegment(F(0), 2 * QS(0, 1)), "bases": (F(7, 2),)}),
        ("near_origin", {"line": LineSegment(F(0), 2 * QS(0, 1)), "bases": (F(1),),
                         "near_origin": (F(-1, 1000),)}),
    ],
    ids=["near-origin-below", "near-origin-beyond", "base-beyond", "base-below",
         "surd-base-beyond", "base-beyond-surd-line", "near-origin-below-surd-line"],
)
def test_game_config_refuses_a_location_off_its_line(field, changes):
    """A base or near-origin location off the line is refused when the
    config is made, naming the field, not after the game has been played."""
    with pytest.raises(ValueError, match=f"^{field} must lie on the line "):
        GameConfig(**changes)


@pytest.mark.parametrize("target", [F(0), F(-3), -1])
def test_game_config_refuses_a_ratio_target_not_positive(target):
    with pytest.raises(ValueError, match="^ratio_target must be positive"):
        GameConfig(ratio_target=target)


def test_game_config_takes_locations_at_the_line_ends():
    root3 = QS(0, 1)
    cases = [
        (LineSegment(F(-3), F(10)), (F(-3), F(10))),
        (LineSegment(F(-3), F(10)), (F(-3), 5 * root3, F(10))),  # a surd base inside
        (LineSegment(F(0), 2 * root3), (F(1), 2 * root3)),  # a surd line end
        (LineSegment(-root3, F(2)), (-root3, F(2))),
    ]
    for line, bases in cases:
        cfg = GameConfig(line=line, bases=bases, near_origin=(F(0),))
        assert cfg.bases == bases


ROSTERS = {
    "default": GameConfig().near_origin,
    "five": tuple(F(k, 1000) for k in range(1, 6)),
    "four": tuple(F(k, 1000) for k in range(1, 5)),
}
# sha256 of every game's log, completions, witness, worst ratio and
# verify_witness verdict, recorded when adaptive strategies were re-probed at
# every step: a change to when the game probes must not change any of them
GAME_DIGESTS = {
    "greedy-replan": "824ea09464c4069bcd2dce4693d14ced679a7c2f98a3085f82ecbe2ab2598f0a",
    "robust-tour": "193a69ba36c13dd6452941f893bb14b0d2901143d03f3c9549ddaa30dd49a236",
    "line-sweep": "1c6a0301c3a17f3672573e136ae95ccfed957e834e1768cc3ad8dd39d12b0b7c",
}


@pytest.mark.parametrize(
    "strategy",
    [GreedyReplan(), RobustPredictionTour(delta=F(1, 100)), LineSweepRoundTrips(F(3, 4))],
    ids=lambda s: s.name,
)
def test_game_output_is_pinned(strategy):
    digest = hashlib.sha256()
    for roster in ROSTERS.values():
        for max_steps in (0, 1, 5, 30, 120):
            cfg = GameConfig(near_origin=roster, max_steps=max_steps)
            digest.update(_game_record(strategy, cfg))
    assert digest.hexdigest() == GAME_DIGESTS[strategy.name]


def _game_record(strategy, cfg) -> bytes:
    t = play_lowerbound_game(strategy, cfg)
    return repr((t.log, t.completions, t.witness, t.max_ratio, verify_witness(strategy, t))).encode()


# the edges of the game: no bases, no near-origin roster, neither, no steps,
# and a last step that releases a near-origin request just before the
# withheld ones go out at the same time, so two arrival batches share one time
EDGE_CONFIGS = (
    GameConfig(bases=()),
    GameConfig(near_origin=()),
    GameConfig(bases=(), near_origin=()),
    GameConfig(max_steps=0),
    GameConfig(max_steps=1),
    GameConfig(near_origin=ROSTERS["five"], max_steps=3),
)
# sha256 of the same record over EDGE_CONFIGS, recorded while the game still
# re-ran an adaptive strategy from scratch for every probe and at the end
EDGE_DIGESTS = {
    "greedy-replan": "a5da58f1d45c96417989ccab7856b1291d7f5e6f153d0f13b4e605653b8b1183",
    "halfline-roundtrips": "aec06fbf3c7d9c51ddb91de173cd2725baaffb700fad0f0d8a946db8fe58a2bd",
    "robust-tour": "ba984f8ac17f57f44cc0f85f5896549f88bd8fcde49957f212ae004b8f87e04e",
}


@pytest.mark.parametrize(
    "strategy",
    [GreedyReplan(), HalflineRoundTrips(), RobustPredictionTour(F(1, 100))],
    ids=lambda s: s.name,
)
def test_edge_case_games_are_pinned(strategy):
    last = play_lowerbound_game(strategy, EDGE_CONFIGS[4]).log
    assert "t=1: server at 1 heading out -- released 1/1000" in last
    assert "t=1: released remaining 1/500 (game over)" in last
    digest = hashlib.sha256()
    for cfg in EDGE_CONFIGS:
        digest.update(_game_record(strategy, cfg))
    assert digest.hexdigest() == EDGE_DIGESTS[strategy.name]


def test_adaptive_strategy_is_probed_once_per_release(monkeypatch):
    """The game keeps one live session: each release is fed to it once, so
    it makes no fresh run and one replan per arrival batch (the bases, then
    each near-origin release)."""
    runs = replans = 0

    def counting_run(*args, **kwargs):
        nonlocal runs
        runs += 1
        return run(*args, **kwargs)

    def counting_dp(points):
        nonlocal replans
        replans += 1
        return optimal_latency_tour(points)

    monkeypatch.setattr(adversary, "run", counting_run)
    monkeypatch.setattr(online, "optimal_latency_tour", counting_dp)
    cfg = GameConfig(max_steps=120)
    play_lowerbound_game(GreedyReplan(), cfg)
    assert runs == 0
    assert replans <= 1 + len(cfg.near_origin)


def test_adaptive_completions_come_from_the_session(monkeypatch):
    """The replanner's completions are its session's closed form: a game
    with no witness to verify scans the trajectory for none of them."""
    scans = 0
    real = Trajectory.first_service_time

    def counting(self, loc, not_before=0):
        nonlocal scans
        scans += 1
        return real(self, loc, not_before)

    monkeypatch.setattr(Trajectory, "first_service_time", counting)
    transcript = play_lowerbound_game(GreedyReplan(), GameConfig())
    assert transcript.witness is None
    assert scans == 0


@pytest.mark.parametrize("max_steps", [0, 5, 120])
@pytest.mark.parametrize("roster", ROSTERS, ids=str)
def test_greedy_transcript_matches_a_fresh_run(roster, max_steps):
    """The game's live session and a fresh run of the released instance
    give the same completions, types and printed forms included."""
    cfg = GameConfig(near_origin=ROSTERS[roster], max_steps=max_steps)
    transcript = play_lowerbound_game(GreedyReplan(), cfg)
    fresh = run(transcript.instance, GreedyReplan()).completions
    assert transcript.completions == fresh
    assert [type(c) for c in transcript.completions] == [type(c) for c in fresh]
    assert [str(c) for c in transcript.completions] == [str(c) for c in fresh]


class _ShortTrips(FixedPathStrategy):
    name = "short-trips"

    def plan(self, info):
        return PlannedTrips(Tour((F(5),)), RoundTripSchedule())


class _Parked(AdaptiveStrategy):
    name = "parked"

    def start(self, info):
        return _ParkedSession()


class _ParkedSession:
    def __init__(self):
        self._fed = 0

    def on_arrivals(self, time, locations):
        self._fed += len(locations)

    def trajectory(self):
        return Trajectory(((F(0), F(0)),))

    def completions(self):
        return [None] * self._fed


@pytest.mark.parametrize(
    "strategy, missed",
    [(_ShortTrips(), "request 3 at 6 is never reached by short-trips"),
     (_Parked(), "request 0 at 1 is never reached by parked")],
    ids=["fixed", "adaptive"],
)
def test_a_request_never_reached_raises_coverage_error(strategy, missed):
    """A released request the strategy never serves fails the game as it
    fails a fresh run of the released instance."""
    with pytest.raises(CoverageError, match=f"^{missed}$"):
        play_lowerbound_game(strategy, GameConfig(max_steps=5))


@pytest.mark.parametrize("strategy", [GreedyReplan(), HalflineRoundTrips()], ids=["greedy", "halfline"])
def test_deadlines_are_fixed_at_release(strategy, monkeypatch):
    """A released request's floor, and so its deadline, never changes: one
    floor per request, computed at its release and reused for the worst
    ratio and the witness."""
    calls = []
    real = adversary.distance_arrival_floor
    monkeypatch.setattr(
        adversary, "distance_arrival_floor", lambda loc, arr: calls.append(loc) or real(loc, arr)
    )
    cfg = GameConfig(max_steps=120)
    transcript = play_lowerbound_game(strategy, cfg)
    requests = len(cfg.bases) + len(cfg.near_origin)
    assert len(transcript.instance.requests) == requests
    assert len(calls) == requests
    if isinstance(strategy, HalflineRoundTrips):
        assert transcript.witness is not None  # whose floor is reused too


@pytest.mark.parametrize(
    "cfg",
    [
        GameConfig(),
        GameConfig(ratio_target=F(100)),
        GameConfig(near_origin=ROSTERS["five"], ratio_target=F(100)),
    ],
    ids=["default", "no-witness", "five"],
)
@pytest.mark.parametrize("strategy", COMMITTED[:4], ids=lambda s: s.name)
def test_a_committed_game_scales_its_plan_once(strategy, cfg, monkeypatch):
    """However many batches a committed game releases, its plan's trips and
    legs are scaled to integer pairs once; ``verify_witness`` plans again
    and scales its own fresh plan."""
    scaled, batches = [], 0
    real_geometry, real_completions = online._trip_geometry, adversary.roundtrip_completions

    def counting_geometry(planned):
        scaled.append(planned)
        return real_geometry(planned)

    def counting_completions(planned, requests):
        nonlocal batches
        batches += 1
        return real_completions(planned, requests)

    monkeypatch.setattr(online, "_trip_geometry", counting_geometry)
    monkeypatch.setattr(adversary, "roundtrip_completions", counting_completions)
    transcript = play_lowerbound_game(strategy, cfg)
    assert batches >= 3 and len(scaled) == 1
    (game_plan,) = scaled
    if transcript.witness is not None:
        assert verify_witness(strategy, transcript)
        assert len(scaled) == 2
        assert scaled[1] is not game_plan and scaled[1] == game_plan


class _Scripted(AdaptiveStrategy):
    """Completes the k-th fed request at ``script[k]`` and never moves."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def start(self, info):
        return _ScriptedSession(self.script)


class _ScriptedSession(_ParkedSession):
    def __init__(self, script):
        super().__init__()
        self._script = script

    def completions(self):
        return list(self._script[: self._fed])


def _assert_max_ratio_is_the_first_max(transcript):
    """``max_ratio`` is ``max()`` of every released request's ratio, type
    and ``repr`` included: the first maximal one."""
    ratios = [
        request_ratio(r.actual, r.arrival, c)
        for r, c in zip(transcript.instance.requests, transcript.completions)
    ]
    expected, got = max(ratios, default=F(1)), transcript.max_ratio
    assert (got, type(got), repr(got)) == (expected, type(expected), repr(expected))


@pytest.mark.parametrize(
    "strategy", COMMITTED + [GreedyReplan()], ids=lambda s: f"{s.name}-{getattr(s, 'alpha', '')}"
)
def test_max_ratio_is_the_largest_released_ratio(strategy):
    _assert_max_ratio_is_the_first_max(play_lowerbound_game(strategy))


@pytest.mark.parametrize(
    "bases, script, first",
    [
        ((F(1), F(2)), [QS(3), F(6)], QS(3)),  # ratios 3 and 3
        ((F(1), F(2)), [F(3), QS(6)], F(3)),
        ((F(0), F(1)), [F(0), QS(1)], F(1)),  # a zero floor stands for ratio 1
        ((F(1), F(0)), [QS(1), F(0)], QS(1)),
    ],
    ids=["surd-first", "fraction-first", "zero-floor-first", "zero-floor-second"],
)
def test_max_ratio_keeps_the_first_of_tied_requests(bases, script, first):
    """Two requests released at 0 with equal ratios of different types:
    ``max_ratio`` is the first one's, as ``max()`` picks it."""
    cfg = GameConfig(bases=bases, near_origin=(), ratio_target=F(100))
    transcript = play_lowerbound_game(_Scripted(script), cfg)
    assert transcript.witness is None
    assert (transcript.max_ratio, type(transcript.max_ratio)) == (first, type(first))
    _assert_max_ratio_is_the_first_max(transcript)


# --- the event loop against the step-by-step game ---------------------------


def _moving_outward(traj, t) -> bool:
    """Is the server strictly heading away from the origin just after t?"""
    pos = traj.position_at(t)
    i = bisect.bisect_right(traj.breakpoints, t, key=lambda bp: bp[0])
    if i >= len(traj.breakpoints):
        return False  # parked
    nxt = traj.breakpoints[i][1]
    slope = (nxt > pos) - (nxt < pos)
    return (pos > 0 and slope > 0) or (pos < 0 and slope < 0)


def _stepwise_game(strategy, cfg) -> GameTranscript:
    """The release game played the slow way, as a reference: every integer
    step up to ``max_steps`` re-checks every released request, then asks
    whether the server, on a trajectory built out to ``coverage_horizon``,
    stands at 1 or beyond heading outward."""
    all_predictions = cfg.bases + cfg.near_origin
    info = VisibleInfo(cfg.line, all_predictions)
    released, deadlines, comps = [], [], []
    if isinstance(strategy, FixedPathStrategy):
        planned, session = strategy.plan(info), None
        horizon = coverage_horizon(planned.path, planned.schedule, F(cfg.max_steps))
        traj = roundtrip_trajectory(planned.path, planned.schedule, horizon)
    else:
        session = strategy.start(info)
        traj = session.trajectory()

    def release(locations, arrival):
        nonlocal traj, comps
        batch = [(loc, arrival) for loc in locations]
        released.extend(batch)
        deadlines.extend([cfg.ratio_target * distance_arrival_floor(loc, arrival) for loc in locations])
        if session is None:
            comps += roundtrip_completions(planned, batch)
        else:
            session.on_arrivals(arrival, locations)
            traj = session.trajectory()
            comps = [traj.first_service_time(loc, arr) for loc, arr in released]

    release(cfg.bases, F(0))
    near_released, pending = [], list(cfg.near_origin)
    log = [
        "predictions announced: " + ", ".join(str(p) for p in all_predictions),
        f"t=0: released base requests at {', '.join(str(b) for b in cfg.bases)}",
    ]
    declared, final_step = None, cfg.max_steps
    for step in range(cfg.max_steps + 1):
        for i, ((loc, arr), c, deadline) in enumerate(zip(released, comps, deadlines)):
            served_late = c is not None and c <= step and c > deadline
            overdue = (c is None or c > step) and step >= deadline
            if served_late or overdue:
                declared = (i, step)
                log.append(
                    f"t={step}: request at {loc} (arrival {arr}) is past its"
                    f" deadline {deadline} -- witness declared"
                )
                break
        if declared is not None:
            final_step = step
            break
        if pending and step >= 1:
            pos = traj.position_at(F(step))
            prev_served = all(comps[i] is not None and comps[i] <= step for i in near_released)
            if prev_served and pos >= 1 and _moving_outward(traj, F(step)):
                loc = pending.pop(0)
                near_released.append(len(released))
                release([loc], F(step))
                log.append(f"t={step}: server at {pos} heading out -- released {loc}")
    if pending:
        release(pending, F(final_step))
    log += [f"t={final_step}: released remaining {loc} (game over)" for loc in pending]

    instance = make_instance(cfg.line, [(loc, loc, arr) for loc, arr in released])
    _check_coverage(instance, comps, strategy.name)
    ratios = [request_ratio(r.actual, r.arrival, c) for r, c in zip(instance.requests, comps)]
    max_ratio = max(ratios, default=F(1))
    witness = None
    if declared is not None:
        idx, step = declared
        r = instance.requests[idx]
        floor = distance_arrival_floor(r.actual, r.arrival)
        witness = Witness(idx, r.actual, r.arrival, comps[idx], floor, ratios[idx], step)
        log.append(
            f"witness: request {idx} at {r.actual}, arrival {r.arrival},"
            f" completed {comps[idx]} (ratio {ratios[idx]})"
        )
    else:
        log.append(f"no witness within {cfg.max_steps} steps; worst ratio {max_ratio}")
    return GameTranscript(strategy.name, cfg, instance, tuple(comps), witness, max_ratio, tuple(log))


def _outcome(strategy, cfg, play):
    try:
        t = play(strategy, cfg)
    except (CoverageError, ValueError) as exc:  # ValueError: halfline on a full line
        return f"{type(exc).__name__}: {exc}"
    return repr((t.log, t.completions, t.witness, t.max_ratio, t.instance))


_ALPHAS = [online.DEFAULT_ALPHA, F(3, 4), F(2), F(1, 2), F(7, 5)]
_STRATEGIES = st.one_of(
    st.builds(HalflineRoundTrips, st.sampled_from(_ALPHAS)),
    st.builds(LineSweepRoundTrips, st.sampled_from(_ALPHAS)),
    st.builds(PerfectPredictionTour, st.sampled_from(_ALPHAS)),
    st.builds(
        RobustPredictionTour,
        st.sampled_from([F(0), F(1, 100), F(1, 20), F(1)]),  # 1: past the fallback threshold
        st.sampled_from(_ALPHAS),
    ),
    st.just(GreedyReplan()),
)
_GAMES = st.builds(
    GameConfig,
    line=st.sampled_from([LineSegment(F(0), F(10)), LineSegment(F(-3), F(10))]),
    bases=st.lists(st.integers(0, 40).map(lambda k: F(k, 4)), max_size=8).map(tuple),
    near_origin=st.lists(st.integers(0, 9).map(lambda k: F(k, 1000)), max_size=5).map(tuple),
    ratio_target=st.sampled_from([F(3), F(1, 2), F(4), F(5, 2), F(1), F(2), F(7), F(100)]),
    max_steps=st.integers(0, 150),
)


# a robust path that ends exactly at 1: the server never stands beyond 1
EXACT_ONE = GameConfig(bases=(F(99, 100),))
# each full sweep stands beyond 1 only between two integer steps
OFF_THE_STEPS = GameConfig(line=LineSegment(F(-1, 4), F(3, 2)), bases=(F(1),))


@given(_STRATEGIES, _GAMES)
@example(HalflineRoundTrips(), GameConfig(ratio_target=F(1, 2)))
@example(LineSweepRoundTrips(), GameConfig(line=LineSegment(F(-3), F(10)), bases=(F(-3), F(5))))
@example(PerfectPredictionTour(), GameConfig(line=LineSegment(F(-3), F(10)), ratio_target=F(7)))
@example(RobustPredictionTour(F(1, 100)), EXACT_ONE)
@example(LineSweepRoundTrips(), OFF_THE_STEPS)
@example(GreedyReplan(), GameConfig(near_origin=ROSTERS["five"], ratio_target=F(4)))
@settings(max_examples=200, deadline=None)
def test_event_game_matches_the_stepwise_game(strategy, cfg):
    """Jumping from release to release gives the transcript of checking
    every step: the same log, completions, witness, worst ratio and
    instance, or the same error."""
    assert _outcome(strategy, cfg, play_lowerbound_game) == _outcome(strategy, cfg, _stepwise_game)


@given(_STRATEGIES, _GAMES)
@settings(max_examples=100, deadline=None)
def test_max_ratio_is_the_first_max_on_any_game(strategy, cfg):
    try:
        transcript = play_lowerbound_game(strategy, cfg)
    except (CoverageError, ValueError):  # ValueError: halfline on a full line
        return
    _assert_max_ratio_is_the_first_max(transcript)


_SCALE_STRATEGIES = [
    HalflineRoundTrips(),
    LineSweepRoundTrips(),
    PerfectPredictionTour(),
    RobustPredictionTour(F(1, 100)),
    GreedyReplan(),
]




def _count_scans(monkeypatch):
    """Count the moves the game's outward scans read and the committed
    trajectories built while it plays: ``counts["moves"]``, ``counts["built"]``."""
    counts = {"moves": 0, "built": 0}
    real_scan, real_build = adversary._next_outward_step, online.roundtrip_trajectory

    def counting_scan(d, moves, lo, hi):
        def counted():
            for move in moves:
                counts["moves"] += 1
                yield move

        return real_scan(d, counted(), lo, hi)

    def counting_build(*args):
        counts["built"] += 1
        return real_build(*args)

    monkeypatch.setattr(adversary, "_next_outward_step", counting_scan)
    monkeypatch.setattr(adversary, "roundtrip_trajectory", counting_build)
    monkeypatch.setattr(online, "roundtrip_trajectory", counting_build)
    return counts


@pytest.mark.parametrize("strategy", _SCALE_STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize(
    "cfg", [GameConfig(), GameConfig(bases=()), EXACT_ONE], ids=["default", "no-bases", "exact-1"]
)
def test_game_cost_does_not_grow_with_max_steps(strategy, cfg, monkeypatch):
    """A million steps play the same game as 120 where it ends early, and
    scan no more moves: the work follows the releases and the legs, not
    ``max_steps``.  No game builds a trajectory of the committed motion."""
    counts = _count_scans(monkeypatch)
    short = play_lowerbound_game(strategy, dataclasses.replace(cfg, max_steps=120))
    short_scanned, counts["moves"] = counts["moves"], 0
    long = play_lowerbound_game(strategy, dataclasses.replace(cfg, max_steps=10**6))
    assert counts["moves"] == short_scanned <= 100
    assert counts["built"] == 0
    if short.witness is not None:
        assert (long.witness, long.log) == (short.witness, short.log)
    else:  # the same releases; what is withheld goes out at the last step

        def played(log):
            return [line for line in log[:-1] if not line.endswith("(game over)")]

        assert long.witness is None and played(long.log) == played(short.log)


_ENDS_AT_ONE = GameConfig(line=LineSegment(F(-1), F(1)), bases=(F(-1), F(1)), ratio_target=F(100))


@pytest.mark.parametrize(
    "strategy, cfg",
    [
        (RobustPredictionTour(F(1, 100)), EXACT_ONE),
        (LineSweepRoundTrips(), _ENDS_AT_ONE),
        (PerfectPredictionTour(), _ENDS_AT_ONE),
    ],
    ids=["robust-to-1", "sweep-on-[-1,1]", "prediction-tour-on-[-1,1]"],
)
def test_a_path_that_ends_at_1_is_not_scanned(strategy, cfg, monkeypatch):
    """The server never stands beyond 1 on a path that ends there, so the
    game releases no near-origin request before the end and scans no move,
    however large ``max_steps`` is (it used to scan out to ``max_steps``)."""
    counts = _count_scans(monkeypatch)
    steps = 10**6
    transcript = play_lowerbound_game(strategy, dataclasses.replace(cfg, max_steps=steps))
    assert counts == {"moves": 0, "built": 0}
    assert transcript.witness is None
    assert [line for line in transcript.log if "heading out" in line] == []
    assert f"t={steps}: released remaining 1/1000 (game over)" in transcript.log


def test_sweeps_beyond_1_between_integer_steps_are_scanned_once(monkeypatch):
    """A sweep stands beyond 1 only between integer steps, so nothing is
    released.  Its period is rational, so the sweeps' integer steps repeat;
    the scan stops after one round of them, however large ``max_steps`` is
    (it used to scan out to ``max_steps``)."""
    counts = _count_scans(monkeypatch)
    scanned = []
    for steps in (120, 10**6):
        cfg = dataclasses.replace(OFF_THE_STEPS, max_steps=steps)
        transcript = play_lowerbound_game(LineSweepRoundTrips(), cfg)
        assert transcript.witness is None
        assert [line for line in transcript.log if "heading out" in line] == []
        scanned.append(counts["moves"])
        counts["moves"] = 0
    assert scanned[0] == scanned[1] <= 100


class _HalfSpeed(AdaptiveStrategy):
    """Walks out to 2 at half speed and stays there."""

    name = "half-speed"

    def start(self, info):
        return _HalfSpeedSession()


class _HalfSpeedSession(_ParkedSession):
    def trajectory(self):
        return Trajectory(((F(0), F(0)), (F(4), F(2))))

    def completions(self):
        return [F(4)] * self._fed


def test_an_adaptive_move_out_below_unit_speed_is_refused():
    """The outward scan reads a move as running at unit speed, so a session
    that moves out more slowly is refused, not misread."""
    refused = "^the release game needs every outward move at unit speed$"
    with pytest.raises(ValueError, match=refused):
        play_lowerbound_game(_HalfSpeed(), GameConfig(bases=(F(1),)))


# --- the integer outward scan against the trajectory scan -------------------


def _trajectory_outward_step(traj, lo, hi):
    """The outward scan on a materialized ``Trajectory``, in scalar
    arithmetic: ``(step, position)`` at the first integer step in ``[lo,
    hi]`` at which the server stands at 1 or beyond on a leg ``(ta, pa) ->
    (tb, pb)`` with ``pb > pa`` and ``ta <= step < tb``; None when there is
    none by ``hi`` or before the trajectory parks."""
    pts = traj.breakpoints
    k = max(bisect.bisect_right(traj._times, lo) - 1, 0)
    for (ta, pa), (tb, pb) in zip(pts[k:], pts[k + 1 :]):
        if ta > hi:
            return None
        if pb > pa and pb > 1:  # outward, and past 1 before the leg ends
            at_one = ta if pa >= 1 else _interpolate(pa, ta, pb, tb, 1)
            t = max(lo, math.ceil(at_one))
            if t < tb and t <= hi:
                return t, traj.position_at(F(t))
    return None


def _committed_trajectory(planned, lo, hi):
    """The committed motion over ``[lo, hi]`` as a ``Trajectory``, in scalar
    arithmetic: ``roundtrip_trajectory`` out past ``hi`` when ``lo`` comes
    before the second full sweep; otherwise a wait at the origin until the
    full sweep under way at ``lo``, then copies of ``roundtrip_trajectory``'s
    first full sweep, each one period later, until past ``hi``."""
    path, schedule = planned.path, planned.schedule
    total = path.walk.end_time
    *_, (base, _, _) = schedule.trips(total)
    period = 2 * total
    k = math.floor((lo - base) / period)
    if k < 1:
        return roundtrip_trajectory(path, schedule, hi + 1)
    first = roundtrip_trajectory(path, schedule, base + period).breakpoints
    sweep = [(t - base, p) for t, p in first if t > base]
    pts = [(F(0), F(0)), (base + k * period, F(0))]
    while pts[-1][0] <= hi:
        start = pts[-1][0]
        pts += [(start + t, p) for t, p in sweep]
    return Trajectory(tuple(pts))


def _random_plan(rng):
    """A committed plan on a random half or full line: the sweep, the
    prediction tour or the robust tour, at a rational or the default alpha."""
    alpha = rng.choice([online.DEFAULT_ALPHA, F(3, 4), F(1, 2), F(2), F(7, 5)])
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


def _as_moves(traj):
    """The legs of ``traj`` as moves in integer pairs over one ``d``, the way
    the game feeds an adaptive session's trajectory to the scan."""
    pts = traj.breakpoints
    d, flat = _scaled_pairs([v for bp in pts for v in bp])
    return d, zip(flat[::2], flat[1::2], flat[2::2], flat[3::2])


def _scan_outcome(found):
    return None if found is None else (found[0], str(found[1]))


def test_integer_outward_scan_matches_the_trajectory_scan():
    """The game's outward scan on the plan's integer moves finds the step
    and the server's printed position that the old scan finds on the
    materialized trajectory, on half and full lines, rational and
    ``sqrt3/2`` alphas and robust pads, with ``lo`` near the start, among
    the first full sweeps and deep in the periodic tail (about 10**30).  The
    same scan on the trajectory's own legs, scaled as an adaptive session's
    are, agrees too."""
    rng = random.Random(20240)
    found = deep = 0
    for case in range(300):
        planned = _random_plan(rng)
        total = planned.path.walk.end_time
        if total == 0:
            continue
        span = math.ceil(2 * total) + 2
        depth = rng.choice([0, 0, span, 4 * span, 10**30 + rng.randrange(10**6)])
        lo = max(depth + rng.randint(0, span), 1)
        hi = lo + rng.randint(0, 2 * span)
        traj = _committed_trajectory(planned, lo, hi)
        expected = _scan_outcome(_trajectory_outward_step(traj, lo, hi))
        got = _scan_outcome(adversary._next_outward_step(*planned.moves(lo), lo, hi))
        assert got == expected, (case, planned, lo, hi)
        assert _scan_outcome(adversary._next_outward_step(*_as_moves(traj), lo, hi)) == expected
        found += expected is not None
        deep += expected is not None and lo > 10**30
    assert found > 100 and deep > 20
