"""Tests for the adversarial release-time game: committed schedules get
caught by a near-origin release, the replanner escapes, and every claimed
violation survives an independent re-run."""

from fractions import Fraction as F

import pytest

from linetrp.adversary import GameConfig, Witness, play_lowerbound_game, verify_witness
from linetrp.core import Model
from linetrp.online import (
    GreedyReplan,
    HalflineRoundTrips,
    LineSweepRoundTrips,
    PerfectPredictionTour,
    QuadraticScalar,
    RobustPredictionTour,
    VisibleInfo,
    coverage_horizon,
    roundtrip_trajectory,
)

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
    info = VisibleInfo(cfg.line, Model.PREDICTION, cfg.bases + cfg.near_origin)
    planned = strategy.plan(info)
    requests = transcript.instance.requests
    horizon = coverage_horizon(planned.path, planned.schedule, transcript.instance.max_arrival())
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
