"""Data-model tests: trajectories, service times, instance round-trips."""

import operator
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrp import core, generate, online
from linetrp.core import (
    Instance,
    LineSegment,
    Model,
    ParseError,
    Request,
    Trajectory,
    _exact_sum,
    format_scalar,
    make_instance,
    parse_instance,
    parse_scalar,
    serialize_instance,
)
from linetrp.offline import Tour, canonical_tour, optimal_latency_tour
from linetrp.online import QuadraticScalar, RoundTripSchedule, roundtrip_trajectory

from scalar_service import reference_first_service_time


def _oracle_first_service(breakpoints, loc, not_before=F(0)):
    """Independent reference for Trajectory.first_service_time.

    Collects every candidate service time across all segments plus the parked
    tail, then takes the minimum.  Pure Fraction arithmetic, no pre-filtering,
    no early exit.
    """
    candidates = []
    for (ta, pa), (tb, pb) in zip(breakpoints, breakpoints[1:]):
        if pa == pb:
            if pa == loc and max(ta, not_before) <= tb:
                candidates.append(max(ta, not_before))
        else:
            lo, hi = min(pa, pb), max(pa, pb)
            if lo <= loc <= hi:
                tc = ta + (loc - pa) * (tb - ta) / (pb - pa)
                if tc >= not_before:
                    candidates.append(tc)
    tl, pl = breakpoints[-1]
    if pl == loc:
        candidates.append(max(tl, not_before))
    return min(candidates) if candidates else None


# --- scalars -----------------------------------------------------------------


def test_parse_scalar_forms():
    assert parse_scalar("3") == 3
    assert parse_scalar("-7/2") == F(-7, 2)
    assert parse_scalar("0.25") == F(1, 4)
    assert parse_scalar("25e-2") == F(1, 4)
    limit = core._MAX_DIGITS
    assert parse_scalar(f"1e{limit}") == 10**limit
    for bad in ("abc", f"1e{limit + 1}", f"1e-{limit + 1}"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def _assert_exponent_bounded():
    assert parse_scalar("0.25") == F(1, 4)
    assert parse_scalar(f"1e-{core._MAX_DIGITS}") == F(1, 10**core._MAX_DIGITS)
    # the short exponent first: a missing bound fails there instead of hanging
    for bad in (f"1e-{core._MAX_DIGITS + 1}", "1e-99999999"):
        with pytest.raises(ValueError, match="exponent beyond 4300$"):
            parse_scalar(bad)


def test_parse_scalar_bounds_the_exponent_with_no_interpreter_digit_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0 switches the interpreter's limit off
    try:
        _assert_exponent_bounded()
    finally:
        sys.set_int_max_str_digits(before)


def test_parse_scalar_bounds_digit_runs_with_no_interpreter_digit_limit():
    limit = core._MAX_DIGITS
    ok, long = "7" * limit, "7" * (limit + 1)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0 switches the interpreter's limit off
    try:
        assert parse_scalar(ok) == int(ok)
        assert parse_scalar(f"-{ok}/{ok}") == -1
        assert parse_scalar(f"7_{ok[1:]}") == int(ok)
        # the short runs first: a missing bound fails there instead of hanging
        split = f"{long[:2000]}_{long[2000:]}"
        for bad in (long, f"-{long}", f"{long}/3", f"3/{long}", f"0.{long}", split, f"1e{long}",
                    "7" * 10**6):
            with pytest.raises(ValueError, match="^bad scalar"):
                parse_scalar(bad)
    finally:
        sys.set_int_max_str_digits(before)


def test_parse_scalar_quotes_a_long_field_by_its_start_and_length():
    """A bad field of up to ``_QUOTED`` characters is quoted whole; a longer
    one by its first ``_QUOTED`` characters and its length, so a field of a
    million characters gives a message of a few dozen."""
    cut = core._QUOTED
    with pytest.raises(ValueError) as info:
        parse_scalar("x" * cut)
    assert str(info.value) == f"bad scalar {'x' * cut!r}"
    for text in ("x" * (cut + 1), "7" * 10**6, "1e" + "9" * 10**6, "1/" + "0" * 10**5):
        with pytest.raises(ValueError) as info:
            parse_scalar(text)
        message = str(info.value)
        assert message.startswith(f"bad scalar {text[:cut]!r}... ({len(text)} characters)")
        assert len(message) < 120


def test_parse_scalar_bounds_the_exponent_without_the_digit_limit_api(monkeypatch):
    # Python 3.10.0 to 3.10.6 have no sys.get_int_max_str_digits
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    _assert_exponent_bounded()


def test_format_scalar_canonical():
    assert format_scalar(F(3)) == "3"
    assert format_scalar(F(-5, 2)) == "-5/2"
    assert format_scalar(4) == "4"


@given(st.fractions(max_denominator=10**6))
def test_scalar_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def _assert_parses_as_fraction(text):
    """``parse_scalar(text)`` is ``Fraction(text)``, value and type, and
    raises ``ValueError("bad scalar ...")`` exactly when ``Fraction`` raises."""
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as info:
            parse_scalar(text)
        # an over-long field is quoted by its first characters and its length
        cut = core._QUOTED
        shown = repr(text) if len(text) <= cut else f"{text[:cut]!r}... ({len(text)} characters)"
        assert str(info.value) == f"bad scalar {shown}"
        return
    got = parse_scalar(text)
    assert got == expected and type(got) is F


_DIGIT_LIMIT = sys.get_int_max_str_digits()
SCALAR_NEAR_MISSES = [
    "+3", "007", "-0", "-0/7", "3/-4", "-3/-4", "3/0", "-3/0", "1_000", "1/1_0", " 3", "3 ",
    "3\n", "3/ 4", "\u0663", "-\u0663/4", "", "-", "/4", "3/", "0x1",
    "9" * _DIGIT_LIMIT, "-" + "9" * _DIGIT_LIMIT, "1/" + "9" * _DIGIT_LIMIT,
    "9" * (_DIGIT_LIMIT + 1), "-" + "9" * (_DIGIT_LIMIT + 1), "1/" + "9" * (_DIGIT_LIMIT + 1),
    "0." + "9" * _DIGIT_LIMIT, "0." + "9" * (_DIGIT_LIMIT + 1), "0" * (_DIGIT_LIMIT + 1),
    "9_" + "9" * (_DIGIT_LIMIT - 1), "9_" + "9" * _DIGIT_LIMIT, "1e" + "0" * (_DIGIT_LIMIT + 1),
]


def test_parse_scalar_near_misses_parse_as_fraction():
    for text in SCALAR_NEAR_MISSES:
        _assert_parses_as_fraction(text)


@given(st.one_of(st.fractions(), st.integers()).map(format_scalar))
@settings(max_examples=300)
def test_parse_scalar_of_formatted_text_is_fraction(text):
    _assert_parses_as_fraction(text)


# --- line segments -----------------------------------------------------------


def test_line_segment_must_contain_origin():
    with pytest.raises(ValueError):
        LineSegment(F(1), F(2))
    with pytest.raises(ValueError):
        LineSegment(F(0), F(0))
    seg = LineSegment(F(-2), F(3))
    assert seg.length == 5
    assert not seg.is_halfline()
    assert LineSegment(F(0), F(1)).is_halfline()
    assert LineSegment(F(-4), F(0)).is_halfline()


def test_line_segment_clamp_and_contains():
    seg = LineSegment(F(-1), F(2))
    assert F(1, 2) in seg
    assert F(3) not in seg
    assert seg.clamp(F(5)) == 2
    assert seg.clamp(F(-5)) == -1
    assert seg.clamp(F(1, 3)) == F(1, 3)


def test_floats_rejected():
    """Every entry point refuses a float with ``_exact``'s TypeError, the
    pair ones (which scale values to integer pairs) included."""
    exact = "must be exact \\(int/Fraction\\), got float"
    traj = Trajectory(((F(0), F(0)), (F(2), F(2)), (F(3), F(2))))
    planned = online.PerfectPredictionTour().plan(online.VisibleInfo(LineSegment(F(-1), F(2)), (F(1),)))
    parked = online.PlannedTrips(Tour(()), RoundTripSchedule())
    committed, replan = online.CommittedSession(planned), online.ReplanSession()
    replan.on_arrivals([(F(1), F(0))])
    for call in [
        lambda: LineSegment(-1.0, 2),
        lambda: Request(0, None, 0.5, F(0)),
        lambda: Trajectory(((0, 0), (1.0, 1),)),
        lambda: Trajectory(((0, 0), (F(3), 1.0),)),
        lambda: make_instance((F(0), F(1)), [(F(1), 0.5, F(0))]),
        lambda: optimal_latency_tour([F(1), 1.0]),
        lambda: canonical_tour([F(1), 1.0]),
        lambda: traj.first_service_time(1.0),
        lambda: traj.first_service_time(F(1), 0.5),
        lambda: traj.position_at(1.0),
        lambda: traj.position_at(2.5),  # inside a wait: nothing to interpolate
        lambda: traj.position_at(4.0),  # parked after the last breakpoint
        lambda: traj.truncated(1.5),
        lambda: traj.truncated(2.5),  # inside a wait: nothing to interpolate
        lambda: online.roundtrip_completions(planned, [(1.0, F(0))]),
        lambda: online.roundtrip_completions(planned, [(F(1), 0.0)]),
        lambda: online.roundtrip_completions(parked, [(F(0), 1.5)]),  # an empty path
        lambda: online.roundtrip_completions(parked, [(0.0, F(1))]),
        lambda: committed.motion(2.5),
        lambda: replan.on_arrivals([(1.0, F(0))]),
        lambda: replan.motion(0.5),
    ]:
        with pytest.raises(TypeError, match=exact):
            call()
    assert replan.completions() == [F(1)]  # the refused batch changed nothing


def test_the_scalar_refuses_an_operand_it_does_not_mix_with():
    """``+``, ``-``, ``*`` and ``/`` with an object that is no number raise
    Python's own TypeError in either order, as each side returns
    ``NotImplemented``, and the scalar equals no such object."""
    x, other = QuadraticScalar(1, 1), object()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((x, other), (other, x)):
            with pytest.raises(TypeError, match=r"^unsupported operand type\(s\)"):
                op(a, b)
    assert (x == other) is False


# --- trajectories ------------------------------------------------------------


_UNIT_SPEED = "the server waits or moves at unit speed between breakpoints"


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(((F(1), F(0)),))  # does not start at time 0
    with pytest.raises(ValueError):
        Trajectory(((F(0), F(1)),))  # does not start at the origin
    with pytest.raises(ValueError):
        Trajectory(((F(0), F(0)), (F(0), F(0))))  # times not increasing
    # a segment waits or moves at unit speed: any other speed, faster or
    # slower, rational or surd, is refused with one message
    for end in [
        (F(1), F(2)),  # speed 2
        (F(4), F(2)),  # speed 1/2
        (F(2), F(-1)),  # speed 1/2, leftward
        (QuadraticScalar(0, 1), F(1)),  # speed 1/sqrt(3)
        (F(2), QuadraticScalar(-1, 1)),  # speed (sqrt(3) - 1)/2
    ]:
        with pytest.raises(ValueError, match=f"^{_UNIT_SPEED}$"):
            Trajectory(((F(0), F(0)), end))


def test_a_trajectory_needs_a_breakpoint():
    with pytest.raises(ValueError, match="^trajectory needs at least one breakpoint$"):
        Trajectory(())


def test_trajectory_checks_every_segment_after_the_first():
    """Each later breakpoint is checked against the one before it, and ints
    become Fractions."""
    start = ((F(0), F(0)), (F(2), F(2)))
    with pytest.raises(ValueError, match="^breakpoint times must strictly increase$"):
        Trajectory(start + ((F(2), F(2)),))  # an equal time after the first segment
    with pytest.raises(ValueError, match=f"^{_UNIT_SPEED}$"):
        Trajectory(start + ((F(3), F(0)),))
    with pytest.raises(ValueError, match=f"^{_UNIT_SPEED}$"):
        Trajectory(start + ((F(3), F(1)), (F(4), F(3))))  # two segments on
    longer = Trajectory(start + ((3, 1), (F(7, 2), F(1))))
    assert longer.breakpoints == ((F(0), F(0)), (F(2), F(2)), (F(3), F(1)), (F(7, 2), F(1)))
    assert [type(v) for bp in longer.breakpoints for v in bp] == [F] * 8


def test_position_at_interpolates_exactly():
    traj = Trajectory(((F(0), F(0)), (F(3), F(3)), (F(6), F(0))))
    assert traj.position_at(F(4)) == 2
    assert traj.position_at(F(3, 2)) == F(3, 2)
    assert traj.position_at(F(100)) == 0  # parked after the last breakpoint
    with pytest.raises(ValueError):
        traj.position_at(F(-1))


def test_position_at_waiting_segment():
    traj = Trajectory(((F(0), F(0)), (F(1), F(1)), (F(3), F(1)), (F(4), F(0))))
    assert traj.position_at(F(2)) == 1
    assert traj.position_at(F(7, 2)) == F(1, 2)


def test_first_service_time_skips_early_pass():
    # Rises through loc 1 at t=1, but service may not start before 3/2; the
    # next pass is on the way down, at t=3.
    traj = Trajectory(((F(0), F(0)), (F(2), F(2)), (F(4), F(0))))
    assert traj.first_service_time(F(1), F(3, 2)) == 3
    assert traj.first_service_time(F(1)) == 1
    assert traj.first_service_time(F(2)) == 2
    assert traj.first_service_time(F(3)) is None


def test_first_service_time_parked_tail():
    traj = Trajectory(((F(0), F(0)), (F(2), F(-2))))
    assert traj.first_service_time(F(-2), F(10)) == 10
    assert traj.first_service_time(F(0), F(1)) is None


def test_first_service_time_waiting_segment():
    traj = Trajectory(((F(0), F(0)), (F(1), F(1)), (F(5), F(1))))
    assert traj.first_service_time(F(1), F(3)) == 3


def test_first_service_time_from_a_breakpoint_a_wait_and_past_the_end():
    # up to 2, wait there until 4, back to 0 at 6, then parked
    traj = Trajectory(((F(0), F(0)), (F(2), F(2)), (F(4), F(2)), (F(6), F(0))))
    assert traj.first_service_time(F(2), F(2)) == 2  # at a breakpoint
    assert traj.first_service_time(F(1), F(2)) == 5
    assert traj.first_service_time(F(2), F(3)) == 3  # inside the wait
    assert traj.first_service_time(F(1), F(4)) == 5
    assert traj.first_service_time(F(0), F(6)) == 6  # at the last breakpoint
    assert traj.first_service_time(F(0), F(9)) == 9  # past the end
    assert traj.first_service_time(F(1), F(9)) is None


def test_a_second_service_query_scales_only_its_location_and_time(monkeypatch):
    """A trajectory scales its breakpoints to integer pairs once: a second
    ``first_service_time`` call passes only ``loc`` and ``not_before`` to
    ``core._scaled_pairs``, visit or none, and gives the scalar scan's
    answer."""
    traj = roundtrip_trajectory(canonical_tour((F(-5), F(7))), RoundTripSchedule(), F(2000))
    pts = traj.breakpoints
    assert len(pts) == 241
    scaled, real = [], core._scaled_pairs

    def counting(values):
        scaled.append(list(values))
        return real(values)

    monkeypatch.setattr(core, "_scaled_pairs", counting)
    got = traj.first_service_time(F(1, 3))
    assert [len(values) for values in scaled] == [2 * len(pts), 2]
    assert got == reference_first_service_time(traj, F(1, 3))
    queries = [(F(1, 3), pts[120][0]), (F(7), pts[200][0]), (F(100), 0), (F(-5, 7), F(9, 11))]
    for loc, not_before in queries:
        scaled.clear()
        got = traj.first_service_time(loc, not_before)
        assert scaled == [[loc, not_before]]
        assert got == reference_first_service_time(traj, loc, not_before)


def test_truncated():
    traj = Trajectory(((F(0), F(0)), (F(2), F(2)), (F(4), F(0))))
    cut = traj.truncated(F(3))
    assert cut.breakpoints == ((F(0), F(0)), (F(2), F(2)), (F(3), F(1)))
    assert traj.truncated(F(0)).breakpoints == ((F(0), F(0)),)
    # cutting beyond the end just appends the parked position
    assert traj.truncated(F(5)).breakpoints[-1] == (F(5), F(0))


@st.composite
def trajectories(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    t = F(0)
    p = F(0)
    pts = [(t, p)]
    for _ in range(n):
        dt = draw(st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=8))
        speed = draw(st.sampled_from([F(0), F(1), F(-1)]))  # a wait or a unit-speed move
        t += dt
        p += speed * dt
        pts.append((t, p))
    return Trajectory(tuple(pts))


@given(trajectories(), st.fractions(min_value=F(0), max_value=F(8), max_denominator=12))
@settings(max_examples=200)
def test_speed_bounded_by_one(traj, t2):
    t1 = t2 / 2
    assert abs(traj.position_at(t1) - traj.position_at(t2)) <= abs(t1 - t2)


@given(trajectories(), st.fractions(min_value=F(0), max_value=F(20), max_denominator=6))
@settings(max_examples=100)
def test_truncated_matches_the_constructor(traj, t_end):
    """A cut gives the breakpoints before it and the position there, as
    rebuilt from scratch by the checked constructor."""
    pts = traj.breakpoints
    kept = [bp for bp in pts if bp[0] < t_end] or [pts[0]]
    if kept[-1][0] < t_end:
        kept.append((t_end, traj.position_at(t_end)))
    assert traj.truncated(t_end).breakpoints == Trajectory(tuple(kept)).breakpoints


@given(
    trajectories(),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=12),
    st.fractions(min_value=F(0), max_value=F(6), max_denominator=6),
)
@settings(max_examples=300)
def test_first_service_time_matches_oracle(traj, loc, not_before):
    expected = _oracle_first_service(traj.breakpoints, loc, not_before)
    got = traj.first_service_time(loc, not_before)
    assert got == expected
    if got is not None:
        assert got >= not_before
        assert traj.position_at(got) == loc


@given(
    st.sampled_from([(F(0), F(1)), (F(0), F(10)), (F(-4), F(6)), (F(-3, 2), F(1, 3))]),
    st.fractions(min_value=0, max_value=1, max_denominator=24),
    st.one_of(
        st.fractions(min_value=0, max_value=60, max_denominator=7),
        st.integers(0, 30),  # index of a breakpoint time
    ),
)
@settings(max_examples=200, deadline=None)
def test_first_service_time_matches_oracle_on_surd_round_trips(line, rel, start):
    # breakpoint times are surds p + q*sqrt(3) under the default growth
    a, b = line
    traj = roundtrip_trajectory(canonical_tour((a, b)), RoundTripSchedule(), F(60))
    loc = a + rel * (b - a)
    pts = traj.breakpoints
    not_before = pts[min(start, len(pts) - 1)][0] if isinstance(start, int) else start
    expected = _oracle_first_service(pts, loc, not_before)
    got = traj.first_service_time(loc, not_before)
    assert got == expected
    if got is not None:
        assert str(got) == str(expected)
        assert traj.position_at(got) == loc


_STEPS = st.one_of(
    st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=8),
    st.builds(
        QuadraticScalar,
        st.fractions(min_value=0, max_value=2, max_denominator=4),
        st.fractions(min_value=F(1, 4), max_value=1, max_denominator=4),
    ),
)
_SPEEDS = st.sampled_from([F(0), F(1), F(-1)])  # waits and unit-speed moves


@st.composite
def _visits(draw):
    """A motion with rational and surd breakpoints, waits and unit-speed
    moves; a location at a breakpoint, at the parked end, on a
    segment or anywhere; and a not-before time at 0, at a breakpoint,
    inside a segment or after the end."""
    t = p = F(0)
    pts = [(t, p)]
    for _ in range(draw(st.integers(0, 5))):
        dt = draw(_STEPS)
        t, p = t + dt, p + draw(_SPEEDS) * dt
        pts.append((t, p))
    traj = Trajectory(tuple(pts))
    k = draw(st.integers(0, len(pts) - 1))
    (tk, pk), (tn, _) = pts[k], pts[min(k + 1, len(pts) - 1)]
    part = draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
    loc = draw(st.sampled_from([
        pk,
        pts[-1][1],
        traj.position_at(tk + part * (tn - tk)),
        draw(st.fractions(min_value=-4, max_value=4, max_denominator=4)),
    ]))
    k = draw(st.integers(0, len(pts) - 1))
    (tk, _), (tn, _) = pts[k], pts[min(k + 1, len(pts) - 1)]
    not_before = draw(st.sampled_from([0, F(0), tk, tk + part * (tn - tk), pts[-1][0] + part + 1]))
    return traj, loc, not_before


@given(_visits())
@settings(max_examples=300, deadline=None)
def test_the_pair_crossing_rule_is_the_scalar_scan(case):
    """``first_service_time`` (the pair rule ``_pair_visit`` and its
    wrapper) equals the old scalar scan in value, type and printed form, and
    returns the same object where that is a breakpoint's time or
    ``not_before``.  The rule itself, on the whole motion in pairs, finds
    the same time on a segment that holds it."""
    traj, loc, not_before = case
    expected = reference_first_service_time(traj, loc, not_before)
    got = traj.first_service_time(loc, not_before)
    assert (got, type(got), str(got)) == (expected, type(expected), str(expected))
    pts = traj.breakpoints
    if any(expected is t for t in [not_before] + [t for t, _ in pts]):
        assert got is expected
    d, flat = core._scaled_pairs([loc, not_before] + [v for bp in pts for v in bp])
    found = core._pair_visit(list(zip(flat[2::2], flat[3::2])), flat[0], flat[1])
    if expected is None:
        assert found is None
    else:
        k, t = found
        at = not_before if t is None else QuadraticScalar(F(t[0], d), F(t[1], d))
        assert at == expected
        assert pts[k][0] <= expected and (k + 1 == len(pts) or expected <= pts[k + 1][0])


_sum_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
_sum_surds = st.builds(QuadraticScalar, _sum_fractions, _sum_fractions)


@given(
    st.one_of(
        st.lists(st.one_of(_sum_fractions, st.integers(-9, 9))),
        st.lists(st.one_of(_sum_fractions, _sum_surds), min_size=1),
        # surds whose sqrt(3) parts cancel
        st.lists(_sum_surds, max_size=3).map(lambda xs: xs + [QuadraticScalar(1, -x.q) for x in xs]),
    )
)
@settings(max_examples=300)
def test_exact_sum_is_the_fraction_sum(values):
    got, expected = _exact_sum(values), sum(values, F(0))
    assert (got, type(got), str(got)) == (expected, type(expected), str(expected))


def test_exact_sum_of_nothing_and_of_cancelled_surds():
    assert (_exact_sum([]), type(_exact_sum([]))) == (0, F)
    total = _exact_sum([QuadraticScalar(F(1, 2), 1), QuadraticScalar(F(1, 3), -1)])
    assert type(total) is QuadraticScalar and (total.p, total.q) == (F(5, 6), 0)


# --- instances ---------------------------------------------------------------


def test_instance_validation():
    line = LineSegment(F(-1), F(2))
    with pytest.raises(ValueError, match="outside the line"):
        make_instance(line, [(F(0), F(3), F(0))])
    with pytest.raises(ValueError, match="negative arrival"):
        make_instance(line, [(F(0), F(0), F(-1))])
    with pytest.raises(ValueError, match="predicted location"):
        make_instance(line, [(None, F(1), F(0))])
    # the original model does not need predictions
    inst = make_instance(line, [(None, F(1), F(0))], model=Model.ORIGINAL)
    assert inst.requests[0].predicted is None
    # ... and refuses one: no strategy would ever see it
    with pytest.raises(ValueError, match="request 0: original model takes no predicted"):
        make_instance(line, [(F(1), F(1), F(0))], model=Model.ORIGINAL)
    with pytest.raises(ValueError, match="only visible"):
        inst.predictions


def test_instance_indices_must_match_positions():
    line = LineSegment(F(0), F(1))
    good = Request(0, F(1), F(1), F(0))
    with pytest.raises(ValueError, match="position"):
        Instance(line, Model.PREDICTION, (Request(1, F(1), F(1), F(0)),))
    Instance(line, Model.PREDICTION, (good,))


def test_predictions_property():
    inst = make_instance((F(-1), F(1)), [(F(1), F(1), F(0)), (F(-1, 2), F(0), F(3))])
    assert inst.predictions == (F(1), F(-1, 2))


# --- instance checks in integers ----------------------------------------------


def test_line_endpoints_are_inclusive_and_arrival_zero_is_accepted():
    line = (F(-3, 2), F(5, 3))
    inst = make_instance(line, [(F(-3, 2), F(5, 3), F(0)), (F(5, 3), F(-3, 2), F(0))])
    assert [(r.predicted, r.actual, r.arrival) for r in inst.requests] == [
        (F(-3, 2), F(5, 3), 0), (F(5, 3), F(-3, 2), 0)]
    tiny = F(1, 10**30)
    for triple in [(F(0), F(5, 3) + tiny, F(0)), (F(0), F(-3, 2) - tiny, F(0))]:
        with pytest.raises(ValueError, match=r"^request 0: actual location outside the line$"):
            make_instance(line, [triple])
    with pytest.raises(ValueError, match=r"^request 0: negative arrival time$"):
        make_instance(line, [(F(0), F(0), -tiny)])


def test_line_and_request_denominators_may_differ():
    line = LineSegment(F(-7, 3), F(11, 4))  # -2.333..., 2.75
    inside = [(F(2749, 1000), F(-23, 10), F(1, 7)), (F(-233, 100), F(11, 4), F(0))]
    assert len(make_instance(line, inside).requests) == 2
    with pytest.raises(ValueError, match=r"^request 2: predicted location outside the line$"):
        make_instance(line, inside + [(F(2751, 1000), F(0), F(0))])
    with pytest.raises(ValueError, match=r"^request 0: actual location outside the line$"):
        make_instance(line, [(F(0), F(-234, 100), F(0))])


def test_every_request_check_message_is_kept():
    line = (F(-1), F(2))
    cases = [
        ([(F(0), F(3), F(0))], Model.PREDICTION, "request 0: actual location outside the line"),
        ([(F(0), F(0), F(0)), (F(0), F(0), F(-1, 3))], Model.PREDICTION,
         "request 1: negative arrival time"),
        ([(F(1), F(1), F(0))], Model.ORIGINAL, "request 0: original model takes no predicted location"),
        ([(None, F(1), F(0))], Model.PREDICTION,
         "request 0: prediction model requires a predicted location"),
        ([(F(5, 2), F(1), F(0))], Model.PREDICTION, "request 0: predicted location outside the line"),
    ]
    for triples, model, message in cases:
        with pytest.raises(ValueError) as err:
            make_instance(line, triples, model)
        assert str(err.value) == message


_CHECK_VALUES = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3),
    st.builds(QuadraticScalar, st.fractions(min_value=-3, max_value=3, max_denominator=2),
              st.sampled_from([0, F(1, 2), -1])),
)


def _plain_request_misfit(line, model, triples):
    """The message for the first request that misfits ``line`` or ``model``,
    by plain comparisons on the values as given, or None."""
    for i, (predicted, actual, arrival) in enumerate(triples):
        if not line.a <= actual <= line.b:
            return f"request {i}: actual location outside the line"
        if arrival < 0:
            return f"request {i}: negative arrival time"
        if model is Model.ORIGINAL and predicted is not None:
            return f"request {i}: original model takes no predicted location"
        if model is Model.PREDICTION and predicted is None:
            return f"request {i}: prediction model requires a predicted location"
        if predicted is not None and not line.a <= predicted <= line.b:
            return f"request {i}: predicted location outside the line"
    return None


@given(
    st.sampled_from([F(0), 0, F(-3, 2), -2, -QuadraticScalar(0, 1), QuadraticScalar(-1)]),
    st.sampled_from([F(2), 3, F(5, 2), QuadraticScalar(0, 1), QuadraticScalar(2)]),
    st.sampled_from(list(Model)),
    st.lists(st.tuples(st.one_of(st.none(), _CHECK_VALUES), _CHECK_VALUES, _CHECK_VALUES), max_size=4),
)
@settings(max_examples=200)
def test_instance_checks_match_plain_comparisons(a, b, model, triples):
    """Any mix of ints, Fractions and surds, line endpoints included, gets
    the verdict and message that plain comparisons give on each request in
    turn: on the line, arrival not negative, a predicted location exactly
    when the model has them, and that one on the line."""
    line = LineSegment(a, b)
    try:
        make_instance(line, triples, model)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == _plain_request_misfit(line, model, triples)


def test_parsed_misfit_names_its_req_line():
    text = "LINE -1 2\nREQ 0 1 0\n# a comment\nREQ 0 1/3 -1/2\nREQ 3 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.lineno, str(err.value)) == (4, "line 4: request 1: negative arrival time")
    with pytest.raises(ParseError) as err:
        parse_instance("REQ - 1 0\nREQ 1 1 0\nLINE -1 2\nMODEL original\n")
    assert str(err.value) == "line 2: request 1: original model takes no predicted location"


def test_request_keeps_the_fractions_it_is_given():
    x, t = F(1, 3), F(2)
    req = Request(0, None, x, t)
    assert req.actual is x and req.arrival is t
    req = Request(0, 1, 2, 0)
    assert [type(v) for v in (req.predicted, req.actual, req.arrival)] == [F, F, F]


# --- text format -------------------------------------------------------------

SAMPLE = """\
# a small mixed instance
LINE -1 2
MODEL prediction

REQ 1/2 1/2 0
REQ -1 -3/4 5   # off by 1/4
"""


def test_parse_instance_sample():
    inst = parse_instance(SAMPLE)
    assert inst.line == LineSegment(F(-1), F(2))
    assert inst.model is Model.PREDICTION
    assert [r.actual for r in inst.requests] == [F(1, 2), F(-3, 4)]
    assert inst.requests[1].arrival == 5


def test_parse_instance_defaults_to_prediction_model():
    inst = parse_instance("LINE 0 1\nREQ 1 1 0\n")
    assert inst.model is Model.PREDICTION


def test_parse_instance_original_model_dash():
    inst = parse_instance("LINE -2 0\nMODEL original\nREQ - -1 3\n")
    assert inst.model is Model.ORIGINAL
    assert inst.requests[0].predicted is None


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("LINE 0 1\nREQ 1 1 0\nBOGUS 3\n")
    assert err.value.lineno == 3
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("LINE 0 1\nREQ 1 1\n")
    with pytest.raises(ParseError, match="missing LINE"):
        parse_instance("# nothing here\n")
    with pytest.raises(ParseError, match="duplicate LINE"):
        parse_instance("LINE 0 1\nLINE 0 2\n")
    with pytest.raises(ParseError, match="unknown model"):
        parse_instance("LINE 0 1\nMODEL psychic\n")
    with pytest.raises(ParseError, match="bad scalar"):
        parse_instance("LINE 0 x\n")
    for text, lineno, message in [
        ("LINE 0 1 2\n", 1, "LINE takes exactly two endpoints"),
        ("LINE 0 1\nMODEL original\nMODEL original\n", 3, "duplicate MODEL"),
        ("LINE 0 1\nMODEL original prediction\n", 2, "MODEL takes exactly one name"),
        ("LINE 0 1\nREQ 1 1 0\nREQ 1/2 1/2 x\n", 3, "bad scalar 'x'"),
    ]:
        with pytest.raises(ParseError, match=f"^line {lineno}: {message}") as err:
            parse_instance(text)
        assert err.value.lineno == lineno


def test_semantic_errors_are_value_errors():
    with pytest.raises(ValueError, match="outside the line"):
        parse_instance("LINE 0 1\nREQ 1 2 0\n")


def test_serialize_round_trip_sample():
    inst = parse_instance(SAMPLE)
    assert parse_instance(serialize_instance(inst)) == inst


@st.composite
def instances(draw):
    denom = 8
    a = -draw(st.integers(min_value=0, max_value=16))
    b = draw(st.integers(min_value=0, max_value=16))
    if a == 0 and b == 0:
        b = 4
    line = LineSegment(F(a), F(b))
    model = draw(st.sampled_from(list(Model)))
    n = draw(st.integers(min_value=0, max_value=6))
    triples = []
    for _ in range(n):
        actual = F(draw(st.integers(min_value=a * denom, max_value=b * denom)), denom)
        if model is Model.PREDICTION:
            predicted = F(draw(st.integers(min_value=a * denom, max_value=b * denom)), denom)
        else:
            predicted = None
        arrival = F(draw(st.integers(min_value=0, max_value=50)))
        triples.append((predicted, actual, arrival))
    return make_instance(line, triples, model)


@given(instances())
@settings(max_examples=200)
def test_serialize_parse_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


class _NoText(F):
    """A ``Fraction`` that refuses to be built from text."""

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str):
            raise AssertionError(f"Fraction was given the text {numerator!r}")
        return super().__new__(cls, numerator, denominator)


def test_perturbed_instance_refuses_a_negative_delta():
    with pytest.raises(ValueError, match="^delta must be nonnegative$"):
        generate.perturbed_instance(random.Random(0), (F(0), F(1)), 3, F(-1, 100))


def test_parse_instance_reads_serialized_scalars_as_integers(monkeypatch):
    """Every scalar ``serialize_instance`` writes is read into integers, never
    handed to ``Fraction`` as text."""
    rng = random.Random(19)
    inst = generate.perturbed_instance(rng, (F(-21, 2), F(10)), 200, F(1, 20))
    text = serialize_instance(inst)
    monkeypatch.setattr(core, "Fraction", _NoText)
    assert parse_instance(text) == inst
