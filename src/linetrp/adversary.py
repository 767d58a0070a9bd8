"""Adversarial release-time game that hunts for large per-request ratios.

The adversary announces eleven predicted locations on [0, 10] upfront: eight
base targets and three requests sitting just off the origin.  Every request
eventually appears exactly at its predicted spot (the predictions are honest);
the adversary only chooses integer release times, watched against the
strategy's unfolding motion.  Near-origin requests are released the moment the
server has committed away from the origin, so a schedule that must keep
growing its trips pays for the detour; a request still unserved at an integer
time at least ``ratio_target`` times its floor ``max(|location|, arrival)`` is
a proven violation.

Every strategy is played the same way: it is started once
(``Strategy.start``) and its session kept live.  Each release is fed to that
session as it happens, and the completions are the session's own, in closed
form (a committed plan's from ``roundtrip_completions``, the replanner's as
it replans).  The game visits only the releases and the first violation,
never the steps between them: between releases the completions are fixed,
so each request's first provably late step has a closed form, and the next
release is found on the session's integer moves.  Its cost does not grow
with ``max_steps``.

A committed session keeps one plan, so the plan's trips and legs are scaled
to integer pairs once, however many batches it releases.  Each request's
floor is computed once, at its release, and its first late step whenever its
completion changes: once for a committed plan, after a replan for an
adaptive session.  The worst ratio is picked by cross products of integer
pairs (``simulator._first_max``), so only it and the witness's ratio are
divided out.  ``verify_witness`` reads no closed form: it feeds the released
instance to a fresh session and replays the witness request on that
session's motion cut at the request's deadline, in integer pairs
(``motion(deadline)``), by the crossing rule ``Trajectory.first_service_time``
also applies (``core._pair_visit``).  A committed session cuts its plan's own
moves and the replanner's session its own breakpoints, both kept in integer
pairs, so the replay builds no scalar per breakpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import (
    Instance,
    LineSegment,
    _common_scale,
    _on_line,
    _pair_scalar,
    _pair_visit,
    _pair_sign,
    _scaled_pairs,
    _surd_floor,
    make_instance,
)
from .offline import distance_arrival_floor
from .online import (
    Strategy,
    VisibleInfo,
    coverage_horizon,  # not called here; perfbench/tracer.py wraps it under this name
    roundtrip_trajectory,  # not called here; perfbench/tracer.py wraps it under this name
    visible_info,
)
from .simulator import _check_coverage, _first_max, _ratio
from .simulator import run  # not called here; perfbench/tracer.py wraps it under this name

@dataclass(frozen=True)
class GameConfig:
    line: LineSegment = LineSegment(Fraction(0), Fraction(10))
    bases: Tuple[Fraction, ...] = tuple([Fraction(v) for v in (1, 4, 5, 6, 7, 8, 9, 10)])
    near_origin: Tuple[Fraction, ...] = tuple([Fraction(k, 1000) for k in (1, 2, 3)])
    ratio_target: Fraction = Fraction(3)
    max_steps: int = 120

    def __post_init__(self):
        line, inside = self.line, _on_line(self.line)
        for name in ("bases", "near_origin"):
            for loc in getattr(self, name):
                if not inside(loc):
                    raise ValueError(f"{name} must lie on the line [{line.a}, {line.b}], got {loc}")
        if not self.ratio_target > 0:
            raise ValueError(f"ratio_target must be positive, got {self.ratio_target}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative, got {self.max_steps}")


@dataclass(frozen=True)
class Witness:
    request_index: int
    location: Fraction
    arrival: Fraction
    completion: object
    floor: Fraction
    ratio: object
    declared_step: int


@dataclass(frozen=True)
class GameTranscript:
    strategy_name: str
    config: GameConfig
    instance: Instance  # everything released, in release order
    completions: Tuple[object, ...]
    witness: Optional[Witness]
    max_ratio: object
    log: Tuple[str, ...]


def _next_outward_step(d: int, moves, lo: int, hi: int):
    """``(step, position)`` at the first integer step in ``[lo, hi]`` at which
    a move ``(ta, pa, tb, pb)`` with ``pb > pa`` stands at 1 or beyond, with
    ``ta <= step < tb``; None if none comes by ``hi``.  The moves come in time
    order, in integer pairs over ``d``.  An outward one must run at unit speed
    (else ValueError), so it is at 1 or beyond from ``ta + max(0, 1 - pa)`` on."""
    for (ta, ra), (pa, qa), (tb, rb), (pb, qb) in moves:
        if _pair_sign(ta - hi * d, ra) > 0:
            return None
        if _pair_sign(pb - pa, qb - qa) > 0:
            if (pb - pa, qb - qa) != (tb - ta, rb - ra):
                raise ValueError("the release game needs every outward move at unit speed")
            if _pair_sign(pa - d, qa) < 0:  # start the move where it reaches 1
                ta, ra, pa, qa = ta + d - pa, ra - qa, d, 0
            step = max(lo, -_surd_floor(-ta, -ra, d))
            if step <= hi and _pair_sign(step * d - tb, -rb) < 0:
                return step, _pair_scalar(pa + step * d - ta, qa - ra, d)
    return None


def play_lowerbound_game(strategy: Strategy, config: Optional[GameConfig] = None) -> GameTranscript:
    """Run the release-time game against ``strategy``.

    The strategy is started once; each release is fed to that one session,
    and the completions are taken from its ``completions()``.

    The game jumps from release to release.  Between releases every
    completion is fixed, so a request with deadline D is first provably
    late at step ``max(ceil(D), now)``, where ``now`` is the first step not
    yet checked, and never if it is served by D.  The next release is read
    off the session's moves in integer pairs (``_next_outward_step``): a
    committed plan's own, or the replanner's motion so far, which it keeps
    in those pairs; a motion that never goes right of 1 gives none to scan.
    So the cost grows with the releases and the legs, not with
    ``max_steps``.  Returns the full transcript; ``witness`` stays None when
    the strategy escapes every deadline within ``max_steps``.  Raises
    CoverageError when the strategy never serves some released request, and
    ValueError when it moves out at another speed than 1.
    """
    cfg = config if config is not None else GameConfig()
    info = VisibleInfo(cfg.line, cfg.bases + cfg.near_origin)
    released: List[Tuple[Fraction, Fraction]] = []
    floors: List[Fraction] = []  # per released request, fixed at its release
    deadlines: List[Fraction] = []  # likewise: ratio_target times the floor
    comps: List[object] = []
    late_at: List[Optional[int]] = []  # per request: the step it is late from, or None
    session = strategy.start(info)

    def release(locations, arrival) -> None:
        nonlocal comps
        batch = [(loc, arrival) for loc in locations]
        released.extend(batch)
        new = [distance_arrival_floor(loc, arrival) for loc in locations]
        floors.extend(new)
        deadlines.extend([cfg.ratio_target * floor for floor in new])
        session.on_arrivals(batch)
        old, comps = comps, session.completions()
        # late from ceil(deadline) on unless served by the deadline; this
        # holds while the completion stays the same object
        known = next((i for i, (a, b) in enumerate(zip(old, comps)) if a is not b), len(old))
        late_at[known:] = [
            math.ceil(d) if c is None or c > d else None
            for c, d in zip(comps[known:], deadlines[known:])
        ]

    def next_release(now: int, hi: int):
        # a near-origin request goes out only once the earlier ones are served
        lo = max(now, 1)
        for i in near_released:
            if comps[i] is None:
                return None
            lo = max(lo, math.ceil(comps[i]))
        if lo > hi:
            return None
        return _next_outward_step(*session.moves(lo, 1), lo, hi)

    release(cfg.bases, Fraction(0))
    near_released: List[int] = []  # indices into `released`
    pending = list(cfg.near_origin)
    log = [
        "predictions announced: " + ", ".join(str(p) for p in info.predictions),
        f"t=0: released base requests at {', '.join(str(b) for b in cfg.bases)}",
    ]

    # each step checks for a violation, then maybe releases; ``now`` is the
    # first step not yet checked
    now = 0
    while True:
        late = [(max(step, now), i) for i, step in enumerate(late_at) if step is not None]
        declared = min(late, default=None)  # (step, request index)
        if declared is not None and declared[0] > cfg.max_steps:
            declared = None
        # a violation found at a step is declared before a release there
        hi = cfg.max_steps if declared is None else declared[0] - 1
        found = next_release(now, hi) if pending else None
        if found is None:
            break
        step, pos = found
        loc = pending.pop(0)
        near_released.append(len(released))
        release([loc], Fraction(step))
        log.append(f"t={step}: server at {pos} heading out -- released {loc}")
        now = step + 1

    final_step = cfg.max_steps
    if declared is not None:
        final_step, i = declared
        (loc, arr), deadline = released[i], deadlines[i]
        log.append(
            f"t={final_step}: request at {loc} (arrival {arr}) is past its"
            f" deadline {deadline} -- witness declared"
        )

    # the predictions stay honest: anything withheld goes out at the end
    if pending:
        release(pending, Fraction(final_step))
    log += [f"t={final_step}: released remaining {loc} (game over)" for loc in pending]

    instance = make_instance(cfg.line, [(loc, loc, arr) for loc, arr in released])
    _check_coverage(instance, comps, strategy.name)
    # the first largest completion/floor, by cross products of integer pairs
    _, pairs = _scaled_pairs(comps + floors)
    worst = _first_max(list(zip(pairs, pairs[len(comps) :])))
    max_ratio = _ratio(comps[worst], floors[worst]) if worst >= 0 else Fraction(1)
    witness = None
    if declared is not None:
        step, idx = declared
        r = instance.requests[idx]
        ratio = _ratio(comps[idx], floors[idx])
        witness = Witness(
            request_index=idx,
            location=r.actual,
            arrival=r.arrival,
            completion=comps[idx],
            floor=floors[idx],
            ratio=ratio,
            declared_step=step,
        )
        log.append(
            f"witness: request {idx} at {r.actual}, arrival {r.arrival},"
            f" completed {comps[idx]} (ratio {ratio})"
        )
    else:
        log.append(f"no witness within {cfg.max_steps} steps; worst ratio {max_ratio}")
    return GameTranscript(
        strategy_name=strategy.name,
        config=cfg,
        instance=instance,
        completions=tuple(comps),
        witness=witness,
        max_ratio=max_ratio,
        log=tuple(log),
    )


def verify_witness(strategy: Strategy, transcript: GameTranscript) -> bool:
    """Independently re-run the transcript's instance and confirm the flagged
    request really exceeds the target multiple of its floor.

    A fresh session of ``strategy`` is fed the instance, and the request is
    replayed on the session's motion cut at the request's deadline,
    ``ratio_target`` times its floor (``motion(deadline)``, in integer
    pairs), by the one crossing rule (``core._pair_visit``): it is a
    violation when the motion does not serve it by then.  No closed form is
    read, and no scalar is built per breakpoint.  Raises ValueError when a
    move that crosses the request's location runs slower than unit speed."""
    if transcript.witness is None:
        return False
    instance = transcript.instance
    session = strategy.start(visible_info(instance))
    session.on_arrivals([(r.actual, r.arrival) for r in instance.requests])
    r = instance.requests[transcript.witness.request_index]
    deadline = transcript.config.ratio_target * distance_arrival_floor(r.actual, r.arrival)
    _, pts, [x, arrival, (ca, cb)] = _common_scale(
        *session.motion(deadline), [r.actual, r.arrival, deadline]
    )
    found = _pair_visit(pts, x, arrival)
    if found is None:
        return True
    a, b = found[1] or arrival  # None: served at the arrival itself
    return _pair_sign(a - ca, b - cb) > 0
