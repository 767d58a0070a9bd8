"""Spans around linetrp's public calls, from outside the package.

``Tracer.install`` replaces each traced function at the namespace where its
caller looks it up (``linetrp.simulator.roundtrip_trajectory``, not
``linetrp.online.roundtrip_trajectory``, since ``simulator`` imported the
name) and ``uninstall`` puts the originals back.  Each span keeps its name,
start, end, parent span, unit id and whether the call raised, in flat arrays
in memory; ``write`` dumps them when the run ends.  A few wrappers also count
work (breakpoints, DP cells, brute-force orders) where it happens.

A span's self time is its duration minus its child spans' durations, so the
self times of one unit's spans add up to the unit's own span.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import linetrp
from linetrp import adversary, core, generate, offline, online, simulator

UNIT = "bench.unit"

# (owner, attribute, span name): every place a caller looks a traced call up.
TARGETS = [
    (core.Trajectory, "first_service_time", "core.first_service_time"),
    (core.Trajectory, "truncated", "core.truncated"),
    (linetrp, "parse_instance", "core.parse_instance"),
    (simulator, "roundtrip_trajectory", "online.roundtrip_trajectory"),
    (adversary, "roundtrip_trajectory", "online.roundtrip_trajectory"),
    (simulator, "coverage_horizon", "online.coverage_horizon"),
    (adversary, "coverage_horizon", "online.coverage_horizon"),
    (online.HalflineRoundTrips, "plan", "online.plan"),
    (online.LineSweepRoundTrips, "plan", "online.plan"),
    (online.PerfectPredictionTour, "plan", "online.plan"),
    (online.RobustPredictionTour, "plan", "online.plan"),
    (online.ReplanSession, "on_arrivals", "online.on_arrivals"),
    (online, "optimal_latency_tour", "offline.dp"),
    (simulator, "optimal_latency_tour", "offline.dp"),
    (offline, "optimal_latency_tour", "offline.dp"),
    (offline, "brute_force_latency", "offline.brute_force"),
    (simulator, "run", "simulator.run"),
    (adversary, "run", "simulator.run"),
    (simulator, "evaluate", "simulator.evaluate"),
    (adversary, "play_lowerbound_game", "adversary.play"),
    (adversary, "verify_witness", "adversary.verify"),
    (generate, "random_instance", "generate.instance"),
    (generate, "perturbed_instance", "generate.instance"),
]

LAYERS = ("core", "online", "offline", "simulator", "adversary", "generate")

# self-time metric of each span name; together they cover a unit exactly
SELF_METRICS = {
    UNIT: "bench.self_s",
    "core.first_service_time": "core.first_service_time_s",
    "core.truncated": "core.truncated_s",
    "core.parse_instance": "core.parse_instance_s",
    "online.roundtrip_trajectory": "online.roundtrip_trajectory_s",
    "online.coverage_horizon": "online.coverage_horizon_s",
    "online.plan": "online.plan_s",
    "online.on_arrivals": "online.on_arrivals_s",
    "offline.dp": "offline.dp_s",
    "offline.brute_force": "offline.brute_force_s",
    "simulator.run": "simulator.run_self_s",
    "simulator.evaluate": "simulator.evaluate_self_s",
    "adversary.play": "adversary.play_self_s",
    "adversary.verify": "adversary.verify_s",
}

# DP self time split by the span that called it
DP_BY_PARENT = {
    "online.plan": "offline.dp_plan_s",
    "online.on_arrivals": "offline.dp_replan_s",
    "simulator.evaluate": "offline.dp_evaluate_s",
}


_S, _N, _R = "s/unit", "count/unit", "ratio"
PER_LAYER_UNITS = {
    **{metric: _S for metric in SELF_METRICS.values()},
    **{metric: _S for metric in DP_BY_PARENT.values()},
    "bench.unit_s": _S,
    "online.breakpoints_built": _N,
    "core.first_service_time_calls": _N,
    "core.breakpoints_kept_frac": _R,
    "online.on_arrivals_calls": _N,
    "offline.dp_calls": _N,
    "offline.dp_cells": _N,
    "offline.dp_repeat_frac": _R,
    "offline.orders_evaluated": _N,
    "adversary.probe_runs": "count/game",
    "generate.instance_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "import_s": "s",
    "trace_overhead_ratio": _R,
}


def _dp_cells(points) -> int:
    """Interval-DP table size: m^2 over the m distinct positions, origin included."""
    distinct = set(points)
    distinct.discard(0)
    return (len(distinct) + 1) ** 2 if distinct else 0


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("l")
        self.parent = array("l")
        self.unit = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list = []
        self.unit_id = -1
        self.counts: defaultdict = defaultdict(int)
        self._solved: set = set()  # DP point multisets solved in the current unit
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, span_name, fn, before=None, after=None):
        """``fn`` recording a span; ``before`` may rewrite the arguments and
        ``after`` sees (args, result), both outside the span's interval."""
        nid = self._name_ids.setdefault(span_name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(span_name)

        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.unit.append(self.unit_id)
            self.raised.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def begin_unit(self, unit_id: int) -> None:
        self.unit_id = unit_id
        self._solved = set()

    def install(self) -> None:
        hooks = {
            "online.roundtrip_trajectory": (None, _count_built),
            "core.truncated": (None, _count_kept),
            "offline.dp": (_count_dp, None),
            "offline.brute_force": (_count_orders, None),
        }
        for owner, attr, span_name in TARGETS:
            original = vars(owner)[attr]
            before, after = hooks.get(span_name, (None, None))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original, before, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def self_times(self) -> list:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def unit_sums(self):
        """Per unit: (its span's duration, sum of self times of its spans)."""
        own = self.self_times()
        unit_name = self._name_ids.get(UNIT)
        dur, total = {}, defaultdict(float)
        for i, u in enumerate(self.unit):
            if u < 0:
                continue
            total[u] += own[i]
            if self.name[i] == unit_name and self.parent[i] < 0:
                dur[u] = self.end[i] - self.start[i]
        return {u: (dur[u], total[u]) for u in dur}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tunit\tparent\tname\tstart\tend\traised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.unit[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\t{self.raised[i]}\n"
                )


def _count_built(tracer, args, result):
    tracer.counts["breakpoints_built"] += len(result.breakpoints)


def _count_kept(tracer, args, result):
    tracer.counts["truncate_in"] += len(args[0].breakpoints)
    tracer.counts["truncate_kept"] += len(result.breakpoints)


def _count_dp(tracer, args):
    points = list(args[0])  # callers may pass a generator
    tracer.counts["dp_cells"] += _dp_cells(points)
    key = frozenset(Counter(points).items())
    if key in tracer._solved:
        tracer.counts["dp_repeats"] += 1
    tracer._solved.add(key)
    return (points,) + tuple(args[1:])


def _count_orders(tracer, args):
    points = list(args[0])
    tracer.counts["orders_evaluated"] += math.factorial(sum(1 for p in points if p != 0))
    return (points,) + tuple(args[1:])


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-unit self times and counts over the recorded units, plus the
    per-layer error counts; set-up spans (unit -1) only feed generate."""
    own = tracer.self_times()
    names = tracer.names
    out = {metric: 0.0 for metric in SELF_METRICS.values()}
    out.update({metric: 0.0 for metric in DP_BY_PARENT.values()})
    calls = Counter()
    probe_runs = 0
    errors = Counter()
    generate_s = 0.0
    for i in range(len(own)):
        name = names[tracer.name[i]]
        if tracer.raised[i]:
            errors[name.split(".", 1)[0]] += 1
        if tracer.unit[i] < 0:
            if name == "generate.instance":
                generate_s += own[i]
            continue
        calls[name] += 1
        out[SELF_METRICS[name]] += own[i]
        p = tracer.parent[i]
        parent = names[tracer.name[p]] if p >= 0 else None
        if name == "offline.dp" and parent in DP_BY_PARENT:
            out[DP_BY_PARENT[parent]] += own[i]
        if name == "simulator.run" and parent == "adversary.play":
            probe_runs += 1
    for metric in list(out):
        out[metric] /= units
    c = tracer.counts
    unit_sums = tracer.unit_sums()
    out.update(
        {
            "bench.unit_s": sum(d for d, _ in unit_sums.values()) / units,
            "online.breakpoints_built": c["breakpoints_built"] / units,
            "core.first_service_time_calls": calls["core.first_service_time"] / units,
            "core.breakpoints_kept_frac": _share(c["truncate_kept"], c["truncate_in"]),
            "online.on_arrivals_calls": calls["online.on_arrivals"] / units,
            "offline.dp_calls": calls["offline.dp"] / units,
            "offline.dp_cells": c["dp_cells"] / units,
            "offline.dp_repeat_frac": _share(c["dp_repeats"], calls["offline.dp"]),
            "offline.orders_evaluated": c["orders_evaluated"] / units,
            "adversary.probe_runs": _share(probe_runs, calls["adversary.play"]),
            "generate.instance_s": generate_s,
        }
    )
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out
