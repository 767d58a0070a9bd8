"""Exact data model for the repairperson-on-a-line problem.

Positions, times, and line endpoints are exact numbers (``fractions.Fraction``
or ``QuadraticScalar``), so simulation results and ratio certificates never
depend on float rounding.  Server motion is a piecewise-linear trajectory with
speed at most 1, starting at the origin at time 0.

The online schedules' optimal trip growth rate involves ``sqrt(3)``, so times
live in the quadratic extension Q[sqrt(3)]: ``QuadraticScalar`` is an exact
pair ``p + q*sqrt(3)`` of rationals; it orders by the sign of integer cross
products of its parts' numerators and denominators, building no ``Fraction``.
Everything downstream (trajectories, service times, ratios) stays exact in
that field.
"""

from __future__ import annotations

import bisect
import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

Scalar = Fraction


class ParseError(ValueError):
    """Malformed instance text.  Carries the offending 1-based line number."""

    def __init__(self, lineno: Optional[int], message: str):
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)
        self.lineno = lineno


def _exact(value, what: str = "value"):
    # Floats smuggle rounding error into exact pipelines; insist on exact input.
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact (int/Fraction), got float {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    return value


def _pair_sign(p, q) -> int:
    """Sign of p + q*sqrt(3), without evaluating the root."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # opposite signs: the sign follows whichever of p^2, 3 q^2 dominates
    pp, qq = p * p, 3 * q * q
    if p > 0:  # q < 0
        return 1 if pp > qq else -1  # pp == qq impossible: sqrt(3) irrational
    return 1 if qq > pp else -1


def _surd_floor(x: int, y: int, d: int) -> int:
    """``floor((x + y*sqrt(3))/d)`` for integers with ``d != 0``."""
    if d < 0:
        x, y, d = -x, -y, -d
    # for y != 0, |y|*sqrt(3) = sqrt(3*y^2) lies strictly between the integers
    # m and m+1, so d times the value lies strictly between lo and lo+1
    m = math.isqrt(3 * y * y)
    lo = x + m if y >= 0 else x - m - 1
    return lo // d


class QuadraticScalar:
    """Exact element p + q*sqrt(3) of Q[sqrt(3)].

    Supports field arithmetic and total ordering, mixes freely with int and
    Fraction, and refuses floats.  Rational values (q == 0) compare and hash
    consistently with the equal Fraction.
    """

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        if type(p) is not Fraction:  # hot path: components usually arrive exact
            if isinstance(p, float):
                raise TypeError("QuadraticScalar components must be exact")
            p = Fraction(p)
        if type(q) is not Fraction:
            if isinstance(q, float):
                raise TypeError("QuadraticScalar components must be exact")
            q = Fraction(q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticScalar is immutable")

    def __reduce__(self):
        # rebuild through __init__: the default slot restore would hit __setattr__
        return QuadraticScalar, (self.p, self.q)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QuadraticScalar":
        if isinstance(other, QuadraticScalar):
            return other
        if isinstance(other, float):
            raise TypeError("refusing float arithmetic with QuadraticScalar")
        if isinstance(other, (int, Fraction)):
            return QuadraticScalar(other)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticScalar(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticScalar(self.p - o.p, self.q - o.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticScalar(o.p - self.p, o.q - self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticScalar(self.p * o.p + 3 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.q == 0:
            return QuadraticScalar(self.p / o.p, self.q / o.p)
        # p^2 == 3 q^2 has no rational solution with q != 0, so d != 0
        d = o.p * o.p - 3 * o.q * o.q
        return QuadraticScalar(
            (self.p * o.p - 3 * self.q * o.q) / d,
            (self.q * o.p - self.p * o.q) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = QuadraticScalar(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __neg__(self):
        return QuadraticScalar(-self.p, -self.q)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- ordering ----------------------------------------------------------

    def _sign(self) -> int:
        return _pair_sign(self.p, self.q)

    def _cmp(self, other) -> Optional[int]:
        # comparisons dominate simulation time: the sign of (p - u) + (q - v)*sqrt(3)
        # times the positive p.den*q.den*u.den*v.den, in integers, builds no Fraction
        if isinstance(other, QuadraticScalar):
            u, v = other.p, other.q
        elif isinstance(other, (int, Fraction)):
            u, v = other, 0
        elif isinstance(other, float):
            raise TypeError("refusing float comparison with QuadraticScalar")
        else:
            return None
        p, q = self.p, self.q
        pd, qd, ud, vd = p.denominator, q.denominator, u.denominator, v.denominator
        x = p.numerator * ud - u.numerator * pd
        y = q.numerator * vd - v.numerator * qd
        return _pair_sign(x * qd * vd, y * pd * ud)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash(self.p) if self.q == 0 else hash((self.p, self.q))

    # -- conversions -------------------------------------------------------

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(3.0)

    def __floor__(self) -> int:
        d, [(a, b)] = _scaled_pairs([self])
        return _surd_floor(a, b, d)

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def __repr__(self):
        return f"QuadraticScalar({self.p}, {self.q})"

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        sign = "+" if self.q > 0 else "-"
        return f"{self.p} {sign} {abs(self.q)}*sqrt(3)"


SQRT3 = QuadraticScalar(0, 1)


def _parts(value):
    """The rational parts ``(p, q)`` of ``p + q*sqrt(3)``: those of a
    ``QuadraticScalar``, else ``(value, 0)`` for an int or ``Fraction``."""
    return (value.p, value.q) if isinstance(value, QuadraticScalar) else (value, 0)


def _scaled_pairs(values):
    """``(d, pairs)``: the lcm ``d`` of the denominators of every rational
    part of ``values``, and each value as the integers ``(a, b)`` with
    ``value == (a + b*sqrt(3))/d``, in order.  Each value is split into its
    parts once."""
    parts = [_parts(v) for v in values]
    d = math.lcm(*[x.denominator for pq in parts for x in pq])
    return d, [
        (p.numerator * (d // p.denominator), q.numerator * (d // q.denominator)) for p, q in parts
    ]


def _scalar_like(values, a: int, b: int, d: int):
    """``(a + b*sqrt(3))/d`` in the type that exact arithmetic on ``values``
    gives: a ``Fraction`` unless some value is a ``QuadraticScalar``, then
    one, even when ``b == 0``."""
    if any(isinstance(v, QuadraticScalar) for v in values):
        return QuadraticScalar(Fraction(a, d), Fraction(b, d))
    return Fraction(a, d)


def _pairs_sum(values, d, pairs):
    """``sum(values, Fraction(0))`` from one integer pair ``(a, b)`` per
    value, with ``value == (a + b*sqrt(3))/d``: a ``Fraction`` (0 when
    empty) unless some value is a ``QuadraticScalar`` (``_scalar_like``)."""
    return _scalar_like(values, sum([x for x, _ in pairs]), sum([y for _, y in pairs]), d)


def _interpolate(x0, y0, x1, y1, x):
    """``y0 + (y1 - y0)*(x - x0)/(x1 - x0)`` for ``x1 != x0``: the value at
    ``x`` of the leg through ``(x0, y0)`` and ``(x1, y1)``, with the value
    and type that expression gives (``_scalar_like``).

    The five values are scaled once to integer pairs over one denominator
    (``_scaled_pairs``) and divided by the run ``x1 - x0`` through its
    conjugate, so the only scalar built is the result."""
    values = (x0, y0, x1, y1, x)
    d, [(xa, xb), (ya, yb), (ua, ub), (va, vb), (za, zb)] = _scaled_pairs(values)
    ra, rb, wa, wb, sa, sb = va - ya, vb - yb, ua - xa, ub - xb, za - xa, zb - xb
    ma, mb = ra * sa + 3 * rb * sb, ra * sb + rb * sa  # rise times step, over d*d
    # rise*step/run == rise*step*conj(run)/norm(run); norm != 0 as sqrt(3) is irrational
    n = wa * wa - 3 * wb * wb
    a = ya * n + ma * wa - 3 * mb * wb
    b = yb * n + mb * wa - ma * wb
    return _scalar_like(values, a, b, d * n)


def _exact_sum(values):
    """``sum(values, Fraction(0))``, added as integer pairs over the lcm of
    every denominator (``_pairs_sum``)."""
    values = list(values)
    return _pairs_sum(values, *_scaled_pairs(values))


_MAX_DIGITS = 4300  # CPython's default limit on the digits of an integer string
_INTEGER_SCALAR = re.compile(rf"(-?[0-9]{{1,{_MAX_DIGITS}}})(?:/([0-9]{{1,{_MAX_DIGITS}}}))?")
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
_QUOTED = 40  # the most characters of a field an error message quotes


def _quoted(text: str) -> str:
    """``repr(text)``; past ``_QUOTED`` characters, that of its start and its length."""
    return repr(text) if len(text) <= _QUOTED else f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def parse_scalar(text: str) -> Fraction:
    """Parse an exact scalar: integer ``-3``, fraction ``7/2``, or decimal
    ``0.25`` / ``1e-3``.

    Text of the form ``format_scalar`` writes, ASCII ``-?[0-9]+(/[0-9]+)?``,
    is read straight into ``int`` numerator and denominator; every other
    form (a ``+`` sign, spaces, underscores, non-ASCII digits, decimals,
    exponents) goes through ``Fraction(text)``.  Both give the same value
    and type, and fail on the same text.

    ``_MAX_DIGITS`` (4300) bounds a run of digits (underscores not counted)
    and a decimal exponent's magnitude, whatever the interpreter's own digit
    limit: reading digits takes time quadratic in their number, and past it
    ``Fraction`` takes seconds to build ``10**exponent``.
    """
    match = _INTEGER_SCALAR.fullmatch(text)
    try:
        if match is not None:
            num, den = match.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        if any(len(run) - run.count("_") > _MAX_DIGITS for run in _DIGIT_RUN.findall(text)):
            raise ValueError("digit run too long")
        if abs(int(text.lower().partition("e")[2] or 0)) <= _MAX_DIGITS:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar {_quoted(text)}") from exc
    raise ValueError(f"bad scalar {_quoted(text)}: exponent beyond {_MAX_DIGITS}")


def format_scalar(value) -> str:
    """Canonical text form of a rational scalar (``3``, ``-5/2``)."""
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def format_decimal(value, places: int = 6) -> str:
    """Fixed-point decimal rendering, round half to even.

    Works for any exact scalar supporting floor and rational arithmetic.
    """
    scale = 10**places
    scaled = value * scale
    fl = math.floor(scaled)
    rem = scaled - fl
    half = Fraction(1, 2)
    if rem > half or (rem == half and fl % 2 == 1):
        fl += 1
    sign = "-" if fl < 0 else ""
    whole, frac = divmod(abs(fl), scale)
    return f"{sign}{whole}.{frac:0{places}d}"


class Model(enum.Enum):
    """Information model: classic online, or locations predicted upfront."""

    ORIGINAL = "original"
    PREDICTION = "prediction"


@dataclass(frozen=True)
class LineSegment:
    """Closed segment [a, b] of the real line with a <= 0 <= b and a < b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _exact(self.a, "endpoint"))
        object.__setattr__(self, "b", _exact(self.b, "endpoint"))
        if not (self.a <= 0 <= self.b):
            raise ValueError("segment must contain the origin")
        if self.a == self.b:
            raise ValueError("segment must have positive length")

    @property
    def length(self) -> Fraction:
        return self.b - self.a

    def is_halfline(self) -> bool:
        """True when the origin is an endpoint."""
        return self.a == 0 or self.b == 0

    def __contains__(self, x) -> bool:
        return self.a <= x <= self.b

    def clamp(self, x):
        return min(max(x, self.a), self.b)


@dataclass(frozen=True)
class Request:
    """A unit service request.

    Revealed at time ``arrival`` sitting at ``actual``.  ``predicted`` is the
    location announced before time 0 in the prediction model (None in the
    original model).  ``index`` is the request's position in its instance.
    """

    index: int
    predicted: Optional[Fraction]
    actual: Fraction
    arrival: Fraction

    def __post_init__(self):
        # a Fraction is kept as it is: _exact would return it unchanged
        if self.predicted is not None and type(self.predicted) is not Fraction:
            object.__setattr__(self, "predicted", _exact(self.predicted, "predicted"))
        if type(self.actual) is not Fraction:
            object.__setattr__(self, "actual", _exact(self.actual, "actual"))
        if type(self.arrival) is not Fraction:
            object.__setattr__(self, "arrival", _exact(self.arrival, "arrival"))


def _on_line(line: LineSegment):
    """``inside(v)``: whether ``v`` lies on ``line``.  When ``v`` and both
    endpoints are ``Fraction``s it compares by integer cross products
    (denominators are positive); any other value or line goes through
    ``v in line``."""
    a, b = line.a, line.b
    if type(a) is not Fraction or type(b) is not Fraction:
        return line.__contains__
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator

    def inside(v) -> bool:
        if type(v) is Fraction:
            return an * v.denominator <= v.numerator * ad and v.numerator * bd <= bn * v.denominator
        return v in line

    return inside


def _request_rule(line: LineSegment, model: Model):
    """``check(req)``: raises ValueError, naming the request, unless it lies
    on the line, arrives at a nonnegative time, and carries a predicted
    location (on the line) exactly when the model has them."""
    inside = _on_line(line)
    original = model is Model.ORIGINAL

    def check(req) -> None:
        if not inside(req.actual):
            raise ValueError(f"request {req.index}: actual location outside the line")
        t = req.arrival
        if (t.numerator < 0) if type(t) is Fraction else (t < 0):
            raise ValueError(f"request {req.index}: negative arrival time")
        if original:
            if req.predicted is not None:
                raise ValueError(f"request {req.index}: original model takes no predicted location")
        elif req.predicted is None:
            raise ValueError(f"request {req.index}: prediction model requires a predicted location")
        elif not inside(req.predicted):
            raise ValueError(f"request {req.index}: predicted location outside the line")

    return check


@dataclass(frozen=True)
class Instance:
    """A problem instance: the line, the information model, and the requests."""

    line: LineSegment
    model: Model
    requests: Tuple[Request, ...]

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(self.requests))
        check = _request_rule(self.line, self.model)
        for pos, req in enumerate(self.requests):
            if req.index != pos:
                raise ValueError(f"request at position {pos} has index {req.index}")
            check(req)

    @property
    def predictions(self) -> Tuple[Fraction, ...]:
        """Predicted locations in request order (prediction model only)."""
        if self.model is not Model.PREDICTION:
            raise ValueError("predictions are only visible in the prediction model")
        return tuple([req.predicted for req in self.requests])


def _as_line(line) -> LineSegment:
    """``line`` itself when it is a LineSegment, else the segment of an
    ``(a, b)`` pair."""
    return line if isinstance(line, LineSegment) else LineSegment(line[0], line[1])


def make_instance(line, triples, model: Model = Model.PREDICTION) -> Instance:
    """Convenience builder from (predicted, actual, arrival) triples.

    ``line`` may be a LineSegment or an ``(a, b)`` pair.  Pass ``predicted=None``
    in triples for original-model instances.
    """
    reqs = tuple([
        Request(i, predicted, actual, arrival)
        for i, (predicted, actual, arrival) in enumerate(triples)
    ])
    return Instance(_as_line(line), model, reqs)


def _checked_motion(breakpoints) -> tuple:
    """``breakpoints`` as exact ``(time, position)`` pairs; raises ValueError
    unless each one comes strictly after the one before and is reached from
    it at speed at most 1."""
    pts = tuple([(_exact(t, "time"), _exact(p, "position")) for t, p in breakpoints])
    for (ta, pa), (tb, pb) in zip(pts, pts[1:]):
        if tb <= ta:
            raise ValueError("breakpoint times must strictly increase")
        if abs(pb - pa) > tb - ta:
            raise ValueError("speed exceeds 1 between breakpoints")
    return pts


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear server motion, as (time, position) breakpoints.

    Starts at (0, 0); breakpoint times strictly increase; speed never exceeds
    1.  After the final breakpoint the server parks at the final position
    forever.
    """

    breakpoints: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = _checked_motion(self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if not pts:
            raise ValueError("trajectory needs at least one breakpoint")
        if pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("trajectory must start at the origin at time 0")

    @classmethod
    def _unchecked(cls, pts) -> "Trajectory":
        # breakpoints already checked, or valid by construction
        traj = object.__new__(cls)
        object.__setattr__(traj, "breakpoints", pts)
        return traj

    def extended(self, suffix) -> "Trajectory":
        """This motion followed by the breakpoints of ``suffix``.  They are
        checked as the constructor checks them, from the joint breakpoint
        on; the breakpoints already here are not checked again."""
        pts = self.breakpoints
        return Trajectory._unchecked(pts + _checked_motion(pts[-1:] + tuple(suffix))[1:])

    @cached_property
    def _times(self) -> list:
        return [t for t, _ in self.breakpoints]

    @property
    def end_time(self) -> Fraction:
        return self.breakpoints[-1][0]

    def position_at(self, t) -> Fraction:
        """Exact server position at time ``t >= 0``."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        pts = self.breakpoints
        i = bisect.bisect_right(self._times, t) - 1
        if i >= len(pts) - 1:
            return pts[-1][1]
        ta, pa = pts[i]
        tb, pb = pts[i + 1]
        if pa == pb:
            return pa
        return _interpolate(ta, pa, tb, pb, t)

    def first_service_time(self, loc, not_before=0) -> Optional[Fraction]:
        """Earliest t >= not_before with position_at(t) == loc, or None.

        Bisects to the segment in progress at ``not_before`` and scans the
        segments from there in time order, all in exact arithmetic.
        """
        pts = self.breakpoints
        k = max(bisect.bisect_right(self._times, not_before) - 1, 0)
        for (ta, pa), (tb, pb) in zip(pts[k:], pts[k + 1 :]):
            if pa == pb:
                if pa == loc:
                    return ta if ta >= not_before else not_before
            elif min(pa, pb) <= loc <= max(pa, pb):
                # Monotone segment: unique crossing time.
                tc = _interpolate(pa, ta, pb, tb, loc)
                if tc >= not_before:
                    return tc
        if pts[-1][1] == loc:
            tail = pts[-1][0]
            return tail if tail >= not_before else not_before
        return None

    def truncated(self, t_end) -> "Trajectory":
        """The same motion cut off (and parked) at time ``t_end``."""
        if t_end < 0:
            raise ValueError("cut-off time must be nonnegative")
        before = max(bisect.bisect_left(self._times, t_end), 1)  # at least the start
        kept = Trajectory._unchecked(self.breakpoints[:before])
        if kept.end_time < t_end:
            return kept.extended(((t_end, self.position_at(t_end)),))
        return kept


# --- instance text format ---------------------------------------------------
#
#   # comment
#   LINE a b
#   MODEL prediction          (optional; this is the default)
#   REQ predicted actual arrival
#   REQ - actual arrival      (no prediction, original model)


def parse_instance(text: str) -> Instance:
    """Parse instance text.  Every error raises ParseError, a ValueError,
    with the offending line number: a request that does not fit the line or
    the model names its REQ line (checked once the whole text is read, since
    LINE and MODEL may follow the REQ lines); a missing LINE has no line
    number."""
    line_seg: Optional[LineSegment] = None
    model: Optional[Model] = None
    requests = []  # (lineno, Request)
    scalars = {}  # text -> value: a Fraction is immutable, so equal texts share one

    def scalar(text):
        if text not in scalars:
            scalars[text] = parse_scalar(text)
        return scalars[text]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        keyword = fields[0].upper()
        if keyword == "LINE":
            if line_seg is not None:
                raise ParseError(lineno, "duplicate LINE")
            if len(fields) != 3:
                raise ParseError(lineno, "LINE takes exactly two endpoints")
            try:
                line_seg = LineSegment(parse_scalar(fields[1]), parse_scalar(fields[2]))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
        elif keyword == "MODEL":
            if model is not None:
                raise ParseError(lineno, "duplicate MODEL")
            if len(fields) != 2:
                raise ParseError(lineno, "MODEL takes exactly one name")
            try:
                model = Model(fields[1].lower())
            except ValueError as exc:
                names = ", ".join(m.value for m in Model)
                raise ParseError(lineno, f"unknown model {fields[1]!r} (expected {names})") from exc
        elif keyword == "REQ":
            if len(fields) != 4:
                raise ParseError(lineno, "REQ takes predicted, actual, arrival")
            try:
                predicted = None if fields[1] == "-" else scalar(fields[1])
                actual = scalar(fields[2])
                arrival = scalar(fields[3])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
            requests.append((lineno, Request(len(requests), predicted, actual, arrival)))
        else:
            raise ParseError(lineno, f"unknown keyword {fields[0]!r}")
    if line_seg is None:
        raise ParseError(None, "missing LINE")
    model = model if model is not None else Model.PREDICTION
    try:
        return Instance(line_seg, model, tuple([req for _, req in requests]))
    except ValueError:
        # the instance checks each request in turn; name the first misfit's line
        check = _request_rule(line_seg, model)
        for lineno, req in requests:
            try:
                check(req)
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
        raise


def serialize_instance(instance: Instance) -> str:
    """Canonical text for an instance; parse_instance round-trips it exactly."""
    lines = [
        f"LINE {format_scalar(instance.line.a)} {format_scalar(instance.line.b)}",
        f"MODEL {instance.model.value}",
    ]
    for req in instance.requests:
        pred = "-" if req.predicted is None else format_scalar(req.predicted)
        lines.append(f"REQ {pred} {format_scalar(req.actual)} {format_scalar(req.arrival)}")
    return "\n".join(lines) + "\n"
