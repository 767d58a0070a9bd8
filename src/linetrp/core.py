"""Exact data model for the repairperson-on-a-line problem.

Positions, times, and line endpoints are exact numbers (``fractions.Fraction``
or ``QuadraticScalar``), so simulation results and ratio certificates never
depend on float rounding.  Server motion is a trajectory of waits and
unit-speed moves, starting at the origin at time 0.  Every motion is read
in integer pairs by one rule each: the segment under way (``_segment_at``),
the cut (``_cut``) and the crossing (``_pair_visit``); ``_rational_ints`` is
the one check that a location is rational.
Floats are refused: ``_exact`` checks the values the constructors take, and
a float that reaches the triple reader (``_triples``) raises the same
TypeError.

The online schedules' optimal trip growth rate involves ``sqrt(3)``, so times
live in the quadratic extension Q[sqrt(3)]: ``QuadraticScalar`` is an exact
``(a + b*sqrt(3))/d``, three integers in lowest terms with ``d > 0``, the
form the engine's integer pairs take over their denominator.  Its
arithmetic and ordering are integer cross products of the triples, each
result reduced by one gcd (``_make``); the rational parts ``p`` and ``q``
are built only when read.  Everything downstream (trajectories, service
times, ratios) stays exact in that field.
"""

from __future__ import annotations

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
    """Exact element ``(a + b*sqrt(3))/d`` of Q[sqrt(3)], kept as three
    integers in lowest terms with ``d > 0``.

    Supports field arithmetic and total ordering, mixes freely with int and
    Fraction, and refuses floats.  Every operation is integer arithmetic on
    the triples, ending in one gcd (``_make``).  Rational values (b == 0)
    compare and hash consistently with the equal Fraction.  The rational
    parts ``p + q*sqrt(3)`` are read-only properties, built on each read.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, p, q=0):
        if type(p) is not Fraction:  # hot path: components usually arrive exact
            if isinstance(p, float):
                raise TypeError("QuadraticScalar components must be exact")
            p = Fraction(p)
        if type(q) is not Fraction:
            if isinstance(q, float):
                raise TypeError("QuadraticScalar components must be exact")
            q = Fraction(q)
        # both parts are in lowest terms, so over the lcm of their
        # denominators no prime divides all three integers
        pd, qd = p.denominator, q.denominator
        d = math.lcm(pd, qd)
        _SET_A(self, p.numerator * (d // pd))
        _SET_B(self, q.numerator * (d // qd))
        _SET_D(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticScalar is immutable")

    def __reduce__(self):
        # rebuild through __init__: the default slot restore would hit __setattr__
        return QuadraticScalar, (self.p, self.q)

    @property
    def p(self) -> Fraction:
        """The rational part."""
        return Fraction(self._a, self._d)

    @property
    def q(self) -> Fraction:
        """The coefficient of ``sqrt(3)``."""
        return Fraction(self._b, self._d)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _operand(other, use: str):
        """``other`` as ``(a, b, d)``, or None for a type it does not mix
        with; a float raises TypeError, naming ``use``."""
        if isinstance(other, QuadraticScalar):
            return other._a, other._b, other._d
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        if isinstance(other, float):
            raise TypeError(f"refusing float {use} with QuadraticScalar")
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._operand(other, "arithmetic")
        if o is None:
            return NotImplemented
        (u, v, e), a, b, d = o, self._a, self._b, self._d
        return _make(a * e + u * d, b * e + v * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other, "arithmetic")
        if o is None:
            return NotImplemented
        (u, v, e), a, b, d = o, self._a, self._b, self._d
        return _make(a * e - u * d, b * e - v * d, d * e)

    def __rsub__(self, other):
        o = self._operand(other, "arithmetic")
        if o is None:
            return NotImplemented
        (u, v, e), a, b, d = o, self._a, self._b, self._d
        return _make(u * d - a * e, v * d - b * e, d * e)

    def __mul__(self, other):
        o = self._operand(other, "arithmetic")
        if o is None:
            return NotImplemented
        (u, v, e), a, b, d = o, self._a, self._b, self._d
        return _make(a * u + 3 * b * v, a * v + b * u, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other, "arithmetic")
        if o is None:
            return NotImplemented
        (u, v, e), a, b, d = o, self._a, self._b, self._d
        if v == 0:  # u == 0 gives d*u == 0: _make raises ZeroDivisionError
            return _make(a * e, b * e, d * u)
        # times the conjugate over the norm u^2 - 3 v^2, nonzero as sqrt(3) is irrational
        return _make(e * (a * u - 3 * b * v), e * (b * u - a * v), d * (u * u - 3 * v * v))

    def __rtruediv__(self, other):
        o = self._operand(other, "arithmetic")
        if o is None:
            return NotImplemented
        return _make(*o) / self

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
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- ordering ----------------------------------------------------------

    def _sign(self) -> int:
        return _pair_sign(self._a, self._b)

    def _cmp(self, other) -> Optional[int]:
        # the sign of the difference times the positive d*e, in integers
        o = self._operand(other, "comparison")
        if o is None:
            return None
        (u, v, e), a, b, d = o, self._a, self._b, self._d
        return _pair_sign(a * e - u * d, b * e - v * d)

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
        return hash(self.p) if self._b == 0 else hash((self.p, self.q))

    # -- conversions -------------------------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(3.0)

    def __floor__(self) -> int:
        return _surd_floor(self._a, self._b, self._d)

    def __ceil__(self) -> int:
        return -_surd_floor(-self._a, -self._b, self._d)

    def __repr__(self):
        return f"QuadraticScalar({self.p}, {self.q})"

    def __str__(self):
        if self._b == 0:
            return str(self.p)
        sign = "+" if self._b > 0 else "-"
        return f"{self.p} {sign} {abs(self.q)}*sqrt(3)"


# the slots' own setters, since QuadraticScalar.__setattr__ refuses every write
_SET_A, _SET_B, _SET_D = [
    slot.__set__ for slot in (QuadraticScalar._a, QuadraticScalar._b, QuadraticScalar._d)
]
_NEW = object.__new__


def _make(a: int, b: int, d: int) -> QuadraticScalar:
    """The ``QuadraticScalar`` ``(a + b*sqrt(3))/d`` for integers, ``d``
    nonzero: the sign moved onto ``a`` and ``b`` and the triple divided by
    its gcd.  ``d == 0`` raises ZeroDivisionError."""
    if d <= 0:
        if d == 0:
            raise ZeroDivisionError("QuadraticScalar division by zero")
        a, b, d = -a, -b, -d
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _NEW(QuadraticScalar)
    _SET_A(x, a)
    _SET_B(x, b)
    _SET_D(x, d)
    return x


SQRT3 = QuadraticScalar(0, 1)


def _triples(values, what: str = "value") -> list:
    """Each of ``values`` as the integers ``(a, b, d)``, ``d > 0``, with
    ``value == (a + b*sqrt(3))/d``: a ``QuadraticScalar``'s own triple, else
    ``(numerator, 0, denominator)`` of an int or ``Fraction``.  A float
    raises ``_exact``'s TypeError, naming ``what``, checked only once it has
    turned out to have no denominator."""
    try:
        return [
            (v._a, v._b, v._d) if isinstance(v, QuadraticScalar) else (v.numerator, 0, v.denominator)
            for v in values
        ]
    except AttributeError:  # a float has no denominator: refuse it as _exact does
        for v in values:
            _exact(v, what)
        raise


def _scaled_pairs(values, what: str = "value"):
    """``(d, pairs)``: the lcm ``d`` of the denominators of ``values``
    (``_triples``, which names a float ``what``), and each value as the
    integers ``(a, b)`` with ``value == (a + b*sqrt(3))/d``, in order."""
    triples = _triples(values, what)
    d = math.lcm(*[e for _, _, e in triples])
    return d, [(a * f, b * f) for a, b, e in triples for f in [d // e]]


def _pair_scalar(a: int, b: int, d: int):
    """``(a + b*sqrt(3))/d``: a ``Fraction`` when ``b == 0``, else a ``QuadraticScalar``."""
    return _make(a, b, d) if b else Fraction(a, d)


def _rational_ints(d: int, pairs, what: str = "location") -> list:
    """The ``a`` of each integer pair ``(a, b)`` over ``d``; the first with
    ``b != 0`` raises TypeError, naming ``what`` and the value it stands for."""
    for a, b in pairs:
        if b:
            raise TypeError(f"{what} must be rational, got {_pair_scalar(a, b, d)!r}")
    return [a for a, _ in pairs]


def _scalar_like(values, a: int, b: int, d: int):
    """``(a + b*sqrt(3))/d`` in the type that exact arithmetic on ``values``
    gives: a ``Fraction`` unless some value is a ``QuadraticScalar``, then
    one, even when ``b == 0``."""
    if any(isinstance(v, QuadraticScalar) for v in values):
        return _make(a, b, d)
    return Fraction(a, d)


def _pairs_sum(values, d, pairs):
    """``sum(values, Fraction(0))`` from one integer pair ``(a, b)`` per
    value, with ``value == (a + b*sqrt(3))/d``: a ``Fraction`` (0 when
    empty) unless some value is a ``QuadraticScalar`` (``_scalar_like``)."""
    return _scalar_like(values, sum([x for x, _ in pairs]), sum([y for _, y in pairs]), d)


def _common_scale(d: int, pts, values):
    """``(f, pts, pairs)``: the motion ``pts``, breakpoints ``(time,
    position)`` in integer pairs over ``d``, and ``values``
    (``_scaled_pairs``) brought to one denominator ``f``, their lcm.
    ``pts`` comes back as a new list, so the caller's is untouched when the
    result is cut in place (``_cut``)."""
    e, pairs = _scaled_pairs(values)
    f = math.lcm(d, e)
    g, h = f // d, f // e
    if g > 1:
        pts = [((ta * g, tb * g), (pa * g, pb * g)) for (ta, tb), (pa, pb) in pts]
    else:
        pts = list(pts)
    return f, pts, [(a * h, b * h) for a, b in pairs]


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


def _segment_at(pts, time) -> int:
    """The index of the last breakpoint ``(time, position)`` of ``pts`` at or
    before ``time`` (0 when none is), all integer pairs over one ``d``: the
    segment under way then.  It scans back from the end, where most reads fall."""
    (ca, cb), k = time, len(pts) - 1
    while k and _pair_sign(pts[k][0][0] - ca, pts[k][0][1] - cb) > 0:
        k -= 1
    return k


def _cut(pts, time) -> None:
    """Cut the motion ``pts`` (integer pairs, unit-speed moves or waits) at
    ``time`` and park it there, in place: the breakpoints up to the segment
    under way (``_segment_at``) stay, then unless one is at ``time`` the
    position that segment has reached."""
    k = _segment_at(pts, time)
    (ca, cb), ((ta, tb), (pa, pb)) = time, pts[k]
    if k + 1 < len(pts):
        s = _pair_sign(pts[k + 1][1][0] - pa, pts[k + 1][1][1] - pb)
        pa, pb = pa + s * (ca - ta), pb + s * (cb - tb)
    del pts[k + 1 :]
    if _pair_sign(ca - ta, cb - tb) > 0:
        pts.append((time, (pa, pb)))


def _pair_visit(pts, x, not_before):
    """The first time at or after ``not_before`` at which the motion ``pts``
    is at ``x``: the one crossing rule, in integer pairs.

    ``pts`` are the breakpoints ``(time, position)`` from the start, with the
    server parked after the last one; every value, ``x`` and ``not_before``
    included, is a pair ``(a, b)`` meaning ``(a + b*sqrt(3))/d`` over one
    ``d``.  The scan starts on the segment under way at ``not_before``
    (``_segment_at``).  Returns None when the motion is not at ``x`` from
    then on, else ``(k, t)``: the visit is on the segment from breakpoint
    ``k``, the parked tail when ``k`` is the last, at time ``t``.  ``t`` is
    None for ``not_before`` itself (a wait at ``x`` under way then), else a
    pair over ``d``: the breakpoint's own time on a wait or the tail, the
    crossing ``start + |x - p|`` on a move from ``p``.  A move that crosses
    ``x`` must run at unit speed, else ValueError."""
    (xa, xb), (na, nb), last = x, not_before, len(pts) - 1
    for k in range(_segment_at(pts, not_before), last + 1):
        (ta, tb), (pa, pb) = pts[k]
        if k == last or pts[k + 1][1] == (pa, pb):  # the parked tail, or a wait
            if (pa, pb) == (xa, xb):
                return k, ((ta, tb) if _pair_sign(ta - na, tb - nb) >= 0 else None)
            continue
        (ua, ub), (qa, qb) = pts[k + 1]
        if _pair_sign(xa - pa, xb - pb) * _pair_sign(xa - qa, xb - qb) > 0:
            continue  # x is not between the ends
        s = _pair_sign(qa - pa, qb - pb)
        if (s * (qa - pa), s * (qb - pb)) != (ua - ta, ub - tb):
            raise ValueError("the crossing rule needs every move at unit speed")
        a, b = ta + s * (xa - pa), tb + s * (xb - pb)
        if _pair_sign(a - na, b - nb) >= 0:
            return k, (a, b)
    return None


@dataclass(frozen=True)
class Trajectory:
    """Server motion, as (time, position) breakpoints.

    Starts at (0, 0); breakpoint times strictly increase; between two
    breakpoints the server waits or moves at unit speed, as the one server
    of the model does (a slower move is never needed: moving at full speed
    and then waiting reaches every point on the way no later).  After the
    final breakpoint the server parks at the final position forever.  The
    constructor checks the breakpoints a caller gives; the queries read
    them as integer pairs, scaled on first use: ``position_at`` and
    ``truncated`` cut them (``_cut``), ``first_service_time`` runs the
    crossing rule on them (``_pair_visit``).
    """

    breakpoints: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = tuple([(_exact(t, "time"), _exact(p, "position")) for t, p in self.breakpoints])
        for (ta, pa), (tb, pb) in zip(pts, pts[1:]):
            if tb <= ta:
                raise ValueError("breakpoint times must strictly increase")
            if pb != pa and abs(pb - pa) != tb - ta:
                raise ValueError("the server waits or moves at unit speed between breakpoints")
        object.__setattr__(self, "breakpoints", pts)
        if not pts:
            raise ValueError("trajectory needs at least one breakpoint")
        if pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("trajectory must start at the origin at time 0")

    @classmethod
    def _unchecked(cls, pts, d=None) -> "Trajectory":
        """A trajectory of breakpoints already checked or valid by
        construction; with ``d``, ``pts`` are integer pairs over ``d``, each
        converted back once (``_pair_scalar``)."""
        if d is not None:
            pts = tuple([(_pair_scalar(*t, d), _pair_scalar(*p, d)) for t, p in pts])
        traj = object.__new__(cls)
        object.__setattr__(traj, "breakpoints", pts)
        return traj

    @cached_property
    def _pairs(self):
        """``(d, pts)``: the breakpoints as integer pairs ``(a, b)``, meaning
        ``(a + b*sqrt(3))/d`` over one ``d`` (``_scaled_pairs``)."""
        d, flat = _scaled_pairs([v for bp in self.breakpoints for v in bp])
        return d, list(zip(flat[::2], flat[1::2]))

    @property
    def end_time(self) -> Fraction:
        return self.breakpoints[-1][0]

    def _cut_at(self, t, what: str):
        """``(f, pts)``: the breakpoints' pairs cut at ``t >= 0`` (``_cut``), over ``f``."""
        t = _exact(t, what)
        if t < 0:
            raise ValueError(f"{what} must be nonnegative")
        f, pts, [cut] = _common_scale(*self._pairs, [t])
        _cut(pts, cut)
        return f, pts

    def position_at(self, t) -> Fraction:
        """Exact server position at time ``t >= 0``: where the motion cut there parks."""
        f, pts = self._cut_at(t, "time")
        return _pair_scalar(*pts[-1][1], f)

    def first_service_time(self, loc, not_before=0) -> Optional[Fraction]:
        """Earliest t >= not_before with position_at(t) == loc, or None.

        The crossing rule (``_pair_visit``) runs on the breakpoints' pairs,
        brought with ``loc`` and ``not_before`` to one denominator
        (``_common_scale``).  The time comes back as a breakpoint's own time,
        ``not_before`` itself, or a crossing on a move, in the type ``ta +
        abs(loc - pa)`` gives (``_scalar_like``).
        """
        f, pts, [x, start] = _common_scale(*self._pairs, [loc, not_before])
        found = _pair_visit(pts, x, start)
        if found is None:
            return None
        k, t = found
        if t is None:
            return not_before
        ta, pa = self.breakpoints[k]
        if k + 1 < len(pts) and pts[k + 1][1] != pts[k][1]:  # a crossing on a move
            return _scalar_like((pa, ta, loc), *t, f)
        return ta

    def truncated(self, t_end) -> "Trajectory":
        """The same motion cut off (and parked) at time ``t_end``."""
        f, pts = self._cut_at(t_end, "cut-off time")
        return Trajectory._unchecked(pts, f)


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
