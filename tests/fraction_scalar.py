"""The Q[sqrt(3)] scalar as two ``Fraction`` parts, as a reference for ``core.QuadraticScalar``.

``QuadraticScalar`` keeps one integer triple ``(a + b*sqrt(3))/d`` in
lowest terms and does every operation by integer cross products.  This
class keeps the two rational parts ``p + q*sqrt(3)`` and lets ``Fraction``
do the arithmetic, as the scalar was written before the triple form; only
the sign of a pair of rationals (``core._pair_sign``) and the floor of a
surd over an integer (``core._surd_floor``) come from ``core``, each tested
on its own.  Tests compare the two operation by operation.
"""

import math
from fractions import Fraction
from typing import Optional

from linetrp.core import _pair_sign, _surd_floor


class FractionScalar:
    """Exact element p + q*sqrt(3) of Q[sqrt(3)], two ``Fraction`` parts."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        if type(p) is not Fraction:
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
        return FractionScalar, (self.p, self.q)

    @staticmethod
    def _coerce(other) -> "FractionScalar":
        if isinstance(other, FractionScalar):
            return other
        if isinstance(other, float):
            raise TypeError("refusing float arithmetic with QuadraticScalar")
        if isinstance(other, (int, Fraction)):
            return FractionScalar(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionScalar(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionScalar(self.p - o.p, self.q - o.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionScalar(o.p - self.p, o.q - self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionScalar(self.p * o.p + 3 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.q == 0:
            return FractionScalar(self.p / o.p, self.q / o.p)
        # p^2 == 3 q^2 has no rational solution with q != 0, so d != 0
        d = o.p * o.p - 3 * o.q * o.q
        return FractionScalar(
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
        out = FractionScalar(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __neg__(self):
        return FractionScalar(-self.p, -self.q)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if _pair_sign(self.p, self.q) < 0 else self

    def _cmp(self, other) -> Optional[int]:
        if isinstance(other, FractionScalar):
            u, v = other.p, other.q
        elif isinstance(other, (int, Fraction)):
            u, v = other, 0
        elif isinstance(other, float):
            raise TypeError("refusing float comparison with QuadraticScalar")
        else:
            return None
        return _pair_sign(self.p - u, self.q - v)

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

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(3.0)

    def __floor__(self) -> int:
        p, q = self.p, self.q
        d = math.lcm(p.denominator, q.denominator)
        return _surd_floor(p.numerator * (d // p.denominator), q.numerator * (d // q.denominator), d)

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def __repr__(self):
        return f"QuadraticScalar({self.p}, {self.q})"

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        sign = "+" if self.q > 0 else "-"
        return f"{self.p} {sign} {abs(self.q)}*sqrt(3)"
