"""``QuadraticScalar`` against its two-``Fraction`` reference, operation by operation.

The scalar keeps one integer triple ``(a + b*sqrt(3))/d`` in lowest terms
(``core._make``); ``fraction_scalar.FractionScalar`` keeps the rational
parts ``p + q*sqrt(3)`` and lets ``Fraction`` do the arithmetic.  Every
operation, with every kind of operand on either side, must give the same
value, type and text on both, and every scalar the triple form builds must
be in lowest terms with a positive denominator.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from linetrp.core import QuadraticScalar as QS, _make, _pair_scalar, _scaled_pairs

from fraction_scalar import FractionScalar as Ref

small = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
wide = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
parts = st.one_of(small, wide)
# (p, q): a rational value about as often as a surd
pairs = st.tuples(parts, st.one_of(st.just(F(0)), parts))
ints = st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30))
# an operand for either side: an int, a Fraction or a scalar, as (new, reference)
operands = st.one_of(
    ints.map(lambda n: (n, n)),
    parts.map(lambda x: (x, x)),
    pairs.map(lambda pq: (QS(*pq), Ref(*pq))),
)

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


def _in_lowest_terms(x) -> bool:
    return x._d > 0 and math.gcd(x._a, x._b, x._d) == 1


def _same(new, ref) -> None:
    """``new`` is the ``QuadraticScalar`` of the reference's value, in lowest terms."""
    assert type(new) is QS and type(ref) is Ref
    assert (new.p, new.q) == (ref.p, ref.q)
    assert _in_lowest_terms(new)


@given(pairs, operands)
@settings(max_examples=300)
def test_arithmetic_matches_the_reference_both_ways(pq, operand):
    x, r = QS(*pq), Ref(*pq)
    y, s = operand
    for op in BINARY:
        for new_args, ref_args in (((x, y), (r, s)), ((y, x), (s, r))):
            try:
                ref = op(*ref_args)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(*new_args)
                continue
            _same(op(*new_args), ref)


@given(pairs, operands)
@settings(max_examples=200)
def test_comparisons_match_the_reference_both_ways(pq, operand):
    x, r = QS(*pq), Ref(*pq)
    y, s = operand
    for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
        assert op(x, y) is op(r, s)
        assert op(y, x) is op(s, r)


@given(pairs, st.integers(0, 4))
@settings(max_examples=200)
def test_unary_operations_and_conversions_match_the_reference(pq, exponent):
    x, r = QS(*pq), Ref(*pq)
    _same(x, r)
    _same(-x, -r)
    _same(abs(x), abs(r))
    _same(x**exponent, r**exponent)
    assert +x is x
    assert math.floor(x) == math.floor(r) and type(math.floor(x)) is int
    assert math.ceil(x) == math.ceil(r) and type(math.ceil(x)) is int
    assert math.floor(x) <= x < math.floor(x) + 1
    assert float(x) == float(r)
    assert (str(x), repr(x)) == (str(r), repr(r))
    assert hash(x) == hash(r)
    assert bool(x) is bool(r)
    if pq[1] == 0:  # a rational value is its Fraction: equal, and equal in hash
        assert x == pq[0] and pq[0] == x and hash(x) == hash(pq[0])


@given(pairs)
@settings(max_examples=200)
def test_pickle_deepcopy_and_reduce_match_the_reference(pq):
    x = QS(*pq)
    assert x.__reduce__() == (QS, pq)
    assert all(type(part) is F for part in x.__reduce__()[1])
    for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(clone) is QS and clone == x
        assert (clone._a, clone._b, clone._d) == (x._a, x._b, x._d)
    with pytest.raises(AttributeError):
        x._a = 1


@given(pairs, st.sampled_from([(0, 0), (F(0), F(0)), (QS(0), Ref(0))]))
def test_a_zero_divisor_raises_as_the_reference_does(pq, zeros):
    for x, zero in zip((QS(*pq), Ref(*pq)), zeros):
        with pytest.raises(ZeroDivisionError):
            x / zero
        for numerator in (1, F(1, 2)):
            with pytest.raises(ZeroDivisionError):
                numerator / (x * 0)


@given(pairs)
@settings(max_examples=100)
def test_a_float_raises_type_error_in_every_operation(pq):
    x = QS(*pq)
    for op in BINARY + [operator.lt, operator.le, operator.gt, operator.ge, operator.eq]:
        with pytest.raises(TypeError):
            op(x, 0.5)
        with pytest.raises(TypeError):
            op(0.5, x)
    for bad in ((0.5,), (1, 0.5)):
        with pytest.raises(TypeError):
            QS(*bad)


@given(ints, ints, st.one_of(st.integers(1, 10**6), st.integers(-(10**6), -1)))
@settings(max_examples=300)
def test_a_made_scalar_is_in_lowest_terms_and_round_trips_through_pairs(a, b, d):
    x = _make(a, b, d)
    assert _in_lowest_terms(x)
    assert (x.p, x.q) == (F(a, d), F(b, d))
    value = _pair_scalar(a, b, d)
    assert type(value) is (QS if b else F)
    e, [(u, v)] = _scaled_pairs([value])
    assert _pair_scalar(u, v, e) == value and (u * d, v * d) == (a * e, b * e)
    assert (e, u, v) == ((x._d, x._a, x._b) if b else (value.denominator, value.numerator, 0))


def test_make_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        _make(1, 1, 0)
