"""The integer-triple scalar against the frozen two-Fraction oracle.

``tests/oracle_scalars.py`` keeps the class that held each part as a
``Fraction``.  Every operation here runs on both, from the same exact
inputs, and must give the same value, the same equality and hash and the
same text, and the oracle's wire form must parse to the same value in both
classes; results are also compared with ``==`` after rebuilding the
oracle's answer in the new class, which sees a triple that is not
normalised.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_scalars as old
from kuranishi import scalars as new

rationals = st.one_of(
    st.integers(min_value=-40, max_value=40).map(Fraction),
    st.builds(
        Fraction,
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=1, max_value=36),
    ),
)
parts = st.tuples(rationals, rationals)
plain_operands = st.one_of(
    st.integers(min_value=-12, max_value=12),
    rationals,
    rationals.map(lambda q: f"{q.numerator}/{q.denominator}"),
)

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


def pair(p: tuple[Fraction, Fraction]) -> tuple[new.GaussianRational, old.GaussianRational]:
    return new.GaussianRational(*p), old.GaussianRational(*p)


def assert_same(mine: object, theirs: object) -> None:
    """``mine`` (new class) and ``theirs`` (oracle) are the same scalar."""
    assert type(mine) is new.GaussianRational
    assert type(theirs) is old.GaussianRational
    assert (mine.re, mine.im) == (theirs.re, theirs.im)
    assert type(mine.re) is Fraction and type(mine.im) is Fraction
    assert mine == new.GaussianRational(theirs.re, theirs.im)
    assert hash(mine) == hash(theirs)
    assert str(mine) == str(theirs)
    assert repr(mine) == repr(theirs)


def outcome(fn, *args):
    try:
        return fn(*args), None
    except ZeroDivisionError as exc:
        return None, type(exc)


@given(parts, parts)
@settings(max_examples=150, deadline=None)
def test_binary_arithmetic_matches_the_oracle(p: tuple, q: tuple) -> None:
    (x, ox), (y, oy) = pair(p), pair(q)
    for op in BINARY:
        mine, mine_exc = outcome(op, x, y)
        theirs, their_exc = outcome(op, ox, oy)
        assert mine_exc is their_exc
        if theirs is not None:
            assert_same(mine, theirs)


@given(parts, plain_operands)
@settings(max_examples=150, deadline=None)
def test_mixed_operands_match_the_oracle(p: tuple, c: object) -> None:
    x, ox = pair(p)
    for op in BINARY:
        for args, oargs in (((x, c), (ox, c)), ((c, x), (c, ox))):
            mine, mine_exc = outcome(op, *args)
            theirs, their_exc = outcome(op, *oargs)
            assert mine_exc is their_exc
            if theirs is not None:
                assert_same(mine, theirs)


def _over(d: int) -> st.SearchStrategy:
    part = st.integers(min_value=-30, max_value=30).map(lambda n: Fraction(n, d))
    return st.tuples(part, part)


units = st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]).map(
    lambda p: (Fraction(p[0]), Fraction(p[1]))
)
integral = st.tuples(
    st.integers(min_value=-20, max_value=20).map(Fraction),
    st.integers(min_value=-20, max_value=20).map(Fraction),
)
# The cases the arithmetic shortcuts take: a zero operand, units, integral
# triples (no gcd), one shared denominator, and exact cancellation.
fast_path_pairs = st.one_of(
    st.tuples(units, parts),
    st.tuples(parts, units),
    st.tuples(units, units),
    st.tuples(integral, integral),
    st.tuples(integral, parts),
    st.tuples(parts, integral),
    st.integers(min_value=1, max_value=12).flatmap(lambda d: st.tuples(_over(d), _over(d))),
    parts.map(lambda p: (p, p)),
    parts.map(lambda p: (p, (-p[0], -p[1]))),
)


@given(fast_path_pairs)
@settings(max_examples=300, deadline=None)
def test_fast_paths_match_the_oracle(pq: tuple) -> None:
    (x, ox), (y, oy) = pair(pq[0]), pair(pq[1])
    for op in BINARY:
        mine, mine_exc = outcome(op, x, y)
        theirs, their_exc = outcome(op, ox, oy)
        assert mine_exc is their_exc
        if theirs is not None:
            assert_same(mine, theirs)
    for z, oz in ((x, ox), (y, oy)):
        assert_same(-z, -oz)
        assert_same(z.conjugate(), oz.conjugate())
        assert_same(z + (-z), oz + (-oz))
        assert_same(z - z, oz - oz)
        for c in (0, 1, -1):
            for op in (operator.add, operator.sub, operator.mul):
                assert_same(op(z, c), op(oz, c))
                assert_same(op(c, z), op(c, oz))


@given(parts)
@settings(max_examples=150, deadline=None)
def test_unary_operations_match_the_oracle(p: tuple) -> None:
    x, ox = pair(p)
    assert_same(-x, -ox)
    assert_same(x.conjugate(), ox.conjugate())
    assert x.norm() == ox.norm() and type(x.norm()) is Fraction
    mine, mine_exc = outcome(x.inverse)
    theirs, their_exc = outcome(ox.inverse)
    assert mine_exc is their_exc
    if theirs is not None:
        assert_same(mine, theirs)
    for pred in ("is_zero", "is_one", "is_real"):
        assert getattr(x, pred)() == getattr(ox, pred)()
    assert bool(x) == bool(ox)


@given(parts)
@settings(max_examples=150, deadline=None)
def test_sqrt_matches_the_oracle(p: tuple) -> None:
    x, ox = pair(p)
    square, osquare = x * x, ox * ox
    for mine, theirs in ((x.sqrt(), ox.sqrt()), (square.sqrt(), osquare.sqrt())):
        assert (mine is None) == (theirs is None)
        if theirs is not None:
            assert_same(mine, theirs)
    negated = (-square).sqrt()
    assert (negated is None) == ((-osquare).sqrt() is None)
    if negated is not None:
        assert_same(negated, (-osquare).sqrt())


@pytest.mark.parametrize(
    "p",
    [(0, 0), (4, 0), (-9, 0), (2, 0), (0, 2), (0, 1), (3, 4), (Fraction(9, 4), 0),
     (Fraction(-1, 4), 0), (1, 1), (0, Fraction(-1, 2))],
)
def test_sqrt_examples_match_the_oracle(p: tuple) -> None:
    x, ox = pair(p)
    mine, theirs = x.sqrt(), ox.sqrt()
    assert (mine is None) == (theirs is None)
    if theirs is not None:
        assert_same(mine, theirs)


@given(parts, parts, plain_operands)
@settings(max_examples=150, deadline=None)
def test_equality_and_hash_match_the_oracle(p: tuple, q: tuple, c: object) -> None:
    (x, ox), (y, oy) = pair(p), pair(q)
    assert (x == y) == (ox == oy)
    assert (x != y) == (ox != oy)
    # Equal values reached along different arithmetic paths.
    assert ((x + y) - y == x) and ((ox + oy) - oy == ox)
    assert hash((x + y) - y) == hash(x) == hash(ox)
    if y:
        assert (x * y) / y == x
    if isinstance(c, (int, Fraction)):
        assert (x == c) == (ox == c)
        assert (c == x) == (c == ox)
        real, oreal = pair((Fraction(c), Fraction(0)))
        assert real == c and oreal == c
        assert hash(real) == hash(oreal)
    assert (x == str(c)) == (ox == str(c))


@given(parts)
@settings(max_examples=150, deadline=None)
def test_wire_form_matches_the_oracle(p: tuple) -> None:
    x, ox = pair(p)
    wire = ox.to_json()
    assert_same(new.GaussianRational.from_json(wire), old.GaussianRational.from_json(wire))
    assert_same(new.GaussianRational.coerce(p[0]), old.GaussianRational.coerce(p[0]))


def test_zero_division_raises_like_the_oracle() -> None:
    for cls in (new.GaussianRational, old.GaussianRational):
        with pytest.raises(ZeroDivisionError):
            cls(0).inverse()
        with pytest.raises(ZeroDivisionError):
            cls(1, 2) / cls(0)
        with pytest.raises(ZeroDivisionError):
            3 / cls(0)
        with pytest.raises(ZeroDivisionError):
            cls("1/3") / 0


@pytest.mark.parametrize("bad", [0.5, "1e-3", True, "1/0"])
def test_constructor_rejects_like_the_oracle(bad: object) -> None:
    for cls in (new.GaussianRational, old.GaussianRational):
        with pytest.raises(ValueError):
            cls(bad)
        with pytest.raises(ValueError):
            cls(0, bad)
        with pytest.raises(ValueError):
            cls.coerce(bad)
