"""Exactness and field-law tests for Gaussian-rational scalars."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_scalars
from kuranishi.scalars import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    parse_rational,
    rational_sqrt,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(lambda z: not z.is_zero())


# -- parsing / serialization -------------------------------------------------


def test_parse_rational_accepts_exact_forms() -> None:
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(Fraction(2, 4)) == Fraction(1, 2)


@pytest.mark.parametrize("bad", [0.5, "0.5", "1e-3", "1/0", "", "a/b", None, True])
def test_parse_rational_rejects_inexact_or_malformed(bad: object) -> None:
    with pytest.raises(ValueError):
        parse_rational(bad)  # type: ignore[arg-type]


def test_float_rejection_message_shows_exact_form() -> None:
    with pytest.raises(ValueError, match="1/2"):
        parse_rational(0.5)


@given(scalars)
@settings(max_examples=60)
def test_json_round_trip(z: GaussianRational) -> None:
    wire = oracle_scalars.GaussianRational(z.re, z.im).to_json()
    assert GaussianRational.from_json(wire) == z


def test_from_json_forms() -> None:
    assert GaussianRational.from_json(2) == GaussianRational(2)
    assert GaussianRational.from_json("1/2") == GaussianRational("1/2")
    assert GaussianRational.from_json([0, "1/3"]) == GaussianRational(0, "1/3")
    with pytest.raises(ValueError):
        GaussianRational.from_json([1, 2, 3])
    with pytest.raises(ValueError):
        GaussianRational.from_json(0.25)
    with pytest.raises(ValueError):
        GaussianRational.from_json([0.5, 1])


# -- field laws --------------------------------------------------------------


@given(scalars, scalars, scalars)
@settings(max_examples=60)
def test_ring_laws(a: GaussianRational, b: GaussianRational, c: GaussianRational) -> None:
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(nonzero_scalars)
@settings(max_examples=60)
def test_multiplicative_inverse(z: GaussianRational) -> None:
    assert z * z.inverse() == ONE
    assert (ONE / z) * z == ONE


@given(scalars, nonzero_scalars)
@settings(max_examples=60)
def test_division_is_exact(a: GaussianRational, b: GaussianRational) -> None:
    assert (a / b) * b == a


@given(scalars)
@settings(max_examples=60)
def test_conjugation_and_norm(z: GaussianRational) -> None:
    assert z.conjugate().conjugate() == z
    n = z * z.conjugate()
    assert n.im == 0
    assert n.re == z.norm()


def test_imaginary_unit() -> None:
    assert I * I == -ONE
    assert I.conjugate() == -I


def test_exactness_no_drift() -> None:
    third = GaussianRational("1/3")
    total = ZERO
    for _ in range(3000):
        total = total + third
    assert total == GaussianRational(1000)


def test_immutability_and_hash() -> None:
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(5)  # type: ignore[misc]
    for slot in ("_a", "_b", "_d"):
        with pytest.raises(AttributeError):
            setattr(z, slot, 7)
    assert (z._a, z._b, z._d) == (1, 2, 1)
    assert hash(GaussianRational(1, 2)) == hash(z)
    assert len({GaussianRational(1), GaussianRational(1, 0), ONE}) == 1
    # An integral triple hashes as its integer parts, like (re, im) does.
    assert hash(GaussianRational(3, -4)) == hash((3, -4)) == hash((Fraction(3), Fraction(-4)))

    x, y = GaussianRational("1/6", "1/3"), GaussianRational("5/6", "-1/3")
    assert x._d == y._d == 6
    fast_paths = {
        "zero shortcut, sum": x + ZERO,
        "zero shortcut, sum from zero": ZERO + x,
        "zero shortcut, difference": x - ZERO,
        "zero shortcut, difference from zero": ZERO - x,
        "zero shortcut, product": x * ZERO,
        "zero shortcut, product by zero": ZERO * x,
        "equal denominators, sum": x + y,
        "equal denominators, difference": x - y,
        "equal denominators, cancellation": x - x,
        "integral, sum": GaussianRational(2, 1) + GaussianRational(-2, 3),
        "integral, product": GaussianRational(2, 1) * I,
        "neg": -x,
        "conjugate": x.conjugate(),
        "neg of integral": -GaussianRational(0, 5),
    }
    for label, r in fast_paths.items():
        assert r._d > 0 and math.gcd(r._a, r._b, r._d) == 1, label
    assert fast_paths["equal denominators, sum"] == ONE
    assert fast_paths["equal denominators, cancellation"] == ZERO
    assert fast_paths["zero shortcut, product"] is ZERO


def test_triple_is_the_normalised_triple() -> None:
    assert GaussianRational("1/2", "3/4").triple == (2, 3, 4)
    assert GaussianRational("-2/6", 0).triple == (-1, 0, 3)
    assert ZERO.triple == (0, 0, 1)
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.triple = (1, 0, 1)  # type: ignore[misc]


# -- square roots -------------------------------------------------------------


def test_rational_sqrt_examples() -> None:
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == Fraction(0)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


@given(scalars)
@settings(max_examples=80)
def test_square_then_sqrt_round_trip(z: GaussianRational) -> None:
    root = (z * z).sqrt()
    assert root is not None
    assert root * root == z * z


def test_sqrt_examples() -> None:
    assert GaussianRational(0, 2).sqrt() == GaussianRational(1, 1)
    assert GaussianRational(-4).sqrt() == GaussianRational(0, 2)
    assert GaussianRational("9/4").sqrt() == GaussianRational("3/2")
    assert GaussianRational(2).sqrt() is None
    assert GaussianRational(0, 1).sqrt() is None  # i is not a square in Q(i)
    assert GaussianRational(3, 4).sqrt() == GaussianRational(2, 1)


def test_sqrt_self_check_raises_runtime_error(monkeypatch) -> None:
    # A wrong rational square root makes the candidate root square to
    # something else; the check must raise, not assert.
    monkeypatch.setattr("kuranishi.scalars.rational_sqrt", lambda value: Fraction(1))
    with pytest.raises(RuntimeError, match="square root"):
        GaussianRational(3, 4).sqrt()


def test_str_forms() -> None:
    assert str(GaussianRational("1/2", "-3/4")) == "1/2-3/4*i"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(5)) == "5"
