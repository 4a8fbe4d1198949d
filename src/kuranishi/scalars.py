"""Exact arithmetic over the field of Gaussian rationals.

Every scalar in this package is a :class:`GaussianRational`: a complex number
``(a + b*i)/d`` held as three Python integers, normalised so that ``d > 0``
and ``gcd(a, b, d) == 1``.  Each value has exactly one normalised triple, so
equality compares triples.  Arithmetic works on the integers and builds its
result through one private constructor, ``_make``, which parses nothing and
takes a gcd only when ``d != 1`` (with ``d == 1`` the triple is already
normalised).  Negation and conjugation only change a sign, which keeps a
triple normalised, so they take no gcd at all.  Scalar operands skip
coercion, sums over one denominator add the numerators directly, and a zero
operand returns the other operand (sum) or the shared ``ZERO`` (product),
which is safe because values are immutable.  Only the public constructor
parses its arguments.  The parts ``re`` and ``im`` are exact
``fractions.Fraction`` values computed on demand; ``triple`` hands the
normalised integers to code that runs its own integer arithmetic, and
``from_triple`` takes its results back through ``_make``.
Display and the hash are those of the pair ``(re, im)``; an integral
triple hashes as ``(a, b)``, the same value, since an int and the equal
``Fraction`` hash alike.

No floating point is ever used; constructing a scalar from a float raises,
and the text form keeps numerator/denominator form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "GaussianRational",
    "parse_rational",
    "rational_sqrt",
    "ZERO",
    "ONE",
    "I",
]


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or ``"p/q"`` string.

    Floats (and strings containing ``.`` or exponents) are rejected: inputs
    must be exact, e.g. ``"1/2"`` rather than ``0.5``.
    """
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(
            f"floating-point value {value!r} is not exact; "
            'write it as a ratio of integers such as "1/2"'
        )
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ValueError("empty string is not a rational")
        if any(ch in text for ch in ".eE"):
            raise ValueError(
                f"{value!r} looks like a floating-point literal; "
                'write an exact ratio of integers such as "1/2"'
            )
        num, sep, den = text.partition("/")
        try:
            if sep:
                return Fraction(int(num), int(den))
            return Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {value!r}: {exc}") from None
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Return the nonnegative exact square root of ``value``, or None.

    ``Fraction`` keeps numerator and denominator coprime, so ``value`` is a
    square in the rationals exactly when both are perfect squares.
    """
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


class GaussianRational:
    """An exact element of the field of Gaussian rationals.

    Held as integers ``(a, b, d)`` standing for ``(a + b*i)/d``, normalised
    so that ``d > 0`` and ``gcd(a, b, d) == 1``; every value has exactly one
    such triple, so equality compares triples.  Instances are immutable and
    hashable.  Arithmetic accepts ints, ``Fraction`` values, ``"p/q"``
    strings and other :class:`GaussianRational` operands.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        x = parse_rational(re)
        y = parse_rational(im)
        p, q = x.denominator, y.denominator
        # Both parts are in lowest terms, so gcd(a, b, lcm(p, q)) == 1.
        d = math.lcm(p, q)
        _set_a(self, x.numerator * (d // p))
        _set_b(self, y.numerator * (d // q))
        _set_d(self, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> tuple[int, int, int]:
        """The normalised triple ``(a, b, d)``: the value is ``(a + b*i)/d``."""
        return self._a, self._b, self._d

    # -- construction -------------------------------------------------

    @classmethod
    def coerce(cls, value: "GaussianRational | RationalLike") -> "GaussianRational":
        """Coerce an int, Fraction, or ``"p/q"`` string to a scalar."""
        if isinstance(value, GaussianRational):
            return value
        return cls(value)

    @classmethod
    def from_triple(cls, a: int, b: int, d: int) -> "GaussianRational":
        """The scalar ``(a + b*i)/d`` of ints ``a``, ``b`` and ``d > 0``,
        normalised by one gcd: the constructor for code that runs its own
        integer arithmetic and hands back a triple."""
        if d <= 0:
            raise ValueError(f"denominator {d} is not positive")
        return _make(a, b, d)

    @classmethod
    def from_json(cls, value: object) -> "GaussianRational":
        """Parse the wire form: an int/``"p/q"`` real, or a ``[re, im]`` pair."""
        if isinstance(value, list):
            if len(value) != 2:
                raise ValueError(
                    f"complex scalar must be a [re, im] pair, got {value!r}"
                )
            return cls(_json_rational(value[0]), _json_rational(value[1]))
        return cls(_json_rational(value))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    def is_real(self) -> bool:
        return self._b == 0

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        c, e = o._a, o._b
        if not (c or e):
            return self
        a, b = self._a, self._b
        if not (a or b):
            return o
        d, f = self._d, o._d
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _raw(-self._a, -self._b, self._d)

    def __sub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        c, e = o._a, o._b
        if not (c or e):
            return self
        a, b = self._a, self._b
        if not (a or b):
            return _raw(-c, -e, o._d)
        d, f = self._d, o._d
        if d == f:
            return _make(a - c, b - e, d)
        return _make(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        a, b, c, e = self._a, self._b, o._a, o._b
        if not (a or b) or not (c or e):
            return ZERO
        return _make(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if a == 0 and b == 0:
            raise ZeroDivisionError("division by zero scalar")
        # d/(a + b*i) = d*(a - b*i)/(a**2 + b**2)
        return _make(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return GaussianRational.coerce(other) * self.inverse()

    def conjugate(self) -> "GaussianRational":
        return _raw(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """The field norm ``re**2 + im**2`` (an exact rational)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def sqrt(self) -> "GaussianRational | None":
        """An exact square root in the same field, or None if none exists.

        For ``z = a + b*i`` with ``b != 0``: ``z`` is a square exactly when its
        norm ``a**2 + b**2`` is a rational square ``r**2`` and ``(a + r)/2`` is
        a rational square ``c**2``; then ``z = (c + (b/(2c)) * i)**2``.  The
        root returned is normalized to have positive real part when possible,
        else nonnegative imaginary part.
        """
        if self.is_zero():
            return GaussianRational(0)
        re, im = self.re, self.im
        if im == 0:
            root = rational_sqrt(re)
            if root is not None:
                return GaussianRational(root)
            root = rational_sqrt(-re)
            if root is not None:
                return GaussianRational(0, root)
            return None
        r = rational_sqrt(self.norm())
        if r is None:
            return None
        c = rational_sqrt((re + r) / 2)
        if c is None or c == 0:
            return None
        root = GaussianRational(c, im / (2 * c))
        if root * root != self:
            raise RuntimeError(f"square root check failed: ({root})**2 != {self}")
        return root

    # -- hashing / comparison -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            # With b == 0 normalisation leaves a/d in lowest terms.
            return (
                self._b == 0
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self._d == 1:
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{_imag_str(im)}"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{_imag_str(abs(im))}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


# The slot descriptors' setters write the slots below the ``__setattr__``
# that keeps instances immutable.
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """The scalar of a triple that is already normalised; no gcd."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The scalar ``(a + b*i)/d`` for ``d > 0``, normalised by one gcd.

    The private constructor of every arithmetic result: it parses nothing,
    and with ``d == 1`` the triple is normalised already, so no gcd is taken.
    """
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _raw(a, b, d)


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


def _json_rational(value: object) -> Fraction:
    if isinstance(value, float):
        raise ValueError(
            f"floating-point value {value!r} is not exact; "
            'write it as a ratio of integers such as "1/2"'
        )
    if isinstance(value, (int, str)):
        return parse_rational(value)
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
