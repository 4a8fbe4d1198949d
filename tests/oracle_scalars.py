"""FROZEN scalar oracle: the Gaussian-rational class the engine used to carry.

This module keeps, verbatim, the ``scalars`` module as it was when every
``GaussianRational`` held two ``fractions.Fraction`` parts and every
arithmetic result went back through ``parse_rational``.  The integer-triple
class in ``kuranishi.scalars`` replaced it; the test suite compares the two
on arithmetic, equality, hashing, display and the wire form.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "GaussianRational",
    "parse_rational",
    "format_rational",
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


def format_rational(value: Fraction) -> Union[int, str]:
    """Serialize a rational as an int when integral, else a ``"p/q"`` string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


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

    Instances are immutable and hashable.  Arithmetic accepts ints,
    ``Fraction`` values, and other :class:`GaussianRational` operands.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        object.__setattr__(self, "re", parse_rational(re))
        object.__setattr__(self, "im", parse_rational(im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def coerce(cls, value: "GaussianRational | RationalLike") -> "GaussianRational":
        """Coerce an int, Fraction, or ``"p/q"`` string to a scalar."""
        if isinstance(value, GaussianRational):
            return value
        return cls(value)

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

    def to_json(self) -> object:
        """Serialize: int/``"p/q"`` when real, else a ``[re, im]`` pair."""
        if self.im == 0:
            return format_rational(self.re)
        return [format_rational(self.re), format_rational(self.im)]

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def scale(self, c: "GaussianRational | RationalLike") -> "GaussianRational":
        """Multiply by a scalar; mirrors ``MultiPoly.scale`` so vector code
        can treat scalar-valued and polynomial-valued coordinates alike."""
        return self * GaussianRational.coerce(c)

    def inverse(self) -> "GaussianRational":
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        norm = self.re * self.re + self.im * self.im
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return GaussianRational.coerce(other) * self.inverse()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm ``re**2 + im**2`` (an exact rational)."""
        return self.re * self.re + self.im * self.im

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
        if self.im == 0:
            root = rational_sqrt(self.re)
            if root is not None:
                return GaussianRational(root)
            root = rational_sqrt(-self.re)
            if root is not None:
                return GaussianRational(0, root)
            return None
        r = rational_sqrt(self.norm())
        if r is None:
            return None
        c_sq = (self.re + r) / 2
        c = rational_sqrt(c_sq)
        if c is None or c == 0:
            return None
        d = self.im / (2 * c)
        root = GaussianRational(c, d)
        assert root * root == self
        return root

    # -- hashing / comparison -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{_imag_str(self.im)}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


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
