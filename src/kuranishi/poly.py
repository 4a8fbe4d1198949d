"""Multivariate polynomials over the Gaussian rationals.

A monomial of a ring in ``n`` variables is one packed int, the format of
Monagan and Pearce's heap division.  With ``W = 16`` bits per field,
exponent ``e_i`` sits in field ``i`` and the degree ``D`` in field ``n``:
``P = D << W*n | sum(e_i << W*i)``.  The top bit of every field is a guard
bit and stays clear, which holds while every degree is below
``DEGREE_LIMIT = 2**15``.  Then

* the product of two monomials is ``a + b``, and the degree of ``P`` is
  ``P >> W*n``, so the largest int of a polynomial has its total degree;
* ``a`` divides ``b`` iff ``((b | G) - a) & G == G``, with ``G`` the guard
  bits: a field keeps its guard bit exactly when ``b``'s exponent there is
  at least ``a``'s, and no field borrows from the next;
* ``((P >> W*n) << (W*n + 1)) - P``, that is ``D << W*n`` minus the
  exponent fields, is the key of graded reverse lexicographic order
  (grevlex): higher total degree first; on equal degree, the monomial whose
  rightmost differing exponent is smaller wins.  Variable precedence is the
  declaration order of the ring;
* the lcm takes each field from the larger operand through a field mask.

:class:`PolyRing` owns the format.  Exponent tuples occur only at its
boundary: ``PolyRing.monomial``, ``PolyRing.from_terms`` and
``MultiPoly.coefficient`` take them, ``PolyRing.exponents`` and ``str``
give them out.  A monomial of degree ``DEGREE_LIMIT`` or more is never
built: exponent tuples of that degree, negative exponents and tuples of the
wrong length raise ``ValueError``, and so do products and powers whose
degree would reach the limit.

Besides ring arithmetic the module provides the exact primitives that the
germ analysis is built on:

* ``poly_matrix_det`` — determinant of a small polynomial matrix,
* ``pure_linear_power`` — is a homogeneous form a scalar times the d-th power
  of a linear form?  (complete smoothness test for hypersurface cones),
* ``quadric_split`` — factor a homogeneous quadric into two linear forms over
  the Gaussian rationals when possible.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import GaussianRational, ONE, ZERO

__all__ = [
    "DEGREE_LIMIT",
    "PolyRing",
    "MultiPoly",
    "divmod_single",
    "poly_matrix_det",
    "pure_linear_power",
    "quadric_split",
]

W = 16  # bits per packed field
DEGREE_LIMIT = 1 << (W - 1)  # the top bit of a field is its guard bit
_FIELD = (1 << W) - 1


def _below_limit(degree: int) -> int:
    """``degree``, checked to be a degree a monomial can have."""
    if degree >= DEGREE_LIMIT:
        raise ValueError(f"monomial degree {degree} is not below the limit {DEGREE_LIMIT}")
    return degree


class PolyRing:
    """A polynomial ring with named variables in fixed declaration order,
    and the packed monomial format of its polynomials."""

    __slots__ = ("variables", "_index", "shift", "low", "ones", "guard", "top")

    def __init__(self, variables: Sequence[str]) -> None:
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.variables: tuple[str, ...] = names
        self._index: dict[str, int] = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.shift = W * n  # where the degree field starts
        self.low = (1 << self.shift) - 1  # the exponent fields
        self.ones = sum(1 << (W * i) for i in range(n))  # 1 in each exponent field
        self.guard = (self.ones | 1 << self.shift) << (W - 1)
        self.top = max(self.shift - W, 0)  # the last exponent field

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"PolyRing({', '.join(self.variables)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no variable {name!r} in {self!r}") from None

    # -- packed monomials --------------------------------------------------

    def pack(self, exps: Sequence[int]) -> int:
        """The monomial with exponent tuple ``exps``."""
        if len(exps) != self.nvars or min(exps, default=0) < 0:
            raise ValueError(f"{tuple(exps)} is not an exponent tuple of {self!r}")
        degree = _below_limit(sum(exps))
        return sum(e << W * i for i, e in enumerate(exps)) | degree << self.shift

    def exponents(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of the monomial ``m``."""
        return tuple(m >> W * i & _FIELD for i in range(self.nvars))

    def variable_monomial(self, k: int) -> int:
        """The monomial of the variable at index ``k``."""
        return 1 << W * k | 1 << self.shift

    def key(self, m: int) -> int:
        """The grevlex key: larger keys are larger monomials."""
        return (m >> self.shift << self.shift + 1) - m

    def lcm(self, a: int, b: int) -> int:
        guard = self.guard
        # 1 in the low bit of each field where a's exponent is at least b's
        larger = ((a | guard) - b & guard) >> (W - 1)
        mask = larger * _FIELD & self.low
        m = a & mask | b & (self.low ^ mask)
        # field n-1 of m * ones sums the exponents; partial sums stay below
        # 2 * DEGREE_LIMIT, so no field carries into the next
        return m | _below_limit(m * self.ones >> self.top & _FIELD) << self.shift

    # -- element constructors -------------------------------------------

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.constant(ONE)

    def constant(self, value: object) -> "MultiPoly":
        c = GaussianRational.coerce(value)  # type: ignore[arg-type]
        if c.is_zero():
            return self.zero()
        return MultiPoly(self, {0: c})

    def var(self, name: str) -> "MultiPoly":
        return MultiPoly(self, {self.variable_monomial(self.index(name)): ONE})

    def monomial(self, exps: Sequence[int], coeff: object = 1) -> "MultiPoly":
        m = self.pack(exps)
        c = GaussianRational.coerce(coeff)  # type: ignore[arg-type]
        if c.is_zero():
            return self.zero()
        return MultiPoly(self, {m: c})

    def from_terms(
        self, terms: Iterable[tuple[Sequence[int], GaussianRational]]
    ) -> "MultiPoly":
        acc: dict[int, GaussianRational] = {}
        for exps, coeff in terms:
            key = self.pack(exps)
            total = acc.get(key, ZERO) + coeff
            if total.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = total
        return MultiPoly(self, acc)


class MultiPoly:
    """An exact multivariate polynomial (immutable once constructed).

    ``terms`` maps packed monomials of ``ring`` to nonzero coefficients.
    """

    __slots__ = ("ring", "terms", "_lm")

    def __init__(self, ring: PolyRing, terms: dict[int, GaussianRational]) -> None:
        self.ring = ring
        self.terms = terms  # invariant: no zero coefficients
        self._lm: int | None = None  # leading monomial, computed on first use

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, GaussianRational)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Maximal term degree (the zero polynomial reports -1)."""
        if not self.terms:
            return -1
        return max(self.terms) >> self.ring.shift

    def is_homogeneous(self) -> bool:
        shift = self.ring.shift
        return len({m >> shift for m in self.terms}) <= 1

    def homogeneous_component(self, degree: int) -> "MultiPoly":
        shift = self.ring.shift
        return MultiPoly(self.ring, {m: c for m, c in self.terms.items() if m >> shift == degree})

    def homogeneous_components(self) -> dict[int, "MultiPoly"]:
        shift = self.ring.shift
        out: dict[int, dict[int, GaussianRational]] = {}
        for m, c in self.terms.items():
            out.setdefault(m >> shift, {})[m] = c
        return {d: MultiPoly(self.ring, t) for d, t in sorted(out.items())}

    def support_variables(self) -> tuple[int, ...]:
        """Indices of variables that occur, in increasing order."""
        seen = 0
        for m in self.terms:
            seen |= m  # a field of seen is nonzero iff it is in some term
        return tuple(i for i in range(self.ring.nvars) if seen >> W * i & _FIELD)

    def sorted_terms(self) -> list[tuple[int, GaussianRational]]:
        """Terms in descending grevlex order (deterministic)."""
        key = self.ring.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_monomial(self) -> int:
        if self._lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            self._lm = max(self.terms, key=self.ring.key)
        return self._lm

    def leading_coefficient(self) -> GaussianRational:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MultiPoly":
        if not self.terms:
            return self
        return self.scale(self.leading_coefficient().inverse())

    def coefficient(self, exps: Sequence[int]) -> GaussianRational:
        return self.terms.get(self.ring.pack(exps), ZERO)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "MultiPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            total = acc.get(e, ZERO) + c
            if total.is_zero():
                acc.pop(e, None)
            else:
                acc[e] = total
        return MultiPoly(self.ring, acc)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        if self.terms and other.terms:  # the largest ints have the largest degrees
            _below_limit(max(self.terms) + max(other.terms) >> self.ring.shift)
        acc: dict[int, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = e1 + e2
                total = acc.get(key, ZERO) + c1 * c2
                if total.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = total
        return MultiPoly(self.ring, acc)

    def scale(self, c: object) -> "MultiPoly":
        s = c if type(c) is GaussianRational else GaussianRational.coerce(c)  # type: ignore[arg-type]
        if s.is_zero():
            return self.ring.zero()
        return MultiPoly(self.ring, {e: s * v for e, v in self.terms.items()})

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if self.terms:
            _below_limit(self.total_degree() * exponent)
        result = self.ring.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def embed(self, target: PolyRing) -> "MultiPoly":
        """Reinterpret in a larger ring, matching variables by name."""
        offsets = [W * target.index(name) for name in self.ring.variables]
        shift = self.ring.shift
        acc: dict[int, GaussianRational] = {}
        for m, coeff in self.terms.items():
            new = m >> shift << target.shift
            for i, offset in enumerate(offsets):
                new |= (m >> W * i & _FIELD) << offset
            acc[new] = coeff
        return MultiPoly(target, acc)

    # -- structure of low-degree parts ----------------------------------------

    def quadratic_symmetric_matrix(self) -> list[list[GaussianRational]]:
        """Symmetric coefficient matrix A of the degree-2 part (x^T A x)."""
        ring = self.ring
        n = ring.nvars
        half = GaussianRational("1/2")
        a = [[ZERO] * n for _ in range(n)]
        for m, coeff in self.terms.items():
            if m >> ring.shift != 2:
                continue
            # the fields of the lowest and of the highest set exponent bit
            i = ((m & -m).bit_length() - 1) // W
            j = ((m & ring.low).bit_length() - 1) // W
            if i == j:
                a[i][i] = coeff
            else:
                a[i][j] = coeff * half
                a[j][i] = coeff * half
        return a

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for m, coeff in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.variables, self.ring.exponents(m))
                if e
            )
            text = _coeff_text(coeff, mono)
            if pieces:
                pieces.append(f" - {text[1:]}" if text.startswith("-") else f" + {text}")
            else:
                pieces.append(text)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _coeff_text(coeff: GaussianRational, mono: str) -> str:
    if not mono:
        s = str(coeff)
        return f"({s})" if coeff.im != 0 and coeff.re != 0 else s
    if coeff.is_one():
        return mono
    if coeff == GaussianRational(-1):
        return f"-{mono}"
    s = str(coeff)
    if coeff.im != 0:
        return f"({s})*{mono}"
    return f"{s}*{mono}"


def divmod_single(dividend: MultiPoly, divisor: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Grevlex long division by a single divisor: dividend = q*divisor + r.

    No term of the remainder is divisible by the divisor's leading monomial.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    dividend._check_ring(divisor)  # packed monomials of two rings do not mix
    ring = dividend.ring
    guard = ring.guard
    lead = divisor.leading_monomial()
    lead_coeff = divisor.leading_coefficient()
    quotient = ring.zero()
    remainder = ring.zero()
    work = dividend
    while not work.is_zero():
        m = work.leading_monomial()
        coeff = work.terms[m]
        if (m | guard) - lead & guard == guard:  # lead divides m
            factor = MultiPoly(ring, {m - lead: coeff / lead_coeff})
            quotient = quotient + factor
            work = work - factor * divisor
        else:
            term = MultiPoly(ring, {m: coeff})
            remainder = remainder + term
            work = work - term
    return quotient, remainder


def poly_matrix_det(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square polynomial matrix (subset dynamic program)."""
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix")
    ring = rows[0][0].ring
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    states: dict[int, MultiPoly] = {0: ring.one()}
    for row in range(n):
        nxt: dict[int, MultiPoly] = {}
        for mask, acc in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = rows[row][j]
                if entry.is_zero():
                    continue
                term = acc * entry
                if bin(mask >> (j + 1)).count("1") & 1:
                    term = -term
                key = mask | bit
                prev = nxt.get(key)
                nxt[key] = term if prev is None else prev + term
        states = nxt
        if not states:
            return ring.zero()
    return states.get((1 << n) - 1, ring.zero())


def pure_linear_power(g: MultiPoly) -> tuple[GaussianRational, MultiPoly, int] | None:
    """Decompose ``g = c * ell**d`` with ``ell`` linear, if possible.

    ``g`` must be homogeneous of degree >= 1.  ``ell`` is normalized monic at
    the first variable occurring in ``g``.  Returns ``(c, ell, d)`` or None.
    For homogeneous ``g`` this decides exactly whether the cone ``g = 0`` is a
    hyperplane.
    """
    if g.is_zero() or not g.is_homogeneous():
        return None
    d = g.total_degree()
    if d < 1:
        return None
    ring = g.ring
    support = g.support_variables()
    k = support[0]
    x = ring.variable_monomial(k)
    c = g.terms.get(d * x, ZERO)
    if c.is_zero():
        return None
    if d == 1:
        return (c, g.scale(c.inverse()), 1)
    ell = ring.var(ring.variables[k])
    denom = c * d
    for j in support[1:]:
        cj = g.terms.get((d - 1) * x + ring.variable_monomial(j), ZERO)
        if not cj.is_zero():
            ell = ell + ring.var(ring.variables[j]).scale(cj / denom)
    if (ell**d).scale(c) == g:
        return (c, ell, d)
    return None


def quadric_split(g: MultiPoly) -> tuple[MultiPoly, MultiPoly] | None:
    """Factor a homogeneous quadric into two linear forms, if it splits.

    Over the Gaussian rationals a quadric splits exactly when its rank-2
    normal form has square discriminant; rank-1 quadrics are squares and
    rank >= 3 quadrics never split.  Returns ``(l1, l2)`` with ``g = l1*l2``
    or None.
    """
    if g.is_zero() or not g.is_homogeneous() or g.total_degree() != 2:
        return None
    ring = g.ring
    power = pure_linear_power(g)
    if power is not None:
        c, ell, _ = power
        return (ell.scale(c), ell)
    support = g.support_variables()
    for k in support:
        a = g.terms.get(2 * ring.variable_monomial(k), ZERO)
        if not a.is_zero():
            return _split_with_square_term(g, k, a)
    # no squared variable: g = x_k * b + c with b, c free of x_k
    k = support[0]
    x = ring.var(ring.variables[k])
    b = _cross_term(g, k)
    c = g - x * b
    if c.is_zero():
        return (x, b)
    quotient, remainder = divmod_single(c, b.monic())
    if not remainder.is_zero() or quotient.total_degree() != 1:
        return None
    return (b, x + quotient.scale(b.leading_coefficient().inverse()))


def _cross_term(g: MultiPoly, k: int) -> MultiPoly:
    """The linear form ``b`` free of ``x_k`` with ``x_k * b`` the cross terms
    of the quadric ``g`` that contain ``x_k`` exactly once."""
    ring = g.ring
    x = ring.variable_monomial(k)
    b = ring.zero()
    for j in g.support_variables():
        if j == k:
            continue
        cj = g.terms.get(x + ring.variable_monomial(j), ZERO)
        if not cj.is_zero():
            b = b + ring.var(ring.variables[j]).scale(cj)
    return b


def _split_with_square_term(
    g: MultiPoly, k: int, a: GaussianRational
) -> tuple[MultiPoly, MultiPoly] | None:
    ring = g.ring
    x = ring.var(ring.variables[k])
    b = _cross_term(g, k)
    c = g - (x * x).scale(a) - x * b
    disc = b * b - c.scale(a).scale(4)
    if disc.is_zero():
        half = b.scale((2 * a).inverse())
        return ((x + half).scale(a), x + half)
    power = pure_linear_power(disc)
    if power is None or power[2] != 2:
        return None
    c0, ell, _ = power
    eps = c0.sqrt()
    if eps is None:
        return None
    s = ell.scale(eps)
    inv2a = (2 * a).inverse()
    l1 = (x + (b - s).scale(inv2a)).scale(a)
    l2 = x + (b + s).scale(inv2a)
    if l1 * l2 != g:  # pragma: no cover - defensive
        return None
    return (l1, l2)
