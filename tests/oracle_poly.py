"""FROZEN tuple-monomial polynomials: the ``poly`` module before packing.

This module keeps, verbatim, the ``poly`` module as it was when a monomial
was an exponent tuple ordered by ``grevlex_key``: higher total degree
first; on equal degree, the monomial whose rightmost differing exponent is
smaller wins.  ``kuranishi.poly`` replaced it with packed int monomials
owned by ``PolyRing``.  Only the import is rewritten to an absolute one.
The test suite compares the two on ring arithmetic, degrees, display and
the factor moves, and the frozen Groebner oracles run on it, so they keep
computing on exponent tuples.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from kuranishi.scalars import GaussianRational, ONE, ZERO

__all__ = [
    "PolyRing",
    "MultiPoly",
    "grevlex_key",
    "divmod_single",
    "poly_matrix_det",
    "pure_linear_power",
    "quadric_split",
]

Monomial = tuple[int, ...]


def grevlex_key(exps: Monomial) -> tuple[int, tuple[int, ...]]:
    """Sort key under which larger keys are larger monomials in grevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolyRing:
    """A polynomial ring with named variables in fixed declaration order."""

    __slots__ = ("variables", "_index")

    def __init__(self, variables: Sequence[str]) -> None:
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.variables: tuple[str, ...] = names
        self._index: dict[str, int] = {name: i for i, name in enumerate(names)}

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

    # -- element constructors -------------------------------------------

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.constant(ONE)

    def constant(self, value: object) -> "MultiPoly":
        c = GaussianRational.coerce(value)  # type: ignore[arg-type]
        if c.is_zero():
            return self.zero()
        return MultiPoly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "MultiPoly":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return MultiPoly(self, {tuple(exps): ONE})

    def monomial(self, exps: Monomial, coeff: object = 1) -> "MultiPoly":
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple length mismatch")
        c = GaussianRational.coerce(coeff)  # type: ignore[arg-type]
        if c.is_zero():
            return self.zero()
        return MultiPoly(self, {tuple(exps): c})

    def from_terms(
        self, terms: Iterable[tuple[Monomial, GaussianRational]]
    ) -> "MultiPoly":
        acc: dict[Monomial, GaussianRational] = {}
        for exps, coeff in terms:
            if len(exps) != self.nvars:
                raise ValueError("exponent tuple length mismatch")
            key = tuple(exps)
            total = acc.get(key, ZERO) + coeff
            if total.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = total
        return MultiPoly(self, acc)


class MultiPoly:
    """An exact multivariate polynomial (immutable once constructed)."""

    __slots__ = ("ring", "terms", "_lm")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, GaussianRational]) -> None:
        self.ring = ring
        self.terms = terms  # invariant: no zero coefficients
        self._lm: Monomial | None = None  # leading monomial, computed on first use

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
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_component(self, degree: int) -> "MultiPoly":
        return MultiPoly(
            self.ring,
            {e: c for e, c in self.terms.items() if sum(e) == degree},
        )

    def homogeneous_components(self) -> dict[int, "MultiPoly"]:
        out: dict[int, dict[Monomial, GaussianRational]] = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return {d: MultiPoly(self.ring, t) for d, t in sorted(out.items())}

    def support_variables(self) -> tuple[int, ...]:
        """Indices of variables that occur, in increasing order."""
        seen = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    seen.add(i)
        return tuple(sorted(seen))

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in descending grevlex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_monomial(self) -> Monomial:
        if self._lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            self._lm = max(self.terms, key=grevlex_key)
        return self._lm

    def leading_coefficient(self) -> GaussianRational:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MultiPoly":
        if not self.terms:
            return self
        return self.scale(self.leading_coefficient().inverse())

    def coefficient(self, exps: Monomial) -> GaussianRational:
        return self.terms.get(tuple(exps), ZERO)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "MultiPoly") -> None:
        if self.ring != other.ring:
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
        acc: dict[Monomial, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                total = acc.get(key, ZERO) + c1 * c2
                if total.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = total
        return MultiPoly(self.ring, acc)

    def scale(self, c: object) -> "MultiPoly":
        s = GaussianRational.coerce(c)  # type: ignore[arg-type]
        if s.is_zero():
            return self.ring.zero()
        return MultiPoly(self.ring, {e: s * v for e, v in self.terms.items()})

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def embed(self, target: PolyRing) -> "MultiPoly":
        """Reinterpret in a larger ring, matching variables by name."""
        mapping = [target.index(name) for name in self.ring.variables]
        acc: dict[Monomial, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            new = [0] * target.nvars
            for src, e in enumerate(exps):
                new[mapping[src]] = e
            acc[tuple(new)] = coeff
        return MultiPoly(target, acc)

    # -- structure of low-degree parts ----------------------------------------

    def quadratic_symmetric_matrix(self) -> list[list[GaussianRational]]:
        """Symmetric coefficient matrix A of the degree-2 part (x^T A x)."""
        n = self.ring.nvars
        half = GaussianRational("1/2")
        a = [[ZERO] * n for _ in range(n)]
        for exps, coeff in self.terms.items():
            if sum(exps) != 2:
                continue
            support = [i for i, e in enumerate(exps) if e]
            if len(support) == 1:
                i = support[0]
                a[i][i] = coeff
            else:
                i, j = support
                a[i][j] = coeff * half
                a[j][i] = coeff * half
        return a

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.variables, exps)
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
    ring = dividend.ring
    lead = divisor.leading_monomial()
    lead_coeff = divisor.leading_coefficient()
    quotient = ring.zero()
    remainder = ring.zero()
    work = dividend
    while not work.is_zero():
        exps = work.leading_monomial()
        coeff = work.terms[exps]
        if all(e >= l for e, l in zip(exps, lead)):
            factor = ring.monomial(
                tuple(e - l for e, l in zip(exps, lead)), coeff / lead_coeff
            )
            quotient = quotient + factor
            work = work - factor * divisor
        else:
            term = ring.monomial(exps, coeff)
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
    power_exps = [0] * ring.nvars
    power_exps[k] = d
    c = g.coefficient(tuple(power_exps))
    if c.is_zero():
        return None
    if d == 1:
        return (c, g.scale(c.inverse()), 1)
    ell = ring.var(ring.variables[k])
    denom = c * d
    for j in support[1:]:
        exps = [0] * ring.nvars
        exps[k] = d - 1
        exps[j] = 1
        cj = g.coefficient(tuple(exps))
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
        exps = [0] * ring.nvars
        exps[k] = 2
        a = g.coefficient(tuple(exps))
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
    b = ring.zero()
    for j in g.support_variables():
        if j == k:
            continue
        exps = [0] * ring.nvars
        exps[k] = 1
        exps[j] = 1
        cj = g.coefficient(tuple(exps))
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
