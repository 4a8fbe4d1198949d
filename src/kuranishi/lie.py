"""Nilpotent Lie algebras and their invariant complex structures.

A :class:`LieAlgebra` stores exact structure constants on a fixed basis, as
a DGLA concentrated in degree zero (:mod:`kuranishi.dgla`).
Compact descriptions use the classical shorthand in which position ``k`` of a
tuple lists the 2-form ``d e^k``; the sign convention throughout is

    (d a)(x, y) = -a([x, y]),

so a token ``"12"`` in slot 3 means ``d e^3 = e^1 ^ e^2``, i.e. the bracket
``[e_1, e_2] = -e_3``.

A :class:`ComplexStructure` is a choice of (1,0)-frame ``W_1..W_m`` inside the
complexified algebra.  It holds the same algebra in the doubled frame
``W_1..W_m, conj W_1..conj W_m``, again as a degree-zero DGLA, and reads the
classification predicates (integrable, abelian, parallelizable) off that
table; the calculus of (0,q)-forms built on those constants lives in
:mod:`kuranishi.builders`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .dgla import Dgla, dgla_axiom_failures
from .linalg import EchelonBasis, ExactMatrix, Vector, inverse, kernel_basis, rref
from .scalars import GaussianRational, I, ONE, ZERO, parse_rational

__all__ = [
    "LieAlgebra",
    "ComplexStructure",
    "JacobiError",
    "parse_salamon",
]


class JacobiError(ValueError):
    """Structure constants that do not satisfy the Jacobi identity."""


class LieAlgebra:
    """A finite-dimensional Lie algebra with exact structure constants.

    ``brackets[i, j]`` (0-based, ``i < j``) maps ``k`` to the coefficient of
    ``e_k`` in ``[e_i, e_j]``.  The algebra is held as ``table``, a
    :class:`~kuranishi.dgla.Dgla` concentrated in degree zero with basis
    ``e1..en`` whose bracket table holds both orders of every nonzero pair;
    construction runs it through the DGLA axiom gate, which on such a table
    can only find the Jacobi identity failing.
    """

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]]) -> None:
        for i, j in brackets:
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket index pair ({i}, {j}) for dim {dim}")
        self.dim = dim
        self.table = Dgla.from_bracket_entries(
            {0: [f"e{i + 1}" for i in range(dim)]},
            {},
            {((0, i), (0, j)): coeffs for (i, j), coeffs in brackets.items()},
        )
        failures = dgla_axiom_failures(self.table, max_failures=1)
        if failures:
            raise JacobiError(failures[0])

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable[tuple[int, int, int, object]]) -> "LieAlgebra":
        """Build from 1-based ``(i, j, k, coeff)`` rows meaning [e_i, e_j] = sum coeff * e_k."""
        table: dict[tuple[int, int], dict[int, GaussianRational]] = {}
        for i, j, k, coeff in entries:
            if i == j:
                raise ValueError(f"bracket [e_{i}, e_{i}] must be zero")
            c = GaussianRational.coerce(coeff)  # type: ignore[arg-type]
            if i > j:
                i, j, c = j, i, -c
            slot = table.setdefault((i - 1, j - 1), {})
            slot[k - 1] = slot.get(k - 1, ZERO) + c
        return cls(dim, table)

    # -- bracket evaluation -------------------------------------------------

    def bracket_vectors(self, u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> Vector:
        """Bilinear extension of the bracket to coordinate vectors."""
        out = [ZERO] * self.dim
        for ((_, i), (_, j)), coeffs in self.table.brackets.items():
            factor = u[i] * v[j]
            if factor.is_zero():
                continue
            for k, c in coeffs.items():
                out[k] = out[k] + factor * c
        return tuple(out)

    # -- invariants ------------------------------------------------------------

    def lower_central_series(self) -> list[int]:
        """Dimensions of g = g^1 >= g^2 = [g, g^1] >= ... down to 0 (0 excluded)."""
        dims = [self.dim]
        units = [tuple(ONE if t == i else ZERO for t in range(self.dim)) for i in range(self.dim)]
        current = units
        while True:
            span = EchelonBasis(self.dim)
            for unit in units:
                for x in current:
                    span.add(self.bracket_vectors(unit, x))
            rank = len(span.pivots)
            if rank == 0:
                return dims
            dims.append(rank)
            current = span.rows
            if rank == dims[-2]:
                # series stalled at a nonzero term: not nilpotent
                dims.append(-1)
                return dims

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, nonzero_pairs={len(self.table.brackets) // 2})"


# -- compact description strings ------------------------------------------------

_TERM_RE = re.compile(r"^(?:([0-9]+(?:/[0-9]+)?)\*)?([1-9])([1-9])$")


def parse_salamon(text: str) -> LieAlgebra:
    """Parse a compact description such as ``"(0,0,0,0,0,12+34)"``.

    Slot ``k`` lists ``d e^k`` as a sum of two-digit tokens ``ij`` (``i < j``),
    each optionally scaled by a rational written ``p/q*ij``.  Both factor
    indices must be smaller than ``k``; the parsed constants must satisfy the
    Jacobi identity.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    slots = [s.strip() for s in body.split(",")]
    dim = len(slots)
    if dim < 1 or dim > 9:
        raise ValueError("compact descriptions support dimensions 1..9")
    table: dict[tuple[int, int], dict[int, GaussianRational]] = {}
    for k, slot in enumerate(slots):
        if slot == "0":
            continue
        for signed_term in _split_terms(slot, text):
            sign, term = signed_term
            match = _TERM_RE.match(term)
            if not match:
                raise ValueError(f"malformed term {term!r} in {text!r}")
            coeff_text, i_text, j_text = match.groups()
            i, j = int(i_text), int(j_text)
            if i >= j:
                raise ValueError(
                    f"token {term!r} in {text!r} must have increasing indices"
                )
            if j > k:
                raise ValueError(
                    f"token {term!r} in slot {k + 1} of {text!r} uses an index "
                    f"not smaller than the slot"
                )
            coeff = parse_rational(coeff_text) if coeff_text else Fraction(1)
            # d e^k includes coeff * e^i ^ e^j  =>  [e_i, e_j] = -coeff * e_k
            entry = GaussianRational(-(sign * coeff))
            slot_map = table.setdefault((i - 1, j - 1), {})
            slot_map[k] = slot_map.get(k, ZERO) + entry
    return LieAlgebra(dim, table)


def _split_terms(slot: str, full: str) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    token = ""
    sign = 1
    for ch in slot.replace(" ", ""):
        if ch in "+-" and token:
            out.append((sign, token))
            token = ""
            sign = 1 if ch == "+" else -1
        elif ch in "+-" and not token:
            if ch == "-":
                sign = -sign
        else:
            token += ch
    if not token:
        raise ValueError(f"empty term in {full!r}")
    out.append((sign, token))
    return out


# -- complex structures ------------------------------------------------------------


class ComplexStructure:
    """A (1,0)-frame for an invariant almost-complex structure.

    ``frame[a]`` is the coordinate vector of ``W_{a+1}`` in the algebra's real
    basis, with exact Gaussian-rational entries.  The frame together with its
    conjugate must be a basis of the complexified algebra.  The algebra in
    that doubled frame is held as ``table``, a degree-zero
    :class:`~kuranishi.dgla.Dgla` with basis ``W1..Wm, conj W1..conj Wm``
    whose bracket table holds both orders of every nonzero pair.  A change
    of basis keeps the algebra's Jacobi identity, so it is not checked again.
    """

    __slots__ = ("algebra", "m", "frame", "table")

    def __init__(self, algebra: LieAlgebra, frame: Sequence[Sequence[object]]) -> None:
        if algebra.dim % 2 != 0:
            raise ValueError("complex structures need even dimension")
        m = algebra.dim // 2
        if len(frame) != m:
            raise ValueError(f"need {m} frame vectors, got {len(frame)}")
        vectors = [
            tuple(GaussianRational.coerce(v) for v in vec)  # type: ignore[arg-type]
            for vec in frame
        ]
        if any(len(v) != algebra.dim for v in vectors):
            raise ValueError("frame vector length mismatch")
        self.algebra = algebra
        self.m = m
        self.frame = vectors
        doubled = vectors + [tuple(v.conjugate() for v in vec) for vec in vectors]
        try:
            to_frame = inverse(ExactMatrix.from_columns(doubled))
        except ValueError:
            raise ValueError(
                "frame and its conjugate do not span the complexified algebra"
            ) from None
        pairs = list(combinations(range(2 * m), 2))
        images = [algebra.bracket_vectors(doubled[a], doubled[b]) for a, b in pairs]
        coords = (to_frame @ ExactMatrix.from_columns(images)).columns()
        labels = [f"W{a + 1}" for a in range(m)] + [f"conj W{a + 1}" for a in range(m)]
        self.table = Dgla.from_bracket_entries(
            {0: labels},
            {},
            {((0, a), (0, b)): dict(enumerate(c)) for (a, b), c in zip(pairs, coords)},
        )

    @classmethod
    def from_j_matrix(cls, algebra: LieAlgebra, j_rows: Sequence[Sequence[object]]) -> "ComplexStructure":
        """Build the frame as the +i eigenspace of an endomorphism J with J^2 = -1.

        Entries must be exact rationals; the eigenspace is extracted by exact
        kernel computation over the Gaussian rationals.
        """
        n = algebra.dim
        j = ExactMatrix(j_rows)
        if j.nrows != n or j.ncols != n:
            raise ValueError("J matrix has wrong shape")
        if any(not v.is_real() for row in j.rows for v in row):
            raise ValueError("J matrix entries must be real rationals")
        minus_identity = [[-ONE if r == c else ZERO for c in range(n)] for r in range(n)]
        if (j @ j).rows != minus_identity:
            raise ValueError("J^2 must be -identity")
        shifted = [
            [x - I if r == c else x for c, x in enumerate(row)]
            for r, row in enumerate(j.rows)
        ]
        frame = kernel_basis(rref(ExactMatrix(shifted, ncols=n)))
        if len(frame) != n // 2:
            raise ValueError("the +i eigenspace has the wrong dimension")
        return cls(algebra, frame)

    # -- frame-basis structure constants -----------------------------------------

    def frame_bracket(self, alpha: int, beta: int) -> Mapping[int, GaussianRational]:
        """[V_alpha, V_beta] of the doubled frame (W_1..W_m, conj W_1..conj W_m)
        as ``{gamma: coeff}`` in doubled-frame coordinates, ascending in
        ``gamma`` and ``{}`` when zero (any index order).

        The entry is the table's own dict: read, never change it.
        """
        return self.table.brackets.get(((0, alpha), (0, beta)), {})

    # -- classification -------------------------------------------------------------

    def is_integrable(self) -> bool:
        """The (0,1)-part of [W_a, W_b] vanishes for all a < b."""
        return not self.integrability_failures()

    def integrability_failures(self) -> list[tuple[int, int]]:
        """1-based pairs (a, b), a < b, where [W_a, W_b] has a (0,1)-part."""
        return [
            (a + 1, b + 1)
            for a, b in combinations(range(self.m), 2)
            if any(gamma >= self.m for gamma in self.frame_bracket(a, b))
        ]

    def is_abelian(self) -> bool:
        """[W_a, W_b] = 0 for all a, b (the frame spans an abelian subalgebra)."""
        return not any(self.frame_bracket(a, b) for a, b in combinations(range(self.m), 2))

    def is_parallelizable(self) -> bool:
        """[W_a, conj W_b] = 0 for all a, b (frame brackets close holomorphically)."""
        m = self.m
        return not any(self.frame_bracket(a, m + b) for a in range(m) for b in range(m))

    def classify(self) -> dict[str, object]:
        series = self.algebra.lower_central_series()
        nilpotent = series[-1] != -1
        return {
            "integrable": self.is_integrable(),
            "abelian": self.is_abelian(),
            "parallelizable": self.is_parallelizable(),
            "nilpotent": nilpotent,
            "nilpotency_index": len(series) if nilpotent else None,
        }

    def change_frame(self, q_columns: Sequence[Sequence[object]]) -> "ComplexStructure":
        """The same almost-complex structure on a new frame W' = W . Q."""
        q = ExactMatrix.from_columns([list(c) for c in q_columns])
        if q.nrows != self.m or q.ncols != self.m:
            raise ValueError("frame change must be m x m")
        inverse(q)  # raises if singular
        new_frame = (ExactMatrix.from_columns(self.frame) @ q).columns()
        return ComplexStructure(self.algebra, [list(v) for v in new_frame])
