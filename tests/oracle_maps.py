"""FROZEN map oracle: the ring-generic vector maps the package used to carry.

This module keeps, verbatim, the maps that applied a bracket or a matrix to
a vector whose coordinates may be scalars or polynomials:
``Dgla.basis_keys``, ``Dgla.bracket_entry`` and ``Dgla.bracket_vectors``,
the ``zero=`` form of ``ExactMatrix.apply``, and ``EchelonBasis.reduce``
and ``contains`` with ``_subtract_multiple``, as they were when the engine
still evaluated the series and the certificates through them.  The engine
now runs on the fraction-free series kernel and ``kuranishi`` keeps only
scalar vectors; the frozen oracles and the tests use these maps as the
independent rational reference.

Each method became a function of its former owner: ``dgla.bracket_vectors(``
is ``bracket_vectors(dgla, ``, ``matrix.apply(`` is ``apply(matrix, ``
and ``span.reduce(`` is ``reduce(span, ``.  The one edit to the logic:
``GaussianRational.scale`` is gone from the package, so each ``x.scale(c)``
is the local ``_scale(x, c)``, which is ``x * c`` on a scalar, as that
method was, and ``x.scale(c)`` on a polynomial.  Nothing else changed.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from typing import Sequence

from kuranishi.dgla import BasisKey, Dgla
from kuranishi.linalg import EchelonBasis, ExactMatrix
from kuranishi.scalars import GaussianRational, ZERO


def _scale(x: object, c: GaussianRational) -> object:
    """``x.scale(c)``: ``GaussianRational.scale`` was ``x * c``."""
    if isinstance(x, GaussianRational):
        return x * c
    return x.scale(c)


def basis_keys(dgla: Dgla) -> list[BasisKey]:
    return [(i, a) for i in dgla.degrees() for a in range(dgla.dim(i))]


def bracket_entry(dgla: Dgla, key_a: BasisKey, key_b: BasisKey) -> dict[int, GaussianRational]:
    return dgla.brackets.get((key_a, key_b), {})


def bracket_vectors(
    dgla: Dgla,
    degree_a: int,
    u: Sequence[object],
    degree_b: int,
    v: Sequence[object],
    *,
    zero: object = ZERO,
) -> list[object]:
    """Bracket of two coordinate vectors, landing in ``degree_a + degree_b``.

    The coordinates may be scalars or ring elements supporting ``+``,
    ``*`` and ``scale`` (pass the ring's zero as ``zero``).
    """
    if len(u) != dgla.dim(degree_a) or len(v) != dgla.dim(degree_b):
        raise ValueError("vector length mismatch")
    out = [zero] * dgla.dim(degree_a + degree_b)
    for a, ua in enumerate(u):
        if ua.is_zero():
            continue
        for b, vb in enumerate(v):
            if vb.is_zero():
                continue
            entry = dgla.brackets.get(((degree_a, a), (degree_b, b)))
            if not entry:
                continue
            product = ua * vb
            for c, coeff in entry.items():
                out[c] = out[c] + _scale(product, coeff)
    return out


def apply(matrix: ExactMatrix, vec: Sequence[object], zero: object = ZERO) -> tuple[object, ...]:
    """Matrix-vector product (vector indexed by columns).

    The vector entries may live in any ring with ``+``, ``is_zero`` and a
    ``scale`` method accepting a :class:`GaussianRational` (scalars, or
    polynomial-valued coordinates); ``zero`` supplies the additive
    identity of that ring.
    """
    if len(vec) != matrix.ncols:
        raise ValueError("vector length mismatch")
    out: list[object] = []
    for row in matrix.rows:
        acc = zero
        for coeff, x in zip(row, vec):
            if coeff.is_zero() or x.is_zero():
                continue
            acc = acc + _scale(x, coeff)
        out.append(acc)
    return tuple(out)


def _subtract_multiple(vec: list, c: object, row: Sequence[GaussianRational]) -> list:
    """``vec - c * row``, with ``c.scale`` so ``c`` may be a polynomial."""
    return [x if r.is_zero() else x - _scale(c, r) for x, r in zip(vec, row)]


def reduce(span: EchelonBasis, vec: Sequence[object]) -> list[object]:
    """``vec`` minus ``vec[p].scale(row)`` for each row and its pivot ``p``.

    The entries may be scalars or polynomials; the result vanishes at
    every pivot, and is zero iff ``vec`` lies in the span.
    """
    if len(vec) != span.length:
        raise ValueError("vector length mismatch")
    out = list(vec)
    for row, pivot in zip(span.rows, span.pivots):
        c = out[pivot]
        if not c.is_zero():
            out = _subtract_multiple(out, c, row)
    return out


def contains(span: EchelonBasis, vec: Sequence[object]) -> bool:
    """Whether ``vec`` (scalar or polynomial entries) lies in the span."""
    return all(x.is_zero() for x in reduce(span, vec))
