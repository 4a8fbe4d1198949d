"""FROZEN certificate oracle: the two saturation routes before they ran by worklist.

This module keeps, verbatim, ``_delta_bracket``, ``_closure_certificate``
and ``_rational_certificate`` as they were when both routes saturated their
span by ``while changed`` rounds that re-bracketed every pair of the span,
and the closure route bracketed every pair of the saturated span a second
time for its harmonic check.  The worklist routes in ``kuranishi.engine``
replaced them; ``test_hodge_oracle`` compares the full return values.

``MINUS_HALF`` and ``_harmonic_poly_coordinates`` were imported from the
engine; they are copied here verbatim, so that no engine edit changes this
reference.  Nothing else changed.

The ring-generic maps it calls left the package for the frozen
``oracle_maps``; they are imported from there and called as functions of
their former owner (``dgla.bracket_vectors(`` became
``bracket_vectors(dgla, ``), with the same logic.  The scalar
``ExactMatrix.apply`` later left the package too; its two calls here are
spelled ``apply(matrix, `` on the same map of ``oracle_maps``.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from kuranishi.engine import KuranishiProblem
from kuranishi.linalg import EchelonBasis, Vector
from kuranishi.poly import MultiPoly, poly_matrix_det
from kuranishi.scalars import GaussianRational, ONE
from oracle_maps import apply, bracket_vectors, contains


#: the factor of the series recursion ``s_k = -1/2 H sb_k``
MINUS_HALF = GaussianRational(Fraction(-1, 2))


def _harmonic_poly_coordinates(
    problem: KuranishiProblem, degree: int, vec: Sequence[MultiPoly]
) -> list[MultiPoly]:
    record = problem.hodge.get(degree)
    if record is None or not record.harmonic:
        return []
    return list(apply(record.harmonic_coordinates, vec, problem.ring.zero()))


def _delta_bracket(
    problem: KuranishiProblem,
    u: Sequence[GaussianRational],
    v: Sequence[GaussianRational],
) -> Vector:
    bracket = bracket_vectors(problem.dgla, 1, list(u), 1, list(v))
    return apply(problem.homotopy(2), bracket)


def _closure_certificate(problem: KuranishiProblem) -> dict | None:
    """Bracket-closure certificate: every obstruction vanishes identically.

    Saturates the span of the degree-one harmonic representatives under the
    homotopy-corrected bracket; if the saturation closes up and all
    harmonic components of brackets of the saturated span vanish, every
    series term stays inside the span and every obstruction is zero.  A
    saturation round that changes the span raises its dimension, so at most
    ``dgla.dim(1) + 1`` rounds run.  The bracket of two degree-one elements
    is symmetric (the axiom gate checks graded antisymmetry), so each
    unordered pair of basis rows is bracketed once.
    """
    span = EchelonBasis(problem.dgla.dim(1), problem.harmonic_reps)
    changed = True
    while changed:
        changed = False
        basis = [list(row) for row in span.rows]
        for a, u in enumerate(basis):
            for v in basis[a:]:
                if span.add(_delta_bracket(problem, u, v)):
                    changed = True
    basis = [list(row) for row in span.rows]
    record = problem.hodge.get(2)
    if record is not None and record.harmonic:
        for a, u in enumerate(basis):
            for v in basis[a:]:
                bracket = bracket_vectors(problem.dgla, 1, u, 1, v)
                coords = apply(record.harmonic_coordinates, bracket)
                if any(not c.is_zero() for c in coords):
                    return None
    return {"spanDimension": len(basis)}


def _rational_certificate(
    problem: KuranishiProblem,
    series: dict[int, list[MultiPoly]],
    obstructions: dict[int, list[MultiPoly]],
) -> tuple[dict, dict[int, list[MultiPoly]]] | None:
    """Rational-fixed-point certificate for the correction tail.

    Saturates the span of homotopy-corrected harmonic brackets under
    bracketing with single harmonic directions; requires the span to
    bracket to zero with itself after the homotopy.  The degree-one bracket
    is symmetric, so, as in :func:`_closure_certificate`, each unordered
    pair is bracketed once.  The correction tail then solves a linear
    system over the parameter field, the obstruction
    generating function times ``q**2`` (``q`` the system determinant,
    ``q(0) = 1``) is a polynomial of some degree ``D``, and a recurrence
    shows all obstructions above degree ``D`` are redundant.

    Returns certificate metadata plus the complete obstruction table up to
    degree ``D``, or None when the route does not apply.
    """
    ring = problem.ring
    zero = ring.zero()
    dgla = problem.dgla
    n = dgla.dim(1)
    reps = problem.harmonic_reps
    span = EchelonBasis(n)
    for a, u in enumerate(reps):
        for v in reps[a:]:
            span.add(_delta_bracket(problem, u, v))
    changed = True
    while changed:
        changed = False
        for rep in reps:
            for row in [list(r) for r in span.rows]:
                if span.add(_delta_bracket(problem, rep, row)):
                    changed = True
    basis = [list(row) for row in span.rows]
    width = len(basis)
    for a, u in enumerate(basis):
        for v in basis[a:]:
            if any(not c.is_zero() for c in _delta_bracket(problem, u, v)):
                return None

    x1 = problem.linear_term
    # forcing term: -1/2 homotopy of the linear self-bracket, in span coords
    self_bracket = bracket_vectors(dgla, 1, x1, 1, x1, zero=zero)
    forcing_vec = [
        p.scale(MINUS_HALF)
        for p in apply(problem.homotopy(2), self_bracket, zero)
    ]
    if not contains(span, forcing_vec):
        return None
    if width == 0:
        tail_num = [zero] * n
        q = ring.one()
    else:
        forcing = [forcing_vec[p] for p in span.pivots]
        # tail map: column j gives the span coordinates of
        # -homotopy[x1, basis_j]; entries are linear in the parameters
        columns: list[list[MultiPoly]] = []
        for row in basis:
            row_polys = [ring.constant(c) for c in row]
            bracket = bracket_vectors(dgla, 1, x1, 1, row_polys, zero=zero)
            image = apply(problem.homotopy(2), bracket, zero)
            image = [p.scale(GaussianRational(-1)) for p in image]
            if not contains(span, image):
                return None
            columns.append([image[p] for p in span.pivots])
        system = [
            [
                (ring.one() if i == j else ring.zero()) - columns[j][i]
                for j in range(width)
            ]
            for i in range(width)
        ]
        q = poly_matrix_det(system)
        if q.coefficient(tuple([0] * ring.nvars)) != ONE:
            raise RuntimeError("fixed-point determinant has nonunit constant term")
        numerators = []
        for c in range(width):
            replaced = [
                [forcing[i] if j == c else system[i][j] for j in range(width)]
                for i in range(width)
            ]
            numerators.append(poly_matrix_det(replaced))
        tail_num = [zero] * n
        for coeff, row in zip(numerators, basis):
            for i, entry in enumerate(row):
                if not entry.is_zero():
                    tail_num[i] = tail_num[i] + coeff.scale(entry)

    # clear denominators: q^2 * selfbracket(x1 + tail/q)
    q2 = q * q
    br_1n = bracket_vectors(dgla, 1, x1, 1, tail_num, zero=zero)
    br_nn = bracket_vectors(dgla, 1, tail_num, 1, tail_num, zero=zero)
    cleared = [
        (a * q2) + (b * q).scale(GaussianRational(2)) + c
        for a, b, c in zip(self_bracket, br_1n, br_nn)
    ]
    coords = _harmonic_poly_coordinates(problem, 2, cleared)
    bound = max((p.total_degree() for p in coords), default=0)
    bound = max(bound, 2)
    q2_parts = q2.homogeneous_components()
    # Beyond the degree bound the cleared coordinates have no component, so
    # the same recurrence extends the table and must reproduce the series.
    top = max([bound, *obstructions.keys()])
    table: dict[int, list[MultiPoly]] = {}
    for k in range(2, top + 1):
        row = []
        for c, cleared_poly in enumerate(coords):
            value = cleared_poly.homogeneous_component(k)
            for j in range(1, k - 1):
                part = q2_parts.get(j)
                if part is not None and (k - j) in table:
                    value = value - part * table[k - j][c]
            row.append(value)
        table[k] = row
    for k in sorted(obstructions):
        if obstructions[k] != table[k]:
            raise RuntimeError(
                "fixed-point obstruction table disagrees with the series"
            )
    table = {k: row for k, row in table.items() if k <= bound}
    data = {
        "spanDimension": width,
        "denominator": str(q),
        "degreeBound": bound,
    }
    return data, table
