"""FROZEN Hodge-split oracle: the splitting the engine carried before it ran in one pass.

This module keeps, verbatim, ``cohomology_dimensions`` and
``hodge_decomposition`` with its record ``HodgeDegree`` and helper
``_harmonic_representatives`` as they were when every differential was
eliminated once as the outgoing map, once as the incoming map and once more
for the kernel, the homotopy was a 0/1 selection matrix times the image
coordinates, and the record carried the harmonic projection.  The one-pass
split in ``kuranishi.dgla`` replaced it; ``test_hodge_oracle`` compares the
two.  ``pivot_columns`` and ``kernel_basis``, which each eliminated their
matrix afresh, are copied from the ``linalg`` module of the same time, and
``_unit`` stands for the ``Dgla.basis_vector`` of that time.  ``rref`` is
imported from ``oracle_linalg``, whose ``rref`` returns the ``(reduced,
pivots)`` pair these copies unpack, since ``kuranishi.linalg.rref`` now
returns the ``EchelonBasis``; ``test_rref_matches_the_oracle`` shows the two
agree.  That import is the only edit.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from kuranishi.dgla import Dgla
from kuranishi.linalg import (
    EchelonBasis,
    ExactMatrix,
    Vector,
    inverse,
)
from kuranishi.scalars import ONE, ZERO
from oracle_linalg import rref


# -- copied from the ``linalg`` and ``dgla`` modules of the same time ----------


def pivot_columns(matrix: ExactMatrix, rule: str = "earliest") -> tuple[int, ...]:
    """Column indices that index an injective coordinate complement of the kernel.

    ``earliest`` takes the standard rref pivots.  ``latest`` processes columns
    right to left (rref of the column-reversed matrix) and maps the pivots
    back, preferring the highest-index columns.  Both return sorted indices.
    """
    if rule == "earliest":
        return rref(matrix)[1]
    if rule == "latest":
        reversed_cols = ExactMatrix(
            [list(reversed(row)) for row in matrix.rows], ncols=matrix.ncols
        )
        _, piv = rref(reversed_cols)
        return tuple(sorted(matrix.ncols - 1 - p for p in piv))
    raise ValueError(f"unknown pivot rule {rule!r}")


def kernel_basis(matrix: ExactMatrix) -> list[Vector]:
    """Deterministic basis of the right kernel.

    One vector per free column, emitted in increasing free-column order; each
    has entry 1 at its free column and the solved pivot entries elsewhere.
    """
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(matrix.ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * matrix.ncols
        vec[free] = ONE
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -reduced.rows[row_idx][free]
        basis.append(tuple(vec))
    return basis


def _unit(n: int, position: int) -> list:
    # ``Dgla.basis_vector`` of the same time
    vec = [ZERO] * n
    vec[position] = ONE
    return vec


# -- the split ------------------------------------------------------------------


def cohomology_dimensions(dgla: Dgla) -> dict[int, int]:
    """Dimension of ``ker d / im d`` in every nonzero degree."""
    ranks = {i: len(rref(dgla.differential_matrix(i))[1]) for i in dgla.degrees()}
    return {i: dgla.dim(i) - ranks[i] - ranks.get(i - 1, 0) for i in dgla.degrees()}


@dataclass
class HodgeDegree:
    """Canonical splitting of one graded piece ``L^i = H + im(d) + A``.

    Attributes
    ----------
    degree : int
        The graded degree this record describes.
    harmonic : list of vectors
        Canonical representatives of cohomology classes: kernel-basis
        vectors reduced modulo the exact subspace, kept in kernel order.
    image : list of vectors
        Basis of ``d(L^{i-1})``: images of the coordinate vectors at the
        pivot columns of the incoming differential.
    coexact : list of vectors
        Coordinate vectors at the pivot columns of the outgoing
        differential; ``d`` is injective on their span ``A``.
    projection : ExactMatrix
        Projection of ``L^i`` onto the span of ``harmonic`` along
        ``im(d) + A``.
    homotopy : ExactMatrix
        The contracting homotopy ``delta : L^i -> L^{i-1}``; it inverts
        ``d`` on the exact subspace, vanishes on the harmonic and coexact
        summands, and takes values in the coexact part of ``L^{i-1}``.
    harmonic_coordinates : ExactMatrix
        Rows give the coordinates of the harmonic component of a vector
        with respect to ``harmonic``.
    """

    degree: int
    harmonic: list[Vector]
    image: list[Vector]
    coexact: list[Vector]
    projection: ExactMatrix
    homotopy: ExactMatrix
    harmonic_coordinates: ExactMatrix


def _harmonic_representatives(
    kernel: Sequence[Vector], image_vectors: Sequence[Vector], n: int
) -> list[Vector]:
    image = EchelonBasis(n, image_vectors)
    seen = EchelonBasis(n)
    reps: list[Vector] = []
    for vec in kernel:
        reduced = image.reduce(vec)
        if seen.add(reduced):
            reps.append(tuple(reduced))
    return reps


def hodge_decomposition(dgla: Dgla, pivot_rule: str = "earliest") -> dict[int, HodgeDegree]:
    """Split every graded piece into harmonic, exact, and coexact parts.

    ``pivot_rule`` selects which coordinate vectors span the coexact
    complements (see :func:`kuranishi.linalg.pivot_columns`).  Harmonic
    representatives are independent of the rule; the homotopy and the
    projection are not.
    """
    result: dict[int, HodgeDegree] = {}
    for i in dgla.degrees():
        n = dgla.dim(i)
        outgoing = dgla.differential_matrix(i)
        incoming = dgla.differential_matrix(i - 1)
        below_pivots = pivot_columns(incoming, pivot_rule)
        image_vectors = [incoming.column(p) for p in below_pivots]
        here_pivots = pivot_columns(outgoing, pivot_rule)
        coexact_vectors: list[Vector] = []
        for p in here_pivots:
            unit = [ZERO] * n
            unit[p] = ONE
            coexact_vectors.append(tuple(unit))
        kernel = kernel_basis(outgoing)
        harmonic = _harmonic_representatives(kernel, image_vectors, n)
        h = len(harmonic)
        if h != len(kernel) - len(image_vectors):
            raise RuntimeError(
                f"harmonic count mismatch in degree {i}: the exact subspace "
                "is not contained in the kernel"
            )
        change = ExactMatrix.from_columns(
            [list(v) for v in harmonic + list(image_vectors) + coexact_vectors],
            nrows=n,
        )
        change_inv = inverse(change)
        coords = ExactMatrix(list(change_inv.rows[:h]), ncols=n)
        image_coords = ExactMatrix(
            list(change_inv.rows[h : h + len(image_vectors)]), ncols=n
        )
        projection = ExactMatrix.from_columns(
            [list(v) for v in harmonic], nrows=n
        ) @ coords
        dim_below = dgla.dim(i - 1)
        homotopy = ExactMatrix.from_columns(
            [_unit(dim_below, p) for p in below_pivots], nrows=dim_below
        ) @ image_coords
        result[i] = HodgeDegree(
            degree=i,
            harmonic=harmonic,
            image=list(image_vectors),
            coexact=coexact_vectors,
            projection=projection,
            homotopy=homotopy,
            harmonic_coordinates=coords,
        )
    return result
