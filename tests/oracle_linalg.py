"""FROZEN echelon oracle: the row eliminations the engine used to carry.

This module keeps, verbatim, three independent elimination routines that
``kuranishi.linalg.EchelonBasis`` replaced: the column-pivoting ``rref``
with row swaps, the harmonic-representative probe over a semi-echelon
basis, the fully reduced span tracker of the exactness certificates, and
the residual loop that reduced polynomial-valued vectors against that
span.  The test suite compares the new code with them.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from typing import Sequence

from kuranishi.linalg import ExactMatrix, Vector
from kuranishi.scalars import GaussianRational


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form with its pivot columns.

    Deterministic: columns are scanned left to right; within a column the
    first row (top down) with a nonzero entry becomes the pivot row.
    """
    m = [list(r) for r in matrix.rows]
    nrows, ncols = matrix.nrows, matrix.ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * v for v in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return ExactMatrix(m, ncols=ncols), tuple(pivots)


def _echelon_reduce(
    vec: Sequence[GaussianRational],
    rows: Sequence[Sequence[GaussianRational]],
    pivots: Sequence[int],
) -> list[GaussianRational]:
    out = list(vec)
    for row, pivot in zip(rows, pivots):
        c = out[pivot]
        if not c.is_zero():
            out = [x - c * r for x, r in zip(out, row)]
    return out


def _harmonic_representatives(
    kernel: Sequence[Vector], image_vectors: Sequence[Vector], n: int
) -> list[Vector]:
    if image_vectors:
        reduced_img, img_pivots = rref(ExactMatrix(list(image_vectors), ncols=n))
        img_rows = reduced_img.rows[: len(img_pivots)]
    else:
        img_rows, img_pivots = [], ()
    reps: list[Vector] = []
    seen_rows: list[list[GaussianRational]] = []
    seen_pivots: list[int] = []
    for vec in kernel:
        reduced = _echelon_reduce(vec, img_rows, img_pivots)
        probe = _echelon_reduce(reduced, seen_rows, seen_pivots)
        lead = next((c for c, x in enumerate(probe) if not x.is_zero()), None)
        if lead is None:
            continue
        reps.append(tuple(reduced))
        inv = probe[lead].inverse()
        seen_rows.append([x * inv for x in probe])
        seen_pivots.append(lead)
    return reps


class _EchelonSpan:
    """Fully reduced row-echelon span tracker over the Gaussian rationals.

    Rows are kept monic at their pivot and eliminated in every other row,
    so membership, growth, and coordinate extraction are all direct.
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.rows: list[list[GaussianRational]] = []
        self.pivots: list[int] = []

    def reduce(self, vec: Sequence[GaussianRational]) -> list[GaussianRational]:
        out = list(vec)
        for row, pivot in zip(self.rows, self.pivots):
            c = out[pivot]
            if not c.is_zero():
                out = [x - c * r for x, r in zip(out, row)]
        return out

    def add(self, vec: Sequence[GaussianRational]) -> bool:
        """Insert a vector; report whether the span grew."""
        reduced = self.reduce(vec)
        pivot = next((i for i, x in enumerate(reduced) if not x.is_zero()), None)
        if pivot is None:
            return False
        inv = reduced[pivot].inverse()
        new_row = [x * inv for x in reduced]
        for row in self.rows:
            c = row[pivot]
            if not c.is_zero():
                for i in range(self.length):
                    row[i] = row[i] - c * new_row[i]
        position = next(
            (i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots)
        )
        self.rows.insert(position, new_row)
        self.pivots.insert(position, pivot)
        return True

    def contains(self, vec: Sequence[GaussianRational]) -> bool:
        return all(x.is_zero() for x in self.reduce(vec))

    def coordinates(self, vec: Sequence[GaussianRational]) -> list[GaussianRational] | None:
        """Coordinates w.r.t. the echelon rows, or None if not in the span."""
        if not self.contains(vec):
            return None
        return [vec[p] for p in self.pivots]


def polynomial_residual(vec, span: _EchelonSpan) -> list:
    """The residual loop of the rational-fixed-point certificate.

    Subtracts the original pivot coordinate of ``vec`` times each span row.
    """
    coords = [vec[p] for p in span.pivots]
    check = list(vec)
    for coeff, srow in zip(coords, [list(r) for r in span.rows]):
        check = [
            c - coeff.scale(entry) if not entry.is_zero() else c
            for c, entry in zip(check, srow)
        ]
    return check
