"""Exact dense linear algebra over the Gaussian rationals.

All row elimination goes through one routine, :class:`EchelonBasis`: it
keeps the reduced row echelon form of a growing span (rows monic at their
pivot, zero at every other row's pivot, sorted by pivot), which is unique,
so the rows and pivots do not depend on the order the vectors arrive in.

All decisions that depend on basis choices are made deterministic:

* ``rref`` inserts the rows of a matrix into an ``EchelonBasis`` and pads
  the zero rows at the bottom.
* ``kernel_basis`` and ``pivot_columns`` read the ``(reduced, pivots)`` that
  ``rref`` returns, so one elimination serves both.  ``kernel_basis`` emits
  one vector per free column, in increasing column order, with entry 1 at
  the free position.  ``pivot_columns`` supports an ``earliest`` rule (the
  rref pivots) and a ``latest`` rule (pivots of the column-reversed echelon
  rows mapped back), so a caller can pick coordinate complements under
  either convention.

``ExactMatrix.__matmul__`` is the one matrix product.  Every vector here,
for ``EchelonBasis`` and ``kernel_basis`` alike, is a vector of scalars.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from .scalars import GaussianRational, ONE, ZERO

__all__ = [
    "EchelonBasis",
    "ExactMatrix",
    "rref",
    "kernel_basis",
    "pivot_columns",
    "inverse",
]

Vector = tuple[GaussianRational, ...]


def _coerce_row(row: Iterable[object]) -> list[GaussianRational]:
    coerce = GaussianRational.coerce
    return [
        v if type(v) is GaussianRational else coerce(v)  # type: ignore[arg-type]
        for v in row
    ]


class ExactMatrix:
    """A dense matrix of :class:`GaussianRational` entries.

    Rows are stored as lists; the matrix itself should be treated as
    immutable after construction (mutating helpers return new matrices).
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence[object]], ncols: int | None = None) -> None:
        data = [_coerce_row(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = 0 if ncols is None else ncols
        self.rows: list[list[GaussianRational]] = data
        self.nrows: int = len(data)
        self.ncols: int = width if data else (ncols or 0)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)], ncols=n
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[object]], nrows: int | None = None) -> "ExactMatrix":
        cols = [_coerce_row(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("ragged columns")
        else:
            height = nrows or 0
        return cls(
            [[cols[j][i] for j in range(len(cols))] for i in range(height)],
            ncols=len(cols),
        )

    # -- basic ops --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        return self.rows[i][j]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"ExactMatrix({self.nrows}x{self.ncols}: {body})"

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.rows for v in row)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            ncols=self.ncols,
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            ncols=self.ncols,
        )

    def scale(self, c: object) -> "ExactMatrix":
        s = GaussianRational.coerce(c)  # type: ignore[arg-type]
        return ExactMatrix(
            [[s * v for v in row] for row in self.rows], ncols=self.ncols
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.ncols} vs {other.nrows}")
        out = [[ZERO] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            for k, a in enumerate(row):
                if a.is_zero():
                    continue
                orow = other.rows[k]
                dest = out[i]
                for j, b in enumerate(orow):
                    if not b.is_zero():
                        dest[j] = dest[j] + a * b
        return ExactMatrix(out, ncols=other.ncols)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]


def _subtract_multiple(
    vec: list[GaussianRational],
    c: GaussianRational,
    row: Sequence[GaussianRational],
    support: Iterable[int],
) -> None:
    """``vec -= c * row`` in place, where ``support`` holds the nonzero
    positions of ``row``."""
    for j in support:
        vec[j] = vec[j] - c * row[j]


class EchelonBasis:
    """The reduced row echelon basis of a growing span of vectors.

    ``rows`` are monic at their pivot, zero at every other row's pivot, and
    sorted by pivot; ``pivots`` lists those pivot columns.  This form of a
    span is unique, so it does not depend on the insertion order.  Each row
    also keeps its nonzero positions, so elimination touches only those;
    a stored row is replaced, never changed in place.
    """

    __slots__ = ("length", "rows", "pivots", "_supports")

    def __init__(self, length: int, vectors: Iterable[Sequence[object]] = ()) -> None:
        self.length = length
        self.rows: list[list[GaussianRational]] = []
        self.pivots: list[int] = []
        self._supports: list[list[int]] = []
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec: Sequence[GaussianRational]) -> list[GaussianRational]:
        """``vec`` minus ``vec[p] * row`` for each row and its pivot ``p``.

        The result vanishes at every pivot, and is zero iff ``vec`` lies in
        the span.
        """
        if len(vec) != self.length:
            raise ValueError("vector length mismatch")
        out = list(vec)
        for row, pivot, support in zip(self.rows, self.pivots, self._supports):
            c = out[pivot]
            if not c.is_zero():
                _subtract_multiple(out, c, row, support)
        return out

    def add(self, vec: Sequence[GaussianRational]) -> bool:
        """Insert a scalar vector; report whether the span grew."""
        new_row = self.reduce(vec)
        support = [j for j, x in enumerate(new_row) if not x.is_zero()]
        if not support:
            return False
        pivot = support[0]
        if not new_row[pivot].is_one():
            inv = new_row[pivot].inverse()
            for j in support:
                new_row[j] = new_row[j] * inv
        for k, row in enumerate(self.rows):
            c = row[pivot]
            if not c.is_zero():
                row = self.rows[k] = list(row)
                _subtract_multiple(row, c, new_row, support)
                merged = sorted(set(self._supports[k]).union(support))
                self._supports[k] = [j for j in merged if not row[j].is_zero()]
        position = bisect.bisect(self.pivots, pivot)
        self.rows.insert(position, new_row)
        self.pivots.insert(position, pivot)
        self._supports.insert(position, support)
        return True

    def contains(self, vec: Sequence[GaussianRational]) -> bool:
        """Whether ``vec`` lies in the span."""
        return all(x.is_zero() for x in self.reduce(vec))


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form with its pivot columns.

    The nonzero rows are the :class:`EchelonBasis` of the row span; zero
    rows pad the result to the matrix's height.
    """
    basis = EchelonBasis(matrix.ncols, matrix.rows)
    zeros = [[ZERO] * matrix.ncols for _ in range(matrix.nrows - len(basis.rows))]
    return ExactMatrix(basis.rows + zeros, ncols=matrix.ncols), tuple(basis.pivots)


def pivot_columns(
    reduced: ExactMatrix, pivots: Sequence[int], rule: str = "earliest"
) -> tuple[int, ...]:
    """Column indices that index an injective coordinate complement of the kernel.

    Takes the ``(reduced, pivots)`` that :func:`rref` returns for the matrix.
    ``earliest`` keeps those pivots.  ``latest`` processes columns right to
    left (the pivots of the column-reversed nonzero rows, which span the
    matrix's row space) and maps them back, preferring the highest-index
    columns.  Both return sorted indices.
    """
    if rule == "earliest":
        return tuple(pivots)
    if rule == "latest":
        reversed_cols = ExactMatrix(
            [list(reversed(row)) for row in reduced.rows[: len(pivots)]],
            ncols=reduced.ncols,
        )
        _, piv = rref(reversed_cols)
        return tuple(sorted(reduced.ncols - 1 - p for p in piv))
    raise ValueError(f"unknown pivot rule {rule!r}")


def kernel_basis(reduced: ExactMatrix, pivots: Sequence[int]) -> list[Vector]:
    """Deterministic basis of the right kernel.

    Takes the ``(reduced, pivots)`` that :func:`rref` returns for the matrix.
    One vector per free column, emitted in increasing free-column order; each
    has entry 1 at its free column and the solved pivot entries elsewhere.
    """
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(reduced.ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * reduced.ncols
        vec[free] = ONE
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -reduced.rows[row_idx][free]
        basis.append(tuple(vec))
    return basis


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix (raises on singular input)."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.nrows
    augmented = [
        row + [ONE if j == i else ZERO for j in range(n)]
        for i, row in enumerate(matrix.rows)
    ]
    reduced, pivots = rref(ExactMatrix(augmented, ncols=2 * n))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return ExactMatrix([row[n:] for row in reduced.rows], ncols=n)
