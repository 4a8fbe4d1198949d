"""Determinism and correctness tests for exact linear algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuranishi.linalg import (
    ExactMatrix,
    inverse,
    kernel_basis,
    pivot_columns,
    rref,
)
from kuranishi.scalars import GaussianRational, ONE, ZERO
from oracle_maps import apply

entries = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)


@st.composite
def matrices(draw: st.DrawFn, max_dim: int = 5) -> ExactMatrix:
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return ExactMatrix(rows)


def _is_rref(m: ExactMatrix, pivots: tuple[int, ...]) -> bool:
    for row_idx, pcol in enumerate(pivots):
        if not m.rows[row_idx][pcol].is_one():
            return False
        for i in range(m.nrows):
            if i != row_idx and not m.rows[i][pcol].is_zero():
                return False
        if any(not v.is_zero() for v in m.rows[row_idx][:pcol]):
            return False
    for i in range(len(pivots), m.nrows):
        if any(not v.is_zero() for v in m.rows[i]):
            return False
    return True


@given(matrices())
@settings(max_examples=60)
def test_rref_shape_and_idempotence(m: ExactMatrix) -> None:
    reduced, pivots = rref(m)
    assert _is_rref(reduced, pivots)
    again, pivots2 = rref(reduced)
    assert again == reduced and pivots2 == pivots


@given(matrices())
@settings(max_examples=60)
def test_rank_nullity(m: ExactMatrix) -> None:
    _, pivots = rref(m)
    basis = kernel_basis(*rref(m))
    assert len(pivots) + len(basis) == m.ncols
    for vec in basis:
        assert all(v.is_zero() for v in apply(m, vec))


@given(matrices())
@settings(max_examples=60)
def test_kernel_basis_determinism_convention(m: ExactMatrix) -> None:
    _, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = kernel_basis(*rref(m))
    assert len(basis) == len(free)
    for vec, fcol in zip(basis, free):
        assert vec[fcol].is_one()
        for other in free:
            if other != fcol:
                assert vec[other].is_zero()


@given(matrices())
@settings(max_examples=60)
def test_pivot_rules_give_coordinate_complements(m: ExactMatrix) -> None:
    kernel = kernel_basis(*rref(m))
    for rule in ("earliest", "latest"):
        piv = pivot_columns(*rref(m), rule)
        assert len(piv) + len(kernel) == m.ncols
        unit_vectors = [
            tuple(ONE if i == p else ZERO for i in range(m.ncols)) for p in piv
        ]
        stacked = ExactMatrix([list(v) for v in kernel + unit_vectors])
        _, pivots = rref(stacked)
        assert len(pivots) == m.ncols  # kernel + complement spans everything


def test_pivot_rules_differ_when_possible() -> None:
    m = ExactMatrix([[1, 1]])
    assert pivot_columns(*rref(m), "earliest") == (0,)
    assert pivot_columns(*rref(m), "latest") == (1,)
    with pytest.raises(ValueError):
        pivot_columns(*rref(m), "gauss")


def test_inverse_small() -> None:
    m = ExactMatrix([[1, 2], [3, 4]])
    inv = inverse(m)
    assert m @ inv == ExactMatrix.identity(2)
    assert inv @ m == ExactMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(ExactMatrix([[1, 2], [2, 4]]))


def test_inverse_complex_entries() -> None:
    i = GaussianRational(0, 1)
    m = ExactMatrix([[i, 1], [0, i]])
    assert m @ inverse(m) == ExactMatrix.identity(2)


def test_matmul_and_stack() -> None:
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert (a @ b).rows == ExactMatrix([[2, 1], [4, 3]]).rows
    assert a.column(1) == (GaussianRational(2), GaussianRational(4))


def test_from_columns_round_trip() -> None:
    cols = [[1, 0, 2], [0, 1, 3]]
    m = ExactMatrix.from_columns(cols)
    assert m.nrows == 3 and m.ncols == 2
    assert [list(c) for c in m.columns()] == [
        [GaussianRational(1), GaussianRational(0), GaussianRational(2)],
        [GaussianRational(0), GaussianRational(1), GaussianRational(3)],
    ]
