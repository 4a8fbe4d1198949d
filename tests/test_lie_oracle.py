"""Differential test of ``LieAlgebra``'s Jacobi check against the frozen dense one.

``oracle_lie`` keeps the check ``LieAlgebra`` carried before it held its
constants as a degree-zero ``Dgla``: a loop over every basis triple.  On
small sparse random tables, ``LieAlgebra`` must raise ``JacobiError``
exactly when that loop finds a failing triple, naming the first one.  Half
the draws send every bracket to a later basis vector, as in the nilpotent
algebras of the catalog, so that many tables satisfy the identity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_lie as oracle
from kuranishi.lie import JacobiError, LieAlgebra
from kuranishi.scalars import GaussianRational as G

_SCALARS = st.sampled_from(
    (G(1), G(-1), G(2), G(0, 1), G(1, -1), G("1/3", "2/3"), G("-1/2"), G(0))
)


@st.composite
def _tables(draw) -> tuple[int, dict[tuple[int, int], dict[int, G]]]:
    dim = draw(st.integers(2, 8))
    upward = draw(st.booleans())
    table: dict[tuple[int, int], dict[int, G]] = {}
    for _ in range(draw(st.integers(0, 2 * dim))):
        i = draw(st.integers(0, dim - 2))
        j = draw(st.integers(i + 1, dim - 1))
        if upward and j == dim - 1:
            continue
        k = draw(st.integers(j + 1 if upward else 0, dim - 1))
        table.setdefault((i, j), {})[k] = draw(_SCALARS)
    return dim, table


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_jacobi_check_matches_frozen_oracle(drawn) -> None:
    dim, table = drawn
    failures = oracle.jacobi_failures(dim, table)
    if not failures:
        LieAlgebra(dim, table)
        return
    i, j, k = failures[0]
    with pytest.raises(JacobiError) as caught:
        LieAlgebra(dim, table)
    assert str(caught.value) == f"graded Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1})"
