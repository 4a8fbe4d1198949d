"""FROZEN Jacobi oracle: the dense check ``LieAlgebra`` used to carry.

This module keeps, verbatim, ``LieAlgebra.jacobi_failures`` with the
``bracket_basis`` accessor it read, as they were when a Lie algebra stored
its structure constants for index pairs ``i < j`` and checked the Jacobi
identity on every basis triple itself.  ``LieAlgebra`` now holds its
constants as a degree-zero ``Dgla`` and checks them through the sparse axiom
gate of ``kuranishi.dgla``; the test suite compares the gate's first failing
triple with the first triple listed here.

Both methods became functions of the former instance's ``dim`` and
``brackets`` (``self.bracket_basis(`` became ``bracket_basis(brackets, ``),
with the same logic.  ``brackets`` is an ``i < j`` table of sparse
coefficient dicts with ``GaussianRational`` values.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from typing import Mapping

from kuranishi.scalars import GaussianRational, ZERO

Table = Mapping[tuple[int, int], Mapping[int, GaussianRational]]


def bracket_basis(brackets: Table, i: int, j: int) -> dict[int, GaussianRational]:
    """Coefficients of [e_i, e_j] (any index order; antisymmetric)."""
    if i == j:
        return {}
    if i < j:
        return dict(brackets.get((i, j), {}))
    return {k: -c for k, c in brackets.get((j, i), {}).items()}


def jacobi_failures(dim: int, brackets: Table) -> list[tuple[int, int, int]]:
    """Basis triples (i < j < k) on which the Jacobi identity fails."""
    failures = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = [ZERO] * dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_basis(brackets, b, c)
                    for t, coeff in inner.items():
                        outer = bracket_basis(brackets, a, t)
                        for s, c2 in outer.items():
                            acc[s] = acc[s] + coeff * c2
                if any(not v.is_zero() for v in acc):
                    failures.append((i, j, k))
    return failures
