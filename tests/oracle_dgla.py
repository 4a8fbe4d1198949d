"""FROZEN axiom-gate oracle: the dense DGLA axiom check the engine used to carry.

This module keeps, verbatim, ``dgla_axiom_failures`` with its helpers
``_add_scaled_entry`` and ``_pair_text`` as they were when the gate visited
every ordered pair of basis keys (Leibniz) and every sorted triple
(Jacobi), reading dense differential columns from ``differential_matrix``.
The sparse gate in ``kuranishi.dgla`` replaced it; the test suite compares
the two failure lists, message for message and in order.

The ring-generic maps it calls left the package for the frozen
``oracle_maps``; they are imported from there and called as functions of
their former owner (``dgla.bracket_vectors(`` became
``bracket_vectors(dgla, ``), with the same logic.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Mapping

from kuranishi.dgla import BasisKey, Dgla
from kuranishi.scalars import GaussianRational, ONE, ZERO
from oracle_maps import basis_keys, bracket_entry


def _add_scaled_entry(
    acc: dict[int, GaussianRational],
    coeff: GaussianRational,
    entry: Mapping[int, GaussianRational],
) -> None:
    for c, v in entry.items():
        w = acc.get(c, ZERO) + coeff * v
        if w.is_zero():
            acc.pop(c, None)
        else:
            acc[c] = w


def _pair_text(dgla: Dgla, key_a: BasisKey, key_b: BasisKey) -> str:
    return f"[{dgla.label(*key_a)}, {dgla.label(*key_b)}]"


def dgla_axiom_failures(dgla: Dgla, *, max_failures: int = 20) -> list[str]:
    """Human-readable list of axiom violations (empty when valid).

    Checks, in order: ``d`` squares to zero, the bracket is graded
    antisymmetric, the graded Leibniz rule, and the graded Jacobi identity.
    At most ``max_failures`` messages are collected.
    """
    failures: list[str] = []

    def full() -> bool:
        return len(failures) >= max_failures

    for i in dgla.degrees():
        square = dgla.differential_matrix(i + 1) @ dgla.differential_matrix(i)
        if not square.is_zero():
            failures.append(f"d(d(x)) is nonzero for x in degree {i}")
            if full():
                return failures

    for (key_a, key_b), entry in sorted(dgla.brackets.items()):
        sign = -ONE if (key_a[0] * key_b[0]) % 2 == 0 else ONE
        expected = {c: v * sign for c, v in entry.items()}
        if bracket_entry(dgla, key_b, key_a) != expected:
            failures.append(
                f"bracket is not graded-antisymmetric on {_pair_text(dgla, key_a, key_b)}"
            )
            if full():
                return failures

    keys = basis_keys(dgla)
    for key_a in keys:
        i, a = key_a
        d_a = dgla.differential_matrix(i).column(a)
        for key_b in keys:
            j, b = key_b
            lhs: dict[int, GaussianRational] = {}
            target = dgla.differential_matrix(i + j)
            for c, v in bracket_entry(dgla, key_a, key_b).items():
                _add_scaled_entry(lhs, v, dict(enumerate(target.column(c))))
            rhs: dict[int, GaussianRational] = {}
            for c, v in enumerate(d_a):
                if not v.is_zero():
                    rhs_entry = bracket_entry(dgla, (i + 1, c), key_b)
                    _add_scaled_entry(rhs, v, rhs_entry)
            sign = ONE if i % 2 == 0 else -ONE
            for c, v in enumerate(dgla.differential_matrix(j).column(b)):
                if not v.is_zero():
                    _add_scaled_entry(rhs, v * sign, bracket_entry(dgla, key_a, (j + 1, c)))
            if lhs != rhs:
                failures.append(
                    f"Leibniz rule fails on {_pair_text(dgla, key_a, key_b)}"
                )
                if full():
                    return failures

    for key_x, key_y, key_z in combinations_with_replacement(keys, 3):
        entry_yz = bracket_entry(dgla, key_y, key_z)
        entry_zx = bracket_entry(dgla, key_z, key_x)
        entry_xy = bracket_entry(dgla, key_x, key_y)
        if not (entry_yz or entry_zx or entry_xy):
            continue
        i, j, k = key_x[0], key_y[0], key_z[0]
        total: dict[int, GaussianRational] = {}
        for outer, degree, entry, sign_exp in (
            (key_x, j + k, entry_yz, i * k),
            (key_y, k + i, entry_zx, j * i),
            (key_z, i + j, entry_xy, k * j),
        ):
            sign = ONE if sign_exp % 2 == 0 else -ONE
            for m, v in entry.items():
                _add_scaled_entry(total, v * sign, bracket_entry(dgla, outer, (degree, m)))
        if total:
            failures.append(
                "graded Jacobi identity fails on "
                f"({dgla.label(*key_x)}, {dgla.label(*key_y)}, {dgla.label(*key_z)})"
            )
            if full():
                return failures

    return failures
