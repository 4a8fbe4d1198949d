"""FROZEN series oracle: the deformation series expanded in rational arithmetic.

This module keeps, verbatim, ``expand_series`` as it was when every degree
brought the full self-bracket through ``Dgla.bracket_vectors`` on
``MultiPoly`` coordinates, applied the homotopy and the harmonic
coordinates as ``ExactMatrix`` products, and expanded every degree up to
the truncation order.  The fraction-free kernel in ``kuranishi.engine``
replaced it; ``test_series_oracle`` compares ``(series, obstructions)``.

``MINUS_HALF`` and ``_harmonic_poly_coordinates`` were imported from the
engine; they are copied here verbatim, so that no engine edit changes this
reference.  Nothing else changed.

The ring-generic maps it calls left the package for the frozen
``oracle_maps``; they are imported from there and called as functions of
their former owner (``dgla.bracket_vectors(`` became
``bracket_vectors(dgla, ``), with the same logic.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from kuranishi.engine import KuranishiProblem
from kuranishi.poly import MultiPoly
from kuranishi.scalars import GaussianRational, ONE
from oracle_maps import apply, bracket_vectors


#: the factor of the series recursion ``s_k = -1/2 H sb_k``
MINUS_HALF = GaussianRational(Fraction(-1, 2))


def _harmonic_poly_coordinates(
    problem: KuranishiProblem, degree: int, vec: Sequence[MultiPoly]
) -> list[MultiPoly]:
    record = problem.hodge.get(degree)
    if record is None or not record.harmonic:
        return []
    return list(apply(record.harmonic_coordinates, vec, problem.ring.zero()))


def expand_series(
    problem: KuranishiProblem, order: int
) -> tuple[dict[int, list[MultiPoly]], dict[int, list[MultiPoly]]]:
    """Expand the deformation series and its obstructions up to ``order``.

    Returns ``(series, obstructions)``: ``series[k]`` is the degree-k term
    of the series as a polynomial-valued degree-one coordinate vector
    (``series[1]`` is the linear term) and ``obstructions[k]`` lists the
    harmonic coordinates of the degree-k part of the self-bracket, one
    homogeneous polynomial per degree-two harmonic direction.
    """
    ring = problem.ring
    zero = ring.zero()
    dgla = problem.dgla
    series: dict[int, list[MultiPoly]] = {1: list(problem.linear_term)}
    obstructions: dict[int, list[MultiPoly]] = {}
    homotopy2 = problem.homotopy(2)
    for k in range(2, order + 1):
        self_bracket = [zero] * dgla.dim(2)
        for i in range(1, k):
            j = k - i
            if i > j:
                break
            term = bracket_vectors(dgla, 1, series[i], 1, series[j], zero=zero)
            factor = ONE if i == j else GaussianRational(2)
            self_bracket = [
                acc + value.scale(factor) for acc, value in zip(self_bracket, term)
            ]
        obstructions[k] = _harmonic_poly_coordinates(problem, 2, self_bracket)
        correction = apply(homotopy2, self_bracket, zero)
        series[k] = [p.scale(MINUS_HALF) for p in correction]
        for p in series[k]:
            if not p.is_zero() and not (
                p.is_homogeneous() and p.total_degree() == k
            ):
                raise RuntimeError(
                    f"series term of degree {k} is not homogeneous of degree {k}"
                )
    return series, obstructions
