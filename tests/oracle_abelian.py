"""FROZEN abelian-preservation oracle: the check as it rebuilt the contraction by hand.

This module keeps, verbatim, ``abelian_preservation_check`` as it was when
it recomputed the d-twisted contraction of the linear deformation term from
the contraction coefficients, reading the word and the vector of every
degree-one deformation position off the layout (``position // m``,
``position % m``).  The check in ``kuranishi.analysis`` now reads the same
contraction off the coupling bracket of the pair DGLA; ``test_abelian_oracle``
compares the two.  The contraction coefficients and the word sort come from
the frozen ``oracle_builders``.  Only the imports are rewritten.

Frozen at creation; do not edit when changing the analysis.
"""

from __future__ import annotations

from kuranishi.analysis import AbelianPreservationCheck
from kuranishi.engine import KuranishiProblem
from kuranishi.groebner import normal_form, reduced_groebner_basis
from kuranishi.lie import ComplexStructure
from kuranishi.poly import MultiPoly
from kuranishi.scalars import GaussianRational
from oracle_builders import _contraction_coefficients, _normalize_word


def abelian_preservation_check(
    structure: ComplexStructure,
    problem: KuranishiProblem,
    series: dict[int, list[MultiPoly]] | None = None,
) -> AbelianPreservationCheck:
    """Check whether the linear deformation term preserves abelian-ness.

    Only applies when the structure is abelian to begin with.  The
    d-twisted contraction of the linear term into each coframe form is a
    two-form-valued expression linear in the parameters; its coefficients,
    echelonized, cut out the preservation locus.
    """
    if not structure.is_abelian():
        return AbelianPreservationCheck(
            applicable=False,
            literal_identically_zero=True,
            constraints=[],
            series_collapses_on_locus=None,
        )
    ring = problem.ring
    m = structure.m
    lam = _contraction_coefficients(structure)
    accumulated: dict[tuple[int, tuple[int, ...]], MultiPoly] = {}
    for name, rep in zip(problem.parameters, problem.harmonic_reps):
        variable = ring.var(name)
        for position, gamma in enumerate(rep):
            if gamma.is_zero():
                continue
            word = (position // m,)
            vector = position % m
            for j in range(m):
                for b, coeff in lam[vector][j].items():
                    normalized = _normalize_word(word + (b,))
                    if normalized is None:
                        continue
                    target, sign = normalized
                    scale = gamma * coeff * GaussianRational(sign)
                    if scale.is_zero():
                        continue
                    key = (j, target)
                    current = accumulated.get(key, ring.zero())
                    accumulated[key] = current + variable.scale(scale)
    raw = [p for p in accumulated.values() if not p.is_zero()]
    constraints = reduced_groebner_basis(raw)
    collapses: bool | None = None
    if series is not None:
        collapses = all(
            normal_form(p, constraints).is_zero()
            for k, vec in series.items()
            if k >= 2
            for p in vec
        )
    return AbelianPreservationCheck(
        applicable=True,
        literal_identically_zero=True,
        constraints=constraints,
        series_collapses_on_locus=collapses,
    )
