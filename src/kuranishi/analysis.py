"""End-to-end analysis of a nilmanifold complex structure with a bundle.

This module wires the invariant-complex builder to the Kuranishi engine:
it builds the joint complex of the structure and the trivial bundle of a
chosen rank, with the deformation and endomorphism complexes as its two
blocks, runs the series and obstruction analysis on each of the three,
decides smoothness of the three germs, and issues the splitting verdict.
It also carries two side checks: the abelian-preservation locus of the
linear deformation term, read off the coupling bracket of the joint DGLA,
and nilpotency-degree bounds on the certified obstruction generators.
It uses only the public names of the modules it wires together.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builders import PairDgla, build_pair_dgla
from .dgla import Dgla
from .engine import (
    GermInvariants,
    KuranishiProblem,
    SeriesAnalysis,
    SplittingAssessment,
    analyze_obstructions,
    assess_splitting,
    germ_invariants,
    kuranishi_problem,
    product_of_germs,
)
from .groebner import normal_form, reduced_groebner_basis
from .lie import ComplexStructure
from .poly import MultiPoly

__all__ = [
    "AbelianPreservationCheck",
    "BlockAnalysis",
    "DegreeBoundCheck",
    "StructureAnalysis",
    "abelian_preservation_check",
    "analyze_structure",
    "describe_vector",
]


def describe_vector(coeffs, labels) -> str:
    """Render an exact coordinate vector as a readable linear combination."""
    parts: list[str] = []
    for coeff, label in zip(coeffs, labels):
        if coeff.is_zero():
            continue
        text = str(coeff)
        if text == "1":
            term = label
        elif text == "-1":
            term = f"-{label}"
        else:
            if "+" in text or "-" in text[1:]:
                text = f"({text})"
            term = f"{text}*{label}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


@dataclass
class BlockAnalysis:
    """Kuranishi analysis of one block of the joint problem."""

    name: str
    dgla: Dgla
    problem: KuranishiProblem
    cohomology: dict[int, int]
    harmonic_descriptions: list[str]
    series: SeriesAnalysis
    germ: GermInvariants


@dataclass
class DegreeBoundCheck:
    """Nilpotency bound on the degrees of certified obstruction generators."""

    block: str
    bound: int
    max_generator_degree: int | None
    status: str  # "pass" | "fail" | "unknown"


@dataclass
class AbelianPreservationCheck:
    """Locus where the linear deformation term preserves abelian-ness.

    The contraction of the linear term into an invariant coframe form reads
    two ways: taken literally it has no slot to contract and vanishes
    identically, which decides nothing; contracting into the differential
    of the form instead cuts out a locus by linear equations on the
    deformation parameters.  Both readings are reported, together with a
    consistency note recording whether every computed series correction
    vanishes on the locus.
    """

    applicable: bool
    literal_identically_zero: bool
    constraints: list[MultiPoly]
    series_collapses_on_locus: bool | None


@dataclass
class StructureAnalysis:
    """Complete analysis of a (complex structure, trivial bundle) pair."""

    classification: dict
    rank: int
    pivot_rule: str
    pair: PairDgla
    deformation: BlockAnalysis
    endomorphism: BlockAnalysis
    joint: BlockAnalysis
    product_germ: GermInvariants | None
    coupling_is_zero: bool
    splitting: SplittingAssessment
    abelian_check: AbelianPreservationCheck
    degree_bounds: list[DegreeBoundCheck]

    def blocks(self) -> list[BlockAnalysis]:
        return [self.deformation, self.endomorphism, self.joint]


def abelian_preservation_check(
    structure: ComplexStructure,
    pair: PairDgla,
    problem: KuranishiProblem,
    series: dict[int, list[MultiPoly]] | None = None,
) -> AbelianPreservationCheck:
    """Check whether the linear deformation term preserves abelian-ness.

    Only applies when the structure is abelian to begin with.  The
    d-twisted contraction of the linear term into each coframe form is a
    two-form-valued expression linear in the parameters; its coefficients,
    echelonized, cut out the preservation locus.

    That contraction is the coupling bracket of the pair DGLA: for
    ``a^i*W_x`` in the deformation block and ``a^j*E_uv`` in the
    endomorphism block, the bracket is ``a^i ^ (i_{W_x} d a^j)^{(0,1)}``
    valued in ``E_uv``.  So the equations are the degree-two coefficients
    of the degree-one coupling brackets, deformation side first, weighted by
    the harmonic representatives of ``problem``.  Each equation repeats once
    per ``E_uv``, which leaves the ideal and its reduced basis unchanged.
    """
    if not structure.is_abelian():
        return AbelianPreservationCheck(
            applicable=False,
            literal_identically_zero=True,
            constraints=[],
            series_collapses_on_locus=None,
        )
    ring = problem.ring
    split = pair.deformation.dim(1)
    accumulated: dict[tuple[int, int], MultiPoly] = {}
    for ((i, a), (j, b)), entry in pair.coupling.items():
        if (i, j) != (1, 1) or a >= split:
            continue
        for name, rep in zip(problem.parameters, problem.harmonic_reps):
            if rep[a].is_zero():
                continue
            variable = ring.var(name)
            for c, coeff in entry.items():
                key = (b, c)
                current = accumulated.get(key, ring.zero())
                accumulated[key] = current + variable.scale(rep[a] * coeff)
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


def _degree_bounds(
    classification: dict,
    deformation: SeriesAnalysis,
    endomorphism: SeriesAnalysis,
    joint: SeriesAnalysis | None,
) -> list[DegreeBoundCheck]:
    nu = classification.get("nilpotency_index")
    if nu is None:
        return []
    table = [
        ("deformation", nu, deformation),
        ("endomorphism", nu + 1, endomorphism),
    ]
    if joint is not None:
        table.append(("joint", nu + 1, joint))
    checks = []
    for name, bound, analysis in table:
        degrees = [g.total_degree() for g in analysis.generators]
        top = max(degrees) if degrees else None
        if not analysis.exact:
            status = "unknown"
        elif top is None or top <= bound:
            status = "pass"
        else:
            status = "fail"
        checks.append(
            DegreeBoundCheck(
                block=name, bound=bound, max_generator_degree=top, status=status
            )
        )
    return checks


def _block(
    name: str, dgla: Dgla, problem: KuranishiProblem, truncation: int | None
) -> BlockAnalysis:
    series = analyze_obstructions(problem, truncation)
    germ = germ_invariants(
        problem.ring, series.generators, exact=series.exact
    )
    labels = dgla.basis.get(1, [])
    descriptions = [describe_vector(rep, labels) for rep in problem.harmonic_reps]
    return BlockAnalysis(
        name=name,
        dgla=dgla,
        problem=problem,
        cohomology={i: len(record.harmonic) for i, record in problem.hodge.items()},
        harmonic_descriptions=descriptions,
        series=series,
        germ=germ,
    )


def analyze_structure(
    structure: ComplexStructure,
    *,
    rank: int = 1,
    truncation: int | None = None,
    pivot_rule: str = "earliest",
    curvature=None,
) -> StructureAnalysis:
    """Run the complete Kuranishi analysis for a structure and bundle rank.

    Builds and validates the joint complex (which contains both blocks),
    analyzes the three deformation problems, compares the joint germ with
    the product germ, and issues the splitting verdict.

    Without curvature the joint parameters are the deformation parameters
    followed by the endomorphism ones, by position, which is how the
    product germ embeds the block germs.  With a nonzero ``curvature`` the
    joint differential couples the blocks, the joint parameters carry no
    block meaning (they are named ``u1...``), and there is no product germ,
    so :func:`assess_splitting` returns ``Inconclusive``; the block analyses
    then describe the uncoupled problems only.
    """
    pair = build_pair_dgla(structure, rank, curvature=curvature)
    d_problem = kuranishi_problem(pair.deformation, prefix="t", pivot_rule=pivot_rule)
    e_problem = kuranishi_problem(
        pair.endomorphism, prefix="s", pivot_rule=pivot_rule
    )
    curved = pair.has_curvature()
    joint_names = None if curved else d_problem.parameters + e_problem.parameters
    j_problem = kuranishi_problem(pair.dgla, joint_names, prefix="u", pivot_rule=pivot_rule)

    deformation = _block("deformation", pair.deformation, d_problem, truncation)
    endomorphism = _block("endomorphism", pair.endomorphism, e_problem, truncation)
    joint = _block("joint", pair.dgla, j_problem, truncation)

    product_germ = None
    if not curved:
        product_germ = product_of_germs(j_problem.ring, deformation.germ, endomorphism.germ)
    coupling_zero = pair.coupling_is_zero()
    splitting = assess_splitting(joint.germ, product_germ, coupling_is_zero=coupling_zero)
    classification = structure.classify()
    abelian = abelian_preservation_check(
        structure, pair, d_problem, deformation.series.series
    )
    bounds = _degree_bounds(
        classification,
        deformation.series,
        endomorphism.series,
        None if curved else joint.series,
    )
    return StructureAnalysis(
        classification=classification,
        rank=rank,
        pivot_rule=pivot_rule,
        pair=pair,
        deformation=deformation,
        endomorphism=endomorphism,
        joint=joint,
        product_germ=product_germ,
        coupling_is_zero=coupling_zero,
        splitting=splitting,
        abelian_check=abelian,
        degree_bounds=bounds,
    )
