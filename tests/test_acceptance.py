"""End-to-end acceptance suite.

Each test certifies one headline deliverable of the engine, so a verbose run
of this module reads as a nine-line checklist: the two worked reproductions,
the direct-sum splitting theorem instance, the nilpotency degree bounds, the
randomized axiom suite, the Hodge-homotopy identities, the series fixed-point
oracle, independence from presentation choices, and the differential test of
the Groebner engine against the frozen oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from oracle_groebner import oracle_membership
from oracle_maps import apply, bracket_vectors
from test_dgla import harmonic_projection
from tuple_polys import frozen

from kuranishi.analysis import StructureAnalysis, analyze_structure
from kuranishi.builders import build_pair_dgla
from kuranishi.catalog import build_catalog_structure, catalog_names
from kuranishi.dgla import hodge_decomposition, validate_dgla
from kuranishi.engine import expand_series
from kuranishi.groebner import ideal_membership, reduced_groebner_basis
from kuranishi.lie import ComplexStructure, LieAlgebra
from kuranishi.linalg import ExactMatrix, rref
from kuranishi.poly import MultiPoly, PolyRing
from kuranishi.scalars import GaussianRational

G = GaussianRational
MINUS_I = G(0, -1)


@cache
def _analyzed(name: str) -> StructureAnalysis:
    return analyze_structure(build_catalog_structure(name))


def _cross_block_matrix(
    poly: MultiPoly, left_width: int, right_width: int
) -> ExactMatrix | None:
    """Bilinear-form matrix of a quadric pairing the two parameter blocks.

    Returns None unless every monomial is a product of exactly one variable
    from the leading block and one from the trailing block.
    """

    zero = G(0)
    rows = [[zero] * right_width for _ in range(left_width)]
    for monomial, coeff in poly.terms.items():
        exponents = poly.ring.exponents(monomial)
        support = [i for i, e in enumerate(exponents) if e]
        if len(support) != 2:
            return None
        a, b = support
        if exponents[a] != 1 or exponents[b] != 1:
            return None
        if not (a < left_width <= b):
            return None
        rows[a][b - left_width] = coeff
    return ExactMatrix(rows)


def _matrix_rank(matrix: ExactMatrix) -> int:
    return len(rref(matrix)[1])


def _germ_shape(germ) -> tuple:
    """The presentation-independent fields of a germ record."""

    return (
        germ.embedding_dimension,
        tuple(germ.generator_degrees),
        germ.smooth,
        germ.dimension,
        germ.quadric_rank,
        germ.method,
    )


# -- worked reproductions ----------------------------------------------------


def test_example1_invariants():
    result = _analyzed("example1")
    deformation, endomorphism, joint = result.blocks()

    assert [b.cohomology[1] for b in result.blocks()] == [4, 3, 7]
    assert deformation.germ.smooth is True and deformation.germ.dimension == 4
    assert endomorphism.germ.smooth is True and endomorphism.germ.dimension == 3

    assert joint.germ.embedding_dimension == 7
    assert joint.germ.smooth is False
    assert joint.germ.generator_degrees == [2]
    assert joint.series.exact
    (generator,) = joint.germ.generators
    matrix = _cross_block_matrix(generator, 4, 3)
    assert matrix is not None, "the joint generator must pair the two blocks"
    assert _matrix_rank(matrix) == 1

    assert result.splitting.verdict == "DoesNotSplit"
    print("example1 reproduction: PASS")


def test_example2_invariants():
    result = _analyzed("example2")
    deformation, endomorphism, joint = result.blocks()

    assert deformation.cohomology[1] == 6
    assert deformation.germ.smooth is True and deformation.germ.dimension == 5
    assert endomorphism.cohomology[1] == 3
    assert endomorphism.germ.smooth is True and endomorphism.germ.dimension == 3

    assert joint.series.exact
    assert joint.germ.smooth is False
    cross = [
        matrix
        for matrix in (
            _cross_block_matrix(generator, 6, 3) for generator in joint.germ.generators
        )
        if matrix is not None
    ]
    assert any(_matrix_rank(matrix) == 1 for matrix in cross), (
        "some minimal generator must be a rank-one pairing of the blocks"
    )

    assert result.splitting.verdict == "DoesNotSplit"
    print("example2 reproduction: PASS")


# -- splitting and degree bounds ----------------------------------------------


def test_parallelizable_pair_splits_by_direct_sum():
    result = _analyzed("iwasawa")
    assert result.classification["parallelizable"] is True

    assert result.pair.coupling == {}
    assert not result.pair.has_curvature()
    assert result.coupling_is_zero is True
    assert result.splitting.verdict == "SplitsByDirectSum"

    deformation, endomorphism, joint = result.blocks()
    assert all(block.series.exact for block in result.blocks())
    ring = joint.series.problem.ring
    summed = [g.embed(ring) for g in deformation.series.generators] + [
        g.embed(ring) for g in endomorphism.series.generators
    ]
    assert reduced_groebner_basis(joint.series.generators) == (
        reduced_groebner_basis(summed)
    )
    print("direct-sum splitting on the parallelizable input: PASS")


def test_nilpotency_degree_bounds_on_iwasawa():
    result = _analyzed("iwasawa")
    assert result.classification["nilpotency_index"] == 2

    checks = {check.block: check for check in result.degree_bounds}
    assert checks["deformation"].bound == 2
    assert checks["endomorphism"].bound == 3
    assert all(check.status == "pass" for check in checks.values())
    for check in checks.values():
        if check.max_generator_degree is not None:
            assert check.max_generator_degree <= check.bound
    print("nilpotency degree bounds: PASS")


# -- randomized axiom suite ----------------------------------------------------


_FRAME_SCALARS = [
    G(0),
    G(1),
    G(-1),
    G(0, 1),
    G(0, -1),
    G(1, 1),
    G(Fraction(1, 2)),
    G(2),
]


def _random_frame_change(
    rng: random.Random, structure: ComplexStructure
) -> ComplexStructure:
    size = len(structure.frame)
    while True:
        columns = [
            [rng.choice(_FRAME_SCALARS) for _ in range(size)] for _ in range(size)
        ]
        try:
            return structure.change_frame(columns)
        except ValueError:
            continue  # singular draw; try again


def _random_base(rng: random.Random) -> tuple[ComplexStructure, int]:
    kind = rng.choices(("dim2", "dim4-flat", "dim4-step2", "dim6"), weights=(30, 17, 17, 36))[0]
    if kind == "dim2":
        structure = ComplexStructure(LieAlgebra.from_entries(2, []), [[1, MINUS_I]])
        rank = rng.choice((1, 2))
    elif kind == "dim4-flat":
        structure = ComplexStructure(
            LieAlgebra.from_entries(4, []), [[1, MINUS_I, 0, 0], [0, 0, 1, MINUS_I]]
        )
        rank = rng.choice((1, 2))
    elif kind == "dim4-step2":
        structure = ComplexStructure(
            LieAlgebra.from_entries(4, [(1, 2, 3, 1)]),
            [[1, MINUS_I, 0, 0], [0, 0, 1, MINUS_I]],
        )
        rank = rng.choice((1, 2))
    else:
        structure = build_catalog_structure(rng.choice(catalog_names()))
        rank = 1
    return _random_frame_change(rng, structure), rank


def test_axiom_suite_on_catalog_and_randomized_inputs():
    for name in catalog_names():
        pair = build_pair_dgla(build_catalog_structure(name), 1)
        for dgla in (pair.deformation, pair.endomorphism, pair.dgla):
            validate_dgla(dgla)

    rng = random.Random(20260816)
    for _ in range(50):
        structure, rank = _random_base(rng)
        assert structure.classify()["integrable"] is True
        pair = build_pair_dgla(structure, rank)
        for dgla in (pair.deformation, pair.endomorphism, pair.dgla):
            validate_dgla(dgla)
    print("axiom suite on catalog and 50 randomized inputs: PASS")


# -- Hodge-homotopy identities --------------------------------------------------


def test_hodge_homotopy_identities_on_every_catalog_entry():
    for name in catalog_names():
        pair = build_pair_dgla(build_catalog_structure(name), 1)
        for dgla in (pair.deformation, pair.endomorphism, pair.dgla):
            hodge = hodge_decomposition(dgla)

            def homotopy(p: int) -> ExactMatrix:
                record = hodge.get(p)
                if record is None:
                    return ExactMatrix.zeros(dgla.dim(p - 1), dgla.dim(p))
                return record.homotopy

            for p in sorted(dgla.basis):
                n = dgla.dim(p)
                d_below = dgla.differential_matrix(p - 1)
                d_here = dgla.differential_matrix(p)
                delta_here = homotopy(p)
                delta_above = homotopy(p + 1)

                reconstructed = d_below @ delta_here + delta_above @ d_here
                expected = ExactMatrix.identity(n) - harmonic_projection(hodge[p], n)
                assert reconstructed == expected, (name, p, "d delta + delta d")

                assert delta_here @ delta_above == ExactMatrix.zeros(
                    dgla.dim(p - 1), dgla.dim(p + 1)
                ), (name, p, "delta squared")

                assert delta_here @ d_below @ delta_here == delta_here, (
                    name,
                    p,
                    "delta d delta",
                )
    print("Hodge-homotopy identities: PASS")


# -- series fixed-point oracle ---------------------------------------------------


def _assert_series_solves_fixed_point(block) -> None:
    problem = block.problem
    analysis = block.series
    ring = problem.ring
    zero = ring.zero()
    total = [zero] * block.dgla.dim(1)
    for vec in analysis.series.values():
        total = [a + b for a, b in zip(total, vec)]
    bracket = bracket_vectors(block.dgla, 1, total, 1, total, zero=zero)
    correction = apply(problem.homotopy(2), bracket, zero)
    half = G(Fraction(1, 2))
    for position, (x_total, corr) in enumerate(zip(total, correction)):
        residual = x_total + corr.scale(half)
        for degree in range(2, analysis.truncation_order + 1):
            assert residual.homogeneous_component(degree).is_zero(), (
                block.name,
                position,
                degree,
            )


def test_series_solves_the_fixed_point_equation_on_every_catalog_entry():
    for name in catalog_names():
        result = _analyzed(name)
        for block in result.blocks():
            _assert_series_solves_fixed_point(block)

            analysis = block.series
            if analysis.certificate == "termination":
                cutoff = analysis.certificate_data["terminationOrder"]
                extended, obstructions = expand_series(
                    block.problem, analysis.truncation_order + 3
                )
                for degree, vec in extended.items():
                    if degree > cutoff:
                        assert all(p.is_zero() for p in vec), (name, block.name, degree)
                for degree, vec in obstructions.items():
                    if degree > 2 * cutoff:
                        assert all(p.is_zero() for p in vec), (name, block.name, degree)
    print("series fixed-point oracle and termination windows: PASS")


# -- choice independence -----------------------------------------------------------


def _permuted_example1() -> ComplexStructure:
    """The first worked example with basis vectors 3 and 6 relabeled."""

    algebra = LieAlgebra.from_entries(6, [(1, 2, 6, 1), (4, 5, 3, 1)])
    half = G(Fraction(1, 2))
    minus_half_i = G(0, Fraction(-1, 2))
    return ComplexStructure(
        algebra,
        [
            [half, minus_half_i, 0, 0, 0, 0],
            [0, 0, 0, half, minus_half_i, 0],
            [0, 0, minus_half_i, 0, 0, half],
        ],
    )


def test_choice_independence_under_permutation_and_pivot_rule():
    reference = _analyzed("example1")
    alternative = analyze_structure(_permuted_example1(), pivot_rule="latest")

    for ref_block, alt_block in zip(reference.blocks(), alternative.blocks()):
        assert ref_block.cohomology == alt_block.cohomology
        assert _germ_shape(ref_block.germ) == _germ_shape(alt_block.germ)
    assert _germ_shape(reference.product_germ) == _germ_shape(alternative.product_germ)
    assert alternative.splitting.verdict == reference.splitting.verdict == "DoesNotSplit"
    assert (
        alternative.splitting.ideal_comparison
        == reference.splitting.ideal_comparison
        == "different"
    )
    print("choice independence (permuted basis, latest pivots): PASS")


# -- Groebner differential test ------------------------------------------------------


_RING = PolyRing(["x", "y", "z"])
_UNITS = [G(1), G(-1), G(0, 1), G(0, -1), G(2), G(Fraction(1, 2)), G(1, 1)]


def _random_poly(rng: random.Random, max_terms: int, max_deg: int) -> MultiPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [0, 0, 0]
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(3)] += 1
        coeff = G(rng.randint(-3, 3), rng.randint(-1, 1))
        terms.append((tuple(exps), coeff))
    return _RING.from_terms(terms)


def test_groebner_engine_agrees_with_the_frozen_oracle():
    rng = random.Random(814)
    checked = 0
    for _ in range(100):
        gens = [
            _random_poly(rng, max_terms=2, max_deg=3)
            for _ in range(rng.randint(1, 2))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue

        if rng.random() < 0.5:
            candidate = _RING.zero()
            for g in gens:
                candidate = candidate + _random_poly(rng, max_terms=2, max_deg=1) * g
        else:
            candidate = _random_poly(rng, max_terms=2, max_deg=3)
        expected = oracle_membership(frozen(candidate), [frozen(g) for g in gens])
        assert ideal_membership(candidate, gens) == expected

        shuffled = [g.scale(rng.choice(_UNITS)) for g in gens]
        rng.shuffle(shuffled)
        assert reduced_groebner_basis(gens) == reduced_groebner_basis(shuffled)
        assert reduced_groebner_basis(shuffled) == reduced_groebner_basis(gens)
        checked += 1
    assert checked >= 95
    print(f"Groebner engine vs frozen oracle on {checked} random ideals: PASS")
