"""Tests for the Kuranishi engine: series, certificates, germs, splitting.

The frozen expectations for the catalog structures were derived by hand
from the harmonic bases printed by the builders and are cross-checked
against an independent fixed-point identity at the end of the module.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuranishi import engine
from kuranishi.analysis import analyze_structure, describe_vector
from kuranishi.builders import build_pair_dgla
from kuranishi.config import load_config
from kuranishi.dgla import Dgla, validate_dgla
from kuranishi.engine import (
    analyze_obstructions,
    assess_splitting,
    default_truncation_order,
    expand_series,
    germ_invariants,
    kuranishi_problem,
    product_of_germs,
)
from kuranishi.groebner import MinimalGenerators, reduced_groebner_basis
from kuranishi.linalg import ExactMatrix
from kuranishi.poly import PolyRing
from kuranishi.scalars import GaussianRational as G, ONE, ZERO

from oracle_maps import apply, bracket_vectors
from test_abelian_oracle import _frames_documents
from test_lie import example1_structure, example2_structure, iwasawa_structure
from test_builders import torus_structure


@functools.cache
def analyzed(name: str):
    builders = {
        "example1": example1_structure,
        "example2": example2_structure,
        "iwasawa": iwasawa_structure,
        "torus": torus_structure,
    }
    return analyze_structure(builders[name]())


def poly_map(ring, text_pairs):
    """Readable {label: text} description of a polynomial-valued vector."""
    return {label: str(p) for label, p in text_pairs if not p.is_zero()}


def series_support(analysis):
    return sorted(
        k
        for k, vec in analysis.series.items()
        if k >= 2 and any(not p.is_zero() for p in vec)
    )


# -- example 2: terminating series with a nonzero certified ideal -------------


def test_example2_deformation_parameters_and_linear_term():
    block = analyzed("example2").deformation
    assert block.problem.parameters == ["t1", "t2", "t3", "t4", "t5", "t6"]
    assert block.harmonic_descriptions == [
        "a1*W1",
        "a1*W2",
        "a2*W1",
        "a2*W3",
        "a3*W1",
        "a3*W3",
    ]


def test_example2_deformation_series_terminates_after_degree_two():
    block = analyzed("example2").deformation
    analysis = block.series
    labels = block.dgla.basis[1]
    x2 = {labels[i]: str(p) for i, p in enumerate(analysis.series[2]) if not p.is_zero()}
    assert x2 == {"a2*W2": "t1*t6"}
    assert series_support(analysis) == [2]
    assert analysis.exact
    assert analysis.certificate == "termination"
    assert analysis.certificate_data == {"terminationOrder": 2}


def test_example2_deformation_ideal_and_germ():
    block = analyzed("example2").deformation
    assert sorted(str(g) for g in block.series.generators) == [
        "t1*t5",
        "t5*t6",
        "t5^2",
    ]
    assert block.germ.smooth is True
    assert block.germ.dimension == 5
    assert block.germ.method == "leaf-single"
    assert block.germ.quadric_rank == 3


def test_example2_minimal_generators_generate_the_raw_obstructions():
    analysis = analyzed("example2").deformation.series
    raw = [
        p
        for k, row in analysis.obstructions_by_degree.items()
        if k <= 2 * analysis.certificate_data["terminationOrder"]
        for p in row
        if not p.is_zero()
    ]
    assert reduced_groebner_basis(analysis.generators) == reduced_groebner_basis(raw)


def test_example2_joint_ideal_and_splitting():
    result = analyzed("example2")
    joint = result.joint
    assert joint.problem.parameters == [
        "t1", "t2", "t3", "t4", "t5", "t6", "s1", "s2", "s3",
    ]
    assert sorted(str(g) for g in joint.series.generators) == [
        "t1*s3",
        "t1*t5",
        "t5*s3",
        "t5*t6",
        "t5^2",
    ]
    assert joint.germ.smooth is False
    assert joint.germ.method == "leaf-union"
    assert joint.germ.quadric_rank == 4
    assert result.product_germ.smooth is True
    assert result.product_germ.dimension == 8
    assert not result.coupling_is_zero
    assert result.splitting.verdict == "DoesNotSplit"
    assert result.splitting.ideal_comparison == "different"


# -- example 1: non-terminating series, closure and fixed-point certificates --


def test_example1_deformation_closure_certificate():
    block = analyzed("example1").deformation
    assert block.problem.parameters == ["t1", "t2", "t3", "t4"]
    assert block.harmonic_descriptions == [
        "a1*W1",
        "-i*a1*W2 + a2*W1",
        "a2*W2",
        "a3*W3",
    ]
    analysis = block.series
    # the series itself never terminates inside the computed window ...
    assert 2 * max(k for k, vec in analysis.series.items() if any(vec)) > analysis.truncation_order
    labels = block.dgla.basis[1]
    x2 = {labels[i]: str(p) for i, p in enumerate(analysis.series[2]) if not p.is_zero()}
    assert x2 == {"a1*W2": "(2*i)*t2*t4"}
    # ... yet bracket closure certifies the ideal is zero
    assert analysis.exact
    assert analysis.certificate == "bracket-closure"
    assert analysis.certificate_data == {"spanDimension": 5}
    assert analysis.generators == []
    assert block.germ.smooth is True
    assert block.germ.dimension == 4


def test_example1_joint_rational_fixed_point():
    result = analyzed("example1")
    analysis = result.joint.series
    assert analysis.exact
    assert analysis.certificate == "rational-fixed-point"
    assert analysis.certificate_data == {
        "spanDimension": 1,
        "denominator": "t4 + 1",
        "degreeBound": 3,
    }
    by_degree = {
        k: [str(p) for p in row if not p.is_zero()]
        for k, row in analysis.obstructions_by_degree.items()
        if any(not p.is_zero() for p in row)
    }
    assert by_degree[2] == ["(2*i)*t2*s3"]
    assert by_degree[3] == ["(-2*i)*t2*t4*s3"]
    assert by_degree[4] == ["(2*i)*t2*t4^2*s3"]
    assert [str(g) for g in analysis.generators] == ["t2*s3"]


def test_example1_joint_germ_and_splitting():
    result = analyzed("example1")
    assert result.joint.germ.smooth is False
    assert result.joint.germ.method == "principal"
    assert result.joint.germ.quadric_rank == 2
    assert result.product_germ.smooth is True
    assert result.product_germ.dimension == 7
    assert result.splitting.verdict == "DoesNotSplit"
    assert result.splitting.ideal_comparison == "different"
    assert "singular" in result.splitting.reason


def test_example1_invariants_stable_under_pivot_rule():
    earliest = analyzed("example1")
    latest = analyze_structure(example1_structure(), pivot_rule="latest")
    assert latest.splitting.verdict == earliest.splitting.verdict
    for pick in ["deformation", "endomorphism", "joint"]:
        a, b = getattr(earliest, pick), getattr(latest, pick)
        assert a.germ.smooth == b.germ.smooth
        assert a.germ.dimension == b.germ.dimension
        assert a.germ.quadric_rank == b.germ.quadric_rank
        assert reduced_groebner_basis(a.series.generators) == (
            reduced_groebner_basis(b.series.generators)
        )


# -- block-diagonal cases ------------------------------------------------------


def test_iwasawa_splits_by_direct_sum():
    result = analyzed("iwasawa")
    assert result.coupling_is_zero
    assert result.splitting.verdict == "SplitsByDirectSum"
    assert result.splitting.ideal_comparison == "equal"
    block = result.deformation
    labels = block.dgla.basis[1]
    x2 = {
        labels[i]: str(p)
        for i, p in enumerate(block.series.series[2])
        if not p.is_zero()
    }
    assert x2 == {"a3*W3": "-t2*t4 + t1*t5"}
    for inner in result.blocks():
        assert inner.series.exact
        assert inner.series.certificate == "termination"
        assert inner.series.generators == []
        assert inner.germ.smooth is True
        assert inner.germ.dimension == len(inner.problem.parameters)


def test_torus_is_completely_unobstructed():
    result = analyzed("torus")
    assert result.coupling_is_zero
    assert result.splitting.verdict == "SplitsByDirectSum"
    for block in result.blocks():
        assert series_support(block.series) == []
        assert block.series.generators == []
        assert block.germ.smooth is True


# -- abelian preservation and degree bounds ------------------------------------


def test_abelian_preservation_loci():
    one = analyzed("example1").abelian_check
    assert one.applicable and one.literal_identically_zero
    assert sorted(str(c) for c in one.constraints) == ["t2"]
    assert one.series_collapses_on_locus is True

    two = analyzed("example2").abelian_check
    assert sorted(str(c) for c in two.constraints) == ["t1", "t5"]
    assert two.series_collapses_on_locus is True

    iwasawa = analyzed("iwasawa").abelian_check
    assert not iwasawa.applicable

    torus = analyzed("torus").abelian_check
    assert torus.applicable
    assert torus.constraints == []
    assert torus.series_collapses_on_locus is True


def test_degree_bounds_hold_on_the_catalog():
    for name in ["example1", "example2", "iwasawa", "torus"]:
        result = analyzed(name)
        nu = result.classification["nilpotency_index"]
        expected = {"deformation": nu, "endomorphism": nu + 1, "joint": nu + 1}
        assert {c.block: c.bound for c in result.degree_bounds} == expected
        assert all(c.status == "pass" for c in result.degree_bounds)
    joint_check = {
        c.block: c.max_generator_degree for c in analyzed("example2").degree_bounds
    }
    assert joint_check == {"deformation": 2, "endomorphism": None, "joint": 2}


# -- honest truncation on a synthetic complex ----------------------------------


def uncertifiable_dgla() -> Dgla:
    """Non-terminating series whose span brackets fail every certificate."""
    basis = {1: ["a", "b", "c"], 2: ["p", "q"]}
    differentials = {1: ExactMatrix([[ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])}
    entries = {
        ((1, 0), (1, 0)): {0: ONE},
        ((1, 0), (1, 1)): {1: ONE},
        ((1, 1), (1, 2)): {1: ONE},
        ((1, 2), (1, 2)): {0: ONE},
    }
    dgla = Dgla.from_bracket_entries(basis, differentials, entries)
    validate_dgla(dgla)
    return dgla


def test_truncated_analysis_refuses_to_certify():
    problem = kuranishi_problem(uncertifiable_dgla())
    assert problem.parameters == ["t1", "t2"]
    assert default_truncation_order(problem) == 6
    analysis = analyze_obstructions(problem)
    assert not analysis.exact
    assert analysis.certificate is None
    assert [str(g) for g in analysis.generators] == ["t1*t2"]
    by_degree = {
        k: [str(p) for p in row if not p.is_zero()]
        for k, row in analysis.obstructions_by_degree.items()
        if any(not p.is_zero() for p in row)
    }
    assert by_degree == {
        2: ["2*t1*t2"],
        3: ["-t1^2*t2"],
        5: ["-1/4*t1^4*t2"],
    }
    labels = uncertifiable_dgla().basis[1]
    x4 = {labels[i]: str(p) for i, p in enumerate(analysis.series[4]) if not p.is_zero()}
    assert x4 == {"c": "-1/8*t1^4"}
    germ = germ_invariants(problem.ring, analysis.generators, exact=False)
    assert germ.smooth is None
    assert germ.method == "truncated"


def test_truncated_joint_makes_splitting_inconclusive():
    problem = kuranishi_problem(uncertifiable_dgla())
    truncated = analyze_obstructions(problem)
    germ = germ_invariants(problem.ring, truncated.generators, exact=False)
    assert germ.basis is None
    verdict = assess_splitting(germ, germ, coupling_is_zero=False)
    assert verdict.verdict == "Inconclusive"
    assert verdict.ideal_comparison == "unknown"


def test_splitting_compares_the_germ_bases():
    ring = ring3()
    x, y, z = (ring.var(v) for v in ring.variables)
    node = germ_invariants(ring, [x * y])
    same = germ_invariants(ring, [(x * y).scale(G(0, 3))])
    plane = germ_invariants(ring, [z * z])
    truncated = germ_invariants(ring, [x * y], exact=False)

    equal = assess_splitting(node, same, coupling_is_zero=False)
    assert (equal.verdict, equal.ideal_comparison) == (
        "SplitsAfterReparameterization",
        "equal",
    )
    different = assess_splitting(node, plane, coupling_is_zero=False)
    assert (different.verdict, different.ideal_comparison) == (
        "DoesNotSplit",
        "different",
    )
    assert "singular" in different.reason
    for joint, product in [(truncated, node), (node, truncated)]:
        unknown = assess_splitting(joint, product, coupling_is_zero=False)
        assert (unknown.verdict, unknown.ideal_comparison) == (
            "Inconclusive",
            "unknown",
        )
    direct = assess_splitting(truncated, node, coupling_is_zero=True)
    assert (direct.verdict, direct.ideal_comparison) == (
        "SplitsByDirectSum",
        "unknown",
    )
    line = germ_invariants(ring, [x])
    space = germ_invariants(ring, [])
    dimensions = assess_splitting(line, space, coupling_is_zero=False)
    assert (dimensions.verdict, dimensions.ideal_comparison) == (
        "DoesNotSplit",
        "different",
    )
    assert "(2 against 3)" in dimensions.reason
    curved = assess_splitting(node, None, coupling_is_zero=False)
    assert (curved.verdict, curved.ideal_comparison) == ("Inconclusive", "unknown")
    assert curved.reason == (
        "the curvature couples the blocks through the differential, "
        "so there is no canonical block split to compare against"
    )


def test_product_of_germs_sorts_the_union_of_the_block_bases():
    left_ring, right_ring = PolyRing(["a", "b"]), PolyRing(["c", "d"])
    ring = PolyRing(["a", "b", "c", "d"])
    a, b = left_ring.var("a"), left_ring.var("b")
    c, d = right_ring.var("c"), right_ring.var("d")
    left = germ_invariants(left_ring, [a * b, b * b * b])
    right = germ_invariants(right_ring, [c * c, c * d])
    product = product_of_germs(ring, left, right)
    embedded = [g.embed(ring) for g in left.generators + right.generators]
    assert product == germ_invariants(ring, embedded)
    # the right block's leading monomials are smaller in grevlex
    assert [str(g) for g in product.basis] == ["c*d", "c^2", "a*b", "b^3"]


@pytest.mark.parametrize("name", ["example1", "example2", "iwasawa", "torus"])
def test_product_germ_matches_a_germ_of_the_embedded_generators(name):
    result = analyzed(name)
    ring = result.joint.problem.ring
    embedded = [
        g.embed(ring)
        for block in (result.deformation, result.endomorphism)
        for g in block.series.generators
    ]
    assert result.product_germ == germ_invariants(ring, embedded)
    truncated = replace(result.deformation.germ, basis=None, method="truncated")
    product = product_of_germs(ring, truncated, result.endomorphism.germ)
    assert product.basis is None
    assert product.method == "truncated"


@pytest.mark.parametrize("name", ["example1", "example2", "iwasawa", "torus"])
def test_germ_basis_finishes_the_minimalization(name):
    """A certified block's germ basis is finished from the basis its
    generator minimalization built; it equals the basis from scratch."""
    result = analyzed(name)
    for block in (result.deformation, result.endomorphism, result.joint):
        generators = block.series.generators
        assert isinstance(generators, MinimalGenerators)
        assert block.series.exact
        assert block.germ.basis == reduced_groebner_basis(list(generators))


LAYOUT_DOCUMENTS = {
    **{
        f"{name}-r{rank}": {"catalog": name, "bundleRank": rank}
        for name in ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")
        for rank in (1, 2)
    },
    **_frames_documents(),
}


@pytest.mark.parametrize("rule", ["earliest", "latest"])
@pytest.mark.parametrize("name", sorted(LAYOUT_DOCUMENTS))
def test_joint_parameters_are_the_block_parameters_in_block_layout(name, rule):
    """The product germ embeds the block germs by parameter name, so the
    joint harmonic representatives must be the deformation ones, zero-padded,
    followed by the endomorphism ones, shifted past the deformation block."""
    config = load_config(LAYOUT_DOCUMENTS[name])
    result = analyze_structure(config.structure, rank=config.rank, pivot_rule=rule)
    d_problem, e_problem = result.deformation.problem, result.endomorphism.problem
    assert result.joint.problem.parameters == d_problem.parameters + e_problem.parameters
    d_pad = (ZERO,) * result.pair.endomorphism.dim(1)
    e_pad = (ZERO,) * result.pair.deformation.dim(1)
    assert [tuple(rep) for rep in result.joint.problem.harmonic_reps] == (
        [tuple(rep) + d_pad for rep in d_problem.harmonic_reps]
        + [e_pad + tuple(rep) for rep in e_problem.harmonic_reps]
    )


# -- germ decision tree on hand-picked ideals ----------------------------------


def ring3():
    return PolyRing(["x", "y", "z"])


def p(ring, text_terms):
    """Tiny polynomial builder: list of (coefficient, exponent-tuple)."""
    return ring.from_terms(
        [(tuple(e), G.coerce(c)) for c, e in text_terms]
    )


def test_germ_zero_ideal_is_smooth():
    ring = ring3()
    germ = germ_invariants(ring, [])
    assert (germ.smooth, germ.dimension, germ.method) == (True, 3, "zero-ideal")
    assert germ.quadric_rank == 0


def test_germ_linear_ideal_is_smooth():
    ring = ring3()
    gens = [p(ring, [(1, (1, 0, 0)), (1, (0, 1, 0))]), p(ring, [(1, (0, 0, 1))])]
    germ = germ_invariants(ring, gens)
    assert (germ.smooth, germ.dimension, germ.method) == (True, 1, "linear")


def test_germ_pure_power_is_a_smooth_hyperplane():
    ring = ring3()
    square = p(ring, [(1, (1, 0, 0)), (G(0, 1), (0, 1, 0))])  # x + i*y
    germ = germ_invariants(ring, [square * square * square])
    assert (germ.smooth, germ.dimension, germ.method) == (True, 2, "principal")


def test_germ_irreducible_quadric_cone_is_singular():
    ring = ring3()
    cone = p(ring, [(1, (2, 0, 0)), (1, (0, 1, 1))])  # x^2 + y*z
    germ = germ_invariants(ring, [cone])
    assert (germ.smooth, germ.method) == (False, "principal")
    assert germ.quadric_rank == 3


def test_germ_union_of_plane_and_line_is_singular():
    ring = ring3()
    gens = [p(ring, [(1, (1, 1, 0))]), p(ring, [(1, (1, 0, 1))])]  # x*y, x*z
    germ = germ_invariants(ring, gens)
    assert (germ.smooth, germ.method) == (False, "leaf-union")


def test_germ_single_maximal_leaf_is_smooth():
    ring = ring3()
    gens = [
        p(ring, [(1, (1, 1, 0))]),  # x*y
        p(ring, [(1, (0, 2, 0))]),  # y^2
        p(ring, [(1, (0, 1, 1))]),  # y*z
    ]
    germ = germ_invariants(ring, gens)
    assert (germ.smooth, germ.dimension, germ.method) == (True, 2, "leaf-single")


def test_germ_quadric_split_branches():
    ring = ring3()
    gens = [
        p(ring, [(1, (2, 0, 0)), (-1, (0, 2, 0))]),  # x^2 - y^2
        p(ring, [(1, (0, 0, 1))]),  # z
    ]
    germ = germ_invariants(ring, gens)
    assert (germ.smooth, germ.method) == (False, "leaf-union")


def test_germ_budget_exhaustion_is_honest(monkeypatch):
    monkeypatch.setattr(engine, "LEAF_BUDGET", 1)
    ring = ring3()
    gens = [p(ring, [(1, (1, 1, 0))]), p(ring, [(1, (1, 0, 1))])]
    germ = germ_invariants(ring, gens)
    assert germ.smooth is None
    assert germ.method == "unknown"


def test_germ_rejects_inhomogeneous_generators():
    ring = ring3()
    bad = p(ring, [(1, (1, 0, 0)), (1, (0, 2, 0))])  # x + y^2
    with pytest.raises(ValueError, match="homogeneous"):
        germ_invariants(ring, [bad])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_germ_of_random_linear_ideals_is_smooth(rows):
    ring = ring3()
    gens = []
    for row in rows:
        terms = [(c, tuple(1 if j == i else 0 for j in range(3)))
                 for i, c in enumerate(row) if c]
        if terms:
            gens.append(p(ring, terms))
    matrix = ExactMatrix([[G(c) for c in row] for row in rows])
    from kuranishi.linalg import rref

    rank = len(rref(matrix).pivots)
    germ = germ_invariants(ring, gens)
    assert germ.smooth is True
    assert germ.dimension == 3 - rank


# -- independent fixed-point identity ------------------------------------------


@pytest.mark.parametrize("name", ["example2", "iwasawa", "torus"])
def test_series_solves_the_deformation_equation(name):
    """One-shot check: the homotopy applied to the total self-bracket of the
    summed series must reproduce the corrections, degree by degree."""
    result = analyzed(name)
    block = result.deformation
    problem = block.problem
    analysis = block.series
    order = analysis.truncation_order
    ring = problem.ring
    zero = ring.zero()
    total = [zero] * block.dgla.dim(1)
    for vec in analysis.series.values():
        total = [a + b for a, b in zip(total, vec)]
    bracket = bracket_vectors(block.dgla, 1, total, 1, total, zero=zero)
    image = apply(problem.homotopy(2), bracket, zero)
    half = G(Fraction(1, 2))
    for position, (x_total, corr) in enumerate(zip(total, image)):
        recovered = x_total + corr.scale(half)
        for degree in range(2, order + 1):
            assert recovered.homogeneous_component(degree).is_zero(), (
                f"degree {degree} residue at position {position}"
            )


@pytest.mark.parametrize("name", ["example2", "iwasawa", "torus"])
def test_terminating_series_stays_zero_beyond_the_window(name):
    result = analyzed(name)
    block = result.deformation
    analysis = block.series
    assert analysis.certificate == "termination"
    order = analysis.truncation_order
    extended, _ = expand_series(block.problem, order + 3)
    cutoff = analysis.certificate_data["terminationOrder"]
    for k in range(cutoff + 1, order + 4):
        assert all(c.is_zero() for c in extended[k])


@pytest.mark.parametrize("name", sorted(LAYOUT_DOCUMENTS))
def test_kernel_scalar_entry_matches_the_reference_maps(name):
    """On scalar vectors the series kernel's delta(u, v) is -H[u, v] for
    distinct operands and -1/2 H[u, u] for one, so it is zero exactly when
    H[u, v] is; its harmonic coordinates of the bracket sum are 2 C[u, v]
    and C[u, u].  H, C and the bracket are taken on the scalar path."""
    config = load_config(LAYOUT_DOCUMENTS[name])
    pair = build_pair_dgla(config.structure, config.rank)
    for dgla in (pair.deformation, pair.endomorphism, pair.dgla):
        problem = kuranishi_problem(dgla)
        kernel = problem._series_kernel
        record = problem.hodge.get(2)
        reps = problem.harmonic_reps
        views = [kernel.constant(rep) for rep in reps]
        for a, (u, view_u) in enumerate(zip(reps, views)):
            for v, view_v in zip(reps[a:], views[a:]):
                same = view_v is view_u
                bracket = bracket_vectors(dgla, 1, u, 1, v)
                factor = G(Fraction(-1, 2)) if same else G(-1)
                delta = [factor * c for c in apply(problem.homotopy(2), bracket)]
                assert kernel.scalars(kernel.delta(view_u, view_v)) == delta
                coordinates = apply(record.harmonic_coordinates, bracket) if record else ()
                doubled = [problem.ring.constant(c if same else 2 * c) for c in coordinates]
                assert kernel.coordinates(kernel.bracket_sum([(view_u, view_v)])) == doubled


def test_describe_vector_formatting():
    labels = ["u", "v", "w"]
    assert describe_vector([ONE, ZERO, ZERO], labels) == "u"
    assert describe_vector([G(-1), G(0, 1), G(1, 1)], labels) == "-u + i*v + (1+i)*w"
    assert describe_vector([ZERO, ZERO, ZERO], labels) == "0"


def test_problem_rejects_mismatched_parameter_names():
    dgla = build_pair_dgla(example2_structure(), 1).deformation
    with pytest.raises(ValueError, match="parameter names"):
        kuranishi_problem(dgla, ["only", "two"])
