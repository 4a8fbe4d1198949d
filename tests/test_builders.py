"""Invariant DGLA builder tests with frozen hand-computed values."""

from __future__ import annotations

import random

import pytest

from kuranishi.builders import build_pair_dgla
from kuranishi.dgla import dgla_axiom_failures, hodge_decomposition
from kuranishi.lie import ComplexStructure, LieAlgebra
from kuranishi.linalg import ExactMatrix
from kuranishi.scalars import GaussianRational, ONE, ZERO

from oracle_maps import bracket_entry
from test_dgla import cohomology_from_ranks, harmonic_projection, identity_minus, matrix_sum
from test_lie import (
    example1_structure,
    example2_structure,
    iwasawa_structure,
)

G = GaussianRational


def torus_structure() -> ComplexStructure:
    algebra = LieAlgebra.from_entries(6, [])
    frame = [
        [G(1), G(0, -1), 0, 0, 0, 0],
        [0, 0, G(1), G(0, -1), 0, 0],
        [0, 0, 0, 0, G(1), G(0, -1)],
    ]
    return ComplexStructure(algebra, frame)


def example2_literal_structure() -> ComplexStructure:
    algebra = LieAlgebra.from_entries(
        6, [(1, 3, 5, "1/2"), (1, 4, 6, "-1/2"), (2, 3, 6, "-1/2")]
    )
    frame = [
        [G(1), G(0, -1), 0, 0, 0, 0],
        [0, 0, G(1), G(0, 1), 0, 0],
        [0, 0, 0, 0, G(1), G(0, 1)],
    ]
    return ComplexStructure(algebra, frame)


def label_position(dgla, degree: int, label: str) -> int:
    return dgla.basis[degree].index(label)


def test_non_integrable_structure_rejected() -> None:
    with pytest.raises(ValueError, match=r"not integrable.*\[W1, W2\]"):
        build_pair_dgla(example2_literal_structure(), 1)


def test_rank_must_be_positive() -> None:
    with pytest.raises(ValueError, match="rank"):
        build_pair_dgla(torus_structure(), 0)


def test_deformation_dimensions_and_cohomology() -> None:
    left = build_pair_dgla(example1_structure(), 1).deformation
    assert {q: left.dim(q) for q in left.degrees()} == {0: 3, 1: 9, 2: 9, 3: 3}
    assert cohomology_from_ranks(left) == {0: 1, 1: 4, 2: 5, 3: 2}
    assert cohomology_from_ranks(
        build_pair_dgla(example2_structure(), 1).deformation
    ) == {0: 2, 1: 6, 2: 6, 3: 2}
    assert cohomology_from_ranks(
        build_pair_dgla(iwasawa_structure(), 1).deformation
    ) == {0: 3, 1: 6, 2: 6, 3: 3}


def test_endomorphism_cohomology() -> None:
    assert cohomology_from_ranks(
        build_pair_dgla(example1_structure(), 1).endomorphism
    ) == {0: 1, 1: 3, 2: 3, 3: 1}
    assert cohomology_from_ranks(
        build_pair_dgla(iwasawa_structure(), 1).endomorphism
    ) == {0: 1, 1: 2, 2: 2, 3: 1}
    assert cohomology_from_ranks(
        build_pair_dgla(torus_structure(), 2).endomorphism
    ) == {0: 4, 1: 12, 2: 12, 3: 4}


def test_deformation_differential_frozen_columns() -> None:
    left = build_pair_dgla(example2_structure(), 1).deformation
    d1 = left.differential_matrix(1)
    source = label_position(left, 1, "a2*W2")
    target = label_position(left, 2, "a1^a2*W3")
    column = d1.column(source)
    assert column[target] == G(-1)
    assert sum(1 for v in column if not v.is_zero()) == 1
    source = label_position(left, 1, "a3*W2")
    target = label_position(left, 2, "a1^a3*W3")
    column = d1.column(source)
    assert column[target] == G(-1)
    assert sum(1 for v in column if not v.is_zero()) == 1
    # closed directions stay closed
    for label in ("a1*W1", "a1*W2", "a2*W1", "a2*W3", "a3*W1", "a3*W3"):
        assert all(v.is_zero() for v in d1.column(label_position(left, 1, label)))


def test_deformation_bracket_frozen_entries() -> None:
    left = build_pair_dgla(example2_structure(), 1).deformation
    key_a = (1, label_position(left, 1, "a1*W1"))
    key_b = (1, label_position(left, 1, "a3*W1"))
    entry = bracket_entry(left, key_a, key_b)
    assert entry == {label_position(left, 2, "a1^a2*W1"): ONE}
    diagonal = bracket_entry(left, key_b, key_b)
    assert diagonal == {label_position(left, 2, "a2^a3*W1"): G(-2)}
    # odd-odd symmetry: [x, y] = [y, x] in degree one
    assert bracket_entry(left, key_b, key_a) == entry


def test_parallelizable_bracket_is_holomorphic_projection() -> None:
    left = build_pair_dgla(iwasawa_structure(), 1).deformation
    key_a = (1, label_position(left, 1, "a1*W1"))
    key_b = (1, label_position(left, 1, "a2*W2"))
    entry = bracket_entry(left, key_a, key_b)
    assert entry == {label_position(left, 2, "a1^a2*W3"): G(-1)}


def test_endomorphism_bracket_is_matrix_commutator() -> None:
    right = build_pair_dgla(torus_structure(), 2).endomorphism
    key_a = (0, label_position(right, 0, "E12"))
    key_b = (0, label_position(right, 0, "E21"))
    entry = bracket_entry(right, key_a, key_b)
    assert entry == {
        label_position(right, 0, "E11"): ONE,
        label_position(right, 0, "E22"): G(-1),
    }
    rank_one = build_pair_dgla(torus_structure(), 1).endomorphism
    assert rank_one.brackets == {}


def test_endomorphism_differential_ignores_matrix_slot() -> None:
    right = build_pair_dgla(iwasawa_structure(), 2).endomorphism
    d1 = right.differential_matrix(1)
    for unit in ("E11", "E12", "E21", "E22"):
        source = label_position(right, 1, f"a3*{unit}")
        target = label_position(right, 2, f"a1^a2*{unit}")
        column = d1.column(source)
        assert column[target] == ONE
        assert sum(1 for v in column if not v.is_zero()) == 1


def test_endomorphism_differential_is_dbar_of_the_forms() -> None:
    # The (0,2)-part of the exterior differential, by hand: the abelian frame
    # of example1 has none; on the Iwasawa manifold dbar a3 = a1 ^ a2 and
    # a1, a2 are closed.
    right = build_pair_dgla(example1_structure(), 1).endomorphism
    assert 1 not in right.differentials
    right = build_pair_dgla(iwasawa_structure(), 1).endomorphism
    d1 = right.differentials[1]
    image = {
        right.label(1, col): {
            right.label(2, row): str(v)
            for row, v in enumerate(d1.column(col))
            if not v.is_zero()
        }
        for col in range(d1.ncols)
    }
    assert image == {"a1*E11": {}, "a2*E11": {}, "a3*E11": {"a1^a2*E11": "1"}}


def test_pair_layout_and_coupling() -> None:
    pair = build_pair_dgla(example2_structure(), 1)
    left, right = pair.deformation, pair.endomorphism
    for q in pair.dgla.degrees():
        assert pair.dgla.dim(q) == left.dim(q) + right.dim(q)
        assert pair.dgla.basis[q] == left.basis[q] + right.basis[q]
    assert not pair.coupling_is_zero()
    # coupling pairs a deformation direction with a bundle form by
    # contracting the holomorphic leg into the form differential: d(a3)
    # has a mixed leg pairing W1 with a2, so a3 is replaced by a2.
    key_left = (1, label_position(left, 1, "a1*W1"))
    key_right = (1, left.dim(1) + right.basis[1].index("a3*E11"))
    entry = bracket_entry(pair.dgla, key_left, key_right)
    expected_target = left.dim(2) + right.basis[2].index("a1^a2*E11")
    assert entry == {expected_target: ONE}
    # constants in the bundle block have zero differential, so they decouple
    key_const = (0, left.dim(0) + 0)
    assert bracket_entry(pair.dgla, key_left, key_const) == {}


def test_coupling_zero_iff_parallelizable() -> None:
    cases = [
        (example1_structure(), False),
        (example2_structure(), False),
        (iwasawa_structure(), True),
        (torus_structure(), True),
    ]
    for structure, expected in cases:
        pair = build_pair_dgla(structure, 1)
        assert pair.coupling_is_zero() is expected
        assert pair.coupling_is_zero() is structure.is_parallelizable()


def test_pair_cohomology_additive_when_coupling_zero() -> None:
    pair = build_pair_dgla(iwasawa_structure(), 1)
    total = cohomology_from_ranks(pair.dgla)
    left = cohomology_from_ranks(pair.deformation)
    right = cohomology_from_ranks(pair.endomorphism)
    assert total == {q: left[q] + right[q] for q in left}


def test_torus_is_fully_abelian() -> None:
    pair = build_pair_dgla(torus_structure(), 1)
    assert pair.dgla.brackets == {}
    assert pair.dgla.differentials == {}
    assert cohomology_from_ranks(pair.dgla) == {0: 4, 1: 12, 2: 12, 3: 4}


def test_builders_pass_axioms_after_random_frame_change() -> None:
    rng = random.Random(20260816)
    structure = example1_structure()
    checked_pair = False
    draws = 0
    while draws < 2:
        columns = [
            [G(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
            for _ in range(3)
        ]
        try:
            changed = structure.change_frame(columns)
        except ValueError:
            continue  # singular draw
        draws += 1
        left = build_pair_dgla(changed, 1).deformation
        assert dgla_axiom_failures(left) == []
        assert cohomology_from_ranks(left) == {0: 1, 1: 4, 2: 5, 3: 2}
        if not checked_pair:
            pair = build_pair_dgla(changed, 2)
            assert cohomology_from_ranks(pair.dgla)[1] == 4 + 12
            checked_pair = True


def test_hodge_identities_on_built_dgla() -> None:
    left = build_pair_dgla(example2_structure(), 1).deformation
    hodge = hodge_decomposition(left)
    for i in left.degrees():
        n = left.dim(i)
        delta_here = hodge[i].homotopy
        if i + 1 in hodge:
            delta_up = hodge[i + 1].homotopy
        else:
            delta_up = ExactMatrix.zeros(n, left.dim(i + 1))
        lhs = matrix_sum(
            left.differential_matrix(i - 1) @ delta_here,
            delta_up @ left.differential_matrix(i),
        )
        assert lhs == identity_minus(harmonic_projection(hodge[i], n))
