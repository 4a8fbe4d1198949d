"""Lie algebra, compact-notation, and complex-structure tests."""

from __future__ import annotations

from math import comb

import pytest

from kuranishi.lie import (
    ComplexStructure,
    JacobiError,
    LieAlgebra,
    parse_salamon,
)
from kuranishi.linalg import ExactMatrix, rref
from kuranishi.scalars import GaussianRational
from oracle_builders import ce_differential, form_basis

G = GaussianRational
HALF = G("1/2")
MINUS_HALF_I = G(0, "-1/2")


def heisenberg_double() -> LieAlgebra:
    """Two commuting Heisenberg factors: [e1,e2]=e3, [e4,e5]=e6."""
    return LieAlgebra.from_entries(6, [(1, 2, 3, 1), (4, 5, 6, 1)])


def complex_heisenberg() -> LieAlgebra:
    """Basis X1,X2,X3,X4,Z1,Z2 with the corrected bracket table."""
    return LieAlgebra.from_entries(
        6,
        [
            (1, 3, 5, "-1/2"),
            (1, 4, 6, "-1/2"),
            (2, 3, 6, "-1/2"),
            (2, 4, 5, "1/2"),
        ],
    )


def example1_structure() -> ComplexStructure:
    alg = heisenberg_double()
    return ComplexStructure(
        alg,
        [
            [HALF, MINUS_HALF_I, 0, 0, 0, 0],
            [0, 0, 0, HALF, MINUS_HALF_I, 0],
            [0, 0, HALF, 0, 0, MINUS_HALF_I],
        ],
    )


def example2_structure() -> ComplexStructure:
    alg = complex_heisenberg()
    i = G(0, 1)
    return ComplexStructure(
        alg,
        [
            [1, -i, 0, 0, 0, 0],
            [0, 0, 1, i, 0, 0],
            [0, 0, 0, 0, 1, i],
        ],
    )


def iwasawa_structure() -> ComplexStructure:
    alg = complex_heisenberg()
    i = G(0, 1)
    return ComplexStructure(
        alg,
        [
            [1, -i, 0, 0, 0, 0],
            [0, 0, 1, -i, 0, 0],
            [0, 0, 0, 0, 1, -i],
        ],
    )


# -- structure constants -------------------------------------------------------


def test_bracket_antisymmetry_and_bilinearity() -> None:
    alg = heisenberg_double()
    assert alg.table.brackets.get(((0, 0), (0, 1)), {}) == {2: G(1)}
    assert alg.table.brackets.get(((0, 1), (0, 0)), {}) == {2: G(-1)}
    u = [G(2), G(0, 1), 0, 0, 0, 0]
    v = [0, G(1), 0, 0, 0, 0]
    u = [G.coerce(x) for x in u]
    v = [G.coerce(x) for x in v]
    w = alg.bracket_vectors(u, v)
    assert w[2] == G(2)
    assert all(w[k].is_zero() for k in (0, 1, 3, 4, 5))


def test_jacobi_validation() -> None:
    # [e1, [e2, e3]] = [e1, e4] = e5 while the other two cyclic terms vanish
    with pytest.raises(JacobiError, match=r"^graded Jacobi identity fails on \(e1, e2, e3\)$"):
        LieAlgebra.from_entries(5, [(1, 2, 3, 1), (2, 3, 4, 1), (1, 4, 5, 1)])


def test_lower_central_series_lengths() -> None:
    assert heisenberg_double().lower_central_series() == [6, 2]
    assert len(complex_heisenberg().lower_central_series()) == 2
    torus = LieAlgebra(6, {})
    assert torus.lower_central_series() == [6]
    three_step = parse_salamon("(0,0,0,0,12,14+25)")
    assert len(three_step.lower_central_series()) == 3
    not_nilpotent = LieAlgebra.from_entries(2, [(1, 2, 2, 1)])
    assert not_nilpotent.lower_central_series()[-1] == -1


# -- compact description strings -------------------------------------------------


def test_parse_sign_convention() -> None:
    alg = parse_salamon("(0,0,12)")
    # d e^3 = e^1 ^ e^2 corresponds to [e1, e2] = -e3
    assert alg.table.brackets.get(((0, 0), (0, 1)), {}) == {2: G(-1)}


def test_parse_coefficients() -> None:
    alg = parse_salamon("(0,0,2*12,0,0,1/2*45-13)")
    assert alg.table.brackets.get(((0, 0), (0, 1)), {}) == {2: G(-2)}
    assert alg.table.brackets.get(((0, 3), (0, 4)), {}) == {5: G("-1/2")}
    assert alg.table.brackets.get(((0, 0), (0, 2)), {}) == {5: G(1)}


@pytest.mark.parametrize(
    "bad",
    [
        "(0,0,21)",  # decreasing indices
        "(0,12)",  # index not smaller than slot
        "(0,0,1x)",  # malformed token
        "(0,0,12,23,14,0)",  # Jacobi failure
        "(0,0,)",  # empty term
    ],
)
def test_parse_rejects(bad: str) -> None:
    with pytest.raises(ValueError):
        parse_salamon(bad)


# -- complex structures ------------------------------------------------------------


def test_example1_classification() -> None:
    cs = example1_structure()
    tags = cs.classify()
    assert tags == {
        "integrable": True,
        "abelian": True,
        "parallelizable": False,
        "nilpotent": True,
        "nilpotency_index": 2,
    }


def test_example2_corrected_is_abelian() -> None:
    cs = example2_structure()
    assert cs.is_integrable()
    assert cs.is_abelian()
    assert not cs.is_parallelizable()
    # the only surviving mixed bracket: [conj W1, W2] = -W3
    assert cs.frame_bracket(3, 1) == {2: G(-1)}


def test_iwasawa_is_parallelizable() -> None:
    cs = iwasawa_structure()
    assert cs.is_integrable()
    assert cs.is_parallelizable()
    assert not cs.is_abelian()
    # holomorphic structure constants: [W1, W2] = -W3
    assert cs.frame_bracket(0, 1) == {2: G(-1)}


def test_example2_literal_reading_not_integrable() -> None:
    # duplicated pair resolved by letting the later entry win: [X1,X3] = +1/2 Z1
    literal = LieAlgebra.from_entries(
        6,
        [
            (1, 3, 5, "1/2"),
            (1, 4, 6, "-1/2"),
            (2, 3, 6, "-1/2"),
        ],
    )
    i = G(0, 1)
    cs = ComplexStructure(
        literal,
        [
            [1, -i, 0, 0, 0, 0],
            [0, 0, 1, i, 0, 0],
            [0, 0, 0, 0, 1, i],
        ],
    )
    assert not cs.is_integrable()
    assert cs.integrability_failures() == [(1, 2)]


def test_abelian_structures_on_catalog_algebras() -> None:
    i = G(0, 1)
    pairs_frame = [
        [1, -i, 0, 0, 0, 0],
        [0, 0, 1, -i, 0, 0],
        [0, 0, 0, 0, 1, -i],
    ]
    for text in ("(0,0,0,0,0,12+34)", "(0,0,0,0,0,12)"):
        cs = ComplexStructure(parse_salamon(text), pairs_frame)
        assert cs.is_abelian() and not cs.is_parallelizable()
    n9 = parse_salamon("(0,0,0,0,12,14+25)")
    cs9 = ComplexStructure(
        n9,
        [
            [1, -i, 0, 0, 0, 0],
            [0, 0, 0, 1, -i, 0],
            [0, 0, 1, 0, 0, -i],
        ],
    )
    assert cs9.is_integrable() and cs9.is_abelian()


def test_frame_must_span() -> None:
    alg = heisenberg_double()
    i = G(0, 1)
    with pytest.raises(ValueError):
        ComplexStructure(
            alg,
            [
                [1, -i, 0, 0, 0, 0],
                [1, -i, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, -i],
            ],
        )


def test_from_j_matrix_matches_frame() -> None:
    alg = heisenberg_double()
    j_rows = [
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
    cs = ComplexStructure.from_j_matrix(alg, j_rows)
    reference = example1_structure()
    assert cs.classify() == reference.classify()
    stacked = ExactMatrix(
        [list(v) for v in reference.frame] + [list(v) for v in cs.frame]
    )
    _, pivots = rref(stacked)
    assert len(pivots) == 3  # the two frames span the same (1,0)-space


def test_from_j_matrix_rejections() -> None:
    alg = heisenberg_double()
    not_square_root = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError, match="J\\^2"):
        ComplexStructure.from_j_matrix(alg, not_square_root)
    complex_entries = [[G(0, 1) if i == j else 0 for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError, match="real"):
        ComplexStructure.from_j_matrix(alg, complex_entries)


def test_change_frame_preserves_classification() -> None:
    cs = example1_structure()
    q = [[1, 0, 0], [G(0, 2), 1, 0], [0, G("1/3"), 1]]
    moved = cs.change_frame(ExactMatrix(q).columns())
    assert moved.classify() == cs.classify()


# -- exterior differential ----------------------------------------------------------
#
# The differential on every bidegree lives on in the frozen builder oracle,
# the reference that ``test_builder_oracle`` compares the builder's (0,q)
# differential with; these hand-computed values and identities check that
# reference against the mathematics.


def test_form_basis_sizes() -> None:
    assert len(form_basis(3, 0, 1)) == 3
    assert len(form_basis(3, 1, 1)) == 9
    assert len(form_basis(3, 0, 0)) == 1
    assert form_basis(3, 0, 2) == [(3, 4), (3, 5), (4, 5)]


def test_ce_differential_example1_components() -> None:
    cs = example1_structure()
    d01 = ce_differential(cs, 0, 1)
    assert d01[(0, 2)].is_zero()  # abelian frame: no (0,2) component
    eleven = d01[(1, 1)]
    # d wbar^3 = -(i/2) w^1 ^ wbar^1 - (1/2) w^2 ^ wbar^2
    col = eleven.column(2)
    basis = form_basis(3, 1, 1)
    nonzero = {basis[r]: str(v) for r, v in enumerate(col) if not v.is_zero()}
    assert nonzero == {(0, 3): "-1/2*i", (1, 4): "-1/2"}
    assert all(v.is_zero() for v in eleven.column(0))
    assert all(v.is_zero() for v in eleven.column(1))


def test_ce_differential_square_zero_all_routes() -> None:
    for cs in (example1_structure(), example2_structure(), iwasawa_structure()):
        m = cs.m
        for p in range(m + 1):
            for q in range(m + 1):
                first = ce_differential(cs, p, q)
                for (tp, tq), mat in first.items():
                    second = ce_differential(cs, tp, tq)
                    for (fp, fq), mat2 in second.items():
                        total = ExactMatrix.zeros(mat2.nrows, mat.ncols)
                        for (mp, mq), via in first.items():
                            onward = ce_differential(cs, mp, mq).get((fp, fq))
                            if onward is not None:
                                total = total + (onward @ via)
                        assert total.is_zero(), (p, q, fp, fq)


def test_parallelizable_frame_has_pure_02_differential() -> None:
    cs = iwasawa_structure()
    d01 = ce_differential(cs, 0, 1)
    assert d01[(1, 1)].is_zero()
    assert not d01[(0, 2)].is_zero()
    col = d01[(0, 2)].column(2)
    basis = form_basis(3, 0, 2)
    nonzero = {basis[r]: str(v) for r, v in enumerate(col) if not v.is_zero()}
    # d wbar^3 = wbar^1 ^ wbar^2
    assert nonzero == {(3, 4): "1"}


def _total_ce_differential(structure: ComplexStructure, k: int) -> ExactMatrix:
    """d on complex k-forms, assembled from the bidegree parts of ce_differential."""
    m = structure.m

    def blocks(degree: int) -> dict[tuple[int, int], int]:
        offsets, offset = {}, 0
        for p in range(max(0, degree - m), min(degree, m) + 1):
            offsets[(p, degree - p)] = offset
            offset += len(form_basis(m, p, degree - p))
        return offsets

    source, target = blocks(k), blocks(k + 1)
    ncols = sum(len(form_basis(m, *b)) for b in source)
    rows = [[GaussianRational(0)] * ncols for b in target for _ in form_basis(m, *b)]
    for bidegree, col_offset in source.items():
        for image, matrix in ce_differential(structure, *bidegree).items():
            for r, row in enumerate(matrix.rows):
                rows[target[image] + r][col_offset : col_offset + matrix.ncols] = row
    return ExactMatrix(rows, ncols=ncols)


def test_real_ce_cohomology_of_heisenberg() -> None:
    # Complexifying keeps the dimensions of the real Chevalley-Eilenberg
    # cohomology; for the Heisenberg double they are the Kunneth square of
    # the Heisenberg numbers (1, 2, 2, 1).
    cs = example1_structure()
    assert cs.algebra == heisenberg_double()
    ranks = [len(rref(_total_ce_differential(cs, k))[1]) for k in range(7)]
    betti = [comb(6, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(7)]
    assert betti == [1, 4, 8, 10, 8, 4, 1]


def test_structure_constants_rebuilt_from_differential() -> None:
    # the degree-1 differential determines the frame constants: rebuild them
    for cs in (example1_structure(), iwasawa_structure()):
        m = cs.m
        rebuilt: dict[tuple[int, int], dict[int, GaussianRational]] = {}
        for p, q in ((1, 0), (0, 1)):
            for image, matrix in ce_differential(cs, p, q).items():
                words = form_basis(m, *image)
                for col in range(matrix.ncols):
                    for row, value in enumerate(matrix.column(col)):
                        if not value.is_zero():
                            rebuilt.setdefault(words[row], {})[col + m * q] = -value
        expected = {
            (alpha, beta): entry
            for ((_, alpha), (_, beta)), entry in cs.table.brackets.items()
            if alpha < beta
        }
        assert rebuilt == expected
