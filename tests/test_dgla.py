"""DGLA container, axiom validation, and harmonic-splitting tests."""

from __future__ import annotations

import pytest

from kuranishi.dgla import (
    Dgla,
    DglaAxiomError,
    HodgeDegree,
    dgla_axiom_failures,
    hodge_decomposition,
    validate_dgla,
)
from kuranishi.lie import LieAlgebra
from kuranishi.linalg import ExactMatrix, rref
from kuranishi.poly import PolyRing
from kuranishi.scalars import GaussianRational, ONE, ZERO

from oracle_maps import apply, bracket_vectors

G = GaussianRational


def cohomology_from_ranks(dgla: Dgla) -> dict[int, int]:
    """``dim L^i - rank d_i - rank d_{i-1}`` in every nonzero degree.

    Computed from the ranks of the differentials alone, independently of the
    harmonic representatives that the Hodge split reports.
    """
    ranks = {i: len(rref(dgla.differential_matrix(i))[1]) for i in dgla.degrees()}
    return {i: dgla.dim(i) - ranks[i] - ranks.get(i - 1, 0) for i in dgla.degrees()}


def harmonic_projection(record: HodgeDegree, n: int) -> ExactMatrix:
    """The projection onto the harmonic span along ``im(d) + A``: ``H @ coords``."""
    columns = [list(v) for v in record.harmonic]
    return ExactMatrix.from_columns(columns, nrows=n) @ record.harmonic_coordinates


def chain_dgla() -> Dgla:
    """Abelian DGLA with d(a) = d(b) = u and d(w) = s."""
    basis = {0: ["a", "b"], 1: ["u", "v", "w"], 2: ["s"]}
    d0 = ExactMatrix([[1, 1], [0, 0], [0, 0]])
    d1 = ExactMatrix([[0, 0, 1]])
    return Dgla(basis, {0: d0, 1: d1}, {})


def weight_dgla() -> Dgla:
    """Two-term DGLA with d(a) = u and [a, u] = u."""
    basis = {0: ["a"], 1: ["u"]}
    return Dgla.from_bracket_entries(
        basis, {0: ExactMatrix([[1]])}, {((0, 0), (1, 0)): {0: 1}}
    )


def odd_square_dgla() -> Dgla:
    """DGLA spanned by an odd element with nonzero self-bracket."""
    basis = {1: ["u"], 2: ["w"]}
    return Dgla.from_bracket_entries(basis, {}, {((1, 0), (1, 0)): {0: 1}})


def test_valid_examples_pass() -> None:
    for dgla in (
        chain_dgla(),
        weight_dgla(),
        odd_square_dgla(),
        LieAlgebra.from_entries(6, [(1, 2, 3, 1), (4, 5, 6, 1)]).table,
    ):
        assert dgla_axiom_failures(dgla) == []
        validate_dgla(dgla)


def test_differential_square_failure_detected() -> None:
    basis = {0: ["a"], 1: ["u"], 2: ["s"]}
    bad = Dgla(basis, {0: ExactMatrix([[1]]), 1: ExactMatrix([[1]])}, {})
    failures = dgla_axiom_failures(bad)
    assert any("d(d(x))" in f and "degree 0" in f for f in failures)
    with pytest.raises(DglaAxiomError):
        validate_dgla(bad)


def test_antisymmetry_failure_detected() -> None:
    basis = {0: ["a", "b", "c"]}
    one_sided = Dgla(basis, {}, {((0, 0), (0, 1)): {2: 1}})
    failures = dgla_axiom_failures(one_sided)
    assert any("antisymmetric" in f for f in failures)


def test_leibniz_failure_detected() -> None:
    # d is not a derivation: [a, b] = c with d(c) = 0 but [da, b] != 0.
    basis = {0: ["a", "b", "c"], 1: ["u", "x", "y"]}
    d0 = ExactMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    entries = {
        ((0, 0), (0, 1)): {2: 1},
        ((1, 0), (0, 1)): {1: 1},
    }
    bad = Dgla.from_bracket_entries(basis, {0: d0}, entries)
    failures = dgla_axiom_failures(bad)
    assert any("Leibniz" in f and "[a, b]" in f for f in failures)


def test_jacobi_failure_detected() -> None:
    entries = {
        ((0, 0), (0, 1)): {2: 1},  # [e1, e2] = e3
        ((0, 0), (0, 2)): {0: 1},  # [e1, e3] = e1
    }
    bad = Dgla.from_bracket_entries({0: ["e1", "e2", "e3"]}, {}, entries)
    failures = dgla_axiom_failures(bad)
    assert any("Jacobi" in f for f in failures)


def test_failures_are_listed_in_basis_key_order() -> None:
    # d(a) = u, d(b) = v; [c, v] = w makes (c, b) fail through d(b) alone
    basis = {0: ["a", "b", "c"], 1: ["u", "v", "w"]}
    d0 = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    entries = {
        ((0, 2), (1, 1)): {2: 1},  # [c, v] = w
        ((0, 0), (0, 1)): {2: 1},  # [a, b] = c
        ((0, 2), (0, 0)): {0: 1},  # [c, a] = a
        ((0, 2), (1, 0)): {0: 1},  # [c, u] = u
    }
    bad = Dgla.from_bracket_entries(basis, {0: d0}, entries)
    assert dgla_axiom_failures(bad) == [
        "Leibniz rule fails on [b, c]",
        "Leibniz rule fails on [c, b]",
        "graded Jacobi identity fails on (a, b, c)",
        "graded Jacobi identity fails on (a, b, u)",
        "graded Jacobi identity fails on (a, b, v)",
    ]
    assert dgla_axiom_failures(bad, max_failures=3) == dgla_axiom_failures(bad)[:3]
    with pytest.raises(DglaAxiomError, match=r"^Leibniz rule fails on \[b, c\]$"):
        validate_dgla(bad)


def test_jacobi_failures_are_listed_in_triple_order() -> None:
    entries = {
        ((0, 0), (0, 1)): {2: 1},  # [e1, e2] = e3
        ((0, 0), (0, 2)): {0: 1},  # [e1, e3] = e1
        ((0, 1), (0, 3)): {3: 1},  # [e2, e4] = e4
        ((0, 2), (0, 3)): {1: 1},  # [e3, e4] = e2
    }
    bad = Dgla.from_bracket_entries({0: ["e1", "e2", "e3", "e4"]}, {}, entries)
    assert dgla_axiom_failures(bad) == [
        "graded Jacobi identity fails on (e1, e2, e3)",
        "graded Jacobi identity fails on (e1, e2, e4)",
        "graded Jacobi identity fails on (e1, e3, e4)",
        "graded Jacobi identity fails on (e2, e3, e4)",
    ]


def test_even_self_bracket_rejected() -> None:
    with pytest.raises(ValueError):
        Dgla.from_bracket_entries({0: ["a"]}, {}, {((0, 0), (0, 0)): {0: 1}})


def test_inconsistent_mirror_rejected() -> None:
    entries = {
        ((0, 0), (0, 1)): {2: 1},
        ((0, 1), (0, 0)): {2: 1},  # should be -1
    }
    with pytest.raises(ValueError):
        Dgla.from_bracket_entries({0: ["a", "b", "c"]}, {}, entries)


@pytest.mark.parametrize("mirror", [{2: 1}, {2: 0}, {}, {1: -1}])
def test_inconsistent_mirror_rejected_in_either_order(mirror: dict) -> None:
    """A supplied mirror that disagrees with its pair is rejected whichever
    comes first, also when it cleans to zero."""
    pair, flipped = ((0, 0), (0, 1)), ((0, 1), (0, 0))
    for entries in ({pair: {2: 1}, flipped: mirror}, {flipped: mirror, pair: {2: 1}}):
        with pytest.raises(ValueError, match="inconsistent bracket entries"):
            Dgla.from_bracket_entries({0: ["a", "b", "c"]}, {}, entries)
    consistent = {flipped: {2: -1}, pair: {2: 1}}
    dgla = Dgla.from_bracket_entries({0: ["a", "b", "c"]}, {}, consistent)
    assert dgla.brackets == {flipped: {2: G(-1)}, pair: {2: G(1)}}


def test_structural_validation() -> None:
    with pytest.raises(ValueError):
        Dgla({0: ["a"], 1: ["u"]}, {0: ExactMatrix([[1, 0]])}, {})
    with pytest.raises(ValueError):
        Dgla({0: ["a", "b"]}, {}, {((0, 0), (0, 1)): {5: 1}})
    with pytest.raises(ValueError):
        Dgla({0: ["a"]}, {}, {((0, 0), (0, 3)): {0: 1}})


def test_cohomology_dimensions_chain() -> None:
    assert cohomology_from_ranks(chain_dgla()) == {0: 1, 1: 1, 2: 0}


def test_hodge_chain_frozen_values() -> None:
    hodge = hodge_decomposition(chain_dgla())
    assert hodge[0].harmonic == [(G(-1), G(1))]
    assert hodge[0].coexact == [(G(1), G(0))]
    assert hodge[1].harmonic == [(G(0), G(1), G(0))]
    assert hodge[1].image == [(G(1), G(0), G(0))]
    assert hodge[1].coexact == [(G(0), G(0), G(1))]
    assert hodge[2].harmonic == []
    # delta recovers the pivot preimage: delta(u) = a under the earliest rule.
    assert hodge[1].homotopy == ExactMatrix([[1, 0, 0], [0, 0, 0]])
    latest = hodge_decomposition(chain_dgla(), "latest")
    assert latest[1].homotopy == ExactMatrix([[0, 0, 0], [1, 0, 0]])


def test_harmonic_representatives_pivot_rule_independent() -> None:
    for dgla in (chain_dgla(), weight_dgla()):
        earliest = hodge_decomposition(dgla, "earliest")
        latest = hodge_decomposition(dgla, "latest")
        for i in earliest:
            assert earliest[i].harmonic == latest[i].harmonic


def homotopy_matrix(dgla: Dgla, hodge: dict, degree: int) -> ExactMatrix:
    if degree in hodge:
        return hodge[degree].homotopy
    return ExactMatrix.zeros(dgla.dim(degree - 1), dgla.dim(degree))


@pytest.mark.parametrize("rule", ["earliest", "latest"])
def test_homotopy_identities(rule: str) -> None:
    """d*delta + delta*d = 1 - P, delta*delta = 0, and delta*d*delta = delta."""
    for dgla in (chain_dgla(), weight_dgla(), odd_square_dgla()):
        hodge = hodge_decomposition(dgla, rule)
        for i in dgla.degrees():
            n = dgla.dim(i)
            delta_here = hodge[i].homotopy
            delta_up = homotopy_matrix(dgla, hodge, i + 1)
            lhs = dgla.differential_matrix(i - 1) @ delta_here
            lhs = lhs + delta_up @ dgla.differential_matrix(i)
            assert lhs == ExactMatrix.identity(n) - harmonic_projection(hodge[i], n)
            assert (delta_here @ delta_up).is_zero()
            assert delta_here @ dgla.differential_matrix(i - 1) @ delta_here == delta_here


def test_projection_is_idempotent() -> None:
    dgla = chain_dgla()
    hodge = hodge_decomposition(dgla)
    for i, record in hodge.items():
        projection = harmonic_projection(record, dgla.dim(i))
        assert projection @ projection == projection


def test_harmonic_coordinates_invert_representatives() -> None:
    hodge = hodge_decomposition(chain_dgla())
    for record in hodge.values():
        for idx, rep in enumerate(record.harmonic):
            coords = apply(record.harmonic_coordinates, rep)
            expected = tuple(
                ONE if k == idx else ZERO for k in range(len(record.harmonic))
            )
            assert coords == expected


def test_bracket_vectors_with_polynomial_coordinates() -> None:
    dgla = weight_dgla()
    ring = PolyRing(["t", "s"])
    t, s = ring.var("t"), ring.var("s")
    product = bracket_vectors(dgla, 0, [t], 1, [s], zero=ring.zero())
    assert product == [t * s]
    image = apply(dgla.differential_matrix(0), [t * t], ring.zero())
    assert image == (t * t,)


def test_degree_zero_bracket_matches_lie_algebra() -> None:
    rows = [(1, 2, 3, 1), (4, 5, 6, 1)]
    algebra = LieAlgebra.from_entries(6, rows)
    expected = [[[ZERO] * 6 for _ in range(6)] for _ in range(6)]
    for i, j, k, c in rows:
        expected[i - 1][j - 1][k - 1] = G(c)
        expected[j - 1][i - 1][k - 1] = G(-c)
    units = [[ONE if k == i else ZERO for k in range(6)] for i in range(6)]
    for i in range(6):
        for j in range(6):
            via_dgla = bracket_vectors(algebra.table, 0, units[i], 0, units[j])
            sparse = algebra.table.brackets.get(((0, i), (0, j)), {})
            assert expected[i][j] == via_dgla
            assert expected[i][j] == [sparse.get(k, ZERO) for k in range(6)]
            assert tuple(expected[i][j]) == algebra.bracket_vectors(units[i], units[j])


def test_equality_is_structural() -> None:
    assert chain_dgla() == chain_dgla()
    assert chain_dgla() != weight_dgla()
