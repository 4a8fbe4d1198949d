"""Differential tests of ``EchelonBasis`` against the frozen echelon oracle.

The inputs are seeded Gaussian-rational matrices with zero rows, zero
columns and dependent rows mixed in, so every branch of the elimination
(no pivot, back-elimination, insertion between pivots) is taken.  A second
family draws mostly-zero rows of units (1, -1, i, -i) with an occasional
fraction, as the pair DGLA's differentials are: their pivots are often
already 1, so the rows are kept unscaled, and sparse rows reduce on short
supports that back-elimination grows and cancels.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_linalg as oracle
from oracle_maps import contains, reduce
from kuranishi import engine
from kuranishi.dgla import _harmonic_representatives
from kuranishi.linalg import EchelonBasis, ExactMatrix, kernel_basis, rref
from kuranishi.poly import PolyRing
from kuranishi.scalars import GaussianRational, I, ONE, ZERO

entries = st.one_of(
    st.just(ZERO),
    st.builds(
        GaussianRational,
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    ),
)


sparse_unit_entries = st.sampled_from(
    (ZERO,) * 10
    + (ONE, -ONE, I, -I, GaussianRational("1/2", -1), GaussianRational(2, "1/3"))
)


@st.composite
def row_lists(
    draw: st.DrawFn, max_dim: int = 5, values: st.SearchStrategy = entries
) -> list[list[GaussianRational]]:
    """Rows of one length, with dependent rows, a zero row and a zero column."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(values, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, len(rows) - 1))
        b = draw(st.integers(0, len(rows) - 1))
        c = draw(entries)
        rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    if draw(st.booleans()):
        rows.append([ZERO] * ncols)
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols))
        rows = [row[:col] + [ZERO] + row[col:] for row in rows]
    return draw(st.permutations(rows))


#: dense fractions, or mostly-zero unit rows in up to 8 columns
matrices = row_lists() | row_lists(max_dim=8, values=sparse_unit_entries)


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_rref_matches_the_oracle(rows: list[list[GaussianRational]]) -> None:
    """The basis is the oracle's reduced form without its zero rows: the same
    nonzero rows and pivots, and the oracle pads exactly ``nrows - rank``
    zero rows below them."""
    matrix = ExactMatrix(rows)
    echelon = rref(matrix)
    reduced, pivots = oracle.rref(matrix)
    rank = len(pivots)
    assert echelon.length == reduced.ncols
    assert echelon.pivots == list(pivots)
    assert echelon.rows == reduced.rows[:rank]
    padding = reduced.rows[rank:]
    assert len(padding) == matrix.nrows - rank
    assert all(x.is_zero() for row in padding for x in row)


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_insertions_match_the_oracle_span(rows: list[list[GaussianRational]]) -> None:
    basis = EchelonBasis(len(rows[0]))
    span = oracle._EchelonSpan(len(rows[0]))
    for row in rows:
        assert basis.add(row) == span.add(row)
        assert basis.rows == span.rows
        assert basis.pivots == span.pivots
        assert basis.contains(row)


@given(matrices, matrices, st.data())
@settings(max_examples=120, deadline=None)
def test_harmonic_representatives_match_the_oracle(
    outgoing: list[list[GaussianRational]],
    extra: list[list[GaussianRational]],
    data: st.DataObject,
) -> None:
    """Image vectors are combinations of kernel vectors, as for a
    differential, or arbitrary vectors of the same length."""
    n = len(outgoing[0])
    kernel = kernel_basis(rref(ExactMatrix(outgoing)))
    image = []
    for _ in range(data.draw(st.integers(0, 3))):
        vec = [ZERO] * n
        for k in kernel:
            c = data.draw(entries)
            vec = [x + c * y for x, y in zip(vec, k)]
        image.append(tuple(vec))
    if data.draw(st.booleans()):
        image += [tuple((row + [ZERO] * n)[:n]) for row in extra]
    assert _harmonic_representatives(kernel, image, n) == (
        oracle._harmonic_representatives(kernel, image, n)
    )


@given(row_lists(), st.data())
@settings(max_examples=60, deadline=None)
def test_polynomial_reduce_matches_the_oracle_residual(
    rows: list[list[GaussianRational]], data: st.DataObject
) -> None:
    """Polynomial-valued vectors: planted span combinations plus noise.  The
    engine's per-monomial containment check agrees with the reduction."""
    ring = PolyRing(["s", "t"])
    n = len(rows[0])
    basis = EchelonBasis(n, rows)
    span = oracle._EchelonSpan(n)
    for row in rows:
        span.add(row)

    def poly():
        coeffs = [data.draw(entries) for _ in range(3)]
        return (
            ring.constant(coeffs[0])
            + ring.var("s").scale(coeffs[1])
            + (ring.var("s") * ring.var("t")).scale(coeffs[2])
        )

    planted = [ring.zero()] * n
    for row in basis.rows:
        c = poly()
        planted = [x + c.scale(r) for x, r in zip(planted, row)]
    assert all(p.is_zero() for p in reduce(basis, planted))
    noisy = [x + poly() if data.draw(st.booleans()) else x for x in planted]
    assert reduce(basis, noisy) == oracle.polynomial_residual(noisy, span)
    assert engine._in_constant_span(basis, planted)
    assert engine._in_constant_span(basis, noisy) == contains(basis, noisy)
