"""Ring laws, grevlex ordering, and factor-move tests for polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuranishi.poly import (
    DEGREE_LIMIT,
    MultiPoly,
    PolyRing,
    divmod_single,
    poly_matrix_det,
    pure_linear_power,
    quadric_split,
)
from kuranishi.scalars import GaussianRational, ONE, ZERO

R3 = PolyRing(["x", "y", "z"])

coeffs = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
)


@st.composite
def polys(draw: st.DrawFn, max_terms: int = 5, max_exp: int = 3) -> MultiPoly:
    n_terms = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        terms.append((exps, draw(coeffs)))
    return R3.from_terms(terms)


# -- ordering ------------------------------------------------------------------


def grevlex_key(exps: tuple[int, ...]) -> int:
    """The ring's grevlex key of the monomial with exponents ``exps``."""
    return R3.key(R3.pack(exps))


def test_grevlex_degree_dominates() -> None:
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0)) or True  # same degree
    assert grevlex_key((1, 1, 1)) > grevlex_key((2, 0, 0))  # higher degree wins


def test_grevlex_tie_break_rightmost_smaller_wins() -> None:
    # x^2 vs x*y: rightmost differing exponent is y's; x^2 has the smaller.
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0))
    # x*z vs y^2: differ at z; x*z has larger z-exponent, so y^2 wins.
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))
    # Standard grevlex chain in three variables, degree 2:
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [grevlex_key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)


def test_leading_monomial_and_str() -> None:
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    p = x * y + z * z.scale(2) + x.scale(GaussianRational(0, 1))
    assert R3.exponents(p.leading_monomial()) == (1, 1, 0)
    assert str(x * y - (z**2).scale(2) + x) == "x*y - 2*z^2 + x"
    assert str(R3.zero()) == "0"
    assert str(x.scale(GaussianRational(1, 1))) == "(1+i)*x"


# -- ring laws ----------------------------------------------------------------


@given(polys(), polys(), polys())
@settings(max_examples=50)
def test_ring_laws(p: MultiPoly, q: MultiPoly, r: MultiPoly) -> None:
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + R3.zero() == p
    assert p * R3.one() == p
    assert (p - p).is_zero()


@given(polys(), polys())
@settings(max_examples=50)
def test_degree_of_product(p: MultiPoly, q: MultiPoly) -> None:
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        # Over a field (an integral domain) degrees add.
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


@given(polys())
@settings(max_examples=50)
def test_homogeneous_components_rebuild(p: MultiPoly) -> None:
    total = R3.zero()
    for d, comp in p.homogeneous_components().items():
        assert comp.is_homogeneous()
        assert comp.total_degree() == d
        total = total + comp
    assert total == p


def test_embed_by_name() -> None:
    small = PolyRing(["t1", "t2"])
    big = PolyRing(["t1", "t2", "s1"])
    p = small.var("t1") * small.var("t2")
    q = p.embed(big)
    assert q.ring == big
    assert q == big.var("t1") * big.var("t2")
    with pytest.raises(KeyError):
        big.var("s1").embed(small)


def test_equal_rings_that_are_distinct_objects_mix() -> None:
    """The ring check tests identity first and falls back to equality, so a
    second ring object with the same variable names still combines."""
    twin = PolyRing(["x", "y", "z"])
    assert twin is not R3 and twin == R3
    p = R3.var("x") + R3.var("y").scale(2)
    q = twin.var("x") * twin.var("z") - twin.one()
    expected = R3.var("x") * R3.var("z") - R3.one()
    assert p + q == p + expected and q + p == expected + p
    assert p - q == p - expected
    assert p * q == p * expected and q * p == expected * p
    with pytest.raises(ValueError, match="different rings"):
        p + PolyRing(["x", "y", "w"]).var("x")


# -- the monomial boundary ------------------------------------------------------


@pytest.mark.parametrize(
    "exps",
    [(-1, 0), (2, -1), (1,), (1, 0, 0), (DEGREE_LIMIT, 0), (DEGREE_LIMIT - 1, 1)],
    ids=["negative", "negative-second", "short", "long", "at-limit", "sum-at-limit"],
)
def test_bad_exponent_tuples_raise(exps: tuple[int, ...]) -> None:
    ring = PolyRing(["x", "y"])
    with pytest.raises(ValueError):
        ring.monomial(exps)
    with pytest.raises(ValueError):
        ring.from_terms([((0, 0), ONE), (exps, ONE)])
    with pytest.raises(ValueError):
        ring.one().coefficient(exps)


def test_degree_below_the_limit_is_held() -> None:
    ring = PolyRing(["x", "y"])
    top = ring.monomial((DEGREE_LIMIT - 2, 1), 3)
    assert top.total_degree() == DEGREE_LIMIT - 1
    assert ring.exponents(top.leading_monomial()) == (DEGREE_LIMIT - 2, 1)
    assert top.coefficient((DEGREE_LIMIT - 2, 1)) == GaussianRational(3)
    assert top == ring.var("x") ** (DEGREE_LIMIT - 2) * ring.var("y").scale(3)


def test_products_and_powers_at_the_limit_raise() -> None:
    ring = PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    half = x ** (DEGREE_LIMIT // 2)
    limit = str(DEGREE_LIMIT)
    with pytest.raises(ValueError, match=limit):
        half * (half + y)
    with pytest.raises(ValueError, match=limit):
        (x + y) ** DEGREE_LIMIT
    with pytest.raises(ValueError, match=limit):
        (half + ring.one()) ** 2
    assert (half * ring.zero()).is_zero()
    assert ring.zero() ** DEGREE_LIMIT == ring.zero()
    power = (x * y) ** (DEGREE_LIMIT // 2 - 1)  # degree DEGREE_LIMIT - 2
    assert ring.exponents(power.leading_monomial()) == (DEGREE_LIMIT // 2 - 1,) * 2


# -- single-divisor division ----------------------------------------------------


@given(polys(max_terms=4), polys(max_terms=3))
@settings(max_examples=50)
def test_divmod_single_identity(p: MultiPoly, d: MultiPoly) -> None:
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod_single(p, d)
        return
    q, r = divmod_single(p, d)
    assert q * d + r == p
    lead = R3.exponents(d.leading_monomial())
    for exps in map(R3.exponents, r.terms):
        assert not all(e >= l for e, l in zip(exps, lead))


# -- determinants -----------------------------------------------------------------


def test_poly_matrix_det_constant() -> None:
    m = [[R3.constant(1), R3.constant(2)], [R3.constant(3), R3.constant(4)]]
    assert poly_matrix_det(m) == R3.constant(-2)


def test_poly_matrix_det_symbolic() -> None:
    x, y = R3.var("x"), R3.var("y")
    m = [[R3.one() - x, y], [y, R3.one() - x]]
    det = poly_matrix_det(m)
    expected = (R3.one() - x) * (R3.one() - x) - y * y
    assert det == expected


def test_poly_matrix_det_matches_permanent_free_expansion() -> None:
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    m = [
        [x, y, R3.one()],
        [R3.zero(), z, y],
        [R3.one(), R3.zero(), x],
    ]
    # cofactor expansion along the first column
    expected = x * (z * x - y * R3.zero()) + (y * y - z * R3.one())
    assert poly_matrix_det(m) == expected


# -- factor moves ------------------------------------------------------------------


def test_pure_linear_power_positive_cases() -> None:
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    ell = x + y.scale("1/2") - z.scale(GaussianRational(0, 1))
    g = (ell**3).scale(GaussianRational(-2, 1))
    result = pure_linear_power(g)
    assert result is not None
    c, found, d = result
    assert d == 3
    assert found == ell
    assert (found**3).scale(c) == g
    # powers of a later variable only
    g2 = (y + z) ** 2
    result2 = pure_linear_power(g2)
    assert result2 is not None
    assert result2[1] == y + z


def test_pure_linear_power_negative_cases() -> None:
    x, y, _ = R3.var("x"), R3.var("y"), R3.var("z")
    assert pure_linear_power(x * y) is None
    assert pure_linear_power(x * x + y * y) is None
    assert pure_linear_power(x * x + x * y) is None  # x(x+y), not a pure power
    assert pure_linear_power(R3.one()) is None
    assert pure_linear_power(R3.zero()) is None
    assert pure_linear_power(x * x + y) is None  # inhomogeneous


@given(st.lists(coeffs, min_size=3, max_size=3), st.lists(coeffs, min_size=3, max_size=3))
@settings(max_examples=40)
def test_quadric_split_recovers_products(
    a: list[GaussianRational], b: list[GaussianRational]
) -> None:
    names = ["x", "y", "z"]
    l1 = R3.zero()
    l2 = R3.zero()
    for name, c in zip(names, a):
        l1 = l1 + R3.var(name).scale(c)
    for name, c in zip(names, b):
        l2 = l2 + R3.var(name).scale(c)
    g = l1 * l2
    if g.is_zero():
        assert quadric_split(g) is None
        return
    result = quadric_split(g)
    assert result is not None
    f1, f2 = result
    assert f1 * f2 == g
    assert f1.total_degree() == 1 and f2.total_degree() == 1


def test_quadric_split_irreducible() -> None:
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    # x^2 + y^2 + z^2 has rank 3: never a product of linear forms.
    assert quadric_split(x * x + y * y + z * z) is None
    # x^2 + 2y^2: discriminant -8y^2, and -2 is not a square in Q(i).
    assert quadric_split(x * x + (y * y).scale(2)) is None
    # x^2 + y^2 = (x+iy)(x-iy) splits over Q(i).
    result = quadric_split(x * x + y * y)
    assert result is not None
    assert result[0] * result[1] == x * x + y * y


def test_quadric_split_no_square_terms() -> None:
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    g = x * y + x * z
    result = quadric_split(g)
    assert result is not None
    assert result[0] * result[1] == g
    assert quadric_split(x * y + y * z + x * z) is None
