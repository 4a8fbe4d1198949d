"""Differential tests of the packed-monomial polynomials against the frozen
tuple-monomial module ``oracle_poly``.

Each input is built twice from the same exponent tuples, once in a packed
ring and once in the frozen ring with the same variables.  Every operation
must then give the same polynomial, term order included, and the same
degrees, homogeneity, support, grevlex order, display and quadratic form.
The rings have 1, 3 and 31 variables, and inputs reach degree
``DEGREE_LIMIT - 1``; an operation whose result would reach the limit must
raise ``ValueError`` instead.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_poly
from kuranishi import poly
from kuranishi.poly import DEGREE_LIMIT, MultiPoly, PolyRing
from kuranishi.scalars import GaussianRational
from tuple_polys import frozen

RINGS = [PolyRing([f"t{i}" for i in range(n)]) for n in (1, 3, 31)]
_COEFFS = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1))
_NONZERO = _COEFFS.filter(lambda c: not c.is_zero())

#: Degrees a lifted input is multiplied up by: small ones, and ones that
#: bring a degree-3 input to half, a third or just below ``DEGREE_LIMIT``.
_LIFTS = [0, 0, 5, DEGREE_LIMIT // 3, DEGREE_LIMIT // 2 - 3, DEGREE_LIMIT - 4]

Pair = tuple[MultiPoly, oracle_poly.MultiPoly]


def _twin(ring: PolyRing, terms: list) -> Pair:
    """The polynomial with ``terms`` in the packed ring and in the frozen one."""
    old = oracle_poly.PolyRing(ring.variables).from_terms(terms)
    return ring.from_terms(terms), old


@st.composite
def _exponents(draw, ring: PolyRing, degree: int) -> tuple[int, ...]:
    exps = [0] * ring.nvars
    for _ in range(degree):
        exps[draw(st.integers(0, ring.nvars - 1))] += 1
    return tuple(exps)


@st.composite
def _lift(draw, ring: PolyRing, degree: int) -> tuple[int, ...]:
    """A monomial of ``degree`` on at most two variables."""
    exps = [0] * ring.nvars
    part = draw(st.integers(0, degree))
    exps[draw(st.integers(0, ring.nvars - 1))] += part
    exps[draw(st.integers(0, ring.nvars - 1))] += degree - part
    return tuple(exps)


@st.composite
def _terms(draw, ring: PolyRing, lift: tuple[int, ...] | None = None, degree=None) -> list:
    """Up to four terms of degree at most 3 (exactly ``degree`` if given),
    each times the monomial ``lift``; zero, constants and non-homogeneous
    polynomials all occur."""
    lift = lift or (0,) * ring.nvars
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(0, 3)) if degree is None else degree
        exps = draw(_exponents(ring, d))
        terms.append((tuple(a + b for a, b in zip(exps, lift)), draw(_COEFFS)))
    return terms


@st.composite
def _lifted(draw, ring: PolyRing, degree: int) -> Pair:
    """A twin pair of :func:`_terms` times a monomial of ``degree``."""
    return _twin(ring, draw(_terms(ring, draw(_lift(ring, degree)))))


def _polys(ring: PolyRing):
    return st.sampled_from(_LIFTS).flatmap(lambda degree: _lifted(ring, degree))


def _agree(new: MultiPoly | None, old: oracle_poly.MultiPoly | None) -> None:
    """``new`` and ``old`` are the same polynomial in every respect."""
    if old is None:
        assert new is None
        return
    ring = new.ring
    copy = frozen(new)
    assert copy == old
    assert list(copy.terms) == list(old.terms)
    assert new == ring.from_terms(old.terms.items())  # the canonical packed ints
    assert new.total_degree() == old.total_degree()
    assert new.is_homogeneous() == old.is_homogeneous()
    assert new.support_variables() == old.support_variables()
    assert [(ring.exponents(m), c) for m, c in new.sorted_terms()] == old.sorted_terms()
    assert str(new) == str(old)
    if not new.is_zero():
        assert ring.exponents(new.leading_monomial()) == old.leading_monomial()
        assert new.leading_coefficient() == old.leading_coefficient()
    components = new.homogeneous_components()
    old_components = old.homogeneous_components()
    assert list(components) == list(old_components)
    for d, part in components.items():
        assert frozen(part) == old_components[d]
    for d in (0, 1, 2, new.total_degree() + 1):
        assert frozen(new.homogeneous_component(d)) == old.homogeneous_component(d)
    assert new.quadratic_symmetric_matrix() == old.quadratic_symmetric_matrix()


def _agree_all(new, old) -> None:
    if old is None:
        assert new is None
        return
    assert len(new) == len(old)
    for n, o in zip(new, old):
        if isinstance(o, oracle_poly.MultiPoly):
            _agree(n, o)
        else:
            assert n == o


@given(
    st.sampled_from(RINGS).flatmap(lambda ring: st.tuples(_polys(ring), _polys(ring))),
    _COEFFS,
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_frozen_polys(pair, c, k) -> None:
    (f, old_f), (g, old_g) = pair
    _agree(f, old_f)
    _agree(g, old_g)
    _agree(f + g, old_f + old_g)
    _agree(f - g, old_f - old_g)
    _agree(-f, -old_f)
    _agree(f.scale(c), old_f.scale(c))
    if not f.is_zero() and not g.is_zero() and f.total_degree() + g.total_degree() >= DEGREE_LIMIT:
        with pytest.raises(ValueError, match=str(DEGREE_LIMIT)):
            f * g
    else:
        _agree(f * g, old_f * old_g)
    if not f.is_zero() and f.total_degree() * k >= DEGREE_LIMIT:
        with pytest.raises(ValueError, match=str(DEGREE_LIMIT)):
            f**k
    else:
        _agree(f**k, old_f**k)


@given(
    st.sampled_from(RINGS).flatmap(_polys),
    st.permutations([f"t{i}" for i in range(31)]),
)
@settings(max_examples=150, deadline=None)
def test_embed_matches_frozen_polys(pair, names) -> None:
    f, old_f = pair
    target = PolyRing(names)
    _agree(f.embed(target), old_f.embed(oracle_poly.PolyRing(names)))


@st.composite
def _division(draw) -> tuple[Pair, Pair]:
    """A dividend and a divisor times the same monomial ``lift``, so the
    quotient stays small at every degree."""
    ring = draw(st.sampled_from(RINGS))
    lift = draw(_lift(ring, draw(st.sampled_from(_LIFTS))))
    return _twin(ring, draw(_terms(ring, lift))), _twin(ring, draw(_terms(ring, lift)))


@given(_division())
@settings(max_examples=150, deadline=None)
def test_divmod_single_matches_frozen_polys(pair) -> None:
    (p, old_p), (d, old_d) = pair
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly.divmod_single(p, d)
        return
    _agree_all(poly.divmod_single(p, d), oracle_poly.divmod_single(old_p, old_d))


@st.composite
def _forms(draw) -> Pair:
    """Homogeneous forms for the factor moves: random forms of degree 1-4,
    scalar multiples of powers of linear forms, products of two linear
    forms, and forms of degree just below ``DEGREE_LIMIT`` that are, or are
    almost, a power of one variable."""
    ring = draw(st.sampled_from(RINGS))
    kind = draw(st.sampled_from(["random", "power", "product", "high"]))
    if kind == "random":
        return _twin(ring, draw(_terms(ring, degree=draw(st.integers(1, 4)))))
    if kind in ("power", "product"):
        linear = [_twin(ring, draw(_terms(ring, degree=1))) for _ in range(2)]
        if kind == "product":
            (l1, old_l1), (l2, old_l2) = linear
            return l1 * l2, old_l1 * old_l2
        (ell, old_ell), c, d = linear[0], draw(_COEFFS), draw(st.integers(1, 4))
        return (ell**d).scale(c), (old_ell**d).scale(c)
    d = draw(st.integers(DEGREE_LIMIT - 4, DEGREE_LIMIT - 1))
    k = draw(st.integers(0, ring.nvars - 1))
    power = [0] * ring.nvars
    power[k] = d
    terms = [(tuple(power), draw(_NONZERO))]
    if ring.nvars > 1 and draw(st.booleans()):
        # x_k^(d-a) times a monomial of degree a >= 2 in the other variables
        a = draw(st.integers(2, 3))
        exps = [0] * ring.nvars
        exps[k] = d - a
        for _ in range(a):
            exps[draw(st.integers(0, ring.nvars - 1).filter(lambda j: j != k))] += 1
        terms.append((tuple(exps), draw(_NONZERO)))
    return _twin(ring, terms)


@given(_forms())
@settings(max_examples=200, deadline=None)
def test_factor_moves_match_frozen_polys(pair) -> None:
    g, old_g = pair
    _agree_all(poly.pure_linear_power(g), oracle_poly.pure_linear_power(old_g))
    _agree_all(poly.quadric_split(g), oracle_poly.quadric_split(old_g))


@st.composite
def _matrices(draw) -> tuple[list, list]:
    """Square matrices of size 1-3 whose entries are lifted so that every
    product along a permutation stays below ``DEGREE_LIMIT``."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    top = draw(st.sampled_from([0, (DEGREE_LIMIT - 1) // n - 3]))
    rows, old_rows = [], []
    for _ in range(n):
        row = [draw(_lifted(ring, top)) for _ in range(n)]
        rows.append([p for p, _ in row])
        old_rows.append([o for _, o in row])
    return rows, old_rows


@given(_matrices())
@settings(max_examples=150, deadline=None)
def test_poly_matrix_det_matches_frozen_polys(matrices) -> None:
    rows, old_rows = matrices
    _agree(poly.poly_matrix_det(rows), oracle_poly.poly_matrix_det(old_rows))
