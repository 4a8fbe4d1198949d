"""Differential tests of the packed single-pass Groebner code against the
frozen tuple-monomial code.

``oracle_groebner_passes`` keeps the pair update that tested every lcm class,
the fixpoint interreduction and the degree-by-degree survivor rule, all on
exponent tuples.  These tests check that the packed single passes give the
same pair list after every update, the same normal forms, S-polynomials,
reduced bases and survivors, down to the order of their terms, on rings of
1, 3 and 31 variables and with degrees just below the packing limit.  The
frozen code runs on the tuple-monomial polynomials of ``oracle_poly``;
``tuple_polys.frozen`` carries inputs and results over, term order kept.

The bases the engine carries on instead of recomputing -- a reduced basis
extended by more generators, and the minimalization's truncated basis
finished -- must equal the reduced basis from scratch, term order too.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_groebner_passes as oracle
from kuranishi import groebner
from kuranishi.poly import DEGREE_LIMIT, MultiPoly, PolyRing
from kuranishi.scalars import GaussianRational
from oracle_poly import grevlex_key
from tuple_polys import frozen

R = PolyRing(["x", "y", "z"])
RINGS = [PolyRing([f"t{i}" for i in range(n)]) for n in (1, 3, 31)]

_COEFFS = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1))


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    return [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]


@st.composite
def _form(draw, degree: int) -> MultiPoly:
    """A homogeneous polynomial of the given degree (possibly zero)."""
    monomial = st.sampled_from(_monomials(degree))
    return R.from_terms(draw(st.lists(st.tuples(monomial, _COEFFS), min_size=1, max_size=2)))


@st.composite
def _poly(draw) -> MultiPoly:
    """A polynomial of degree at most 3, usually not homogeneous."""
    monomial = st.integers(0, 3).flatmap(lambda d: st.sampled_from(_monomials(d)))
    return R.from_terms(draw(st.lists(st.tuples(monomial, _COEFFS), min_size=1, max_size=3)))


@st.composite
def _homogeneous_lists(draw) -> list[MultiPoly]:
    """Homogeneous generator lists shaped like the survivor test's inputs:
    planted consequences, S-pair consequences, equal leading monomials, zero
    generators and degree gaps."""
    degrees = draw(st.sampled_from([(1, 3), (2,), (1, 2), (2, 3), (1, 2, 3), (0, 2)]))
    top = max(degrees)
    gens = [draw(_form(draw(st.sampled_from(degrees)))) for _ in range(draw(st.integers(2, 4)))]
    nonzero = [g for g in gens if not g.is_zero()]
    if nonzero and draw(st.booleans()):
        planted = R.zero()
        for g in draw(st.lists(st.sampled_from(nonzero), min_size=1, max_size=2)):
            planted = planted + draw(_form(top - g.total_degree())) * g
        gens.append(planted)
    if len(nonzero) >= 2 and draw(st.booleans()):
        f, g = draw(st.permutations(nonzero))[:2]
        s = groebner.spoly(f, g)
        if not s.is_zero() and s.total_degree() <= top:
            gens.append(draw(_form(top - s.total_degree())) * s)
    if nonzero and draw(st.booleans()):
        lm = R.exponents(draw(st.sampled_from(nonzero)).leading_monomial())
        smaller = [m for m in _monomials(sum(lm)) if grevlex_key(m) < grevlex_key(lm)]
        same = R.monomial(lm, draw(st.sampled_from([1, 2, -1])))
        if smaller:
            same = same + R.monomial(draw(st.sampled_from(smaller)), draw(_COEFFS))
        gens.append(same)
    if draw(st.booleans()):
        gens.append(R.zero())
    return draw(st.permutations(gens))


def _frozen_pairs(basis) -> list[oracle.Pair]:
    """The pending pairs of a packed basis as the frozen code holds them:
    ``(grevlex_key(lcm), lcm, i, j)`` in insertion order."""
    exponents = basis.ring.exponents
    pairs = []
    for _, _, lcm, i, j in sorted(basis.pairs, key=lambda pair: pair[1]):
        exps = exponents(lcm)
        pairs.append((grevlex_key(exps), exps, i, j))
    return pairs


def _frozen_selection(pairs: list[oracle.Pair]) -> list[tuple[int, int]]:
    """The order in which the frozen loop would pop ``pairs``: the first
    pair of least lcm, again and again."""
    order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0], k))
    return [pairs[k][2:] for k in order]


def _checked_update(candidates: list):
    """An ``_update`` that also runs the frozen one on tuple-monomial copies
    and compares the basis, the pair list and the order the heap pops it in."""
    update = groebner._update

    def checked(basis, candidate):
        def unpacked(terms):
            return frozen(MultiPoly(basis.ring, dict(terms)))

        old_basis = [unpacked(f) for f in basis.polys]
        old_pairs = _frozen_pairs(basis)
        old_candidate = unpacked(candidate)
        oracle._update(old_basis, old_pairs, old_candidate)
        update(basis, candidate)
        assert _frozen_pairs(basis) == old_pairs
        assert [pair[3:] for pair in sorted(basis.pairs)] == _frozen_selection(old_pairs)
        assert [unpacked(f) for f in basis.polys] == old_basis
        candidates.append(old_candidate)

    return checked


@given(st.one_of(_homogeneous_lists(), st.lists(_poly(), min_size=1, max_size=3)))
@settings(max_examples=120, deadline=None)
def test_pair_list_after_every_update_matches_frozen_update(gens) -> None:
    candidates: list = []
    with mock.patch.object(groebner, "_update", _checked_update(candidates)):
        groebner.groebner_basis(gens)
        if all(g.is_homogeneous() for g in gens):
            groebner.minimalize_generators(gens)
    assert candidates or all(g.is_zero() for g in gens)


@given(st.one_of(_homogeneous_lists(), st.lists(_poly(), min_size=0, max_size=3)))
@settings(max_examples=120, deadline=None)
def test_reduced_basis_matches_fixpoint_interreduction(gens) -> None:
    new = groebner.reduced_groebner_basis(gens)
    assert [frozen(g) for g in new] == oracle.reduced_groebner_basis([frozen(g) for g in gens])


@given(_homogeneous_lists())
@settings(max_examples=150, deadline=None)
def test_survivors_match_degree_by_degree_rule(gens) -> None:
    new = groebner.minimalize_generators(gens)
    assert [frozen(g) for g in new] == oracle.minimalize_generators([frozen(g) for g in gens])


# -- rings of 1, 3 and 31 variables, degrees up to just below the limit --------


def _same_terms(new: list[MultiPoly], old: list) -> None:
    """The packed results ``new`` equal the frozen ``old``, term order too."""
    new = [frozen(p) for p in new]
    assert new == old
    assert [list(p.terms) for p in new] == [list(p.terms) for p in old]


@st.composite
def _sparse(draw, ring: PolyRing, degree: int | None = None) -> MultiPoly:
    """Up to three terms of degree at most 3 (exactly ``degree`` if given):
    zero, constants and non-homogeneous polynomials all occur."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        exps = [0] * ring.nvars
        for _ in range(draw(st.integers(0, 3)) if degree is None else degree):
            exps[draw(st.integers(0, ring.nvars - 1))] += 1
        terms.append((tuple(exps), draw(_COEFFS)))
    return ring.from_terms(terms)


@st.composite
def _lifted(draw, polys: list[MultiPoly], margin: int) -> list[MultiPoly]:
    """``polys``, or each of them times ``v ** (DEGREE_LIMIT - 1 - margin)``
    for one variable ``v``: with ``margin = 3`` a degree-3 input then has
    degree ``DEGREE_LIMIT - 1``, the largest the packing takes."""
    if not polys or not draw(st.booleans()):
        return polys
    ring = polys[0].ring
    exps = [0] * ring.nvars
    exps[draw(st.integers(0, ring.nvars - 1))] = DEGREE_LIMIT - 1 - margin
    power = ring.monomial(tuple(exps))
    return [p * power for p in polys]


@st.composite
def _wide(draw, margin: int, homogeneous: bool = False) -> list[MultiPoly]:
    """Zero to four polynomials of one ring of 1, 3 or 31 variables."""
    ring = draw(st.sampled_from(RINGS))
    degree = st.integers(0, 3) if homogeneous else st.none()
    polys = [draw(_sparse(ring, draw(degree))) for _ in range(draw(st.integers(0, 4)))]
    return draw(_lifted(polys, margin))


@given(_wide(margin=3), st.data())
@settings(max_examples=150, deadline=None)
def test_normal_form_and_spoly_match_frozen_code(polys, data) -> None:
    if not polys:
        return
    p, basis = polys[0], polys[1:]
    old_basis = [frozen(g) for g in basis]
    _same_terms([groebner.normal_form(p, basis)], [oracle.normal_form(frozen(p), old_basis)])
    nonzero = [g for g in polys if not g.is_zero()]
    if len(nonzero) >= 2:
        f, g = data.draw(st.permutations(nonzero))[:2]
        exponents = f.ring.exponents
        lcm = map(max, exponents(f.leading_monomial()), exponents(g.leading_monomial()))
        if sum(lcm) < DEGREE_LIMIT:
            _same_terms([groebner.spoly(f, g)], [oracle.spoly(frozen(f), frozen(g))])


@given(_wide(margin=48))
@settings(max_examples=100, deadline=None)
def test_reduced_basis_matches_frozen_code_on_wide_rings(gens) -> None:
    candidates: list = []
    with mock.patch.object(groebner, "_update", _checked_update(candidates)):
        new = groebner.reduced_groebner_basis(gens)
    _same_terms(new, oracle.reduced_groebner_basis([frozen(g) for g in gens]))


@given(_wide(margin=48, homogeneous=True))
@settings(max_examples=100, deadline=None)
def test_survivors_match_frozen_code_on_wide_rings(gens) -> None:
    candidates: list = []
    with mock.patch.object(groebner, "_update", _checked_update(candidates)):
        new = groebner.minimalize_generators(gens)
    _same_terms(new, oracle.minimalize_generators([frozen(g) for g in gens]))


def test_degrees_at_the_packing_limit_raise() -> None:
    ring = PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    top = x ** (DEGREE_LIMIT - 1)
    assert groebner.normal_form(top + y, [y]) == top
    limit = str(DEGREE_LIMIT)
    with pytest.raises(ValueError, match=limit):
        groebner.normal_form(top * x, [y])  # an input at the limit: the product raises
    with pytest.raises(ValueError, match=limit):
        groebner.spoly(top, y)  # an lcm at the limit
    with pytest.raises(ValueError, match=limit):
        groebner.reduced_groebner_basis([top + y, x * y])  # a pair's lcm


# -- carrying on a basis the engine already holds ------------------------------


def _term_lists(polys: list[MultiPoly]) -> list[list]:
    return [list(g.terms.items()) for g in polys]


@st.composite
def _extensions(draw) -> tuple[list[MultiPoly], list[MultiPoly]]:
    """Generators of a starting ideal and one or two extra polynomials of
    the same ring: linear forms, as the leaf branches add, or polynomials of
    degree at most 3, homogeneous or not."""
    if draw(st.booleans()):
        base = draw(st.one_of(_homogeneous_lists(), st.lists(_poly(), max_size=3)))
        extra = st.one_of(_form(1), _form(2), _poly())
    else:
        ring = draw(st.sampled_from(RINGS))
        base = [draw(_sparse(ring)) for _ in range(draw(st.integers(0, 4)))]
        extra = st.one_of(_sparse(ring, 1), _sparse(ring))
    return base, draw(st.lists(extra, min_size=1, max_size=2))


@given(_extensions())
@settings(max_examples=150, deadline=None)
def test_extended_basis_equals_the_reduced_basis_from_scratch(case) -> None:
    base, extra = case
    reduced = groebner.reduced_groebner_basis(base)
    got = groebner.extend_reduced_basis(reduced, extra)
    assert _term_lists(got) == _term_lists(groebner.reduced_groebner_basis(reduced + extra))


@given(_extensions())
@settings(max_examples=100, deadline=None)
def test_extension_pairs_only_the_new_elements(case) -> None:
    """The reduced basis's elements enter as processed: every pair update
    comes after them, one per element that joins, and one comes exactly
    when an extra polynomial lies outside the ideal."""
    base, extra = case
    reduced = groebner.reduced_groebner_basis(base)
    sizes: list[int] = []
    update = groebner._update

    def recording(basis, candidate):
        sizes.append(len(basis.polys))
        update(basis, candidate)

    with mock.patch.object(groebner, "_update", recording):
        groebner.extend_reduced_basis(reduced, extra)
    assert sizes == list(range(len(reduced), len(reduced) + len(sizes)))
    outside = any(not groebner.normal_form(p, reduced).is_zero() for p in extra)
    assert bool(sizes) == outside


def test_extension_forms_the_pairs_that_make_new_elements() -> None:
    """The reduced basis of <x^2 - y z, x y> holds y^2 z, the normal form
    of their S-pair; extending <x^2 - y z> by x y must produce it."""
    x, y, z = (R.var(v) for v in R.variables)
    reduced = groebner.reduced_groebner_basis([x * x - y * z])
    got = groebner.extend_reduced_basis(reduced, [x * y])
    assert [str(g) for g in got] == ["x*y", "x^2 - y*z", "y^2*z"]
    assert got == groebner.reduced_groebner_basis([x * x - y * z, x * y])


@given(st.one_of(_homogeneous_lists(), _wide(margin=48, homogeneous=True)))
@settings(max_examples=150, deadline=None)
def test_finished_minimalization_equals_the_reduced_basis_of_the_survivors(gens) -> None:
    survivors = groebner.minimalize_generators(gens)
    want = groebner.reduced_groebner_basis(list(survivors))
    assert _term_lists(survivors.reduced_basis()) == _term_lists(want)
    assert _term_lists(survivors.reduced_basis()) == _term_lists(want)  # finishing twice


def test_finishing_reduces_the_pairs_above_the_last_survivor() -> None:
    """Both survivors have degree 2; the basis of their ideal also holds
    y^2 z, from the pair of lcm degree 3 the survivor test left pending."""
    x, y, z = (R.var(v) for v in R.variables)
    survivors = groebner.minimalize_generators([x * y, x * x - y * z])
    assert survivors == [x * y, x * x - y * z]
    assert [str(g) for g in survivors.reduced_basis()] == ["x*y", "x^2 - y*z", "y^2*z"]
