"""Differential tests of the single-pass Groebner code against its frozen predecessor.

``oracle_groebner_passes`` keeps the pair update that tested every lcm class,
the fixpoint interreduction and the degree-by-degree survivor rule.  These
tests check that the single passes give the same pair list after every
update, the same reduced bases and the same survivors.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_groebner_passes as oracle
from kuranishi import groebner
from kuranishi.poly import MultiPoly, PolyRing, grevlex_key
from kuranishi.scalars import GaussianRational

R = PolyRing(["x", "y", "z"])

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
        lm = draw(st.sampled_from(nonzero)).leading_monomial()
        smaller = [m for m in _monomials(sum(lm)) if grevlex_key(m) < grevlex_key(lm)]
        same = R.monomial(lm, draw(st.sampled_from([1, 2, -1])))
        if smaller:
            same = same + R.monomial(draw(st.sampled_from(smaller)), draw(_COEFFS))
        gens.append(same)
    if draw(st.booleans()):
        gens.append(R.zero())
    return draw(st.permutations(gens))


def _checked_update(candidates: list[MultiPoly]):
    """An ``_update`` that also runs the frozen one on copies and compares."""
    update = groebner._update

    def checked(basis, pairs, candidate):
        old_basis, old_pairs = list(basis), list(pairs)
        oracle._update(old_basis, old_pairs, candidate)
        update(basis, pairs, candidate)
        assert pairs == old_pairs
        assert basis == old_basis
        candidates.append(candidate)

    return checked


@given(st.one_of(_homogeneous_lists(), st.lists(_poly(), min_size=1, max_size=3)))
@settings(max_examples=120, deadline=None)
def test_pair_list_after_every_update_matches_frozen_update(gens) -> None:
    candidates: list[MultiPoly] = []
    with mock.patch.object(groebner, "_update", _checked_update(candidates)):
        groebner.groebner_basis(gens)
        if all(g.is_homogeneous() for g in gens):
            groebner.minimalize_generators(gens)
    assert candidates or all(g.is_zero() for g in gens)


@given(st.one_of(_homogeneous_lists(), st.lists(_poly(), min_size=0, max_size=3)))
@settings(max_examples=120, deadline=None)
def test_reduced_basis_matches_fixpoint_interreduction(gens) -> None:
    assert groebner.reduced_groebner_basis(gens) == oracle.reduced_groebner_basis(gens)


@given(_homogeneous_lists())
@settings(max_examples=150, deadline=None)
def test_survivors_match_degree_by_degree_rule(gens) -> None:
    assert groebner.minimalize_generators(gens) == oracle.minimalize_generators(gens)
