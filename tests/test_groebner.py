"""Groebner engine tests, including differential tests against the frozen oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuranishi.groebner import (
    groebner_basis,
    ideal_membership,
    minimalize_generators,
    normal_form,
    reduced_groebner_basis,
    spoly,
)
from kuranishi.poly import MultiPoly, PolyRing
from kuranishi.scalars import GaussianRational

from oracle_groebner import oracle_membership
from oracle_poly import grevlex_key
from tuple_polys import frozen

R = PolyRing(["x", "y", "z"])
X, Y, Z = R.var("x"), R.var("y"), R.var("z")


def _random_poly(rng: random.Random, max_terms: int = 3, max_deg: int = 3) -> MultiPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [0, 0, 0]
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(3)] += 1
        coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
        terms.append((tuple(exps), coeff))
    return R.from_terms(terms)


# -- normal form ---------------------------------------------------------------


def test_normal_form_examples() -> None:
    gens = [X * X - Y, Y * Y - Z]
    p = X**4
    # x^4 -> (x^2)^2 -> y^2 -> z
    assert normal_form(p, gens) == Z
    assert normal_form(R.zero(), gens).is_zero()
    assert normal_form(Z, gens) == Z


def test_normal_form_no_term_divisible() -> None:
    gens = [X * Y, X * X]
    nf = normal_form(X * Y + X * X + Y * Z + R.one(), gens)
    assert nf == Y * Z + R.one()


# -- basis computation ------------------------------------------------------------


def test_reduced_basis_known_example() -> None:
    gens = [X * X + Y * Y, X * Y]
    gb = reduced_groebner_basis(gens)
    assert gb == [X * Y, X * X + Y * Y, Y**3]


def test_reduced_basis_empty_and_unit() -> None:
    assert reduced_groebner_basis([]) == []
    assert reduced_groebner_basis([R.zero()]) == []
    gb = reduced_groebner_basis([X + R.one(), X])
    assert gb == [R.one()]


def test_reduced_basis_is_deterministic() -> None:
    gens = [X * X * Y - Z, X * Z - Y * Y, Y * Z - X]
    first = reduced_groebner_basis(gens)
    second = reduced_groebner_basis(list(gens))
    assert first == second


def test_buchberger_criterion_on_result() -> None:
    rng = random.Random(7)
    for _ in range(10):
        gens = [_random_poly(rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        gb = groebner_basis(gens)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert normal_form(spoly(gb[i], gb[j]), gb).is_zero()


def test_generators_reduce_to_zero_in_own_basis() -> None:
    rng = random.Random(11)
    for _ in range(10):
        gens = [_random_poly(rng) for _ in range(rng.randint(1, 3))]
        gb = reduced_groebner_basis(gens)
        for g in gens:
            if gb:
                assert normal_form(g, gb).is_zero()
            else:
                assert g.is_zero()


# -- membership / equality ----------------------------------------------------------


def test_membership_examples() -> None:
    gens = [X * X + Y * Y, X * Y]
    assert ideal_membership(Y**3, gens)
    assert not ideal_membership(Y * Y, gens)
    assert ideal_membership(R.zero(), [])
    assert not ideal_membership(X, [])


def test_ideal_equal_under_shuffles_and_recombination() -> None:
    gens = [X * X - Y, Y * Z + X]
    shuffled = [Y * Z + X, X * X - Y]
    recombined = [
        (X * X - Y) + (Y * Z + X),
        Y * Z + X,
    ]
    scaled = [(X * X - Y).scale(GaussianRational(0, 2)), (Y * Z + X).scale("1/3")]
    assert reduced_groebner_basis(gens) == reduced_groebner_basis(shuffled)
    assert reduced_groebner_basis(gens) == reduced_groebner_basis(recombined)
    assert reduced_groebner_basis(gens) == reduced_groebner_basis(scaled)
    assert reduced_groebner_basis(gens) != reduced_groebner_basis([X * X - Y])


@st.composite
def _block_generators(draw, ring: PolyRing, positions: range) -> list[MultiPoly]:
    """Up to three homogeneous polynomials in the variables at ``positions``."""
    top = draw(st.sampled_from([1, 3]))  # top 1 gives a linear basis
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(1, top))
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            exps = [0] * ring.nvars
            for _ in range(degree):
                exps[draw(st.sampled_from(positions))] += 1
            coeff = GaussianRational(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
            terms.append((tuple(exps), coeff))
        gens.append(ring.from_terms(terms))
    return gens


@st.composite
def _disjoint_blocks(draw) -> tuple[list[MultiPoly], list[MultiPoly]]:
    left, right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ring = PolyRing([f"a{i}" for i in range(left)] + [f"b{i}" for i in range(right)])
    return (
        draw(_block_generators(ring, range(left))),
        draw(_block_generators(ring, range(left, left + right))),
    )


@given(_disjoint_blocks())
@settings(max_examples=80, deadline=None)
def test_reduced_basis_of_disjoint_blocks_is_the_sorted_union(blocks) -> None:
    left, right = blocks
    union = reduced_groebner_basis(left) + reduced_groebner_basis(right)
    union.sort(key=lambda g: g.ring.key(g.leading_monomial()))
    assert union == reduced_groebner_basis(left + right)


def test_minimalize_generators() -> None:
    assert minimalize_generators([X * Y, X]) == [X]
    gens = minimalize_generators([X * X, X * Y])
    assert gens == [X * Y, X * X]
    assert minimalize_generators([]) == []
    assert minimalize_generators([R.zero()]) == []
    # a redundant consequence of two others is dropped
    gens = minimalize_generators([X, Y, X * X + X * Y])
    assert gens == [Y, X]


def test_minimalize_generators_rejects_non_homogeneous_input() -> None:
    with pytest.raises(ValueError, match="homogeneous"):
        minimalize_generators([X * X, Y + Z * Z])
    with pytest.raises(ValueError, match="homogeneous"):
        minimalize_generators([X + R.one()])


_WIDE = PolyRing([f"t{i}" for i in range(31)])


@pytest.mark.parametrize("wide_first", [False, True], ids=["narrow-first", "wide-first"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p, q: normal_form(p, [q]),
        lambda p, q: spoly(p, q),
        lambda p, q: groebner_basis([p, q]),
        lambda p, q: reduced_groebner_basis([p, q]),
        lambda p, q: minimalize_generators([p, q]),
    ],
    ids=["normal_form", "spoly", "groebner_basis", "reduced_groebner_basis", "minimalize"],
)
def test_polynomials_from_different_rings_raise(call, wide_first: bool) -> None:
    """A 3-variable and a 31-variable ring lay their monomials out differently,
    so the ring check is what keeps the two from mixing."""
    p, q = X * Y, _WIDE.var("t0") * _WIDE.var("t30")
    if wide_first:
        p, q = q, p
    with pytest.raises(ValueError, match="different rings"):
        call(p, q)


# -- differential test against the frozen oracle --------------------------------------


def test_membership_agrees_with_frozen_oracle() -> None:
    rng = random.Random(2026)
    agree = 0
    for _ in range(25):
        gens = [_random_poly(rng, max_terms=2, max_deg=2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if rng.random() < 0.5 and gens:
            candidate = R.zero()
            for g in gens:
                candidate = candidate + _random_poly(rng, max_terms=2, max_deg=1) * g
        else:
            candidate = _random_poly(rng, max_terms=2, max_deg=2)
        expected = oracle_membership(frozen(candidate), [frozen(g) for g in gens])
        assert ideal_membership(candidate, gens) == expected
        agree += 1
    assert agree == 25


# -- differential test of the minimalization survivor rule ------------------------------


def _reference_minimalize(generators: list[MultiPoly]) -> list[MultiPoly]:
    """The survivor rule decided by the frozen oracle, one candidate at a time:
    from the largest leading monomial down, drop a generator that lies in the
    ideal of the generators still present."""
    current = [g.monic() for g in generators if not g.is_zero()]
    current.sort(key=lambda h: R.key(h.leading_monomial()))
    idx = len(current) - 1
    while idx >= 0:
        others = [frozen(g) for g in current[:idx] + current[idx + 1 :]]
        if oracle_membership(frozen(current[idx]), others):
            current.pop(idx)
        idx -= 1
    return current


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    return [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]


def _random_form(rng: random.Random, degree: int) -> MultiPoly:
    """A homogeneous polynomial of the given degree (possibly zero)."""
    monos = _monomials(degree)
    terms = [
        (rng.choice(monos), GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)))
        for _ in range(rng.randint(1, 2))
    ]
    return R.from_terms(terms)


def _same_leading_monomial(rng: random.Random, g: MultiPoly) -> MultiPoly:
    """A new generator whose leading monomial is that of ``g``."""
    lm = R.exponents(g.leading_monomial())
    smaller = [m for m in _monomials(sum(lm)) if grevlex_key(m) < grevlex_key(lm)]
    h = R.monomial(lm, GaussianRational(rng.choice([1, 2, -1]), rng.randint(-1, 1)))
    if smaller:
        h = h + R.monomial(rng.choice(smaller), rng.randint(1, 2))
    return h


def test_minimalize_generators_matches_oracle_survivor_rule() -> None:
    rng = random.Random(314)
    degree_sets = [(1, 3), (2,), (1, 2), (2, 3), (1, 2, 3), (0, 2)]
    features = {
        "planted": 0, "s_pair": 0, "zero": 0, "equal_lm": 0, "gap": 0, "dropped": 0
    }
    cases = 120
    for _ in range(cases):
        degrees = rng.choice(degree_sets)
        gens = [_random_form(rng, rng.choice(degrees)) for _ in range(rng.randint(2, 4))]
        features["gap"] += degrees == (1, 3)
        nonzero = [g for g in gens if not g.is_zero()]
        if nonzero and rng.random() < 0.6:
            # a planted consequence of the generators, in the top degree
            top = max(degrees)
            planted = R.zero()
            for g in rng.sample(nonzero, min(2, len(nonzero))):
                planted = planted + _random_form(rng, top - g.total_degree()) * g
            gens.append(planted)
            features["planted"] += 1
        if len(nonzero) >= 2 and rng.random() < 0.5:
            # a consequence whose leading terms cancel: only a Groebner basis
            # of the lower-degree generators, not the generators, reduces it
            f, g = rng.sample(nonzero, 2)
            s = spoly(f, g)
            if not s.is_zero() and s.total_degree() <= max(degrees):
                gens.append(_random_form(rng, max(degrees) - s.total_degree()) * s)
                features["s_pair"] += 1
        if nonzero and rng.random() < 0.4:
            gens.append(_same_leading_monomial(rng, rng.choice(nonzero)))
            features["equal_lm"] += 1
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), R.zero())
        features["zero"] += sum(g.is_zero() for g in gens) > 0
        rng.shuffle(gens)
        expected = _reference_minimalize(gens)
        assert minimalize_generators(gens) == expected, [str(g) for g in gens]
        features["dropped"] += len(expected) < sum(not g.is_zero() for g in gens)
    assert all(count >= 10 for count in features.values()), features
