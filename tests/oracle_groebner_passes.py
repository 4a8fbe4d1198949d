"""FROZEN copy of the Groebner passes the engine replaced with single passes.

Kept verbatim from the code before the change, for differential tests only
(``tests/test_groebner_passes.py``):

* ``_update`` tested every lcm class against every other class for a proper
  divisor;
* ``reduced_groebner_basis`` interreduced the minimal basis to a fixpoint and
  re-sorted it;
* ``minimalize_generators`` took generators degree by degree and dropped a
  degree-d generator iff its normal form lay in the span of the normal forms
  of the other live degree-d generators, from the largest leading monomial
  down.

``_reduce_pairs``, ``groebner_basis`` and the helpers they call are copied
too, so every pass here calls this module's ``_update``.

Its polynomials are the frozen tuple-monomial ones of ``oracle_poly``.
When ``kuranishi.poly`` moved to packed int monomials, only that
import changed here, so the body still computes on exponent tuples;
tests convert to and from it with ``PolyRing.exponents`` and
``PolyRing.from_terms``.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from typing import Sequence

from oracle_poly import MultiPoly, grevlex_key

Monomial = tuple[int, ...]

#: A pending S-pair ``(grevlex_key(lcm), lcm, i, j)`` of basis positions
#: ``i < j``; its lcm is fixed, so it is computed once, when the pair is made.
Pair = tuple[tuple[int, tuple[int, ...]], Monomial, int, int]


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial: the leading terms of f and g cancelled against each other."""
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    ring = f.ring
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = _lcm(lf, lg)
    mf = ring.monomial(tuple(a - b for a, b in zip(l, lf)), f.leading_coefficient().inverse())
    mg = ring.monomial(tuple(a - b for a, b in zip(l, lg)), g.leading_coefficient().inverse())
    return mf * f - mg * g


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Fully reduce ``p`` modulo ``basis``.

    Deterministic: always rewrites the current leading term, using the first
    divisor in basis order; reduced terms that no divisor matches move to the
    remainder.  No remainder term is divisible by any basis leading monomial.
    """
    ring = p.ring
    leads = [(g.leading_monomial(), g.leading_coefficient(), g) for g in basis if not g.is_zero()]
    remainder = ring.zero()
    work = p
    while not work.is_zero():
        exps = work.leading_monomial()
        coeff = work.terms[exps]
        for lm, lc, g in leads:
            if _divides(lm, exps):
                shift = tuple(a - b for a, b in zip(exps, lm))
                work = work - ring.monomial(shift, coeff / lc) * g
                break
        else:
            term = ring.monomial(exps, coeff)
            remainder = remainder + term
            work = work - term
    return remainder


def _update(basis: list[MultiPoly], pairs: list[Pair], candidate: MultiPoly) -> None:
    """Gebauer-Moeller update: append candidate, prune and extend the pair set."""
    lm_new = candidate.leading_monomial()
    t = len(basis)
    lms = [g.leading_monomial() for g in basis]
    new_lcms = [_lcm(lm, lm_new) for lm in lms]

    # Chain criterion on old pairs: (i, j) is redundant once the new element
    # divides their lcm strictly finer on both sides.
    kept: list[Pair] = []
    for pair in pairs:
        _, lij, i, j = pair
        if _divides(lm_new, lij) and new_lcms[i] != lij and new_lcms[j] != lij:
            continue
        kept.append(pair)
    pairs.clear()
    pairs.extend(kept)

    # New pairs (i, t): keep one representative per minimal lcm, and drop any
    # class whose lcm is a proper multiple of another class's lcm; drop classes
    # that contain a coprime pair (Buchberger's first criterion).
    classes: dict[Monomial, list[int]] = {}
    for i, l in enumerate(new_lcms):
        classes.setdefault(l, []).append(i)
    ordered = sorted(classes.keys(), key=grevlex_key)
    minimal: list[Monomial] = []
    for l in ordered:
        if any(_divides(m, l) and m != l for m in classes):
            continue
        minimal.append(l)
    for l in minimal:
        members = classes[l]
        if any(_mul(lms[i], lm_new) == l for i in members):
            continue  # coprime leading monomials: S-pair reduces to zero
        pairs.append((grevlex_key(l), l, members[0], t))

    basis.append(candidate)


def _reduce_pairs(
    basis: list[MultiPoly],
    pairs: list[Pair],
    max_degree: int | None = None,
) -> None:
    """Reduce S-pairs, smallest lcm first, extending ``basis`` in place.

    With ``max_degree`` set, stops before the first pair whose lcm has a
    larger total degree; the remaining pairs stay in ``pairs``.  For
    homogeneous input the basis is then a Groebner basis up to that degree.
    """
    while pairs:
        # normal selection: the first pair of smallest lcm in grevlex, which
        # is degree first
        best = min(range(len(pairs)), key=lambda k: pairs[k][0])
        if max_degree is not None and pairs[best][0][0] > max_degree:
            return
        _, _, i, j = pairs.pop(best)
        nf = normal_form(spoly(basis[i], basis[j]), basis)
        if not nf.is_zero():
            _update(basis, pairs, nf.monic())


def groebner_basis(generators: Sequence[MultiPoly]) -> list[MultiPoly]:
    """A (not yet reduced) Groebner basis of the given ideal."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators from different rings")
    basis: list[MultiPoly] = []
    pairs: list[Pair] = []
    for g in gens:
        nf = normal_form(g, basis)
        if not nf.is_zero():
            _update(basis, pairs, nf.monic())
    _reduce_pairs(basis, pairs)
    return basis


def reduced_groebner_basis(generators: Sequence[MultiPoly]) -> list[MultiPoly]:
    """The unique reduced Groebner basis: minimal, monic, fully interreduced.

    Elements are returned sorted by ascending grevlex leading monomial, so
    equal ideals yield identical lists.
    """
    basis = groebner_basis(generators)
    if not basis:
        return []
    # minimal: drop any element whose leading monomial another's divides
    minimal: list[MultiPoly] = []
    for g in sorted(basis, key=lambda h: grevlex_key(h.leading_monomial())):
        lm = g.leading_monomial()
        if any(_divides(h.leading_monomial(), lm) for h in minimal):
            continue
        minimal.append(g)
    # interreduce tails to a fixpoint
    changed = True
    while changed:
        changed = False
        for idx in range(len(minimal)):
            others = minimal[:idx] + minimal[idx + 1 :]
            nf = normal_form(minimal[idx], others).monic()
            if nf != minimal[idx]:
                minimal[idx] = nf
                changed = True
    minimal.sort(key=lambda h: grevlex_key(h.leading_monomial()))
    return minimal


def minimalize_generators(generators: Sequence[MultiPoly]) -> list[MultiPoly]:
    """Remove generators lying in the ideal of the remaining ones.

    The generators must be homogeneous (zero generators are ignored);
    otherwise ``ValueError`` is raised.  Survivor rule: candidates are
    examined from the largest leading monomial down, and a candidate is
    dropped iff it lies in the ideal of the generators still present, so
    higher-degree consequences are removed first.  The survivors are returned
    monic, sorted by ascending grevlex leading monomial.

    Only generators of degree at most d matter for a degree-d candidate, and
    all of lower degree are still present when it is examined.  So degrees
    are processed in ascending order against a Groebner basis of the
    lower-degree survivors, truncated at d: a candidate is dropped iff its
    normal form lies in the span of the normal forms of the other degree-d
    generators still present.
    """
    current = [g.monic() for g in generators if not g.is_zero()]
    if not current:
        return []
    ring = current[0].ring
    for g in current:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        if not g.is_homogeneous():
            raise ValueError("minimalize_generators expects homogeneous generators")
    current.sort(key=lambda h: grevlex_key(h.leading_monomial()))
    by_degree: dict[int, list[MultiPoly]] = {}
    for g in current:
        by_degree.setdefault(g.total_degree(), []).append(g)

    survivors: list[MultiPoly] = []
    basis: list[MultiPoly] = []
    pairs: list[Pair] = []
    for degree, group in by_degree.items():
        _reduce_pairs(basis, pairs, max_degree=degree)
        forms = [normal_form(g, basis) for g in group]
        alive = list(range(len(group)))
        for idx in reversed(range(len(group))):
            # among forms of one degree, a normal form is linear elimination:
            # a leading monomial divides a monomial of its degree iff equal
            span: list[MultiPoly] = []
            for k in alive:
                if k != idx:
                    rest = normal_form(forms[k], span)
                    if not rest.is_zero():
                        span.append(rest)
            if normal_form(forms[idx], span).is_zero():
                alive.remove(idx)
        for k in alive:
            survivors.append(group[k])
            nf = normal_form(forms[k], basis)
            if not nf.is_zero():
                _update(basis, pairs, nf.monic())
    return survivors
