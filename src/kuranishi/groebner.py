"""Buchberger's algorithm with the classical pair-elimination criteria.

Produces the unique reduced Groebner basis under grevlex, which makes ideal
equality a syntactic comparison.  Normal selection strategy (smallest pair
lcm first, each pair stored with its lcm); coprimality and chain criteria
via the Gebauer-Moeller update, which keeps only the minimal new lcms.  The
minimal basis is interreduced in one pass, in ascending leading-monomial
order.

The same pair loop, stopped at a degree bound, is the minimalization of
homogeneous generator lists: each generator, in ascending leading-monomial
order, is kept iff it does not reduce to zero modulo the basis of the
generators kept before it, truncated at its degree, and a kept generator
joins that basis.  A redundancy test is then one normal form instead of a
Groebner basis per candidate.

A reduced basis is unique, so a basis the caller already holds can be
carried on instead of computed again, with the same result, down to the
order of its terms.  :func:`extend_reduced_basis` adds generators to a
reduced basis whose elements enter as processed, forming no pairs among
each other (the installation of Gebauer and Moeller, J. Symb. Comp. 6,
1988); only the new elements' pairs go through the update.  The
minimalization returns its survivors as :class:`MinimalGenerators`, whose
``reduced_basis`` finishes the truncated basis the survivor test built.

The kernel runs on the packed monomials of ``MultiPoly.terms`` (see
:mod:`kuranishi.poly`), copied in and out as term dicts: a product is
``a + b``, divisibility one test on the ring's ``guard`` bits, and
``PolyRing.key`` and ``PolyRing.lcm`` give the grevlex key and the lcm,
which raises ``ValueError`` at degree ``DEGREE_LIMIT``.  No other degree
needs a check: inputs are below the limit, and every other monomial is an
S-polynomial term, of degree at most its pair's lcm, or a reduction term,
of degree at most the term it rewrites.

Each basis keeps one lead table, extended as elements join; a normal form
reduces one dict of terms in place, taking its leading term from a heap of
keys; pending pairs sit in a heap keyed by lcm and then insertion order.
The kernel takes the choices it took on exponent tuples -- the same pairs
in the same order, the first divisor in basis order, the same one-pass
interreduction -- and coefficients are exact, so bases, normal forms and
survivors are identical, down to the order of their terms.

Everything here is exact; coefficients are Gaussian rationals.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Sequence

from .poly import MultiPoly, PolyRing
from .scalars import ZERO, GaussianRational

__all__ = [
    "normal_form",
    "spoly",
    "groebner_basis",
    "reduced_groebner_basis",
    "ideal_membership",
    "minimalize_generators",
    "MinimalGenerators",
    "extend_reduced_basis",
]

#: A term ``(monomial, coefficient)``.
Term = tuple[int, GaussianRational]

#: A pending S-pair ``(key(lcm), insertion counter, lcm, i, j)`` of basis
#: positions ``i < j``; the heap pops the first pair of least lcm.
Pair = tuple[int, int, int, int, int]


def _terms(p: MultiPoly) -> list[Term]:
    """The terms of a nonzero ``p``, its leading term first."""
    lead = p.leading_monomial()
    return [(lead, p.terms[lead])] + [t for t in p.terms.items() if t[0] != lead]


class _Basis:
    """Monic basis elements with their lead table and pending pairs."""

    __slots__ = ("ring", "polys", "leads", "tails", "pairs", "made")

    def __init__(self, ring: PolyRing) -> None:
        self.ring = ring
        self.polys: list[list[Term]] = []  # monic, leading term first
        self.leads: list[int] = []
        self.tails: list[list[Term]] = []
        self.pairs: list[Pair] = []
        self.made = 0  # pairs pushed so far: the insertion counter

    def append(self, monic: list[Term]) -> None:
        self.polys.append(monic)
        self.leads.append(monic[0][0])
        self.tails.append(monic[1:])


def _spoly(f: list[Term], g: list[Term], lcm: int) -> dict[int, GaussianRational]:
    """The S-polynomial of two monic packed polynomials, leading terms first."""
    sf, sg = lcm - f[0][0], lcm - g[0][0]
    out = {m + sf: c for m, c in f}
    for m, c in g:
        m += sg
        total = out.get(m, ZERO) - c
        if total:
            out[m] = total
        else:
            del out[m]
    return out


def _nf(work: dict[int, GaussianRational], basis: _Basis) -> list[Term]:
    """Reduce ``work`` in place modulo ``basis``; the remainder, descending.

    Rewrites the leading term with the first divisor in basis order; a term
    no lead divides moves to the remainder.  The heap holds negated keys, so
    it pops the largest monomial; a key whose term has cancelled is skipped.
    Rewriting only adds terms below the one rewritten, so no popped monomial
    comes back.
    """
    ring = basis.ring
    shift, wide, guard = ring.shift, ring.shift + 1, ring.guard
    leads, tails = basis.leads, basis.tails
    # m -> -key(m) maps negated keys back to monomials too
    heap = [m - (m >> shift << wide) for m in work]
    heapify(heap)
    remainder: list[Term] = []
    while heap:
        k = heappop(heap)
        m = k - (k >> shift << wide)
        c = work.pop(m, None)
        if c is None:
            continue
        mg = m | guard
        for index, lead in enumerate(leads):
            if mg - lead & guard == guard:
                break
        else:
            remainder.append((m, c))
            continue
        q = -c  # the basis is monic
        step = m - lead
        for t, ct in tails[index]:
            t += step
            v = work.get(t)
            if v is None:
                work[t] = q * ct
                heappush(heap, t - (t >> shift << wide))
            else:
                v = v + q * ct
                if v:
                    work[t] = v
                else:
                    del work[t]
    return remainder


def _monic(terms: list[Term]) -> list[Term]:
    inverse = terms[0][1].inverse()
    return [(m, inverse * c) for m, c in terms]


def spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial: the leading terms of f and g cancelled against each other."""
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    pf, pg = _monic(_terms(f)), _monic(_terms(g))
    return MultiPoly(f.ring, _spoly(pf, pg, f.ring.lcm(pf[0][0], pg[0][0])))


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Fully reduce ``p`` modulo ``basis``.

    Deterministic: always rewrites the current leading term, using the first
    divisor in basis order; reduced terms that no divisor matches move to the
    remainder.  No remainder term is divisible by any basis leading monomial.
    """
    if p.is_zero():
        return p
    reducers = _Basis(p.ring)
    for g in basis:
        if not g.is_zero():
            if g.ring != p.ring:
                raise ValueError("polynomials from different rings")
            reducers.append(_monic(_terms(g)))
    return MultiPoly(p.ring, dict(_nf(dict(p.terms), reducers)))


def _update(basis: _Basis, candidate: list[Term]) -> None:
    """Gebauer-Moeller update: append candidate, prune and extend the pair heap."""
    ring, leads, pairs = basis.ring, basis.leads, basis.pairs
    guard = ring.guard
    new = candidate[0][0]
    t = len(leads)
    new_lcms = [ring.lcm(lead, new) for lead in leads]

    # Chain criterion on old pairs: (i, j) is redundant once the new element
    # divides their lcm strictly finer on both sides.
    kept = [
        pair
        for pair in pairs
        if (pair[2] | guard) - new & guard != guard
        or new_lcms[pair[3]] == pair[2]
        or new_lcms[pair[4]] == pair[2]
    ]
    if len(kept) < len(pairs):
        pairs[:] = kept
        heapify(pairs)

    # New pairs (i, t): keep one representative per minimal lcm, and drop any
    # class whose lcm is a proper multiple of another class's lcm; drop classes
    # that contain a coprime pair (Buchberger's first criterion).  A proper
    # divisor sorts earlier in grevlex and is divided by a minimal lcm kept
    # before it, so testing the kept minimal lcms suffices.
    classes: dict[int, list[int]] = {}
    for i, l in enumerate(new_lcms):
        classes.setdefault(l, []).append(i)
    minimal: list[int] = []
    for key, l in sorted((ring.key(l), l) for l in classes):
        lg = l | guard
        if any(lg - m & guard == guard for m in minimal):
            continue
        minimal.append(l)
        members = classes[l]
        if any(leads[i] + new == l for i in members):
            continue  # coprime leading monomials: S-pair reduces to zero
        heappush(pairs, (key, basis.made, l, members[0], t))
        basis.made += 1

    basis.append(candidate)


def _reduce_pairs(basis: _Basis, max_degree: int | None = None) -> None:
    """Reduce S-pairs, smallest lcm first, extending ``basis`` in place.

    With ``max_degree`` set, stops before the first pair whose lcm has a
    larger total degree; the remaining pairs stay pending.  For homogeneous
    input the basis is then a Groebner basis up to that degree.
    """
    pairs, shift = basis.pairs, basis.ring.shift
    while pairs:
        # normal selection: the first pair of smallest lcm in grevlex, which
        # is degree first
        if max_degree is not None and pairs[0][2] >> shift > max_degree:
            return
        _, _, lcm, i, j = heappop(pairs)
        nf = _nf(_spoly(basis.polys[i], basis.polys[j], lcm), basis)
        if nf:
            _update(basis, _monic(nf))


def _extend(basis: _Basis, generators: Sequence[MultiPoly]) -> _Basis:
    """Add the normal forms of ``generators`` to ``basis`` through the pair
    update, then reduce every pending pair."""
    for g in generators:
        nf = _nf(dict(g.terms), basis)
        if nf:
            _update(basis, _monic(nf))
    _reduce_pairs(basis)
    return basis


def _interreduced(ring: PolyRing, polys: list[list[Term]]) -> list[MultiPoly]:
    """The reduced basis of the Groebner basis ``polys``.

    Sorted by ascending leading monomial, an element whose leading monomial
    another's divides is dropped, and the rest are interreduced in the same
    pass: every term of an element is at most its leading monomial, so below
    every later leading monomial, which divides none of them; no earlier one
    divides the monic leading term.
    """
    minimal = _Basis(ring)
    guard = ring.guard
    for f in sorted(polys, key=lambda f: ring.key(f[0][0])):
        lg = f[0][0] | guard
        if any(lg - lead & guard == guard for lead in minimal.leads):
            continue
        minimal.append(_nf(dict(f), minimal))
    return [MultiPoly(ring, dict(f)) for f in minimal.polys]


def _ring_of(polys: Sequence[MultiPoly]) -> PolyRing:
    ring = polys[0].ring
    if any(g.ring != ring for g in polys):
        raise ValueError("generators from different rings")
    return ring


def groebner_basis(generators: Sequence[MultiPoly]) -> list[MultiPoly]:
    """A (not yet reduced) Groebner basis of the given ideal."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = _ring_of(gens)
    basis = _extend(_Basis(ring), gens)
    return [MultiPoly(ring, dict(f)) for f in basis.polys]


def reduced_groebner_basis(generators: Sequence[MultiPoly]) -> list[MultiPoly]:
    """The unique reduced Groebner basis: minimal, monic, fully interreduced.

    Elements are returned sorted by ascending grevlex leading monomial, so
    equal ideals yield identical lists.
    """
    basis = groebner_basis(generators)
    if not basis:
        return []
    return _interreduced(basis[0].ring, [_terms(g) for g in basis])


def extend_reduced_basis(
    reduced: Sequence[MultiPoly], extra: Sequence[MultiPoly]
) -> list[MultiPoly]:
    """The reduced Groebner basis of ``reduced + extra``, where ``reduced``
    is already a reduced Groebner basis.

    The elements of ``reduced`` enter as processed: the S-polynomial of
    each pair of them reduces to zero modulo ``reduced``, so no pair of them
    is formed.  Only the pairs of ``extra``'s normal forms, and of the
    elements those pairs produce, go through the pair update, and the
    result is interreduced as in :func:`reduced_groebner_basis`.  A reduced
    basis is unique, so the result equals ``reduced_groebner_basis(reduced
    + extra)``, down to the order of its terms.
    """
    gens = [*reduced, *(g for g in extra if not g.is_zero())]
    if not gens:
        return []
    ring = _ring_of(gens)
    basis = _Basis(ring)
    for g in reduced:
        basis.append(_monic(_terms(g)))
    return _interreduced(ring, _extend(basis, extra).polys)


def ideal_membership(p: MultiPoly, generators: Sequence[MultiPoly]) -> bool:
    """True iff ``p`` lies in the ideal generated by ``generators``."""
    basis = reduced_groebner_basis(generators)
    if not basis:
        return p.is_zero()
    return normal_form(p, basis).is_zero()


class MinimalGenerators(list):
    """The survivors of :func:`minimalize_generators`, a list of them, with
    the Groebner basis their survivor test built: every pair of lcm degree
    up to the last survivor's reduced, the pairs above it still pending."""

    def __init__(self, survivors: Sequence[MultiPoly] = (), basis: _Basis | None = None):
        super().__init__(survivors)
        self._basis = basis

    def reduced_basis(self) -> list[MultiPoly]:
        """The reduced Groebner basis of the survivors' ideal.

        The survivor test's basis generates that ideal: each kept
        generator joined it as its normal form modulo the elements before
        it.  Its pending pairs are reduced with no degree bound and the
        result is interreduced, so it equals ``reduced_groebner_basis`` of
        the survivors, down to the order of its terms.
        """
        if self._basis is None:
            return []
        _reduce_pairs(self._basis)
        return _interreduced(self._basis.ring, self._basis.polys)


def minimalize_generators(generators: Sequence[MultiPoly]) -> MinimalGenerators:
    """Remove generators lying in the ideal of the others.

    The generators must be homogeneous (zero generators are ignored);
    otherwise ``ValueError`` is raised.  Survivor rule: in ascending
    leading-monomial order, a generator is kept iff it does not lie in the
    ideal of the generators kept before it.  The survivors are returned
    monic, sorted by ascending grevlex leading monomial.

    Only the degree-d part of that ideal matters for a degree-d generator,
    so each generator is reduced modulo the Groebner basis of the kept ones
    truncated at its degree (every pair of lcm degree at most d reduced).  A
    kept generator's normal form joins the basis; its leading monomial is
    divisible by no basis leading monomial, so it only makes pairs of lcm
    degree above d and the truncation stays valid.

    Within one degree this is the forward greedy rule on the normal forms
    modulo the lower-degree survivors.  It keeps the same set as deleting,
    from the largest leading monomial down, each form in the span of the
    others still present: both keep the lexicographically first basis of
    the span of those forms in ascending leading-monomial order.  So the
    survivors are also those of dropping, from the largest leading monomial
    down, each generator in the ideal of the generators still present.

    The survivors come with that truncated basis, which
    :meth:`MinimalGenerators.reduced_basis` finishes.
    """
    current = [g.monic() for g in generators if not g.is_zero()]
    if not current:
        return MinimalGenerators()
    ring = current[0].ring
    for g in current:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        if not g.is_homogeneous():
            raise ValueError("minimalize_generators expects homogeneous generators")
    current.sort(key=lambda h: ring.key(h.leading_monomial()))
    basis = _Basis(ring)
    survivors: list[MultiPoly] = []
    for g in current:
        _reduce_pairs(basis, max_degree=g.total_degree())
        nf = _nf(dict(g.terms), basis)
        if nf:
            survivors.append(g)
            _update(basis, _monic(nf))
    return MinimalGenerators(survivors, basis)
