"""FROZEN independent ideal-membership oracle.

This module is a deliberately naive reference implementation used only by the
test suite to differential-test the package's Groebner engine.  It shares no
algorithmic choices with the engine:

* saturation processes every S-polynomial with no selection strategy and no
  pair-elimination criteria, looping to a fixpoint;
* normal forms are computed along *all* reduction paths (any reducible term,
  any applicable divisor), and confluence of the end results is asserted.

Its polynomials are the frozen tuple-monomial ones of ``oracle_poly``.
When ``kuranishi.poly`` moved to packed int monomials, only that
import changed here, so the body still computes on exponent tuples;
tests convert to and from it with ``PolyRing.exponents`` and
``PolyRing.from_terms``.

Frozen at creation; do not edit when changing the engine.
"""

from __future__ import annotations

from oracle_poly import MultiPoly, PolyRing, grevlex_key
from kuranishi.scalars import ZERO


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    ring = f.ring
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = _lcm(lf, lg)
    mf = ring.monomial(
        tuple(a - b for a, b in zip(l, lf)), f.leading_coefficient().inverse()
    )
    mg = ring.monomial(
        tuple(a - b for a, b in zip(l, lg)), g.leading_coefficient().inverse()
    )
    return mf * f - mg * g


def _reduce_leading_only(p: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Plain top-reduction used only inside saturation (order-independent
    up to the ideal: any result is a valid remainder for saturation)."""
    ring = p.ring
    remainder = ring.zero()
    work = p
    while not work.is_zero():
        exps = work.leading_monomial()
        for g in basis:
            if _divides(g.leading_monomial(), exps):
                coeff = work.terms[exps] / g.leading_coefficient()
                shift = tuple(a - b for a, b in zip(exps, g.leading_monomial()))
                work = work - ring.monomial(shift, coeff) * g
                break
        else:
            term = ring.monomial(exps, work.terms[exps])
            remainder = remainder + term
            work = work - term
    return remainder


def brute_saturate(generators: list[MultiPoly]) -> list[MultiPoly]:
    """Fixpoint Buchberger with no criteria and no selection strategy."""
    basis = [g.monic() for g in generators if not g.is_zero()]
    if not basis:
        return []
    changed = True
    while changed:
        changed = False
        n = len(basis)
        for i in range(n):
            for j in range(i + 1, n):
                s = _spoly(basis[i], basis[j])
                nf = _reduce_leading_only(s, basis)
                if not nf.is_zero():
                    basis.append(nf.monic())
                    changed = True
        # restart pair scan whenever the basis grew
    return basis


def all_paths_normal_forms(p: MultiPoly, basis: list[MultiPoly]) -> set[str]:
    """Every fully reduced form of ``p`` reachable by any reduction choice.

    A reduction step may rewrite *any* term divisible by *any* basis leading
    monomial.  Returns the set of string renderings of the end results.
    """
    ring = p.ring
    seen: dict[tuple, set[str] | None] = {}

    def key(q: MultiPoly) -> tuple:
        return tuple(sorted((e, str(c)) for e, c in q.terms.items()))

    def explore(q: MultiPoly) -> set[str]:
        k = key(q)
        if k in seen:
            cached = seen[k]
            if cached is None:
                raise RuntimeError("reduction cycle")  # pragma: no cover
            return cached
        seen[k] = None
        results: set[str] = set()
        reducible = False
        for exps in sorted(q.terms, key=grevlex_key, reverse=True):
            for g in basis:
                if _divides(g.leading_monomial(), exps):
                    reducible = True
                    coeff = q.terms[exps] / g.leading_coefficient()
                    shift = tuple(
                        a - b for a, b in zip(exps, g.leading_monomial())
                    )
                    results |= explore(q - ring.monomial(shift, coeff) * g)
        if not reducible:
            results = {str(_canonical(q))}
        seen[k] = results
        return results

    return explore(p)


def _canonical(q: MultiPoly) -> MultiPoly:
    return q


def oracle_membership(p: MultiPoly, generators: list[MultiPoly]) -> bool:
    """True iff ``p`` lies in the ideal of ``generators`` (reference path)."""
    basis = brute_saturate(generators)
    if not basis:
        return p.is_zero()
    forms = all_paths_normal_forms(p, basis)
    assert len(forms) == 1, f"non-confluent reduction: {forms}"
    return forms == {"0"}
