"""Conversion of packed ``kuranishi.poly`` polynomials to the frozen
tuple-monomial ones of ``oracle_poly``.

The conversion goes through the exponent-tuple boundary of ``PolyRing``
(``exponents`` out, the frozen ``from_terms`` in) and keeps the order of the
terms, so a test can compare term order as well as values.  The way back is
``PolyRing.from_terms(q.terms.items())``.
"""

from __future__ import annotations

import oracle_poly
from kuranishi.poly import MultiPoly


def frozen(p: MultiPoly) -> oracle_poly.MultiPoly:
    """``p`` as a polynomial of the frozen ring with the same variables."""
    ring = p.ring
    return oracle_poly.PolyRing(ring.variables).from_terms(
        (ring.exponents(m), c) for m, c in p.terms.items()
    )
