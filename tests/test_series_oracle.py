"""Differential tests of the fraction-free series expansion against the frozen one.

``oracle_series`` keeps ``expand_series`` as it was when every degree
brought the full self-bracket through ``Dgla.bracket_vectors`` on
``MultiPoly`` coordinates and ran up to the truncation order.  The engine
now runs the recursion on Gaussian-integer numerators over one denominator
per term and stops at twice the last nonzero degree; it must return the
same ``(series, obstructions)``, value for value, on

* the joint, deformation and endomorphism DGLAs of every catalog entry at
  ranks 1 and 2, under both pivot rules;
* the rank-1 DGLAs of six entries in the seeded mixed frames of
  ``test_gate_oracle``, whose coefficients are dense;
* rescaled DGLAs ``(L, d/3, 5/7 [,])``, whose three integer views have
  different denominators;
* truncation orders below twice the last nonzero degree and far beyond it.

The numerators of a self-bracket are put over the lcm of the pairs'
denominator products, so a test below keeps a case where that lcm exceeds
every single product (example2 in its mixed frame, under the ``latest``
rule).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest

import oracle_series
from kuranishi.builders import build_pair_dgla
from kuranishi.catalog import build_catalog_structure
from kuranishi.dgla import Dgla, validate_dgla
from kuranishi.engine import default_truncation_order, expand_series, kuranishi_problem
from kuranishi.linalg import ExactMatrix
from kuranishi.scalars import GaussianRational as G

from test_gate_oracle import _framed_pair

CATALOG = ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")
FRAMED = ("example1", "example2", "iwasawa", "n3", "n8", "n9")
BLOCKS = ("joint", "deformation", "endomorphism")
RULES = ("earliest", "latest")

#: In a mixed frame example2's series never terminates and is dense: its
#: degree-k term has on the order of C(k + 8, 8) monomials, so both
#: expansions are compared at order 6 rather than the default 20 and 14.
SERIES_ORDER = {f"example2-mixed-{block}": 6 for block in BLOCKS}

CATALOG_CASES = [f"{n}-r{rank}-{block}" for n in CATALOG for rank in (1, 2) for block in BLOCKS]
FRAMED_CASES = [f"{n}-mixed-{block}" for n in FRAMED for block in BLOCKS]
SCALED_CASES = [f"{n}-r1-{block}-scaled" for n in CATALOG for block in BLOCKS] + [
    f"{n}-mixed-{block}-scaled" for n in ("example1", "iwasawa") for block in BLOCKS
]
#: (case, order): iwasawa and example2 end at degree 2, example1 never ends
ORDERS = [
    ("iwasawa-r1-joint", 2),
    ("iwasawa-r1-joint", 3),
    ("iwasawa-r1-joint", 40),
    ("iwasawa-mixed-joint", 3),
    ("iwasawa-mixed-joint", 40),
    ("example2-r2-joint", 40),
    ("example1-r1-joint", 3),
    ("example1-mixed-joint", 5),
    ("example1-mixed-deformation-scaled", 7),
]


def _rescaled(dgla: Dgla) -> Dgla:
    """``(L, d/3, 5/7 [,])``: still a DGLA, as every axiom is homogeneous."""
    third, five_sevenths = G(Fraction(1, 3)), G(Fraction(5, 7))
    return Dgla(
        dgla.basis,
        {
            i: ExactMatrix([[x * third for x in row] for row in matrix.rows], ncols=matrix.ncols)
            for i, matrix in dgla.differentials.items()
        },
        {
            key: {c: v * five_sevenths for c, v in entry.items()}
            for key, entry in dgla.brackets.items()
        },
    )


@functools.lru_cache(maxsize=None)
def _pair(name: str, tag: str):
    if tag == "mixed":
        return _framed_pair(name)
    return build_pair_dgla(build_catalog_structure(name), int(tag[1:]))


@functools.lru_cache(maxsize=None)
def _dgla(case: str) -> Dgla:
    name, tag, block, *scaled = case.split("-")
    pair = _pair(name, tag)
    dgla = pair.dgla if block == "joint" else getattr(pair, block)
    return _rescaled(dgla) if scaled else dgla


@functools.lru_cache(maxsize=None)
def _oracle(case: str, rule: str, order: int | None):
    """The problem of ``case``, its order and the frozen expansion's result.

    ``order`` None is the ``SERIES_ORDER`` of the case or the default order.
    """
    problem = kuranishi_problem(_dgla(case), pivot_rule=rule)
    order = order or SERIES_ORDER.get(case) or default_truncation_order(problem)
    return problem, order, oracle_series.expand_series(problem, order)


def _assert_matches_oracle(case: str, rule: str, order: int | None = None) -> None:
    problem, order, want = _oracle(case, rule, order)
    assert expand_series(problem, order) == want


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("case", CATALOG_CASES)
def test_catalog_series_match_oracle(case: str, rule: str) -> None:
    _assert_matches_oracle(case, rule)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("case", FRAMED_CASES)
def test_mixed_frame_series_match_oracle(case: str, rule: str) -> None:
    _assert_matches_oracle(case, rule)


@pytest.mark.parametrize("case", SCALED_CASES)
def test_rescaled_series_match_oracle(case: str) -> None:
    validate_dgla(_dgla(case))
    _assert_matches_oracle(case, "earliest")


@pytest.mark.parametrize(("case", "order"), ORDERS)
def test_series_at_other_orders_match_oracle(case: str, order: int) -> None:
    _assert_matches_oracle(case, "earliest", order)


def _denominator(term) -> int:
    return math.lcm(*(c.triple[2] for p in term for c in p.terms.values()))


def _lcm_exceeds_products(series) -> bool:
    """Whether some degree's self-bracket pairs ``(i, j)`` have ``D_i * D_j``
    whose lcm exceeds each of them, ``D_i`` the lcm of the denominators of
    the nonzero term ``s_i``."""
    nonzero = {k: _denominator(term) for k, term in series.items() if any(term)}
    for k in series:
        products = [
            nonzero[i] * nonzero[k - i]
            for i in range(1, k // 2 + 1)
            if i in nonzero and k - i in nonzero
        ]
        if products and math.lcm(*products) > max(products):
            return True
    return False


def test_a_self_bracket_needs_the_lcm_of_its_pairs() -> None:
    """Some case puts a self-bracket over an lcm above each pair's product,
    so a kernel that took the largest product instead would fail above."""
    cases = [(case, rule) for case in FRAMED_CASES for rule in RULES]
    assert any(_lcm_exceeds_products(_oracle(case, rule, None)[2][0]) for case, rule in cases)
