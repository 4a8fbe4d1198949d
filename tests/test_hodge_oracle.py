"""Differential tests of the one-pass Hodge split and the worklist certificates.

``oracle_hodge`` keeps the split that eliminated every differential as the
outgoing map, again as the incoming map and again for the kernel, and
carried the harmonic projection; ``oracle_certificates`` keeps the two
certificate routes that saturated their span by ``while changed`` rounds.
The split must give the same harmonic, image and coexact vectors, the same
homotopy and harmonic coordinates, the projection ``H @ coords`` the oracle
stored, and harmonic counts equal to the oracle's cohomology dimensions.
Both certificate routes must return what the oracle routes return, value
for value.  The inputs are the joint, deformation and endomorphism DGLAs of
every catalog entry at ranks 1 and 2, example1 at rank 3, the torus with
the curvature of the command-line tests (the one joint differential with a
block off the diagonal), catalog structures on seeded random frames, the
rank-1 DGLAs of six catalog entries in the seeded mixed frames of
``test_gate_oracle``, the toy DGLAs of ``test_dgla``, and two toys below on
which a certificate span grows only through a self-bracket, each under
both pivot rules.  Both engine routes take their first round of brackets
from the series' degree-two term, so its coefficients must be those
brackets, vector for vector.
"""

from __future__ import annotations

import functools
import random

import pytest

import oracle_certificates
import oracle_hodge
from kuranishi import engine
from kuranishi.builders import build_pair_dgla
from kuranishi.catalog import build_catalog_structure
from kuranishi.config import load_config
from kuranishi.dgla import Dgla, hodge_decomposition, validate_dgla
from kuranishi.engine import default_truncation_order, expand_series, kuranishi_problem
from kuranishi.lie import ComplexStructure
from kuranishi.linalg import ExactMatrix
from kuranishi.scalars import GaussianRational as G

from test_dgla import chain_dgla, harmonic_projection, odd_square_dgla, weight_dgla
from test_gate_oracle import FRAMED as MIXED, _framed_pair


def exact_square_dgla() -> Dgla:
    """``d(a) = w`` and ``[h, h] = w``: both spans grow only by a self-bracket."""
    basis = {1: ["h", "a"], 2: ["w"]}
    d1 = ExactMatrix([[0, 1]])
    return Dgla.from_bracket_entries(basis, {1: d1}, {((1, 0), (1, 0)): {0: 1}})


def exact_chain_dgla() -> Dgla:
    """``d(a) = w``, ``d(b) = z``, ``[h, h] = w`` and ``[a, a] = z``.

    The homotopy takes ``[h, h]`` to ``a`` and ``[a, a]`` to ``b``, so the
    rational route's span ``<a>`` does not bracket to zero with itself.
    """
    basis = {1: ["h", "a", "b"], 2: ["w", "z"]}
    d1 = ExactMatrix([[0, 1, 0], [0, 0, 1]])
    entries = {((1, 0), (1, 0)): {0: 1}, ((1, 1), (1, 1)): {1: 1}}
    return Dgla.from_bracket_entries(basis, {1: d1}, entries)


CATALOG = ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")
BLOCKS = ("joint", "deformation", "endomorphism")
FRAMED = ("example1", "iwasawa", "n3", "n9")
TOYS = {
    "chain": chain_dgla,
    "weight": weight_dgla,
    "odd_square": odd_square_dgla,
    "exact_square": exact_square_dgla,
    "exact_chain": exact_chain_dgla,
}
RULES = ("earliest", "latest")
#: example2's series in a mixed frame is dense and never ends (see
#: ``test_series_oracle``), so its routes are compared at order 6
SERIES_ORDER = {f"example2-mixed-{block}": 6 for block in BLOCKS}

CASES = (
    [f"{name}-r{rank}-{block}" for name in CATALOG for rank in (1, 2) for block in BLOCKS]
    + [f"example1-r3-{block}" for block in BLOCKS]
    + [f"torus-curved-{block}" for block in BLOCKS]
    + [f"{name}-f{seed}-{block}" for name in FRAMED for seed in (1, 2) for block in BLOCKS]
    + [f"{name}-mixed-{block}" for name in MIXED for block in BLOCKS]
    + [f"toy-{name}" for name in TOYS]
)


def _random_frame(name: str, seed: int) -> ComplexStructure:
    rng = random.Random(f"hodge-oracle/{name}/{seed}")
    structure = build_catalog_structure(name)
    while True:
        columns = [
            [G(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
            for _ in range(3)
        ]
        try:
            return structure.change_frame(columns)
        except ValueError:
            continue  # singular draw


@functools.lru_cache(maxsize=None)
def _pair(name: str, tag: str):
    if tag == "mixed":
        return _framed_pair(name)
    if tag == "curved":
        config = load_config({"catalog": name, "curvature": [[1, 2, 1, 1, "1/2"]]})
        return build_pair_dgla(config.structure, 1, curvature=config.curvature)
    if tag.startswith("r"):
        return build_pair_dgla(build_catalog_structure(name), int(tag[1:]))
    return build_pair_dgla(_random_frame(name, int(tag[1:])), 1)


def _case(case: str) -> Dgla:
    if case.startswith("toy-"):
        return TOYS[case[4:]]()
    name, tag, block = case.split("-")
    pair = _pair(name, tag)
    return pair.dgla if block == "joint" else getattr(pair, block)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("case", CASES)
def test_hodge_split_matches_oracle(case: str, rule: str) -> None:
    dgla = _case(case)
    got = hodge_decomposition(dgla, rule)
    want = oracle_hodge.hodge_decomposition(dgla, rule)
    assert list(got) == list(want)
    for i, record in got.items():
        old = want[i]
        assert record.degree == old.degree == i
        assert record.harmonic == old.harmonic, i
        assert record.image == old.image, i
        assert record.coexact == old.coexact, i
        assert record.homotopy == old.homotopy, i
        assert record.harmonic_coordinates == old.harmonic_coordinates, i
        assert harmonic_projection(record, dgla.dim(i)) == old.projection, i
    cohomology = {i: len(record.harmonic) for i, record in got.items()}
    assert cohomology == oracle_hodge.cohomology_dimensions(dgla)


def _certificates(module, problem, series, obstructions):
    # the engine's routes read their first round of brackets off the series
    closure_args = (series, obstructions) if module is engine else ()
    return (
        module._closure_certificate(problem, *closure_args),
        module._rational_certificate(problem, series, obstructions),
    )


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("case", CASES)
def test_certificate_routes_match_oracle(case: str, rule: str) -> None:
    problem = kuranishi_problem(_case(case), pivot_rule=rule)
    order = SERIES_ORDER.get(case) or default_truncation_order(problem)
    series, obstructions = expand_series(problem, order)
    got = _certificates(engine, problem, series, obstructions)
    assert got == _certificates(oracle_certificates, problem, series, obstructions)


def test_exact_toys_are_dglas_and_exercise_the_routes() -> None:
    """The self-bracket toys reach the outcomes they are written for."""
    outcomes = {}
    for name in ("exact_square", "exact_chain"):
        dgla = TOYS[name]()
        validate_dgla(dgla)
        problem = kuranishi_problem(dgla)
        series, obstructions = expand_series(problem, default_truncation_order(problem))
        closure, rational = _certificates(engine, problem, series, obstructions)
        outcomes[name] = (closure, rational and rational[0]["spanDimension"])
    assert outcomes == {
        "exact_square": ({"spanDimension": 2}, 1),
        "exact_chain": ({"spanDimension": 3}, None),
    }


@pytest.mark.parametrize(
    "case", [c for c in CASES if c.split("-")[1] in ("r1", "r2", "mixed")]
)
def test_series_degree_two_holds_the_first_round_of_brackets(case: str) -> None:
    """The coefficient of ``t_a t_b`` in ``series[2]`` is ``delta(h_a, h_b)``,
    so both span routes may seed from it: every catalog block at ranks 1
    and 2 and every block in the seeded mixed frames."""
    problem = kuranishi_problem(_case(case))
    series, _ = expand_series(problem, 2)
    kernel = problem._series_kernel
    reps = [kernel.constant(rep) for rep in problem.harmonic_reps]
    monomial = problem.ring.variable_monomial
    deltas = []
    for a, u in enumerate(reps):
        for b in range(a, len(reps)):
            m = monomial(a) + monomial(b)
            delta = kernel.scalars(kernel.delta(u, reps[b]))
            assert [p.terms.get(m, G(0)) for p in series[2]] == delta, (a, b)
            if any(delta):
                deltas.append(delta)
    assert engine._degree_two_coefficients(problem, series) == deltas
