"""Differential tests of the sparse axiom gate against the frozen dense gate.

``oracle_dgla`` keeps the gate that visited every ordered pair of basis keys
(Leibniz) and every sorted triple (Jacobi).  The sparse gate must return the
same failure list, message for message and in the same order, and
``validate_dgla`` the same first message, on the joint, deformation and
endomorphism DGLAs of every catalog entry at ranks 1 and 2, on the rank-1
joint DGLAs of catalog entries in seeded mixed frames, on single-entry
mutants of them, and on small random graded tables.  The dense gate takes
0.1-0.4 s on a rank-2 joint or endomorphism DGLA, so those are compared
unmutated and the mutants are made of the rank-1 DGLAs and the rank-2
deformation blocks.

The sparse gate clears each table's denominators by their lcm and runs on
Gaussian integers, so it needs inputs whose denominators are not all powers
of one prime: the mixed frames have such bracket tables (a test keeps that
so), and the random tables draw scalars over 2, 3 and 7.
"""

from __future__ import annotations

import functools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_dgla as oracle
from oracle_maps import basis_keys
from kuranishi.builders import PairDgla, build_pair_dgla
from kuranishi.catalog import build_catalog_structure
from kuranishi.config import load_config
from kuranishi.dgla import Dgla, DglaAxiomError, dgla_axiom_failures, validate_dgla
from kuranishi.linalg import ExactMatrix
from kuranishi.scalars import GaussianRational as G

CATALOG = ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")
BLOCKS = ("joint", "deformation", "endomorphism")
CASES = [
    f"{name}-r{rank}-{block}" for name in CATALOG for rank in (1, 2) for block in BLOCKS
]
FRAMED = ("example1", "example2", "iwasawa", "n3", "n8", "n9")
UNBOUNDED = sys.maxsize


@functools.lru_cache(maxsize=None)
def _pair(name: str, rank: int):
    config = load_config({"catalog": name, "bundleRank": rank})
    return build_pair_dgla(config.structure, config.rank)


def _case(case: str) -> Dgla:
    name, rank, block = case.split("-")
    pair = _pair(name, int(rank[1:]))
    return pair.dgla if block == "joint" else getattr(pair, block)


def _first_message(dgla: Dgla) -> str | None:
    try:
        validate_dgla(dgla)
    except DglaAxiomError as exc:
        return str(exc)
    return None


def _assert_matches_oracle(dgla: Dgla) -> list[str]:
    want = oracle.dgla_axiom_failures(dgla, max_failures=20)
    assert dgla_axiom_failures(dgla, max_failures=20) == want
    assert _first_message(dgla) == (want[0] if want else None)
    return want


def _assert_matches_oracle_at_every_limit(dgla: Dgla) -> list[str]:
    """The gate at ``max_failures`` 1, 20 and unbounded.  The oracle stops
    when its list is full and never reorders it, so its list at a limit is
    the prefix of its unbounded list."""
    want = oracle.dgla_axiom_failures(dgla, max_failures=UNBOUNDED)
    for limit in (1, 20, UNBOUNDED):
        assert dgla_axiom_failures(dgla, max_failures=limit) == want[:limit]
    assert _first_message(dgla) == (want[0] if want else None)
    return want


@functools.lru_cache(maxsize=None)
def _framed_pair(name: str) -> PairDgla:
    """The rank-1 DGLAs of ``name`` in a frame mixed by a seeded matrix."""
    rng = random.Random(f"gate-oracle/{name}")
    structure = build_catalog_structure(name)
    while True:
        columns = [
            [G(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(structure.m)]
            for _ in range(structure.m)
        ]
        try:
            changed = structure.change_frame(columns)
        except ValueError:
            continue  # singular draw
        return build_pair_dgla(changed, 1)


def _framed(name: str) -> Dgla:
    """The rank-1 joint DGLA of ``name`` in a frame mixed by a seeded matrix."""
    return _framed_pair(name).dgla


# -- single-entry mutants ------------------------------------------------------


def _with(dgla: Dgla, *, brackets=None, differentials=None) -> Dgla:
    return Dgla(
        dgla.basis,
        dgla.differentials if differentials is None else differentials,
        dgla.brackets if brackets is None else brackets,
    )


def _bump(value: G, rng: random.Random) -> G:
    """A different value: ``value`` plus a nonzero small Gaussian integer."""
    return value + rng.choice((G(1), G(-1), G(0, 1), G(2, -1)))


def _random_target(dgla: Dgla, rng: random.Random):
    """A stored bracket pair or, half the time, any pair with a target space."""
    stored = sorted(dgla.brackets)
    if stored and rng.random() < 0.5:
        key_a, key_b = rng.choice(stored)
    else:
        keys = basis_keys(dgla)
        choices = [
            (a, b) for a in keys for b in keys if dgla.dim(a[0] + b[0]) > 0
        ]
        key_a, key_b = rng.choice(choices)
    return key_a, key_b, rng.randrange(dgla.dim(key_a[0] + key_b[0]))


def _coefficient_mutant(dgla: Dgla, rng: random.Random) -> Dgla:
    """One bracket coefficient changed in one order only: the table turns
    asymmetric, so Leibniz and Jacobi run on an asymmetric table."""
    key_a, key_b, m = _random_target(dgla, rng)
    brackets = {key: dict(entry) for key, entry in dgla.brackets.items()}
    entry = brackets.setdefault((key_a, key_b), {})
    entry[m] = _bump(entry.get(m, G(0)), rng)
    return _with(dgla, brackets=brackets)


def _mirror_mutant(dgla: Dgla, rng: random.Random) -> Dgla:
    """One coefficient changed in both orders, consistently with graded
    antisymmetry, so only Leibniz or Jacobi can catch it."""
    while True:
        key_a, key_b, m = _random_target(dgla, rng)
        if key_a != key_b:
            break
    sign = G(-1) if (key_a[0] * key_b[0]) % 2 == 0 else G(1)
    brackets = {key: dict(entry) for key, entry in dgla.brackets.items()}
    entry = brackets.setdefault((key_a, key_b), {})
    entry[m] = _bump(entry.get(m, G(0)), rng)
    brackets.setdefault((key_b, key_a), {})[m] = entry[m] * sign
    return _with(dgla, brackets=brackets)


def _deleted_pair_mutant(dgla: Dgla, rng: random.Random) -> Dgla | None:
    """One stored pair removed in both orders."""
    if not dgla.brackets:
        return None
    key_a, key_b = rng.choice(sorted(dgla.brackets))
    brackets = {
        key: entry
        for key, entry in dgla.brackets.items()
        if key not in ((key_a, key_b), (key_b, key_a))
    }
    return _with(dgla, brackets=brackets)


def _differential_mutants(dgla: Dgla, rng: random.Random) -> list[Dgla]:
    """One differential entry changed, at a nonzero and at a zero position."""
    positions = {True: [], False: []}
    for i in dgla.degrees():
        matrix = dgla.differential_matrix(i)
        for r in range(matrix.nrows):
            for c in range(matrix.ncols):
                positions[matrix.rows[r][c].is_zero()].append((i, r, c))
    mutants = []
    for zero in (False, True):
        if not positions[zero]:
            continue
        i, r, c = rng.choice(positions[zero])
        rows = [list(row) for row in dgla.differential_matrix(i).rows]
        rows[r][c] = _bump(rows[r][c], rng)
        differentials = dict(dgla.differentials)
        differentials[i] = ExactMatrix(rows)
        mutants.append(_with(dgla, differentials=differentials))
    return mutants


def _mutants(dgla: Dgla, seed: str) -> list[Dgla]:
    rng = random.Random(seed)
    mutants = [_coefficient_mutant(dgla, rng), _mirror_mutant(dgla, rng)]
    deleted = _deleted_pair_mutant(dgla, rng)
    if deleted is not None:
        mutants.append(deleted)
    return mutants + _differential_mutants(dgla, rng)


def _mutated(case: str) -> bool:
    return "-r1-" in case or case.endswith("-deformation")


@pytest.mark.parametrize("case", CASES)
def test_gate_matches_frozen_oracle(case: str) -> None:
    dgla = _case(case)
    assert _assert_matches_oracle(dgla) == []
    if _mutated(case):
        for mutant in _mutants(dgla, f"gate-oracle/{case}"):
            _assert_matches_oracle(mutant)


@pytest.mark.parametrize("name", FRAMED)
def test_gate_matches_frozen_oracle_on_mixed_frames(name: str) -> None:
    dgla = _framed(name)
    assert _assert_matches_oracle_at_every_limit(dgla) == []
    for mutant in _mutants(dgla, f"gate-oracle/framed/{name}"):
        _assert_matches_oracle_at_every_limit(mutant)


@pytest.mark.parametrize("name", FRAMED)
def test_gate_matches_frozen_oracle_on_rescaled_mixed_frames(name: str) -> None:
    """``(L, 1/3 d, 5/7 [,])`` is a DGLA whenever ``(L, d, [,])`` is: ``d**2``
    and Leibniz are homogeneous in ``d``, antisymmetry, Leibniz and Jacobi in
    the bracket.  Then the differential and the bracket table each have a
    denominator that the other's lcm does not divide."""
    dgla = _framed(name)
    rescaled = _with(
        dgla,
        brackets={
            key: {c: v * G("5/7") for c, v in entry.items()}
            for key, entry in dgla.brackets.items()
        },
        differentials={
            i: ExactMatrix([[x * G("1/3") for x in row] for row in m.rows], ncols=m.ncols)
            for i, m in dgla.differentials.items()
        },
    )
    assert _assert_matches_oracle_at_every_limit(rescaled) == []


def test_mixed_frames_have_denominators_whose_lcm_is_not_the_largest() -> None:
    """Some mixed-frame bracket table has an lcm of denominators above 2 and
    above its largest denominator, so scaling by the largest denominator, or
    by a power of two, would not clear it."""
    for name in FRAMED:
        dens = [v.triple[2] for entry in _framed(name).brackets.values() for v in entry.values()]
        if math.lcm(*dens) > max(dens, default=1) and math.lcm(*dens) > 2:
            return
    pytest.fail("every mixed-frame bracket table is cleared by its largest denominator")


def test_mutants_reach_every_axiom() -> None:
    """The mutants are not all caught by the first two axioms: each of the
    four kinds of message is the first one for some mutant."""
    firsts = set()
    for case in filter(_mutated, CASES):
        for mutant in _mutants(_case(case), f"gate-oracle/{case}"):
            message = _first_message(mutant)
            if message is not None:
                firsts.add(message.split(" ")[0])
    assert firsts == {"d(d(x))", "bracket", "Leibniz", "graded"}


# -- random graded tables ----------------------------------------------------

_SCALARS = st.sampled_from(
    (G(1), G(-1), G(2), G(0, 1), G(1, 1), G("1/3", "2/3"), G("-1/2"), G(0, "5/7"))
)


@st.composite
def _tables(draw) -> Dgla:
    """A small graded table: degrees 0..2, up to three elements each, a few
    differential entries and bracket entries.  Half the draws complete the
    mirrors by graded antisymmetry; the others keep the table as drawn,
    which is usually asymmetric."""
    dims = {i: draw(st.integers(1, 3)) for i in range(3)}
    basis = {i: [f"x{i}{a}" for a in range(n)] for i, n in dims.items()}
    keys = [(i, a) for i, n in dims.items() for a in range(n)]
    differentials = {}
    for i in (0, 1):
        rows = [[G(0)] * dims[i] for _ in range(dims[i + 1])]
        for _ in range(draw(st.integers(0, 3))):
            r = draw(st.integers(0, dims[i + 1] - 1))
            c = draw(st.integers(0, dims[i] - 1))
            rows[r][c] = draw(_SCALARS)
        differentials[i] = ExactMatrix(rows)
    pairs = [(a, b) for a in keys for b in keys if a[0] + b[0] in dims]
    entries = {}
    for _ in range(draw(st.integers(0, 6))):
        key_a, key_b = draw(st.sampled_from(pairs))
        m = draw(st.integers(0, dims[key_a[0] + key_b[0]] - 1))
        entries.setdefault((key_a, key_b), {})[m] = draw(_SCALARS)
    if draw(st.booleans()):
        try:
            return Dgla.from_bracket_entries(basis, differentials, entries)
        except ValueError:
            pass  # an even self-bracket or clashing mirrors: keep it as drawn
    return Dgla(basis, differentials, entries)


@settings(max_examples=150, deadline=None)
@given(_tables(), st.integers(1, 25))
def test_gate_matches_frozen_oracle_on_random_tables(dgla: Dgla, limit: int) -> None:
    want = oracle.dgla_axiom_failures(dgla, max_failures=limit)
    assert dgla_axiom_failures(dgla, max_failures=limit) == want
    assert _first_message(dgla) == (want[0] if want else None)
