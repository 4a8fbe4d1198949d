"""Differential tests of the pair builder against the frozen builder oracle.

``oracle_builders`` keeps the builders that made the deformation and
endomorphism DGLAs separately, glued them by a direct sum and added the
coupling on top.  The one-rule builder must give the same joint DGLA, the
same two blocks and the same coupling entries, and reject the same inputs
with the same message.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_builders as oracle
from kuranishi.builders import build_pair_dgla
from kuranishi.catalog import build_catalog_structure
from kuranishi.config import load_config
from kuranishi.lie import ComplexStructure, LieAlgebra
from kuranishi.scalars import GaussianRational as G

CATALOG = ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")

DOCUMENTS = {
    **{
        f"{name}-r{rank}": {"catalog": name, "bundleRank": rank}
        for name in CATALOG
        for rank in (1, 2)
    },
    "example1-r3": {"catalog": "example1", "bundleRank": 3},
    "example2-literal": {
        "catalog": "example2",
        "exampleReadingFlags": {"example2": "literal"},
    },
    # the curvature configs of the command-line tests: the first keeps the
    # axioms, the other two break them
    "torus-curved": {"catalog": "torus", "curvature": [[1, 2, 1, 1, "1/2"]]},
    "torus-r2-curved": {
        "catalog": "torus",
        "bundleRank": 2,
        "curvature": [[1, 2, 1, 2, "1/2"], [1, 2, 1, 2, "1/2"], [3, 1, 2, 2, [0, 1]]],
    },
    "example1-curved": {"catalog": "example1", "curvature": [[1, 2, 1, 1, 1]]},
}


def _outcome(build, structure, rank, curvature=None):
    try:
        pair = build(structure, rank, curvature=curvature)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return (
        pair.dgla,
        pair.deformation,
        pair.endomorphism,
        pair.coupling_entries() if build is oracle.build_pair_dgla else pair.coupling,
        pair.rank,
        pair.curvature,
    )


def _assert_matches_oracle(structure, rank, curvature=None) -> None:
    want = _outcome(oracle.build_pair_dgla, structure, rank, curvature)
    assert _outcome(build_pair_dgla, structure, rank, curvature) == want


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_builder_matches_frozen_oracle(name: str) -> None:
    config = load_config(DOCUMENTS[name])
    _assert_matches_oracle(config.structure, config.rank, config.curvature)


def test_oracle_inputs_cover_rejections() -> None:
    outcomes = {}
    for name in ("example2-literal", "example1-curved"):
        config = load_config(DOCUMENTS[name])
        outcomes[name] = _outcome(
            build_pair_dgla, config.structure, config.rank, config.curvature
        )
    assert outcomes["example2-literal"][1].startswith("complex structure is not")
    assert outcomes["example1-curved"][1].startswith("curvature breaks the DGLA")


@pytest.mark.parametrize("name", CATALOG)
def test_builder_matches_frozen_oracle_on_mixed_frames(name: str) -> None:
    structure = load_config({"catalog": name}).structure
    rng = random.Random(f"builder-oracle/{name}")
    while True:
        columns = [
            [G(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(structure.m)]
            for _ in range(structure.m)
        ]
        try:
            changed = structure.change_frame(columns)
        except ValueError:
            continue  # singular draw
        break
    _assert_matches_oracle(changed, 1)


# -- the doubled-frame constants the builders read -------------------------------


def _workloads():
    """``perfbench/workloads.py``, for its seeded mixed-frame configs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _assert_frame_brackets_match_oracle(structure: ComplexStructure) -> None:
    """Every ordered pair, both orders and the diagonal included: the sparse
    entry is the oracle's dense vector without its zeros, ascending.  The
    classification reads the same answers off the dense vectors."""
    m = structure.m
    dense = {
        (alpha, beta): oracle.frame_bracket(structure, alpha, beta)
        for alpha in range(2 * m)
        for beta in range(2 * m)
    }
    for (alpha, beta), coords in dense.items():
        entry = structure.frame_bracket(alpha, beta)
        assert dict(entry) == {c: v for c, v in enumerate(coords) if not v.is_zero()}
        assert list(entry) == sorted(entry)
    nonzero = {pair: any(not c.is_zero() for c in coords) for pair, coords in dense.items()}
    assert structure.integrability_failures() == [
        (a + 1, b + 1)
        for a, b in combinations(range(m), 2)
        if any(not c.is_zero() for c in dense[a, b][m:])
    ]
    assert structure.is_abelian() == (not any(nonzero[a, b] for a in range(m) for b in range(m)))
    assert structure.is_parallelizable() == (
        not any(nonzero[a, m + b] for a in range(m) for b in range(m))
    )


def _iwasawa_reordered(conjugate: bool) -> ComplexStructure:
    """Iwasawa's frame ``(W1, W2, W3)`` reordered to ``(V, W1, W2)``, where
    ``V`` is ``W3``, or its conjugate with ``conjugate``.  The one nonzero
    holomorphic bracket becomes ``[W'2, W'3] = -W'1``, off the pair (1, 2);
    with the conjugate the structure is not integrable, and that bracket's
    (0,1)-part lies on the first conjugate position ``m`` alone."""
    structure = build_catalog_structure("iwasawa")
    w1, w2, w3 = structure.frame
    v = tuple(c.conjugate() for c in w3) if conjugate else w3
    return ComplexStructure(structure.algebra, [v, w1, w2])


def _heisenberg_last() -> ComplexStructure:
    """``[e5, e6] = e1`` in the frame ``e1 - i e2, e3 - i e4, e5 - i e6``:
    the one nonzero frame bracket is the diagonal ``[W3, conj W3] = 2i e1``."""
    i = G(0, 1)
    frame = [[1, -i, 0, 0, 0, 0], [0, 0, 1, -i, 0, 0], [0, 0, 0, 0, 1, -i]]
    return ComplexStructure(LieAlgebra.from_entries(6, [(5, 6, 1, 1)]), frame)


FRAME_STRUCTURES = {
    **{name: lambda name=name: build_catalog_structure(name) for name in CATALOG},
    "example2-literal": lambda: build_catalog_structure("example2", "literal"),
    "iwasawa-W3-first": lambda: _iwasawa_reordered(False),
    "iwasawa-conj-W3-first": lambda: _iwasawa_reordered(True),
    "heisenberg-last": _heisenberg_last,
    **{
        f"{name}-seed{seed}": lambda name=name, seed=seed: load_config(
            WORKLOADS.mixed_frame_document(name, seed)
        ).structure
        for name in WORKLOADS.FRAME_NAMES
        for seed in (1, 7)
    },
}


@pytest.mark.parametrize("name", sorted(FRAME_STRUCTURES))
def test_frame_brackets_match_frozen_oracle(name: str) -> None:
    _assert_frame_brackets_match_oracle(FRAME_STRUCTURES[name]())


_SCALARS = st.builds(
    G,
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
    st.integers(-2, 2),
)


@given(st.sampled_from(CATALOG), st.lists(_SCALARS, min_size=9, max_size=9))
@settings(max_examples=40, deadline=None)
def test_frame_brackets_match_frozen_oracle_after_frame_change(name, entries) -> None:
    structure = build_catalog_structure(name)
    m = structure.m  # 3 on every catalog entry: 9 entries make Q
    columns = [entries[m * j : m * (j + 1)] for j in range(m)]
    try:
        changed = structure.change_frame(columns)
    except ValueError:
        assume(False)  # singular draw
    _assert_frame_brackets_match_oracle(changed)


@given(st.sampled_from(CATALOG), st.lists(_SCALARS, min_size=18, max_size=18))
@settings(max_examples=40, deadline=None)
def test_frame_brackets_match_frozen_oracle_on_drawn_frames(name, entries) -> None:
    """Frames drawn on the catalog algebras: most are not integrable, so the
    (0,1)-parts of [W_a, W_b] land on every conjugate position."""
    algebra = build_catalog_structure(name).algebra
    frame = [entries[6 * a : 6 * (a + 1)] for a in range(3)]
    try:
        structure = ComplexStructure(algebra, frame)
    except ValueError:
        assume(False)  # the frame and its conjugate do not span
    _assert_frame_brackets_match_oracle(structure)
