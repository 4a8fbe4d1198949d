"""Differential tests of the pair builder against the frozen builder oracle.

``oracle_builders`` keeps the builders that made the deformation and
endomorphism DGLAs separately, glued them by a direct sum and added the
coupling on top.  The one-rule builder must give the same joint DGLA, the
same two blocks and the same coupling entries, and reject the same inputs
with the same message.
"""

from __future__ import annotations

import random

import pytest

import oracle_builders as oracle
from kuranishi.builders import build_pair_dgla
from kuranishi.config import load_config
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
