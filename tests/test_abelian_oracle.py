"""Differential tests of the abelian-preservation check against its frozen oracle.

``oracle_abelian`` keeps the check as it rebuilt the d-twisted contraction
of the linear deformation term by hand.  The check now reads the same
contraction off the coupling bracket of the pair DGLA; the constraints and
the collapse flag must not change on any input, in the catalog's frames or
in mixed ones, with or without curvature.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import replace
from pathlib import Path

import pytest

import oracle_abelian as oracle
from kuranishi.config import load_config
from kuranishi.report import run_analysis
from kuranishi.scalars import GaussianRational as G

CATALOG = ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")


def _frames_documents() -> dict[str, dict]:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {
        f"frames-r1-{seed}-{item['name']}": item["document"]
        for seed in (1, 7)
        for item in workloads.analyses("frames-r1", seed)
    }


DOCUMENTS = {
    **{
        f"{name}-r{rank}": {"catalog": name, "bundleRank": rank}
        for name in CATALOG
        for rank in (1, 2)
    },
    **_frames_documents(),
    "torus-curved": {"catalog": "torus", "curvature": [[1, 2, 1, 1, "1/2"]]},
}


def _assert_matches_oracle(config, structure) -> None:
    result = run_analysis(config)
    want = oracle.abelian_preservation_check(
        structure, result.deformation.problem, result.deformation.series.series
    )
    assert result.abelian_check == want


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_abelian_check_matches_frozen_oracle(name: str) -> None:
    config = load_config(DOCUMENTS[name])
    _assert_matches_oracle(config, config.structure)


# example2's random frames are too slow to expand; example1 and n3 are the
# abelian structures with a nonzero locus and a zero one.
@pytest.mark.parametrize("name", ("example1", "n3"))
@pytest.mark.parametrize("seed", (1, 2))
def test_abelian_check_matches_frozen_oracle_on_mixed_frames(name: str, seed: int) -> None:
    config = load_config({"catalog": name})
    rng = random.Random(f"abelian-oracle/{name}/{seed}")
    while True:
        columns = [
            [G(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(config.structure.m)]
            for _ in range(config.structure.m)
        ]
        try:
            changed = config.structure.change_frame(columns)
        except ValueError:
            continue  # singular draw
        break
    _assert_matches_oracle(replace(config, structure=changed), changed)


def test_oracle_inputs_reach_every_outcome() -> None:
    outcomes = set()
    for name in ("example1-r1", "iwasawa-r1", "torus-r1"):
        check = run_analysis(load_config(DOCUMENTS[name])).abelian_check
        outcomes.add((check.applicable, bool(check.constraints)))
    assert outcomes == {(True, True), (False, False), (True, False)}
