"""Golden reports: the JSON report bytes of catalog analyses are pinned.

A change to a hot path (Groebner bases, series, echelon forms, scalars) must
leave every report byte-identical.  The digests are SHA-256 of
``render_json(build_report(...))``, which is what ``kuranishi analyze
--catalog NAME --rank R --format json`` prints.

The catalog inputs have sparse unit coefficients.  Two dense inputs pin the
same bytes for non-unit Gaussian rationals: the torus and the Iwasawa
structure with the rows of their holomorphic coframe mixed by one fixed
invertible matrix, which keeps the complex structure and makes every frame
coefficient dense.

The ``--pivot-rule latest`` analyses of the catalog at rank 1 and of
example1 at rank 2 are pinned from the command line's output.

The ``kuranishi validate --format json`` reports are pinned the same way:
they come straight from the builder, its gates and its error messages.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import oracle_scalars
from kuranishi.cli import main
from kuranishi.config import load_config
from kuranishi.report import build_report, render_json, run_analysis
from kuranishi.scalars import GaussianRational

GOLDEN_SHA256 = {
    ("example1", 1): "94cdcbb1cdb8f2de8860db733aeaa84cdd7f0b4f046b537b8f95674b2a7cd478",
    ("example2", 1): "8e4e2ba3a2eea96ab97ddb85e483ce995d17f07679e124470ecad550da56b53f",
    ("iwasawa", 1): "1ed937121f812fa8bea4492969f5d7d9e9aba3c43761f77b074ba10d502230a0",
    ("torus", 1): "f81f1f87fbb95a15dcea02a85e0a9f7894a3fdf0f144ed5770ca9c313a8b9cdd",
    ("n3", 1): "588587c06259758c58e13a96873207ff4b10f9085e339a697ba7066579832d6f",
    ("n8", 1): "a62e73a0fba1a3a0f06f71537e20e44ea6756a2d16e50fda778ca752ee0dada8",
    ("n9", 1): "5c29754196e461ee284005422043aecc9c0380fb19a1d440eca15f104e9744b7",
    ("example1", 2): "7ada3b6064c675db49ca2ae35cb0a88736ad4ae7672c2326718f8ac3334c044b",
    ("example2", 2): "266c74bf967fe8d68782af447f884a778faec2dd4edf0d1f09651c394c5c8bb9",
    ("iwasawa", 2): "8d08ae14fb5c747a9e7607591e354866af993377f145b2a3bea6641de6260f13",
    ("torus", 2): "b194b7786c234be2e0a744286a9b2a7f2912e77fe316ee5172799f58b6e18bcd",
    ("n3", 2): "a74cbfc63b3086248ce470f3bc070f0b24bf5ce7f2fe957c506b2c9d77897dd5",
    ("n8", 2): "37ab8b17327365149f0390fa19a14a06dbdffd623a31ca2910633782ee613860",
    ("n9", 2): "6a2cfc8e114bda0049324178ba3b9d062492e4f49502eb8d3be9307a35260154",
}


@pytest.mark.parametrize(("name", "rank"), sorted(GOLDEN_SHA256))
def test_catalog_report_bytes_are_pinned(name: str, rank: int) -> None:
    config = load_config({"catalog": name, "bundleRank": rank})
    text = render_json(build_report(config, run_analysis(config)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[(name, rank)]


# SHA-256 of what ``kuranishi analyze --catalog NAME --rank R --pivot-rule
# latest --format json`` prints.  The ``latest`` rule picks other coexact
# complements, so it runs the Hodge split and the series through other
# homotopies than the default rule does.
LATEST_GOLDEN_SHA256 = {
    ("example1", 1): "60b00670b71815f327cd96dc85394d3810b677d971f0703505707e0cbd6b9e66",
    ("example2", 1): "9ebb34c7c457a62e25b94d94083ab033769a472bba27789a4e4889155a1174ae",
    ("iwasawa", 1): "972a24fb06bb79521a01846457c1fb3254d40868b9590509f6337470c388f9e6",
    ("torus", 1): "bba44efd15d4e90834d7c1bae420c03eb07d05dce941b867c36ed5900b272956",
    ("n3", 1): "302724da2f9b6bac2b282a202efc48302bb271c47f2984827002ff670aa445a9",
    ("n8", 1): "1610674fc8bb57d4c374583c1d2cda30e6447e2b39b8e51f5092951b704a34fc",
    ("n9", 1): "8074705700754129d9b763c2845759b42a4c93cfba85d36d9ac38764f52a49f3",
    ("example1", 2): "91522401c46f626746ed68ccf05e2bbea36fc1a7eee7dd91a077216689dea299",
}


@pytest.mark.parametrize(("name", "rank"), sorted(LATEST_GOLDEN_SHA256))
def test_latest_pivot_rule_report_bytes_are_pinned(name: str, rank: int, capsys) -> None:
    args = ["--catalog", name, "--rank", str(rank), "--pivot-rule", "latest"]
    assert main(["analyze", *args, "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == LATEST_GOLDEN_SHA256[name, rank]


# Standard coframe (x1 - i x2, x3 - i x4, x5 - i x6) and the mixing matrix
# applied to its rows, both in the config's scalar wire form.
_STANDARD_FRAME = [
    [1, [0, -1], 0, 0, 0, 0],
    [0, 0, 1, [0, -1], 0, 0],
    [0, 0, 0, 0, 1, [0, -1]],
]
_MIXING = [
    [1, ["1/3", "2/3"], ["-2/3", "1/3"]],
    [["2/3", "-1/3"], [0, 1], ["1/3", "-2/3"]],
    [["-1/3", "-2/3"], ["2/3", "1/3"], -1],
]
_ALGEBRAS = {
    "torus": {"dimension": 6, "constants": []},
    "iwasawa": {
        "dimension": 6,
        "constants": [
            [1, 3, 5, "-1/2"],
            [1, 4, 6, "-1/2"],
            [2, 3, 6, "-1/2"],
            [2, 4, 5, "1/2"],
        ],
    },
}

DENSE_GOLDEN_SHA256 = {
    "torus": "2c725e10615d9839d6085ceb2c7f638b2e3000073e25a8d85e9132fe7b3fe87b",
    "iwasawa": "c823c0c70d562feb63d99e4a0a7212cfe06179afe1cee09ef51248d9abb21849",
}


def _mixed_frame() -> list[list[object]]:
    mixing = [[GaussianRational.from_json(x) for x in row] for row in _MIXING]
    frame = [[GaussianRational.from_json(x) for x in row] for row in _STANDARD_FRAME]
    rows = []
    for mix_row in mixing:
        row = [GaussianRational(0)] * len(frame[0])
        for coeff, frame_row in zip(mix_row, frame):
            row = [acc + coeff * x for acc, x in zip(row, frame_row)]
        rows.append([oracle_scalars.GaussianRational(x.re, x.im).to_json() for x in row])
    return rows


@pytest.mark.parametrize("name", sorted(DENSE_GOLDEN_SHA256))
def test_mixed_coframe_report_bytes_are_pinned(name: str) -> None:
    config = load_config(
        {
            "lieAlgebra": _ALGEBRAS[name],
            "complexStructure": {"frame": _mixed_frame()},
            "bundleRank": 1,
        }
    )
    text = render_json(build_report(config, run_analysis(config)))
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_GOLDEN_SHA256[name]


# SHA-256 of what ``kuranishi validate ARGS --format json`` prints.  A config
# file argument is written out first; curvature rows are 1-based
# (holomorphic, antiholomorphic, row, column, value).
VALIDATE_GOLDEN_SHA256 = {
    "example1": "b9d0cb8bdc2dfeb1b7cee14600f50eb43f7471c1fe5c3acba81645e4fa6e8afc",
    "example2": "d473e6c19aee744e4447e5a6b911e88846f0e09bd4a4e9bd11aec8d84c510cda",
    "iwasawa": "728aa404342e33aa14f2aa9d2a837d81488b8f81a50938b32e646f7afdc1aa7a",
    "torus": "715062cb56c4b0126b0285a43130e96220ff4aab23b75a9630794828e622f761",
    "n3": "3f1ab7e36c99751c62a81fd65f073bbd519d939733c3d56574e02de78bd554e3",
    "n8": "174971b76fc45137232282162d07381358d02e969fe4a86fa9341583d98202c4",
    "n9": "dfb4ecfadf7e9d3536a34ff699a9ddcb592f3770bf860e02b03c2e20944a7b70",
    "example2-literal": "44eacb6cb519578975369bc5f08aa70ce706da91385bbc5257305d68bae87d3b",
    "torus-curved": "729baf4a087e015fa81dd53a4aa967c3d099c69e3df6b61d4f38e645882e1a36",
    "example1-curved": "bf885ddaabd0dbfa8f9b0f5be4a89b4767f389fa84cdb633ad6f5ea9cc0c9c7a",
}

_VALIDATE_CONFIGS = {
    "torus-curved": {"catalog": "torus", "curvature": [[1, 2, 1, 1, "1/2"]]},
    # breaks the Leibniz rule; the message carries the gate's first failure
    "example1-curved": {"catalog": "example1", "curvature": [[1, 2, 1, 1, 1]]},
}


def _validate_args(name: str, tmp_path) -> list[str]:
    if name in _VALIDATE_CONFIGS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_VALIDATE_CONFIGS[name]))
        return [str(path)]
    if name == "example2-literal":
        return ["--catalog", "example2", "--example2-reading", "literal"]
    return ["--catalog", name]


@pytest.mark.parametrize("name", sorted(VALIDATE_GOLDEN_SHA256))
def test_validate_report_bytes_are_pinned(name: str, tmp_path, capsys) -> None:
    code = main(["validate", *_validate_args(name, tmp_path), "--format", "json"])
    text = capsys.readouterr().out
    assert code == (0 if json.loads(text)["valid"] else 2)
    assert hashlib.sha256(text.encode()).hexdigest() == VALIDATE_GOLDEN_SHA256[name]
