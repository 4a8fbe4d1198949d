"""Golden reports: the JSON report bytes of catalog analyses are pinned.

A change to a hot path (Groebner bases, series, echelon forms, scalars) must
leave every report byte-identical.  The digests are SHA-256 of
``render_json(build_report(...))``, which is what ``kuranishi analyze
--catalog NAME --rank R --format json`` prints.
"""

from __future__ import annotations

import hashlib

import pytest

from kuranishi.config import load_config
from kuranishi.report import build_report, render_json, run_analysis

GOLDEN_SHA256 = {
    ("example1", 1): "94cdcbb1cdb8f2de8860db733aeaa84cdd7f0b4f046b537b8f95674b2a7cd478",
    ("example2", 1): "8e4e2ba3a2eea96ab97ddb85e483ce995d17f07679e124470ecad550da56b53f",
    ("iwasawa", 1): "1ed937121f812fa8bea4492969f5d7d9e9aba3c43761f77b074ba10d502230a0",
    ("torus", 1): "f81f1f87fbb95a15dcea02a85e0a9f7894a3fdf0f144ed5770ca9c313a8b9cdd",
    ("n3", 1): "588587c06259758c58e13a96873207ff4b10f9085e339a697ba7066579832d6f",
    ("n8", 1): "a62e73a0fba1a3a0f06f71537e20e44ea6756a2d16e50fda778ca752ee0dada8",
    ("n9", 1): "5c29754196e461ee284005422043aecc9c0380fb19a1d440eca15f104e9744b7",
    ("example1", 2): "7ada3b6064c675db49ca2ae35cb0a88736ad4ae7672c2326718f8ac3334c044b",
}


@pytest.mark.parametrize(("name", "rank"), sorted(GOLDEN_SHA256))
def test_catalog_report_bytes_are_pinned(name: str, rank: int) -> None:
    config = load_config({"catalog": name, "bundleRank": rank})
    text = render_json(build_report(config, run_analysis(config)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[(name, rank)]
