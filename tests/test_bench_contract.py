"""What the benchmark in ``perfbench/`` needs from the program.

The benchmark's tracer wraps functions it looks up by name, and its worker
probes the axiom gate with a hand-broken DGLA; a traced reduced basis must
enter the ``groebner_basis`` span, where the benchmark reads the Buchberger
time, and each deformation problem one ``hodge_decomposition`` span, where
it reads the Hodge split.  These tests read those files without changing
them, so a rename, deletion or moved call in ``kuranishi`` that would break
a traced run or the probe fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from kuranishi.builders import build_pair_dgla
from kuranishi.poly import PolyRing

from test_lie import example1_structure

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load("tracer").TRACED


@pytest.mark.parametrize(
    ("module", "name"), TRACED, ids=[f"{m}.{n}" for m, n in TRACED]
)
def test_traced_names_resolve_to_callables(module: str, name: str) -> None:
    target = getattr(importlib.import_module(f"kuranishi.{module}"), name, None)
    assert callable(target), f"perfbench traces kuranishi.{module}.{name}"


def _installed_tracer(monkeypatch):
    """The benchmark's tracer, installed until the end of the test."""
    import kuranishi.report  # noqa: F401  (loads every traced module)

    # restore, after the test, every name the tracer's install replaces
    for key, module in list(sys.modules.items()):
        if key == "kuranishi" or key.startswith("kuranishi."):
            for _, name in TRACED:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, getattr(module, name))
    tracer = _load("tracer").Tracer()
    tracer.install()
    return tracer


def test_traced_reduced_basis_enters_groebner_basis(monkeypatch) -> None:
    """The Buchberger loop runs inside the traced ``groebner_basis`` span."""
    tracer = _installed_tracer(monkeypatch)
    ring = PolyRing(["x", "y", "z"])
    x, y, z = (ring.var(v) for v in ring.variables)
    groebner = importlib.import_module("kuranishi.groebner")
    groebner.reduced_groebner_basis([x * x * y - z, x * z - y * y, y * z - x])
    spans = tracer.summary()["spans"]
    assert spans["groebner.reduced_groebner_basis"]["calls"] == 1
    assert spans["groebner.groebner_basis"]["calls"] == 1


def test_traced_hodge_split_runs_once_per_problem(monkeypatch) -> None:
    """Each of the three deformation problems enters one Hodge-split span.

    The per-layer metric ``dgla.hodge_decomposition.self_s`` reads the split
    from that span, so the split must stay inside the traced function.
    """
    tracer = _installed_tracer(monkeypatch)
    analysis = importlib.import_module("kuranishi.analysis")
    analysis.analyze_structure(example1_structure(), rank=1)
    spans = tracer.summary()["spans"]
    assert spans["dgla.hodge_decomposition"]["calls"] == 3


def test_gate_probe_rejects_broken_antisymmetry() -> None:
    worker = _load("worker")
    pair = build_pair_dgla(example1_structure(), 1)
    assert worker.gate_rejects_broken_antisymmetry(pair.dgla)
