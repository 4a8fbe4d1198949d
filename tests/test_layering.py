"""Module ownership inside the ``kuranishi`` package.

A ``_``-prefixed name is private to the module that defines it.  No package
module may import one from another package module: a helper that two
modules need belongs behind a public name of its owner, or in the one
module that uses it.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from kuranishi.dgla import Dgla
from kuranishi.lie import ComplexStructure, LieAlgebra
from kuranishi.linalg import EchelonBasis, ExactMatrix, kernel_basis, pivot_columns, rref
from kuranishi.scalars import GaussianRational

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kuranishi"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _private_imports(source: str) -> list[str]:
    """``from MODULE import _name`` for every private name imported from the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "kuranishi":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append(f"from {'.' * node.level}{module} import {alias.name}")
    return out


def test_the_check_sees_private_imports() -> None:
    source = (
        "from .lie import ComplexStructure, _normalize_word\n"
        "from kuranishi.builders import _replace_slots\n"
        "from . import _hidden\n"
        "from __future__ import annotations\n"
        "from typing import _SpecialForm\n"
    )
    assert _private_imports(source) == [
        "from .lie import _normalize_word",
        "from kuranishi.builders import _replace_slots",
        "from . import _hidden",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_private_name(name: str) -> None:
    assert _private_imports((PACKAGE / name).read_text()) == []


def test_only_scalars_reads_the_scalar_slots() -> None:
    """``GaussianRational`` keeps its triple in the slots ``_a``, ``_b`` and
    ``_d``; every other module reads it through ``triple``."""
    reads = [
        f"{name}: .{node.attr}"
        for name in MODULES
        if name != "scalars.py"
        for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("_a", "_b", "_d")
    ]
    assert reads == []


def test_frozen_oracles_import_no_private_name() -> None:
    """A frozen oracle is the reference for a rewritten function; importing
    a private helper of the package would let an engine edit change it."""
    tests = Path(__file__).resolve().parent
    imports = {
        path.name: _private_imports(path.read_text())
        for path in sorted(tests.glob("oracle_*.py"))
    }
    assert imports and all(found == [] for found in imports.values()), imports


def test_engine_evaluates_degree_one_maps_through_the_kernel() -> None:
    """The series and both certificate routes apply the degree-one bracket,
    the homotopy and the harmonic coordinates through the engine's integer
    kernel; the tests compare it against the reference maps of
    ``tests/oracle_maps.py``."""
    calls = [
        node.func.attr
        for node in ast.walk(ast.parse((PACKAGE / "engine.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("bracket_vectors", "apply")
    ]
    assert calls == []


def test_the_package_keeps_one_ring_for_vectors() -> None:
    """Every vector the package maps is a vector of scalars.  The
    ring-generic bracket, matrix product and echelon reduction live in
    ``tests/oracle_maps.py`` as the tests' reference, so no package function
    takes a ring's ``zero``, and ``GaussianRational`` has neither the
    ``scale`` that let generic code treat a scalar like a polynomial nor
    the ``to_json`` that nothing in the package called."""
    moved = ("bracket_vectors", "bracket_entry", "basis_keys")
    assert [name for name in moved if hasattr(Dgla, name)] == []
    assert [name for name in ("scale", "to_json") if hasattr(GaussianRational, name)] == []
    takes_zero = [
        f"{name}: {node.name}"
        for name in MODULES
        for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            arg.arg == "zero"
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        )
    ]
    assert takes_zero == []


def test_lie_algebras_have_one_jacobi_check() -> None:
    """``LieAlgebra`` holds its constants as a degree-zero ``Dgla`` and
    checks them through the axiom gate of ``dgla.py``: it keeps no dense
    Jacobi loop of its own (the frozen ``tests/oracle_lie.py`` does), no
    parameter that skips the check, and no other module defines a Jacobi
    function."""
    assert not hasattr(LieAlgebra, "jacobi_failures")
    takes_validate = [
        method.__name__
        for method in (LieAlgebra.__init__, LieAlgebra.from_entries)
        if "validate" in inspect.signature(method).parameters
    ]
    assert takes_validate == []
    jacobi_functions = [
        f"{name}: {node.name}"
        for name in MODULES
        if name != "dgla.py"
        for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "jacobi" in node.name.lower()
    ]
    assert jacobi_functions == []


def test_one_matrix_product_and_one_frame_table() -> None:
    """``@`` is the package's one matrix product: ``ExactMatrix`` has no
    ``apply`` and no package module calls one.  ``ComplexStructure`` holds
    its doubled-frame constants as one sparse table, with no dense path,
    cache slot or stored basis inverse beside it, and ``LieAlgebra`` is
    read through its table, with no accessor of its own."""
    assert not hasattr(ExactMatrix, "apply")
    calls = [
        f"{name}: .apply("
        for name in MODULES
        for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "apply"
    ]
    assert calls == []
    dense = (
        "frame_constants",
        "frame_vector",
        "conjugate_vector",
        "basis_inverse",
        "basis_matrix",
        "frame_matrix",
        "_constants",
    )
    assert [name for name in dense if hasattr(ComplexStructure, name)] == []
    assert not hasattr(LieAlgebra, "bracket_basis")


def test_one_echelon_form() -> None:
    """``rref`` returns the ``EchelonBasis``, the one form of an echelon
    result: ``kernel_basis`` and ``pivot_columns`` read it as their one
    echelon argument, no package module unpacks a ``(reduced, pivots)``
    pair from ``*rref(``, and ``ExactMatrix`` keeps no arithmetic beyond
    its product."""
    for rows in ([[1, 2], [2, 4]], [[0, 0]]):
        assert isinstance(rref(ExactMatrix(rows)), EchelonBasis)
    assert list(inspect.signature(kernel_basis).parameters) == ["echelon"]
    assert list(inspect.signature(pivot_columns).parameters) == ["echelon", "rule"]
    deleted = ("__add__", "__sub__", "scale", "identity", "__getitem__")
    assert [name for name in deleted if hasattr(ExactMatrix, name)] == []
    unpacked = [
        name
        for name in MODULES
        for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(node, ast.Starred)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) == "rref"
    ]
    assert unpacked == []


def test_the_buchberger_kernel_stays_in_groebner() -> None:
    """Every Buchberger loop runs in ``groebner.py``, behind its public
    functions, where the benchmark's tracer can wrap it: no other package
    module names the kernel's basis, pair loop, pair update or reduction."""
    kernel = ("_Basis", "_reduce_pairs", "_update", "_nf")
    named = [
        f"{name}: {node.id if isinstance(node, ast.Name) else node.attr}"
        for name in MODULES
        if name != "groebner.py"
        for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if (isinstance(node, ast.Name) and node.id in kernel)
        or (isinstance(node, ast.Attribute) and node.attr in kernel)
    ]
    assert named == []
    source = (PACKAGE / "groebner.py").read_text()
    assert all(f"def {name}(" in source or f"class {name}" in source for name in kernel)
