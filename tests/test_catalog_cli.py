"""Catalog, config, and command-line round-trip tests."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kuranishi.builders import build_pair_dgla
from kuranishi.catalog import (
    build_catalog_structure,
    catalog_entry,
    catalog_names,
    expected_invariants,
    reproducible_names,
)
from kuranishi.cli import main
from kuranishi.config import ConfigError, load_config
from kuranishi.poly import DEGREE_LIMIT

INLINE_TORUS = {
    "lieAlgebra": {"dimension": 6, "constants": []},
    "complexStructure": {
        "frame": [
            [1, [0, -1], 0, 0, 0, 0],
            [0, 0, 1, [0, -1], 0, 0],
            [0, 0, 0, 0, 1, [0, -1]],
        ]
    },
}


def _inline_torus() -> dict:
    return json.loads(json.dumps(INLINE_TORUS))


# -- catalog module --------------------------------------------------------


def test_catalog_names_cover_the_shipped_structures():
    assert catalog_names() == [
        "example1",
        "example2",
        "iwasawa",
        "torus",
        "n3",
        "n8",
        "n9",
    ]
    assert reproducible_names() == ["example1", "example2", "iwasawa", "torus"]
    assert catalog_entry("example2").readings == ("corrected", "literal")
    assert catalog_entry("iwasawa").readings == ()


def test_catalog_unknown_entry_raises():
    with pytest.raises(ValueError, match="unknown catalog entry"):
        catalog_entry("nope")
    with pytest.raises(ValueError, match="unknown reading"):
        build_catalog_structure("example2", reading="sideways")


def test_every_catalog_structure_builds_and_classifies():
    for name in catalog_names():
        structure = build_catalog_structure(name)
        info = structure.classify()
        assert info["integrable"] is True
        assert info["nilpotent"] is True


def test_example2_literal_reading_fails_the_integrability_gate():
    literal = build_catalog_structure("example2", reading="literal")
    assert literal.classify()["integrable"] is False
    with pytest.raises(ValueError, match="not integrable"):
        build_pair_dgla(literal, 1)


def test_expected_invariants_only_for_reproducible_entries():
    assert expected_invariants("n3") is None
    table = expected_invariants("example1")
    assert table is not None
    assert table["verdict"] == "DoesNotSplit"
    with pytest.raises(ValueError, match="unknown catalog entry"):
        expected_invariants("nope")


# -- config module ----------------------------------------------------------


def test_load_config_resolves_catalog_and_overrides():
    config = load_config({"catalog": "example1", "bundleRank": 2, "truncationOrder": 6})
    assert config.source == "catalog:example1"
    assert config.rank == 2
    assert config.truncation == 6
    assert config.structure.algebra.dim == 6


def test_load_config_inline_constant_wire_forms_agree():
    by_scalar = load_config(
        {
            "lieAlgebra": {"dimension": 6, "constants": [[1, 2, 3, "-1/2"], [4, 5, 6, [0, "1/3"]]]},
            "complexStructure": _inline_torus()["complexStructure"],
        }
    )
    by_integers = load_config(
        {
            "lieAlgebra": {
                "dimension": 6,
                "constants": [[1, 2, 3, -1, 2, 0, 1], [4, 5, 6, 0, 1, 1, 3]],
            },
            "complexStructure": _inline_torus()["complexStructure"],
        }
    )
    assert by_scalar.structure.algebra == by_integers.structure.algebra


def test_load_config_rejects_floats_with_exact_hint():
    doc = _inline_torus()
    doc["lieAlgebra"]["constants"] = [[1, 2, 3, 0.5]]
    with pytest.raises(ConfigError, match=r'ratio of integers such as "1/2"'):
        load_config(doc)
    with pytest.raises(ConfigError, match=r'ratio of integers such as "1/2"'):
        load_config('{"catalog": "torus", "curvature": [[1, 1, 1, 1, 0.25]]}')


@pytest.mark.parametrize(
    ("mangle", "fragment"),
    [
        (lambda d: d.update(whatever=1), "unknown key 'whatever'"),
        (lambda d: d.update(schema_version=99), "schema_version"),
        (lambda d: d.update(bundleRank=0), "bundleRank"),
        (lambda d: d.update(bundleRank=True), "bundleRank"),
        (lambda d: d.update(truncationOrder=1), "truncationOrder"),
        (lambda d: d.update(catalog="torus"), "cannot be combined with 'catalog'"),
        (lambda d: d.pop("complexStructure"), "complexStructure: required"),
        (
            lambda d: d["lieAlgebra"]["constants"].append([1, 2, 99, 1]),
            "lieAlgebra.constants[0][2]",
        ),
        (
            lambda d: d["lieAlgebra"]["constants"].append([1, 2, 3, 1, 0, 0, 1]),
            "denominator cannot be zero",
        ),
        (
            lambda d: d["complexStructure"].update(jMatrix=[]),
            "exactly one of 'frame' or 'jMatrix'",
        ),
        (
            lambda d: d["complexStructure"]["frame"].pop(),
            "expected 3 rows",
        ),
    ],
)
def test_load_config_reports_field_paths(mangle, fragment):
    doc = _inline_torus()
    mangle(doc)
    with pytest.raises(ConfigError) as excinfo:
        load_config(doc)
    assert fragment in str(excinfo.value)


def test_load_config_truncation_stays_below_the_degree_limit():
    config = load_config({"catalog": "torus", "truncationOrder": DEGREE_LIMIT - 1})
    assert config.truncation == DEGREE_LIMIT - 1
    for order in (DEGREE_LIMIT, DEGREE_LIMIT + 1, 10**9):
        with pytest.raises(ConfigError, match=f"truncationOrder: .*below {DEGREE_LIMIT}"):
            load_config({"catalog": "torus", "truncationOrder": order})


def test_load_config_curvature_rows_accumulate():
    config = load_config(
        {
            "catalog": "torus",
            "bundleRank": 2,
            "curvature": [[1, 2, 1, 2, "1/2"], [1, 2, 1, 2, "1/2"], [3, 1, 2, 2, [0, 1]]],
        }
    )
    assert set(config.curvature) == {(0, 1), (2, 0)}
    assert str(config.curvature[(0, 1)].rows[0][1]) == "1"
    assert str(config.curvature[(2, 0)].rows[1][1]) == "i"


def test_load_config_needs_exactly_one_input_style():
    with pytest.raises(ConfigError, match="required unless 'catalog'"):
        load_config({"bundleRank": 1})
    with pytest.raises(ConfigError, match="must be a dict, JSON text, or file path"):
        load_config([1, 2])


def test_load_config_jmatrix_input_builds_a_structure():
    j_rows = [
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0],
    ]
    config = load_config(
        {"lieAlgebra": "(0,0,0,0,0,12)", "complexStructure": {"jMatrix": j_rows}}
    )
    assert config.structure.classify()["integrable"] is True


# -- command line ------------------------------------------------------------


def test_cli_catalog_text_lists_every_entry(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in catalog_names():
        assert name in out


def test_cli_catalog_json_carries_schema_version(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert [entry["name"] for entry in payload["entries"]] == catalog_names()


def test_cli_validate_accepts_every_catalog_entry(capsys):
    for name in catalog_names():
        assert main(["validate", "--catalog", name]) == 0, name
    out = capsys.readouterr().out
    assert "valid: yes" in out


def test_cli_validate_literal_reading_exits_two(capsys):
    code = main(["validate", "--catalog", "example2", "--example2-reading", "literal"])
    assert code == 2
    out = capsys.readouterr().out
    assert "valid: no" in out
    assert "not integrable" in out


def test_cli_validate_curvature_that_breaks_axioms_exits_two(tmp_path, capsys):
    config = tmp_path / "curved.json"
    config.write_text(
        json.dumps({"catalog": "example1", "curvature": [[1, 2, 1, 1, 1]]})
    )
    assert main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    # the gate's first failure, which names the first failing pair
    assert (
        "error: curvature breaks the DGLA axioms: "
        "Leibniz rule fails on [a3*W1, a3*W1]"
    ) in out.splitlines()


def test_cli_validate_constants_that_break_jacobi_exit_two(capsys):
    config = _inline_torus()
    # [e1, [e2, e3]] = [e1, e4] = e5 while the other two cyclic terms vanish
    config["lieAlgebra"]["constants"] = [[1, 2, 3, 1], [2, 3, 4, 1], [1, 4, 5, 1]]
    assert main(["validate", json.dumps(config)]) == 2
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    assert [line for line in printed.splitlines() if line.startswith("error:")] == [
        "error: lieAlgebra: graded Jacobi identity fails on (e1, e2, e3)"
    ]
    assert "Traceback" not in printed


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_cli_unwritable_output_is_bad_input(tmp_path, capsys, command):
    target = tmp_path / "missing" / "report.json"
    assert main([command, "--catalog", "torus", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --output: cannot write {target}: No such file or directory"
    ]


def test_cli_analyze_json_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        assert (
            main(["analyze", "--catalog", "example1", "--format", "json", "--output", str(target)])
            == 0
        )
    assert first.read_bytes() == second.read_bytes()


def test_cli_analyze_text_and_json_agree_on_the_numbers(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert (
        main(["analyze", "--catalog", "example1", "--format", "json", "--output", str(target)])
        == 0
    )
    report = json.loads(target.read_text())
    assert main(["analyze", "--catalog", "example1"]) == 0
    text = capsys.readouterr().out

    assert report["splitting"]["verdict"] == "DoesNotSplit"
    assert "verdict: DoesNotSplit" in text
    assert report["blocks"]["joint"]["obstructions"]["generators"] == ["t2*s3"]
    assert "minimal generators: t2*s3" in text
    assert report["blocks"]["deformation"]["cohomology"]["1"] == 4
    assert "H^1 = 4" in text
    data = report["blocks"]["joint"]["obstructions"]["certificateData"]
    assert data["denominator"] == "t4 + 1"
    assert "denominator = t4 + 1" in text
    assert report["abelianPreservation"]["twistedLocusEquations"] == ["t2"]
    assert "twisted locus equations: t2" in text


def _assert_no_floats(node) -> None:
    if isinstance(node, float):
        raise AssertionError(f"inexact value {node!r} in JSON report")
    if isinstance(node, dict):
        for value in node.values():
            _assert_no_floats(value)
    elif isinstance(node, list):
        for value in node:
            _assert_no_floats(value)


@pytest.mark.parametrize("name", ["example1", "example2", "n9"])
def test_cli_analyze_json_reports_contain_no_floats(tmp_path, name):
    target = tmp_path / "report.json"
    assert (
        main(["analyze", "--catalog", name, "--format", "json", "--output", str(target)])
        == 0
    )
    _assert_no_floats(json.loads(target.read_text()))


def test_cli_analyze_rank_flag_overrides_the_config(tmp_path):
    target = tmp_path / "report.json"
    assert (
        main(
            [
                "analyze",
                "--catalog",
                "torus",
                "--rank",
                "2",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        == 0
    )
    report = json.loads(target.read_text())
    assert report["input"]["bundleRank"] == 2
    assert len(report["blocks"]["endomorphism"]["parameters"]) == 12


def test_cli_analyze_truncation_flag_reaches_every_block(tmp_path):
    target = tmp_path / "report.json"
    assert (
        main(
            [
                "analyze",
                "--catalog",
                "torus",
                "--truncation",
                "4",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        == 0
    )
    report = json.loads(target.read_text())
    assert report["input"]["truncationOrder"] == 4
    for block in report["blocks"].values():
        assert block["truncationOrder"] == 4


def test_cli_analyze_pivot_rule_flag_leaves_the_verdict_alone(tmp_path):
    reports = {}
    for rule in ("earliest", "latest"):
        target = tmp_path / f"{rule}.json"
        assert (
            main(
                [
                    "analyze",
                    "--catalog",
                    "example1",
                    "--pivot-rule",
                    rule,
                    "--format",
                    "json",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        reports[rule] = json.loads(target.read_text())
    assert reports["earliest"]["conventions"]["pivotRule"] == "earliest"
    assert reports["latest"]["conventions"]["pivotRule"] == "latest"
    for field in ("splitting", "degreeBounds", "abelianPreservation"):
        assert reports["earliest"][field] == reports["latest"][field]
    for name in ("deformation", "endomorphism", "joint"):
        assert (
            reports["earliest"]["blocks"][name]["germ"]
            == reports["latest"]["blocks"][name]["germ"]
        )


def test_cli_analyze_reads_a_config_file(tmp_path, capsys):
    config = tmp_path / "torus.json"
    config.write_text(json.dumps(INLINE_TORUS))
    assert main(["analyze", str(config)]) == 0
    out = capsys.readouterr().out
    assert "verdict: SplitsByDirectSum" in out
    assert "input: inline" in out


def test_cli_analyze_curved_config_is_inconclusive(tmp_path, capsys):
    config = tmp_path / "curved.json"
    config.write_text(
        json.dumps({"catalog": "torus", "curvature": [[1, 2, 1, 1, "1/2"]]})
    )
    assert main(["analyze", str(config)]) == 0
    out = capsys.readouterr().out
    assert "verdict: Inconclusive" in out
    assert "curvature coupling present" in out


def test_cli_analyze_warns_on_a_non_nilpotent_algebra(capsys):
    config = {
        "lieAlgebra": {"dimension": 2, "constants": [[1, 2, 2, 1]]},
        "complexStructure": {"jMatrix": [[0, -1], [1, 0]]},
    }
    assert main(["analyze", json.dumps(config), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["nilpotent"] is False
    assert report["warnings"] == [
        "the Lie algebra is not nilpotent: it may admit no lattice, so the "
        "left-invariant model may not describe a compact quotient"
    ]


def test_cli_analyze_without_input_exits_two(capsys):
    assert main(["analyze"]) == 2
    assert "an input is required" in capsys.readouterr().err


def test_cli_analyze_truncation_at_the_degree_limit_exits_two(capsys):
    assert main(["analyze", "--catalog", "torus", "--truncation", str(DEGREE_LIMIT)]) == 2
    err = capsys.readouterr().err
    assert f"truncationOrder: must be an integer >= 2 and below {DEGREE_LIMIT}" in err
    assert "Traceback" not in err


def test_cli_analyze_unknown_catalog_exits_two(capsys):
    assert main(["analyze", "--catalog", "nope"]) == 2
    assert "unknown catalog entry" in capsys.readouterr().err


def test_cli_analyze_rejects_config_with_both_input_styles(tmp_path, capsys):
    config = tmp_path / "torus.json"
    config.write_text(json.dumps(INLINE_TORUS))
    assert main(["analyze", "--catalog", "torus", str(config)]) == 2
    assert "not both" in capsys.readouterr().err


def test_cli_example2_reading_flag_is_reported(tmp_path):
    target = tmp_path / "report.json"
    assert (
        main(
            [
                "analyze",
                "--catalog",
                "example2",
                "--example2-reading",
                "corrected",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        == 0
    )
    report = json.loads(target.read_text())
    assert report["input"]["reading"] == "corrected"
    assert any("corrected bracket reading" in warning for warning in report["warnings"])


def test_cli_analyze_literal_reading_exits_two(capsys):
    code = main(["analyze", "--catalog", "example2", "--example2-reading", "literal"])
    assert code == 2
    assert "not integrable" in capsys.readouterr().err


def test_cli_reproduce_passes_on_every_tabled_entry(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    for name in reproducible_names():
        assert f"{name}: PASS" in out
    assert "all checks passed" in out


def test_cli_reproduce_json_shape(tmp_path):
    target = tmp_path / "cases.json"
    assert (
        main(["reproduce", "example1", "torus", "--format", "json", "--output", str(target)])
        == 0
    )
    payload = json.loads(target.read_text())
    assert payload["allPass"] is True
    assert [case["name"] for case in payload["cases"]] == ["example1", "torus"]
    assert all(case["diffs"] == [] for case in payload["cases"])


def test_cli_reproduce_unknown_name_exits_two(capsys):
    assert main(["reproduce", "n3"]) == 2
    assert "no expected-invariant table" in capsys.readouterr().err


@pytest.mark.skipif(
    shutil.which("kuranishi") is None, reason="console script not on PATH"
)
def test_console_script_smoke():
    completed = subprocess.run(
        ["kuranishi", "catalog"], capture_output=True, text=True, timeout=60
    )
    assert completed.returncode == 0
    assert "example1" in completed.stdout


def _run_module(*args: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def test_module_entry_point_smoke():
    completed = _run_module("kuranishi", "catalog")
    assert completed.returncode == 0, completed.stderr
    assert "example1" in completed.stdout


def test_cli_module_entry_point_runs_the_command(tmp_path):
    target = tmp_path / "missing" / "x.json"
    completed = _run_module(
        "kuranishi.cli", "validate", "--catalog", "torus", "--output", str(target)
    )
    assert completed.returncode == 2
    lines = completed.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --output: ")


@pytest.mark.parametrize(
    ("error", "line"),
    [
        (
            ZeroDivisionError("division by zero"),
            "internal error: ZeroDivisionError: division by zero",
        ),
        (KeyError("frame"), "internal error: KeyError: 'frame'"),
    ],
)
def test_cli_unexpected_exception_exits_one_with_one_line(monkeypatch, capsys, error, line):
    def broken_handler(args):
        raise error

    monkeypatch.setattr("kuranishi.cli._cmd_catalog", broken_handler)
    assert main(["catalog"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    assert "Traceback" not in captured.err
