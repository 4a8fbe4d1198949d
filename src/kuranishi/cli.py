"""Command-line interface.

Subcommands
-----------
``validate``
    Check a config or catalog entry: schema, integrability, curvature
    compatibility, and the graded axioms.  Exit 0 when valid, 2 when not.
``analyze``
    Run the full series/obstruction/germ/splitting analysis and print a
    text or JSON report.
``catalog``
    List the built-in structures.
``reproduce``
    Re-run the catalog entries that carry expected-invariant tables and
    compare the computed invariants against them.  Exit 1 on mismatch.

Exit codes: 0 success, 1 computational mismatch or internal failure, 2
invalid input.  No exception ends in a traceback: an unexpected one prints
``internal error: <Type>: <message>`` on one line and exits 1.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import catalog_entry, catalog_names, expected_invariants, reproducible_names
from .config import ConfigError, SCHEMA_VERSION, load_config, read_document
from .report import (
    build_report,
    build_validation_report,
    observed_invariants,
    render_json,
    render_text,
    render_validation_text,
    run_analysis,
)

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# -- argument plumbing ------------------------------------------------------


def _rank_flag(text: str) -> int:
    value = _int_flag(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return value


def _order_flag(text: str) -> int:
    value = _int_flag(text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be an integer >= 2")
    return value


def _int_flag(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "config",
        nargs="?",
        metavar="CONFIG",
        help="path to a JSON config file (JSON text starting with '{' also works)",
    )
    parser.add_argument(
        "--catalog",
        metavar="NAME",
        help="use a built-in catalog entry instead of a config file",
    )
    parser.add_argument(
        "--rank",
        type=_rank_flag,
        metavar="R",
        help="bundle rank (overrides the config's bundleRank)",
    )
    parser.add_argument(
        "--example2-reading",
        choices=("corrected", "literal"),
        dest="example2_reading",
        help="bracket reading for the example2 catalog entry",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the report to PATH instead of standard output",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuranishi",
        description=(
            "Exact Kuranishi-space analysis of nilmanifold complex structures "
            "paired with trivial holomorphic bundles."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser(
        "validate", help="validate a config and the structure it describes"
    )
    _add_input_arguments(validate)
    _add_output_arguments(validate)
    validate.set_defaults(handler=_cmd_validate)

    analyze = subparsers.add_parser(
        "analyze", help="run the full obstruction and splitting analysis"
    )
    _add_input_arguments(analyze)
    analyze.add_argument(
        "--truncation",
        type=_order_flag,
        metavar="N",
        help="series truncation order (overrides the config's truncationOrder)",
    )
    analyze.add_argument(
        "--pivot-rule",
        choices=("earliest", "latest"),
        default="earliest",
        dest="pivot_rule",
        help="pivot selection rule for the internal echelon forms (default: earliest)",
    )
    _add_output_arguments(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    catalog = subparsers.add_parser("catalog", help="list the built-in structures")
    _add_output_arguments(catalog)
    catalog.set_defaults(handler=_cmd_catalog)

    reproduce = subparsers.add_parser(
        "reproduce",
        help="recompute known invariants for the reproducible catalog entries",
    )
    reproduce.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="catalog entries to check (default: all entries with expected tables)",
    )
    _add_output_arguments(reproduce)
    reproduce.set_defaults(handler=_cmd_reproduce)

    return parser


def _resolve_config(args: argparse.Namespace):
    if args.catalog and args.config:
        raise ConfigError("give either --catalog NAME or a config file, not both")
    if args.catalog:
        document: dict = {"catalog": args.catalog}
    elif args.config:
        document = read_document(args.config)
    else:
        raise ConfigError("an input is required: --catalog NAME or a config file path")
    if args.rank is not None:
        document["bundleRank"] = args.rank
    if getattr(args, "truncation", None) is not None:
        document["truncationOrder"] = args.truncation
    if args.example2_reading is not None:
        flags = dict(document.get("exampleReadingFlags") or {})
        flags["example2"] = args.example2_reading
        document["exampleReadingFlags"] = flags
    return load_config(document)


def _emit(text: str, args: argparse.Namespace) -> None:
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(
            f"--output: cannot write {args.output}: {exc.strerror}"
        ) from exc


# -- subcommands -------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    report = build_validation_report(config)
    rendered = (
        render_json(report) if args.format == "json" else render_validation_text(report)
    )
    _emit(rendered, args)
    return 0 if report["valid"] else 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    result = run_analysis(config, pivot_rule=args.pivot_rule)
    report = build_report(config, result)
    rendered = render_json(report) if args.format == "json" else render_text(report)
    _emit(rendered, args)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = []
    for name in catalog_names():
        entry = catalog_entry(name)
        entries.append(
            {
                "name": entry.name,
                "dimension": entry.dimension,
                "summary": entry.summary,
                "readings": list(entry.readings),
                "reproducible": entry.reproducible,
            }
        )
    if args.format == "json":
        _emit(render_json({"schema_version": SCHEMA_VERSION, "entries": entries}), args)
        return 0
    lines = ["Built-in structures", "=" * 19]
    for entry in entries:
        markers = []
        if entry["readings"]:
            markers.append("readings: " + ", ".join(entry["readings"]))
        if entry["reproducible"]:
            markers.append("reproducible")
        suffix = f"  [{'; '.join(markers)}]" if markers else ""
        lines.append(f"{entry['name']:<10} dim {entry['dimension']}  {entry['summary']}{suffix}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    names = args.names or reproducible_names()
    cases = []
    for name in names:
        expected = expected_invariants(name)
        if expected is None:
            raise ConfigError(
                f"catalog entry {name!r} has no expected-invariant table; "
                f"choose from: {', '.join(reproducible_names())}"
            )
        config = load_config({"catalog": name})
        result = run_analysis(config)
        observed = observed_invariants(result)
        diffs = [
            {
                "field": field,
                "expected": _jsonable(expected[field]),
                "observed": _jsonable(observed[field]),
            }
            for field in expected
            if expected[field] != observed[field]
        ]
        cases.append({"name": name, "status": "pass" if not diffs else "fail", "diffs": diffs})

    all_pass = all(case["status"] == "pass" for case in cases)
    if args.format == "json":
        _emit(
            render_json(
                {"schema_version": SCHEMA_VERSION, "cases": cases, "allPass": all_pass}
            ),
            args,
        )
        return 0 if all_pass else 1

    lines = ["Reproduction of known invariants", "=" * 32]
    for case in cases:
        lines.append(f"{case['name']}: {case['status'].upper()}")
        for diff in case["diffs"]:
            lines.append(
                f"  {diff['field']}: expected {diff['expected']}, observed {diff['observed']}"
            )
    lines.append("")
    lines.append("all checks passed" if all_pass else "MISMATCH: see the diffs above")
    _emit("\n".join(lines) + "\n", args)
    return 0 if all_pass else 1


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


if __name__ == "__main__":
    raise SystemExit(main())
