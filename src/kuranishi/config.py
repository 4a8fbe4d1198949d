"""JSON configuration documents describing an analysis run.

A config either names a catalog entry or spells out a Lie algebra and a
complex structure inline.  All scalars are exact: integers, ``"p/q"``
strings, or ``[re, im]`` pairs of those.  Floating-point literals are
rejected outright so no inexact value can slip into the arithmetic.

Schema (top-level keys)
-----------------------
``schema_version``
    Optional; must equal :data:`SCHEMA_VERSION` when present.
``catalog``
    Name of a built-in entry.  Mutually exclusive with ``lieAlgebra`` and
    ``complexStructure``.
``lieAlgebra``
    Either a Salamon-style structure string such as ``"(0,0,0,0,0,12)"``
    or ``{"dimension": 2m, "constants": [...]}`` where each constant row
    is ``[i, j, k, c]`` (1-based indices, exact scalar ``c``) or the
    seven-integer form ``[i, j, k, re_num, re_den, im_num, im_den]``.
``complexStructure``
    ``{"frame": rows}`` giving the holomorphic coframe as m rows of 2m
    exact scalars, or ``{"jMatrix": rows}`` giving the 2m-by-2m matrix of
    the almost-complex operator on the real basis.
``bundleRank``
    Positive integer, default 1.
``truncationOrder``
    Optional integer >= 2 and below ``poly.DEGREE_LIMIT`` (32768, the
    largest polynomial degree plus one) overriding the automatic series
    order.
``curvature``
    Optional list of ``[a, b, u, v, c]`` rows (all indices 1-based)
    adding ``c`` to entry ``(u, v)`` of the curvature matrix attached to
    the holomorphic/anti-holomorphic coframe pair ``(a, b)``.
``exampleReadingFlags``
    Optional ``{"example2": "corrected" | "literal"}`` selecting the
    bracket reading for the ``example2`` catalog entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .catalog import build_catalog_structure, catalog_entry
from .lie import ComplexStructure, LieAlgebra, parse_salamon
from .linalg import ExactMatrix
from .poly import DEGREE_LIMIT
from .scalars import GaussianRational

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "AnalysisConfig",
    "load_config",
    "read_document",
]

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = (
    "schema_version",
    "catalog",
    "lieAlgebra",
    "complexStructure",
    "bundleRank",
    "truncationOrder",
    "curvature",
    "exampleReadingFlags",
)


class ConfigError(ValueError):
    """A configuration document violates the schema.

    Messages carry the offending field path, e.g.
    ``lieAlgebra.constants[2]: ...``.
    """


@dataclass
class AnalysisConfig:
    """A validated analysis request.

    Attributes
    ----------
    structure : ComplexStructure
        The Lie algebra with its complex structure.
    source : str
        ``"catalog:<name>"`` or ``"inline"`` — where the structure came from.
    catalog_name : str or None
        Set when the structure was drawn from the catalog.
    reading : str or None
        Bracket reading selected for catalog entries with more than one.
    rank : int
        Rank of the trivial holomorphic bundle.
    truncation : int or None
        Series truncation order override (None uses the automatic order).
    curvature : dict or None
        Curvature matrices keyed by 0-based coframe pair, for the expert
        bundle-coupling option.
    """

    structure: ComplexStructure
    source: str
    catalog_name: str | None = None
    reading: str | None = None
    rank: int = 1
    truncation: int | None = None
    curvature: dict[tuple[int, int], ExactMatrix] | None = None


def load_config(source: object) -> AnalysisConfig:
    """Load and validate a configuration document.

    Parameters
    ----------
    source : dict, str, or pathlib.Path
        A parsed JSON object, a JSON text (anything starting with ``{``),
        or a path to a JSON file.

    Returns
    -------
    AnalysisConfig

    Raises
    ------
    ConfigError
        On any schema violation, inexact scalar, unknown key, missing
        file, or inconsistent structure data.
    """

    data = read_document(source)
    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            allowed = ", ".join(_TOP_LEVEL_KEYS)
            raise ConfigError(f"unknown key {key!r} (allowed: {allowed})")

    version = data.get("schema_version", SCHEMA_VERSION)
    _expect(
        version == SCHEMA_VERSION,
        "schema_version",
        f"unsupported value {version!r} (this build reads version {SCHEMA_VERSION})",
    )

    rank = _parse_rank(data.get("bundleRank", 1))
    truncation = _parse_truncation(data.get("truncationOrder"))

    if "catalog" in data:
        for key in ("lieAlgebra", "complexStructure"):
            _expect(
                key not in data,
                key,
                "cannot be combined with 'catalog'; pick one input style",
            )
        name, reading, structure = _from_catalog(
            data["catalog"], data.get("exampleReadingFlags")
        )
        source_label = f"catalog:{name}"
        catalog_name: str | None = name
    else:
        _expect("lieAlgebra" in data, "lieAlgebra", "required unless 'catalog' is given")
        _expect(
            "complexStructure" in data,
            "complexStructure",
            "required unless 'catalog' is given",
        )
        algebra = _parse_algebra(data["lieAlgebra"])
        structure = _parse_complex_structure(algebra, data["complexStructure"])
        _check_reading_flags(data.get("exampleReadingFlags"))
        source_label = "inline"
        catalog_name = None
        reading = None

    curvature = _parse_curvature(
        data.get("curvature"), structure.algebra.dim // 2, rank
    )

    return AnalysisConfig(
        structure=structure,
        source=source_label,
        catalog_name=catalog_name,
        reading=reading,
        rank=rank,
        truncation=truncation,
        curvature=curvature,
    )


# -- document plumbing ----------------------------------------------------


def read_document(source: object) -> dict:
    """Coerce a config source (dict, JSON text, or path) to a raw dict.

    No schema validation happens here beyond "it is a JSON object"; use
    :func:`load_config` for the full check.  This exists so callers (the
    command line, mainly) can overlay flag overrides onto the document
    before validating it.
    """

    data = _coerce_document(source)
    _expect(isinstance(data, dict), "", "configuration must be a JSON object")
    return data  # type: ignore[return-value]


def _coerce_document(source: object) -> object:
    if isinstance(source, dict):
        return source
    if isinstance(source, Path):
        return _read_file(source)
    if isinstance(source, str):
        if source.lstrip().startswith("{"):
            return _parse_text(source)
        return _read_file(Path(source))
    raise ConfigError(
        f"configuration source must be a dict, JSON text, or file path, got {type(source).__name__}"
    )


def _read_file(path: Path) -> object:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return _parse_text(text)


def _parse_text(text: str) -> object:
    try:
        return json.loads(text, parse_float=_reject_float)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def _reject_float(token: str) -> object:
    raise ConfigError(
        f'floating-point value {token} is not exact; write it as a ratio of integers such as "1/2"'
    )


def _expect(condition: object, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}" if path else message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(value: object, path: str) -> GaussianRational:
    try:
        return GaussianRational.from_json(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# -- section parsers -------------------------------------------------------


def _parse_rank(value: object) -> int:
    _expect(_is_int(value) and value >= 1, "bundleRank", f"must be an integer >= 1, got {value!r}")
    return value  # type: ignore[return-value]


def _parse_truncation(value: object) -> int | None:
    if value is None:
        return None
    # a degree-k series term needs monomials of degree k
    _expect(
        _is_int(value) and 2 <= value < DEGREE_LIMIT,
        "truncationOrder",
        f"must be an integer >= 2 and below {DEGREE_LIMIT}, got {value!r}",
    )
    return value  # type: ignore[return-value]


def _check_reading_flags(flags: object) -> str | None:
    if flags is None:
        return None
    _expect(isinstance(flags, dict), "exampleReadingFlags", "must be an object")
    for key, value in flags.items():  # type: ignore[union-attr]
        _expect(
            key == "example2",
            f"exampleReadingFlags.{key}",
            "the only entry with selectable readings is 'example2'",
        )
        _expect(
            value in ("corrected", "literal"),
            "exampleReadingFlags.example2",
            f"must be 'corrected' or 'literal', got {value!r}",
        )
    return flags.get("example2") if isinstance(flags, dict) else None


def _from_catalog(
    name: object, flags: object
) -> tuple[str, str | None, ComplexStructure]:
    _expect(isinstance(name, str), "catalog", f"must be a string, got {name!r}")
    try:
        entry = catalog_entry(name)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(f"catalog: {exc}") from None
    reading = _check_reading_flags(flags)
    if entry.name != "example2":
        reading = None
    structure = build_catalog_structure(entry.name, reading)
    return entry.name, reading, structure


def _parse_algebra(spec: object) -> LieAlgebra:
    if isinstance(spec, str):
        try:
            return parse_salamon(spec)
        except ValueError as exc:
            raise ConfigError(f"lieAlgebra: {exc}") from None
    _expect(
        isinstance(spec, dict),
        "lieAlgebra",
        "must be a structure string or an object with 'dimension' and 'constants'",
    )
    for key in spec:  # type: ignore[union-attr]
        _expect(
            key in ("dimension", "constants"),
            f"lieAlgebra.{key}",
            "unknown key (allowed: dimension, constants)",
        )
    dim = spec.get("dimension")  # type: ignore[union-attr]
    _expect(_is_int(dim) and dim >= 1, "lieAlgebra.dimension", f"must be a positive integer, got {dim!r}")
    rows = spec.get("constants")  # type: ignore[union-attr]
    _expect(isinstance(rows, list), "lieAlgebra.constants", "must be a list of constant rows")
    entries: list[tuple[int, int, int, GaussianRational]] = []
    for position, row in enumerate(rows):  # type: ignore[arg-type]
        entries.append(_parse_constant_row(row, dim, f"lieAlgebra.constants[{position}]"))
    try:
        return LieAlgebra.from_entries(dim, entries)
    except ValueError as exc:
        raise ConfigError(f"lieAlgebra: {exc}") from None


def _parse_constant_row(
    row: object, dim: int, path: str
) -> tuple[int, int, int, GaussianRational]:
    _expect(isinstance(row, list), path, f"must be a list, got {row!r}")
    if len(row) == 4:  # type: ignore[arg-type]
        i, j, k, raw = row  # type: ignore[misc]
        coeff = _scalar(raw, f"{path}[3]")
    elif len(row) == 7:  # type: ignore[arg-type]
        i, j, k, re_num, re_den, im_num, im_den = row  # type: ignore[misc]
        for slot, value in (("3", re_num), ("4", re_den), ("5", im_num), ("6", im_den)):
            _expect(_is_int(value), f"{path}[{slot}]", f"must be an integer, got {value!r}")
        _expect(re_den != 0, f"{path}[4]", "denominator cannot be zero")
        _expect(im_den != 0, f"{path}[6]", "denominator cannot be zero")
        coeff = GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))
    else:
        raise ConfigError(
            f"{path}: must be [i, j, k, c] or [i, j, k, re_num, re_den, im_num, im_den], got {len(row)} items"  # type: ignore[arg-type]
        )
    for slot, value in (("0", i), ("1", j), ("2", k)):
        _expect(
            _is_int(value) and 1 <= value <= dim,
            f"{path}[{slot}]",
            f"must be a basis index between 1 and {dim}, got {value!r}",
        )
    return i, j, k, coeff


def _parse_complex_structure(algebra: LieAlgebra, spec: object) -> ComplexStructure:
    _expect(
        isinstance(spec, dict),
        "complexStructure",
        "must be an object with exactly one of 'frame' or 'jMatrix'",
    )
    keys = set(spec)  # type: ignore[arg-type]
    _expect(
        keys in ({"frame"}, {"jMatrix"}),
        "complexStructure",
        f"needs exactly one of 'frame' or 'jMatrix', got keys {sorted(keys)!r}",
    )
    dim = algebra.dim
    if "frame" in keys:
        rows = spec["frame"]  # type: ignore[index]
        parsed = _parse_matrix(rows, dim // 2, dim, "complexStructure.frame")
        try:
            return ComplexStructure(algebra, parsed)
        except ValueError as exc:
            raise ConfigError(f"complexStructure.frame: {exc}") from None
    rows = spec["jMatrix"]  # type: ignore[index]
    parsed = _parse_matrix(rows, dim, dim, "complexStructure.jMatrix")
    try:
        return ComplexStructure.from_j_matrix(algebra, parsed)
    except ValueError as exc:
        raise ConfigError(f"complexStructure.jMatrix: {exc}") from None


def _parse_matrix(
    rows: object, nrows: int, ncols: int, path: str
) -> list[list[GaussianRational]]:
    _expect(isinstance(rows, list), path, f"must be a list of rows, got {rows!r}")
    _expect(
        len(rows) == nrows,  # type: ignore[arg-type]
        path,
        f"expected {nrows} rows, got {len(rows)}",  # type: ignore[arg-type]
    )
    parsed: list[list[GaussianRational]] = []
    for r, row in enumerate(rows):  # type: ignore[arg-type]
        _expect(
            isinstance(row, list) and len(row) == ncols,
            f"{path}[{r}]",
            f"expected a row of {ncols} scalars",
        )
        parsed.append([_scalar(value, f"{path}[{r}][{c}]") for c, value in enumerate(row)])
    return parsed


def _parse_curvature(
    spec: object, coframe_size: int, rank: int
) -> dict[tuple[int, int], ExactMatrix] | None:
    if spec is None:
        return None
    _expect(isinstance(spec, list), "curvature", "must be a list of [a, b, u, v, c] rows")
    accumulated: dict[tuple[int, int], list[list[GaussianRational]]] = {}
    zero = GaussianRational(0)
    for position, row in enumerate(spec):  # type: ignore[arg-type]
        path = f"curvature[{position}]"
        _expect(
            isinstance(row, list) and len(row) == 5,
            path,
            f"must be [a, b, u, v, c], got {row!r}",
        )
        a, b, u, v, raw = row  # type: ignore[misc]
        for slot, value, hi in (("0", a, coframe_size), ("1", b, coframe_size), ("2", u, rank), ("3", v, rank)):
            _expect(
                _is_int(value) and 1 <= value <= hi,
                f"{path}[{slot}]",
                f"must be an index between 1 and {hi}, got {value!r}",
            )
        coeff = _scalar(raw, f"{path}[4]")
        block = accumulated.setdefault(
            (a - 1, b - 1), [[zero] * rank for _ in range(rank)]
        )
        block[u - 1][v - 1] = block[u - 1][v - 1] + coeff
    matrices = {
        key: ExactMatrix(rows) for key, rows in accumulated.items()
    }
    return matrices or None
