"""Deterministic report assembly for analysis runs.

The JSON and plain-text renderings are both derived from the same report
dictionary, so every number, polynomial, and verdict agrees between the two
formats.  Dictionary insertion order is fixed and all polynomials are
rendered through their canonical string form, which makes the JSON output
byte-identical across repeated runs on the same input.
"""

from __future__ import annotations

import json

from .analysis import BlockAnalysis, StructureAnalysis, analyze_structure
from .builders import build_pair_dgla
from .config import SCHEMA_VERSION, AnalysisConfig

__all__ = [
    "run_analysis",
    "build_report",
    "build_validation_report",
    "render_json",
    "render_text",
    "render_validation_text",
    "observed_invariants",
]


def run_analysis(
    config: AnalysisConfig, *, pivot_rule: str = "earliest"
) -> StructureAnalysis:
    """Run the full analysis described by a validated config."""

    return analyze_structure(
        config.structure,
        rank=config.rank,
        truncation=config.truncation,
        pivot_rule=pivot_rule,
        curvature=config.curvature,
    )


def build_report(config: AnalysisConfig, result: StructureAnalysis) -> dict:
    """Assemble the full report dictionary for one analysis run."""

    blocks = {
        block.name: _block_payload(block)
        for block in (result.deformation, result.endomorphism, result.joint)
    }

    product_germ = None
    if result.product_germ is not None:
        product_germ = _germ_payload(result.product_germ)

    abelian = result.abelian_check
    report = {
        "schema_version": SCHEMA_VERSION,
        "conventions": {
            "scalars": "exact Gaussian rationals (a + b*i with a, b rational); no floating point",
            "termOrder": "graded reverse lexicographic",
            "pivotRule": result.pivot_rule,
            "differential": "left-invariant Chevalley-Eilenberg convention: (d w)(X, Y) = -w([X, Y])",
            "series": "x_1 = sum_a t_a h_a; x_k = -1/2 * homotopy(sum_{i+j=k} [x_i, x_j]) for k >= 2",
            "obstructions": "degree-k obstruction = harmonic coordinates of [x, x] in degree k; the ideal they generate cuts out the germ",
        },
        "input": {
            "source": config.source,
            "reading": config.reading,
            "algebraDimension": config.structure.algebra.dim,
            "bundleRank": result.rank,
            "truncationOrder": config.truncation,
            "curvature": result.pair.has_curvature(),
        },
        "classification": _classification_payload(result.classification),
        "blocks": blocks,
        "coupling": {
            "isZero": result.coupling_is_zero,
            "bracketEntryCount": len(result.pair.coupling),
            "curvature": result.pair.has_curvature(),
        },
        "productGerm": product_germ,
        "splitting": {
            "verdict": result.splitting.verdict,
            "reason": result.splitting.reason,
            "idealComparison": result.splitting.ideal_comparison,
        },
        "abelianPreservation": {
            "applicable": abelian.applicable,
            "literalContractionIdenticallyZero": abelian.literal_identically_zero,
            "twistedLocusEquations": [str(p) for p in abelian.constraints],
            "seriesCollapsesOnLocus": abelian.series_collapses_on_locus,
        },
        "degreeBounds": [
            {
                "block": check.block,
                "bound": check.bound,
                "maxGeneratorDegree": check.max_generator_degree,
                "status": check.status,
            }
            for check in result.degree_bounds
        ],
    }
    report["warnings"] = _warnings(config, result)
    return report


def _classification_payload(classification: dict) -> dict:
    return {
        "integrable": classification["integrable"],
        "abelian": classification["abelian"],
        "parallelizable": classification["parallelizable"],
        "nilpotent": classification["nilpotent"],
        "nilpotencyIndex": classification["nilpotency_index"],
    }


def _block_payload(block: BlockAnalysis) -> dict:
    series = block.series
    labels = block.dgla.basis[1]
    series_terms: dict[str, dict[str, str]] = {}
    for degree in sorted(series.series):
        if degree < 2:
            continue
        nonzero = {
            labels[i]: str(p)
            for i, p in enumerate(series.series[degree])
            if not p.is_zero()
        }
        if nonzero:
            series_terms[str(degree)] = nonzero

    obstructions_by_degree: dict[str, dict[str, str]] = {}
    for degree in sorted(series.obstructions_by_degree):
        nonzero = {
            str(i): str(p)
            for i, p in enumerate(series.obstructions_by_degree[degree])
            if not p.is_zero()
        }
        if nonzero:
            obstructions_by_degree[str(degree)] = nonzero

    certificate_data = series.certificate_data or None
    return {
        "parameters": list(series.problem.parameters),
        "harmonicRepresentatives": dict(
            zip(series.problem.parameters, block.harmonic_descriptions)
        ),
        "gradedDimensions": {
            str(p): block.dgla.dim(p) for p in sorted(block.dgla.basis)
        },
        "cohomology": {str(p): n for p, n in sorted(block.cohomology.items())},
        "truncationOrder": series.truncation_order,
        "seriesTerms": series_terms,
        "obstructions": {
            "byDegree": obstructions_by_degree,
            "generators": [str(p) for p in series.generators],
            "exact": series.exact,
            "certificate": series.certificate,
            "certificateData": certificate_data,
        },
        "germ": _germ_payload(block.germ),
    }


def _germ_payload(germ) -> dict:
    return {
        "embeddingDimension": germ.embedding_dimension,
        "generators": [str(p) for p in germ.generators],
        "generatorDegrees": list(germ.generator_degrees),
        "quadricRank": germ.quadric_rank,
        "smooth": germ.smooth,
        "dimension": germ.dimension,
        "method": germ.method,
    }


def _warnings(config: AnalysisConfig, result: StructureAnalysis) -> list[str]:
    warnings: list[str] = []
    if not result.classification["nilpotent"]:
        warnings.append(
            "the Lie algebra is not nilpotent: it may admit no lattice, so the "
            "left-invariant model may not describe a compact quotient"
        )
    for block in result.blocks():
        if not block.series.exact:
            warnings.append(
                f"{block.name} block: series truncated at order "
                f"{block.series.truncation_order} with no exactness certificate; "
                "the reported generators may be incomplete"
            )
    if config.catalog_name == "example2":
        if config.reading in (None, "corrected"):
            warnings.append(
                "example2: the corrected bracket reading is in use; the literal "
                "reading does not define an integrable complex structure"
            )
        else:
            warnings.append("example2: the literal bracket reading is in use")
    if result.pair.has_curvature():
        warnings.append(
            "curvature coupling present: the joint block mixes the two factors, "
            "so no product comparison is performed"
        )
    if result.splitting.verdict == "Inconclusive":
        warnings.append(f"splitting is inconclusive: {result.splitting.reason}")
    for check in result.degree_bounds:
        if check.status == "fail":
            warnings.append(
                f"{check.block} block: a minimal generator of degree "
                f"{check.max_generator_degree} exceeds the expected bound {check.bound}"
            )
    return warnings


def build_validation_report(config: AnalysisConfig) -> dict:
    """Check that a config builds a lawful graded Lie structure.

    Runs the construction gates (integrability of the complex structure,
    curvature compatibility, and the graded axioms enforced inside the
    builders) without computing any series.  On failure the report carries
    ``valid: false`` and the gate's message instead of the block data.
    """

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": {
            "source": config.source,
            "reading": config.reading,
            "algebraDimension": config.structure.algebra.dim,
            "bundleRank": config.rank,
            "curvature": config.curvature is not None,
        },
        "classification": _classification_payload(config.structure.classify()),
    }
    try:
        pair = build_pair_dgla(config.structure, config.rank, curvature=config.curvature)
    except ValueError as exc:
        report["valid"] = False
        report["error"] = str(exc)
        return report
    report["valid"] = True
    report["blocks"] = {
        name: {"gradedDimensions": {str(p): dgla.dim(p) for p in sorted(dgla.basis)}}
        for name, dgla in (
            ("deformation", pair.deformation),
            ("endomorphism", pair.endomorphism),
            ("joint", pair.dgla),
        )
    }
    report["axioms"] = "pass"
    return report


def render_validation_text(report: dict) -> str:
    """Render a validation report as plain text."""

    lines: list[str] = []
    push = lines.append
    push("Structure validation")
    push("=" * 20)
    inp = report["input"]
    source = inp["source"]
    if inp["reading"]:
        source += f" (reading: {inp['reading']})"
    push(f"input: {source}")
    push(
        f"algebra dimension: {inp['algebraDimension']}; bundle rank: {inp['bundleRank']}"
        + ("; curvature present" if inp["curvature"] else "")
    )
    cls = report["classification"]
    flags = [name for name in ("integrable", "abelian", "parallelizable") if cls[name]]
    nilpotency = (
        f"nilpotent (index {cls['nilpotencyIndex']})" if cls["nilpotent"] else "not nilpotent"
    )
    push(f"classification: {', '.join(flags) or '(none)'}; {nilpotency}")
    if not report["valid"]:
        push("valid: no")
        push(f"error: {report['error']}")
        return "\n".join(lines) + "\n"
    push("valid: yes (differential and bracket axioms verified on every degree)")
    for name, block in report["blocks"].items():
        dims = ", ".join(f"L^{p} = {n}" for p, n in block["gradedDimensions"].items())
        push(f"{name} dimensions: {dims}")
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    """Serialize a report dictionary to canonical JSON text."""

    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


# -- plain text ------------------------------------------------------------


def render_text(report: dict) -> str:
    """Render a report dictionary as a plain-text summary.

    Every value shown here is read from the same dictionary that
    :func:`render_json` serializes, so the two formats always agree.
    """

    lines: list[str] = []
    push = lines.append

    push("Kuranishi analysis report")
    push("=" * 25)
    inp = report["input"]
    source = inp["source"]
    if inp["reading"]:
        source += f" (reading: {inp['reading']})"
    push(f"input: {source}")
    push(
        f"algebra dimension: {inp['algebraDimension']}; bundle rank: {inp['bundleRank']}"
    )
    if inp["truncationOrder"] is not None:
        push(f"requested truncation order: {inp['truncationOrder']}")
    if inp["curvature"]:
        push("curvature coupling: present")
    conv = report["conventions"]
    push(
        f"conventions: {conv['scalars']}; term order {conv['termOrder']}; "
        f"pivot rule {conv['pivotRule']}"
    )
    cls = report["classification"]
    flags = [name for name in ("integrable", "abelian", "parallelizable") if cls[name]]
    nilpotency = (
        f"nilpotent (index {cls['nilpotencyIndex']})" if cls["nilpotent"] else "not nilpotent"
    )
    push(f"classification: {', '.join(flags)}, {nilpotency}")
    push("")

    for name in ("deformation", "endomorphism", "joint"):
        _render_block(push, name, report["blocks"][name])

    coupling = report["coupling"]
    push("coupling")
    push("-" * 8)
    push(
        f"cross-block bracket entries: {coupling['bracketEntryCount']}"
        + ("; curvature present" if coupling["curvature"] else "")
    )
    push(f"coupling is zero: {_yes_no(coupling['isZero'])}")
    push("")

    if report["productGerm"] is not None:
        push("product of block germs")
        push("-" * 22)
        _render_germ(push, report["productGerm"])
        push("")

    split = report["splitting"]
    push("splitting")
    push("-" * 9)
    push(f"verdict: {split['verdict']}")
    push(f"reason: {split['reason']}")
    push(f"ideal comparison: {split['idealComparison']}")
    push("")

    abelian = report["abelianPreservation"]
    push("abelian preservation")
    push("-" * 20)
    if not abelian["applicable"]:
        push("not applicable: the complex structure is not abelian")
    else:
        push(
            "literal contraction identically zero: "
            + _yes_no(abelian["literalContractionIdenticallyZero"])
        )
        equations = abelian["twistedLocusEquations"]
        if equations:
            push("twisted locus equations: " + ", ".join(equations))
        else:
            push("twisted locus equations: (none — every direction preserves abelianness)")
        collapse = abelian["seriesCollapsesOnLocus"]
        if collapse is not None:
            push("series collapses on the locus: " + _yes_no(collapse))
    push("")

    push("degree bounds")
    push("-" * 13)
    for check in report["degreeBounds"]:
        observed = (
            "no generators"
            if check["maxGeneratorDegree"] is None
            else f"max generator degree {check['maxGeneratorDegree']}"
        )
        push(
            f"{check['block']}: bound {check['bound']}; {observed}: {check['status']}"
        )
    push("")

    push("warnings")
    push("-" * 8)
    if report["warnings"]:
        for warning in report["warnings"]:
            push(f"- {warning}")
    else:
        push("(none)")
    return "\n".join(lines) + "\n"


def _render_block(push, name: str, block: dict) -> None:
    push(f"{name} block")
    push("-" * (len(name) + 6))
    push("parameters: " + (", ".join(block["parameters"]) or "(none)"))
    push("harmonic representatives:")
    for param in block["parameters"]:
        push(f"  {param} -> {block['harmonicRepresentatives'][param]}")
    cohomology = ", ".join(
        f"H^{p} = {n}" for p, n in block["cohomology"].items()
    )
    push(f"cohomology: {cohomology}")
    push(f"series truncation order: {block['truncationOrder']}")
    if block["seriesTerms"]:
        push("series corrections (nonzero components by degree):")
        for degree, terms in block["seriesTerms"].items():
            for label, poly in terms.items():
                push(f"  degree {degree}: {label}: {poly}")
    else:
        push("series corrections: none (the linear term is already flat)")
    obstructions = block["obstructions"]
    if obstructions["byDegree"]:
        push("obstructions (nonzero harmonic coordinates by degree):")
        for degree, coords in obstructions["byDegree"].items():
            for index, poly in coords.items():
                push(f"  degree {degree}, coordinate {index}: {poly}")
    else:
        push("obstructions: none in the computed range")
    if obstructions["exact"]:
        push(
            f"obstruction ideal: exact (certificate: {obstructions['certificate']})"
        )
        data = obstructions["certificateData"]
        if data:
            details = "; ".join(f"{key} = {value}" for key, value in data.items())
            push(f"certificate data: {details}")
    else:
        push("obstruction ideal: truncated — exactness not certified")
    generators = obstructions["generators"]
    push("minimal generators: " + (", ".join(generators) if generators else "(zero ideal)"))
    _render_germ(push, block["germ"])
    push("")


def _render_germ(push, germ: dict) -> None:
    if germ["smooth"] is True:
        shape = f"smooth of dimension {germ['dimension']}"
    elif germ["smooth"] is False:
        shape = "singular"
    else:
        shape = "smooth/singular undecided"
    push(
        f"germ: {shape} inside affine space of dimension {germ['embeddingDimension']} "
        f"(method: {germ['method']}; quadric rank {germ['quadricRank']})"
    )
    if germ["generators"]:
        push("germ generators: " + ", ".join(germ["generators"]))


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def observed_invariants(result: StructureAnalysis) -> dict[str, object]:
    """Extract the invariant tuple used by the reproduction checks.

    Shapes match :func:`kuranishi.catalog.expected_invariants`: per-block
    first cohomology, germ smoothness, germ dimension, and sorted minimal
    generator degrees, plus the splitting verdict.
    """

    blocks = result.blocks()
    return {
        "first_cohomology": tuple(b.cohomology.get(1, 0) for b in blocks),
        "germ_smooth": tuple(b.germ.smooth for b in blocks),
        "germ_dimensions": tuple(b.germ.dimension for b in blocks),
        "generator_degrees": tuple(
            tuple(sorted(b.germ.generator_degrees)) for b in blocks
        ),
        "verdict": result.splitting.verdict,
    }
