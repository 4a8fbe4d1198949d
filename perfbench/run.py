"""Benchmark of the exact Kuranishi engine, timed end to end and per layer.

Usage::

    python3 perfbench/run.py --workload catalog-r1 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every analysis runs in a fresh interpreter (``worker.py``), one
at a time, making the same public calls as ``kuranishi analyze --format
json``.  A run repeats whole passes over the workload's analyses while the
next pass, if as long as the longest so far, would end within
``--seconds``, with at least ``MIN_PASSES`` passes; then it checks every
report (``checks.py``) and prints one JSON object as the last line of
standard output.

With ``--trace 0`` the metrics are the end-to-end ones:

``wall_s``
    Config loaded to JSON rendered: each analysis's median over the run's
    passes, summed over the analyses of a pass.
``setup_s``
    Process start to config loaded (interpreter start, ``import kuranishi``
    and ``load_config``); the median over every analysis process of the run
    and ``SETUP_SAMPLES`` processes that stop once the config is loaded.
``peak_rss_mib``
    The largest ``ru_maxrss`` of any analysis process of the run.

With ``--trace 1`` each round is an untraced pass followed by a traced one,
and the metrics are the per-layer ones: for every span the median over the
traced passes of its per-pass total, the share of ``wall_s`` that the spans
cover, and the tracing overhead against the untraced passes.

Results go to ``perfbench/out/``: one JSON file per run with every sample,
and for traced runs one line per traced analysis with its span summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
# Processes that only set up (start, import, load the config) and exit, so
# that setup_s has many samples even when a pass is one long analysis.
SETUP_SAMPLES = 12
# Every process the run starts is killed at this many seconds after the run
# began, so a hanging analysis counts as failed and the run still ends.
DEADLINE_S = 170
DEADLINE = time.monotonic() + DEADLINE_S

# Per-layer metrics: (span, field).  "s" is inclusive time, "self_s"
# excludes child spans, "calls" counts entries.
LAYER_METRICS = (
    ("config.load_config", "s"),
    ("dgla.validate_dgla", "s"),
    ("dgla.validate_dgla", "calls"),
    ("builders.build_pair_dgla", "self_s"),
    ("linalg.rref", "s"),
    ("linalg.rref", "calls"),
    ("dgla.hodge_decomposition", "self_s"),
    ("engine.expand_series", "s"),
    ("engine.analyze_obstructions", "self_s"),
    ("groebner.minimalize_generators", "s"),
    ("groebner.ideal_membership", "calls"),
    ("groebner.groebner_basis", "self_s"),
    ("groebner.groebner_basis", "calls"),
    ("groebner.normal_form", "s"),
    ("groebner.normal_form", "calls"),
    ("groebner.reduced_groebner_basis", "calls"),
    ("engine.germ_invariants", "self_s"),
    ("engine.assess_splitting", "s"),
    ("analysis.analyze_structure", "self_s"),
    ("report.render", "s"),
)


def spawn(
    document: dict, *, setup_only: bool = False, trace: bool = False, gate_probe: bool = False
) -> dict | None:
    """Run one analysis in a fresh interpreter; None if it failed."""
    request = json.dumps(
        {"document": document, "setup_only": setup_only, "trace": trace, "gate_probe": gate_probe}
    )
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), request],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(DEADLINE - time.monotonic(), 0.1),
        )
    except subprocess.TimeoutExpired:
        print(f"analysis stopped at the run's deadline: {request[:200]}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"analysis failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    out = json.loads(proc.stdout)
    out["setup_s"] = (out.pop("loaded_ns") - spawned) / 1e9
    if not setup_only:
        out["sha256"] = hashlib.sha256(out["report"].encode()).hexdigest()
    return out


def run_pass(items: list[dict], *, trace: bool, gate_probe: bool) -> list[dict | None]:
    return [spawn(item["document"], trace=trace, gate_probe=gate_probe) for item in items]


def check_run(items, passes, references, gate_probe) -> list[str]:
    """Check the reports of every pass; return the failure messages."""
    failures = []
    for index, item in enumerate(items):
        records = [p[index] for p in passes if p[index] is not None]
        if not records:
            continue
        if len({r["sha256"] for r in records}) != 1:
            failures.append(f"{item['name']}: JSON report differs between passes")
        reference = references.get(item["name"])
        for problem in checks.check_analysis(json.loads(records[0]["report"]), item, reference):
            failures.append(f"{item['name']} rank {item['rank']}: {problem}")
        if gate_probe and not records[0].get("gate_rejects"):
            failures.append(
                f"{item['name']}: validate_dgla accepted a bracket that is not antisymmetric"
            )
    return failures


def pass_wall(passes: list[list[dict]]) -> float:
    """Each analysis's median wall time over the passes, summed over a pass."""
    return sum(statistics.median(r["wall_s"] for r in column) for column in zip(*passes))


def layer_metrics(traced_passes: list[list[dict]], untraced_passes: list[list[dict]]) -> dict:
    metrics = {}
    for span, field in LAYER_METRICS:
        totals = [
            sum(r["trace"]["spans"].get(span, {}).get(field, 0) for r in records)
            for records in traced_passes
        ]
        if field == "calls":
            metrics[f"{span}.{field}"] = {"value": statistics.median_low(totals), "unit": "count"}
        else:
            metrics[f"{span}.{field}"] = {"value": statistics.median(totals), "unit": "s"}
    for counter, span in (
        ("redundant", "groebner.ideal_membership"),
        ("distinct_inputs", "groebner.reduced_groebner_basis"),
    ):
        totals = [sum(r["trace"][counter] for r in records) for records in traced_passes]
        metrics[f"{span}.{counter}"] = {"value": statistics.median_low(totals), "unit": "count"}
    traced_walls = [sum(r["wall_s"] for r in records) for records in traced_passes]
    coverage = [
        100 * sum(r["trace"]["covered_s"] for r in records) / wall
        for records, wall in zip(traced_passes, traced_walls)
    ]
    metrics["trace.coverage"] = {"value": statistics.median(coverage), "unit": "%"}
    overhead = 100 * (pass_wall(traced_passes) / pass_wall(untraced_passes) - 1)
    metrics["trace.overhead"] = {"value": overhead, "unit": "%"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kuranishi" / "__init__.py").is_file():
        print(f"no kuranishi sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    items = workloads.analyses(args.workload, args.seed)
    gate_probe = all(item["rank"] == 1 for item in items)
    trace = bool(args.trace)

    # Untimed: a first analysis compiles the bytecode, and frames-r1 needs
    # each structure once in its catalog frame to compare invariants with.
    if spawn(workloads.catalog_document("torus", 1)) is None:
        return 1
    references = {}
    failures = []
    for item in items:
        if "reference" in item:
            record = spawn(item["reference"])
            if record is None:
                return 1
            reference = json.loads(record["report"])
            problems = checks.check_analysis(reference, item)
            failures += [f"{item['name']} catalog frame: {p}" for p in problems]
            references[item["name"]] = reference

    setups = [
        spawn(items[i % len(items)]["document"], setup_only=True) for i in range(SETUP_SAMPLES)
    ]

    untraced: list[list[dict | None]] = []
    traced: list[list[dict | None]] = []
    minimum = MIN_TRACED_ROUNDS if trace else MIN_PASSES
    started = time.monotonic()
    longest = 0.0
    while time.monotonic() < DEADLINE and (
        len(untraced) < minimum or time.monotonic() - started + longest <= args.seconds
    ):
        began = time.monotonic()
        untraced.append(run_pass(items, trace=False, gate_probe=gate_probe and not untraced))
        if trace:
            traced.append(run_pass(items, trace=True, gate_probe=False))
        longest = max(longest, time.monotonic() - began)

    every = untraced + traced
    attempted = sum(len(p) for p in every)
    failed = sum(1 for p in every for r in p if r is None)
    if None in setups:
        failures.append("a set-up process failed")
    failures += check_run(items, every, references, gate_probe)
    for problem in failures:
        print(f"check failed: {problem}", file=sys.stderr)

    complete_untraced = [p for p in untraced if None not in p]
    complete_traced = [p for p in traced if None not in p]
    if not complete_untraced or (trace and not complete_traced):
        print("no pass completed", file=sys.stderr)
        return 1
    if trace:
        metrics = layer_metrics(complete_traced, complete_untraced)
    else:
        records = [r for p in complete_untraced for r in p]
        metrics = {
            "wall_s": {"value": pass_wall(complete_untraced), "unit": "s"},
            "setup_s": {
                "value": statistics.median(r["setup_s"] for r in records + setups if r),
                "unit": "s",
            },
            "peak_rss_mib": {"value": max(r["rss_kib"] for r in records) / 1024, "unit": "MiB"},
        }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "passes": [
            [None if r is None else {k: v for k, v in r.items() if k != "report"} for r in p]
            for p in every
        ],
        "metrics": metrics,
        "failures": failures,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(samples, indent=1) + "\n")
    if trace:
        with open(out_dir / f"{stem}.trace.jsonl", "w") as handle:
            for number, records in enumerate(complete_traced):
                for item, record in zip(items, records):
                    line = {"pass": number, "analysis": item["name"], "rank": item["rank"]}
                    handle.write(json.dumps({**line, **record["trace"]}) + "\n")

    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
