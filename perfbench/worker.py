"""One analysis in a fresh interpreter, as ``kuranishi analyze --format json``.

Usage: ``python3 -I perfbench/worker.py REQUEST_JSON``

The request names the config document, whether to stop once the config is
loaded, whether to trace, and whether to run the axiom-gate probe
afterwards.  The worker makes the same public calls as the command line --
``config.load_config``, ``report.run_analysis``, ``report.build_report``,
``report.render_json`` -- and prints one JSON object: the monotonic clock
reading when the config was loaded and, unless it stopped there, the
analysis wall time, the peak resident set, the rendered report, and, when
asked, the span summary and the gate probe's outcome.
``CLOCK_MONOTONIC`` is shared by every process on the machine, so the
benchmark subtracts its own reading taken before it started this process to
get the set-up time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402
import resource  # noqa: E402

from kuranishi import config, report  # noqa: E402


def gate_rejects_broken_antisymmetry(dgla) -> bool:
    """Whether ``validate_dgla`` rejects a copy with one unmirrored bracket.

    The copy adds the first degree-zero basis element to ``[x0, x1]`` and
    leaves ``[x1, x0]`` alone, so graded antisymmetry fails on that pair
    whatever the bracket was before.
    """
    from kuranishi.dgla import Dgla, DglaAxiomError, validate_dgla
    from kuranishi.scalars import ONE, ZERO

    pair = ((0, 0), (0, 1))
    brackets = {key: dict(entry) for key, entry in dgla.brackets.items()}
    entry = brackets.setdefault(pair, {})
    entry[0] = entry.get(0, ZERO) + ONE
    broken = Dgla(dgla.basis, dgla.differentials, brackets)
    try:
        validate_dgla(broken)
    except DglaAxiomError as exc:
        return "antisymmetric" in str(exc)
    return False


def main() -> None:
    request = json.loads(sys.argv[1])
    tracer = None
    if request["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cfg = config.load_config(request["document"])
    loaded = time.monotonic_ns()
    if request["setup_only"]:
        sys.stdout.write(json.dumps({"loaded_ns": loaded}))
        return
    covered_before = tracer.top_level_ns if tracer else 0
    started = time.perf_counter_ns()
    result = report.run_analysis(cfg)
    if tracer:
        with tracer.span("report.render"):
            text = report.render_json(report.build_report(cfg, result))
    else:
        text = report.render_json(report.build_report(cfg, result))
    wall = time.perf_counter_ns() - started
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"loaded_ns": loaded, "wall_s": wall / 1e9, "rss_kib": rss_kib, "report": text}
    if tracer:
        out["trace"] = tracer.summary()
        out["trace"]["covered_s"] = (tracer.top_level_ns - covered_before) / 1e9
    if request["gate_probe"]:
        out["gate_rejects"] = gate_rejects_broken_antisymmetry(result.pair.dgla)
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main()
