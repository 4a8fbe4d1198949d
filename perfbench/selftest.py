"""Self-test of the benchmark's output checks.

Usage: ``python3 perfbench/selftest.py`` from the root of a source checkout.

Runs four real analyses (example1 and iwasawa at rank one, example1 at rank
two, and n9 in a mixed frame beside its catalog frame), confirms that every
check passes on them, then feeds each check a deliberately wrong answer --
a flipped verdict, a dropped commutator quadric, a wrong dimension, a
differing second report, a gate that accepts everything -- and expects the
check to fail.  Exits 1 if any wrong answer gets through.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def analyse(document: dict) -> dict:
    record = run.spawn(document)
    if record is None:
        raise SystemExit("a self-test analysis failed")
    return record


def main() -> int:
    e1 = workloads.analyses("catalog-r1", 1)[0]
    iwasawa = workloads.analyses("catalog-r1", 1)[2]
    singular = workloads.analyses("singular-r2", 1)[0]
    n9 = workloads.analyses("frames-r1", 1)[4]
    assert (e1["name"], iwasawa["name"], n9["name"]) == ("example1", "iwasawa", "n9")
    records = {
        "e1": analyse(e1["document"]),
        "iwasawa": analyse(iwasawa["document"]),
        "singular": analyse(singular["document"]),
        "n9": analyse(n9["document"]),
        "n9-catalog": analyse(n9["reference"]),
    }
    reports = {key: json.loads(record["report"]) for key, record in records.items()}
    items = {"e1": e1, "iwasawa": iwasawa, "singular": singular, "n9": n9}

    missed = []

    def expect(label: str, key: str, *edits, reference=None) -> None:
        """Apply ``(path, value)`` edits to a copy of a report; expect a failure.

        ``path`` is slash-separated; a callable ``value`` maps the old value.
        """
        good = checks.check_analysis(reports[key], items[key], reference)
        if good:
            missed.append(f"{label}: the unmodified report already fails: {good}")
            return
        bad = copy.deepcopy(reports[key])
        for path, value in edits:
            *parents, last = path.split("/")
            target = bad
            for step in parents:
                target = target[step]
            target[last] = value(target[last]) if callable(value) else value
        found = checks.check_analysis(bad, items[key], reference)
        print(f"{'caught' if found else 'MISSED'}  {label}" + (f"  ({found[0]})" if found else ""))
        if not found:
            missed.append(label)

    def plus_one(n):
        return n + 1

    expect("H1(joint) off by one", "iwasawa", ("blocks/joint/cohomology/1", plus_one))
    expect(
        "H1(end) not r^2 h01",
        "iwasawa",
        ("blocks/endomorphism/cohomology/1", plus_one),
        ("blocks/joint/cohomology/1", plus_one),
    )
    expect("deformation graded dim", "e1", ("blocks/deformation/gradedDimensions/2", plus_one))
    expect("endomorphism graded dim", "singular", ("blocks/endomorphism/gradedDimensions/0", 1))
    expect("generator-free germ not smooth", "iwasawa", ("blocks/deformation/germ/smooth", None))
    expect("generator-free germ of wrong dimension", "e1", ("blocks/deformation/germ/dimension", 3))
    expect("generator-free product germ of wrong dim", "iwasawa", ("productGerm/dimension", 7))
    expect(
        "singular beside smooth without DoesNotSplit",
        "singular",
        ("blocks/joint/germ/smooth", False),
        ("productGerm/smooth", True),
    )
    expect("example1 verdict flipped", "e1", ("splitting/verdict", "SplitsAfterReparameterization"))
    expect("iwasawa verdict flipped", "iwasawa", ("splitting/verdict", "DoesNotSplit"))
    expect("example1 joint quadric without s", "e1", ("blocks/joint/germ/generators", ["t1*t2"]))
    expect(
        "example1 joint germ with two quadrics",
        "e1",
        ("blocks/joint/germ/generators", lambda g: g + ["t1*t2"]),
        ("blocks/joint/germ/generatorDegrees", [2, 2]),
    )
    expect(
        "commutator quadric dropped",
        "singular",
        ("blocks/endomorphism/germ/generators", lambda g: g[1:]),
    )
    expect(
        "commutator quadric replaced",
        "singular",
        ("blocks/endomorphism/germ/generators", lambda g: [g[0].replace(" - ", " + ", 1)] + g[1:]),
    )
    expect(
        "endomorphism germ dimension 7",
        "singular",
        ("blocks/endomorphism/germ/smooth", True),
        ("blocks/endomorphism/germ/dimension", 7),
    )
    expect("rank-two verdict splits", "singular", ("splitting/verdict", "SplitsByDirectSum"))
    expect(
        "mixed frame changes a generator degree",
        "n9",
        ("blocks/joint/germ/generatorDegrees", [3]),
        reference=reports["n9-catalog"],
    )
    expect(
        "mixed frame changes the verdict",
        "n9",
        ("splitting/verdict", "SplitsByDirectSum"),
        reference=reports["n9-catalog"],
    )

    # Checks made by the run rather than on one report.
    record = dict(records["iwasawa"], gate_rejects=True)
    changed = dict(record, sha256="0" * 64)
    accepted = dict(record, gate_rejects=False)
    for label, passes in (
        ("report differs between passes", [[record], [changed]]),
        ("gate accepted a broken bracket", [[accepted], [accepted]]),
    ):
        baseline = run.check_run([iwasawa], [[record], [record]], {}, True)
        found = run.check_run([iwasawa], passes, {}, True)
        ok = not baseline and found
        print(f"{'caught' if ok else 'MISSED'}  {label}")
        if not ok:
            missed.append(label)

    # The gate probe itself: with validate_dgla made to accept everything,
    # the probe must report that the broken copy got through.
    import kuranishi.dgla
    from kuranishi.builders import build_pair_dgla
    from kuranishi.catalog import build_catalog_structure
    from worker import gate_rejects_broken_antisymmetry

    dgla = build_pair_dgla(build_catalog_structure("torus"), 1).dgla
    honest = gate_rejects_broken_antisymmetry(dgla)
    kuranishi.dgla.validate_dgla = lambda _: None
    fooled = gate_rejects_broken_antisymmetry(dgla)
    ok = honest and not fooled
    print(f"{'caught' if ok else 'MISSED'}  gate probe with a gate that accepts everything")
    if not ok:
        missed.append("gate probe")

    if missed:
        print(f"{len(missed)} wrong answers got through: {missed}")
        return 1
    print("every wrong answer was caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
