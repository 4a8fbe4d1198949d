"""Output checks on rendered JSON reports, independent of the program.

Every check is either a property the mathematics forces or a statement of
the paper kept in :mod:`workloads`; none compares against a stored copy of
the program's output.  Polynomials are read back from their printed form
and compared by exact linear algebra over the Gaussian rationals, written
here rather than borrowed from ``kuranishi``.

Each check function returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from workloads import H01, M, PAPER, ZERO, cadd, cmul

BLOCKS = ("deformation", "endomorphism", "joint")

# -- Gaussian rationals as (re, im) pairs of Fractions ---------------------


def _neg(x):
    return (-x[0], -x[1])


def _inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def parse_scalar(text: str):
    """Read a scalar printed as ``3/2``, ``-i``, ``1/2*i`` or ``1/2-3*i``."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1].rstrip("*")
    split = max(body.rfind("+"), body.rfind("-"))
    if split > 0:
        real, imag = body[:split], body[split:]
    else:
        real, imag = "0", body
    if imag in ("", "+"):
        imag = "1"
    elif imag == "-":
        imag = "-1"
    return (Fraction(real), Fraction(imag))


def _signed_terms(text: str):
    """Split a printed sum at its top-level `` + `` and `` - `` signs."""
    terms, sign, depth, start = [], 1, 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith((" + ", " - "), i):
            terms.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            i += 3
            start = i
            continue
        i += 1
    terms.append((sign, text[start:]))
    return terms


_FACTOR = re.compile(r"([A-Za-z]\w*)(?:\^(\d+))?")


def parse_poly(text: str) -> dict[tuple[str, ...], tuple]:
    """Read a printed polynomial into ``{sorted variable tuple: scalar}``."""
    poly: dict[tuple[str, ...], tuple] = {}
    if text == "0":
        return poly
    for sign, term in _signed_terms(text):
        coeff = (Fraction(sign), Fraction(0))
        if term.startswith("-"):
            coeff, term = _neg(coeff), term[1:]
        if term.startswith("("):
            close = term.index(")")
            coeff = cmul(coeff, parse_scalar(term[: close + 1]))
            term = term[close + 2 :]
        elif term[0].isdigit():
            number, _, term = term.partition("*")
            coeff = cmul(coeff, parse_scalar(number))
        variables: list[str] = []
        for factor in filter(None, term.split("*")):
            match = _FACTOR.fullmatch(factor)
            if match is None:
                raise ValueError(f"cannot read factor {factor!r} of {text!r}")
            variables += [match.group(1)] * int(match.group(2) or 1)
        key = tuple(sorted(variables))
        poly[key] = cadd(poly.get(key, ZERO), coeff)
    return {k: v for k, v in poly.items() if v != (0, 0)}


def rank(polys: list[dict]) -> int:
    """Dimension of the linear span of the given polynomials."""
    columns = sorted({k for p in polys for k in p})
    rows = [[p.get(k, ZERO) for k in columns] for p in polys]
    found = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        scale = _inv(rows[found][col])
        rows[found] = [cmul(scale, x) for x in rows[found]]
        for r in range(len(rows)):
            factor = rows[r][col]
            if r != found and factor != (0, 0):
                rows[r] = [cadd(x, _neg(cmul(factor, y))) for x, y in zip(rows[r], rows[found])]
        found += 1
    return found


# -- the checks -------------------------------------------------------------


def invariants(report: dict) -> dict:
    """The invariants that a change of frame must leave alone."""
    blocks = [report["blocks"][b] for b in BLOCKS]
    return {
        "first_cohomology": [b["cohomology"].get("1", 0) for b in blocks],
        "germ_smooth": [b["germ"]["smooth"] for b in blocks],
        "germ_dimensions": [b["germ"]["dimension"] for b in blocks],
        "generator_degrees": [sorted(b["germ"]["generatorDegrees"]) for b in blocks],
        "verdict": report["splitting"]["verdict"],
    }


def check_structure(report: dict, name: str, rank_: int) -> list[str]:
    """Facts every analysis must satisfy, whatever the structure."""
    failures = []
    blocks = report["blocks"]
    h1 = {b: blocks[b]["cohomology"].get("1", 0) for b in BLOCKS}
    if h1["joint"] != h1["deformation"] + h1["endomorphism"]:
        failures.append(
            f"H1(joint) = {h1['joint']} is not H1(def) + H1(end) = "
            f"{h1['deformation']} + {h1['endomorphism']}"
        )
    expected_end = rank_ * rank_ * H01[name]
    if h1["endomorphism"] != expected_end:
        failures.append(f"H1(end) = {h1['endomorphism']}, expected r^2 h01 = {expected_end}")
    graded = {
        "deformation": {str(p): M * comb(M, p) for p in range(M + 1)},
        "endomorphism": {str(p): rank_ * rank_ * comb(M, p) for p in range(M + 1)},
    }
    graded["joint"] = {
        p: graded["deformation"][p] + graded["endomorphism"][p] for p in graded["deformation"]
    }
    for b in BLOCKS:
        if blocks[b]["gradedDimensions"] != graded[b]:
            failures.append(
                f"{b} graded dimensions {blocks[b]['gradedDimensions']} != {graded[b]}"
            )
        if blocks[b]["germ"]["embeddingDimension"] != h1[b]:
            failures.append(f"{b} germ embedding dimension is not H1 = {h1[b]}")
    exact = {b: blocks[b]["obstructions"]["exact"] for b in BLOCKS}
    germs = [(b, blocks[b]["germ"], exact[b], h1[b]) for b in BLOCKS]
    product = report["productGerm"]
    if product is not None:
        certified = exact["deformation"] and exact["endomorphism"]
        germs.append(("product", product, certified, h1["deformation"] + h1["endomorphism"]))
    for label, germ, certified, h in germs:
        smooth_of_h = germ["smooth"] is True and germ["dimension"] == h
        if certified and not germ["generators"] and not smooth_of_h:
            failures.append(f"{label} germ has no generators but is not smooth of dimension {h}")
    verdict = report["splitting"]["verdict"]
    joint_singular = blocks["joint"]["germ"]["smooth"] is False
    product_smooth = product is not None and product["smooth"] is True
    if joint_singular and product_smooth and verdict != "DoesNotSplit":
        failures.append(f"singular joint germ beside a smooth product germ gave {verdict}")
    return failures


def check_paper(report: dict, name: str) -> list[str]:
    """The paper's rank-one statements for the entries it treats."""
    expected = PAPER.get(name)
    if expected is None:
        return []
    failures = []
    verdict = report["splitting"]["verdict"]
    if verdict != expected["verdict"]:
        failures.append(f"{name}: verdict {verdict}, the paper says {expected['verdict']}")
    if expected.get("joint_single_cross_quadric"):
        blocks = report["blocks"]
        germ = blocks["joint"]["germ"]
        t_vars = set(blocks["deformation"]["parameters"])
        s_vars = set(blocks["endomorphism"]["parameters"])
        if len(germ["generators"]) != 1 or germ["generatorDegrees"] != [2]:
            failures.append(
                f"{name}: joint germ is not cut out by one quadric: {germ['generators']}"
            )
        else:
            used = {v for key in parse_poly(germ["generators"][0]) for v in key}
            if not (used & t_vars and used & s_vars):
                failures.append(
                    f"{name}: the joint quadric does not mix t and s: {germ['generators'][0]}"
                )
        if germ["smooth"] is not False:
            failures.append(f"{name}: joint germ is not singular")
    return failures


_REP_LABEL = re.compile(r"a(\d+)\*E(\d)(\d)$")


def parameter_matrices(block: dict, rank_: int) -> list[list[list[dict]]]:
    """``A[a][u][v]``: the (u, v) entry of the matrix multiplying (0,1)-form a.

    Read from the endomorphism block's harmonic representatives, each a
    combination of labels ``a<form>*E<u><v>``; entries are linear
    polynomials in the block's parameters.
    """
    matrices = [[[{} for _ in range(rank_)] for _ in range(rank_)] for _ in range(M)]
    for param, description in block["harmonicRepresentatives"].items():
        for sign, term in _signed_terms(description):
            match = _REP_LABEL.search(term)
            if match is None:
                raise ValueError(f"unexpected representative {description!r}")
            prefix = term[: match.start()]
            if prefix in ("", "-"):
                coeff = (Fraction(-1 if prefix else 1), Fraction(0))
            else:
                coeff = parse_scalar(prefix[:-1])
            coeff = cmul(coeff, (Fraction(sign), Fraction(0)))
            a, u, v = (int(g) - 1 for g in match.groups())
            entry = matrices[a][u][v]
            entry[(param,)] = cadd(entry.get((param,), ZERO), coeff)
    return matrices


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            key = tuple(sorted(kp + kq))
            out[key] = cadd(out.get(key, ZERO), cmul(cp, cq))
    return out


def commutator_quadrics(matrices, rank_: int) -> list[dict]:
    """Entries of ``[A_a, A_b]`` for a < b."""
    quadrics = []
    for a in range(M):
        for b in range(a + 1, M):
            for u in range(rank_):
                for v in range(rank_):
                    entry: dict = {}
                    for w in range(rank_):
                        for key, c in _poly_mul(matrices[a][u][w], matrices[b][w][v]).items():
                            entry[key] = cadd(entry.get(key, ZERO), c)
                        for key, c in _poly_mul(matrices[b][u][w], matrices[a][w][v]).items():
                            entry[key] = cadd(entry.get(key, ZERO), _neg(c))
                    quadrics.append({k: c for k, c in entry.items() if c != (0, 0)})
    return quadrics


def check_singular(report: dict, rank_: int, commuting_dimension: int) -> list[str]:
    """Rank-two facts: commutator quadrics, commuting-variety dimension, no split."""
    failures = []
    block = report["blocks"]["endomorphism"]
    germ = block["germ"]
    generators = [parse_poly(g) for g in germ["generators"]]
    if any(len(k) != 2 for g in generators for k in g):
        failures.append("an endomorphism generator is not a quadric")
    quadrics = commutator_quadrics(parameter_matrices(block, rank_), rank_)
    both = rank(generators + quadrics)
    if not rank(generators) == rank(quadrics) == both:
        failures.append(
            f"endomorphism quadrics (rank {rank(generators)}) do not span the commutator "
            f"entries (rank {rank(quadrics)}, joint rank {both})"
        )
    if germ["dimension"] is not None and germ["dimension"] != commuting_dimension:
        failures.append(f"endomorphism germ dimension {germ['dimension']} != {commuting_dimension}")
    verdict = report["splitting"]["verdict"]
    if verdict.startswith("Splits"):
        failures.append(f"rank-two verdict {verdict} claims a splitting")
    return failures


def check_analysis(report: dict, item: dict, reference: dict | None = None) -> list[str]:
    """Every check that applies to one analysis of a workload."""
    failures = check_structure(report, item["name"], item["rank"])
    if item["rank"] == 1:
        failures += check_paper(report, item["name"])
    if "commuting_dimension" in item:
        failures += check_singular(report, item["rank"], item["commuting_dimension"])
    if reference is not None:
        ours, theirs = invariants(report), invariants(reference)
        for key in ours:
            if ours[key] != theirs[key]:
                failures.append(
                    f"{item['name']}: {key} {ours[key]} differs from the catalog frame's "
                    f"{theirs[key]}"
                )
    return failures
