"""Kuranishi-space engine: deformation series, obstruction ideals, germs.

Given a DGLA built by :mod:`kuranishi.builders`, this module

* sets up the deformation problem: parameters indexed by the canonical
  harmonic representatives of degree one, and the polynomial-valued linear
  term of the deformation series;
* expands the series recursively, degree by degree — the degree-k
  correction is ``-1/2`` times the contracting homotopy applied to the
  degree-k part of the self-bracket — and collects the per-degree
  obstruction coordinates (harmonic components of the self-bracket).  The
  recursion is fraction-free: the degree-one bracket, the homotopy and the
  harmonic coordinates are multiplied once by the lcm of their
  denominators, each term is held as Gaussian-integer numerators over one
  denominator, and every step is an exact integer identity, so the terms
  are the rational ones.  It stops computing once the degree exceeds twice
  the last nonzero one: there every pair of the self-bracket meets a zero
  term, which is the termination certificate's argument;
* certifies exactness of the resulting obstruction ideal by one of three
  routes (termination doubling, bracket closure of the harmonic span, or a
  rational fixed point for the correction tail), falling back to an honest
  truncation that refuses to certify; both span routes read their first
  round of brackets off the series' degree-two term and evaluate the rest
  on the same integer views as the series;
* decides smoothness of the resulting cone germ through a decision tree
  whose workhorse is a budgeted decomposition of the variety into linear
  leaves; the germ's reduced basis finishes the one the generator
  minimalization began, and each branch extends its parent's basis;
* builds the product of two block germs from their reduced bases, with no
  Groebner run, and issues a splitting verdict by comparing the joint germ's
  reduced basis with the product germ's.

Everything is exact over the Gaussian rationals; no step depends on
floating point or on randomized choices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dgla import Dgla, HodgeDegree, hodge_decomposition, integer_view
from .groebner import (
    MinimalGenerators,
    extend_reduced_basis,
    minimalize_generators,
    normal_form,
    reduced_groebner_basis,
)
from .linalg import EchelonBasis, ExactMatrix, Vector
from .poly import (
    MultiPoly,
    PolyRing,
    poly_matrix_det,
    pure_linear_power,
    quadric_split,
)
from .scalars import ZERO, GaussianRational

__all__ = [
    "GermInvariants",
    "KuranishiProblem",
    "SeriesAnalysis",
    "SplittingAssessment",
    "assess_splitting",
    "analyze_obstructions",
    "expand_series",
    "germ_invariants",
    "kuranishi_problem",
    "product_of_germs",
]

#: node budget of the leaf decomposition in the germ decision tree
LEAF_BUDGET = 200


# -- problem setup ------------------------------------------------------------


@dataclass
class KuranishiProblem:
    """A DGLA together with the canonical data the series expansion needs."""

    dgla: Dgla
    hodge: dict[int, HodgeDegree]
    ring: PolyRing
    parameters: list[str]
    harmonic_reps: list[Vector]
    linear_term: list[MultiPoly]

    @functools.cached_property
    def _series_kernel(self) -> "_SeriesKernel":
        """Integer views for the series recursion, built on first use."""
        return _SeriesKernel(self)

    def homotopy(self, degree: int) -> ExactMatrix:
        record = self.hodge.get(degree)
        if record is not None:
            return record.homotopy
        return ExactMatrix.zeros(self.dgla.dim(degree - 1), self.dgla.dim(degree))


def kuranishi_problem(
    dgla: Dgla,
    parameter_names: Sequence[str] | None = None,
    *,
    prefix: str = "t",
    pivot_rule: str = "earliest",
) -> KuranishiProblem:
    """Set up the deformation problem of a DGLA.

    Parameters are named ``prefix1, prefix2, ...`` (or explicitly via
    ``parameter_names``), one per canonical degree-one harmonic
    representative, in kernel-basis order.
    """
    hodge = hodge_decomposition(dgla, pivot_rule)
    reps = hodge[1].harmonic if 1 in hodge else []
    if parameter_names is None:
        names = [f"{prefix}{i + 1}" for i in range(len(reps))]
    else:
        names = list(parameter_names)
        if len(names) != len(reps):
            raise ValueError(
                f"{len(names)} parameter names for {len(reps)} harmonic directions"
            )
    ring = PolyRing(names)
    linear = [ring.zero() for _ in range(dgla.dim(1))]
    for name, rep in zip(names, reps):
        variable = ring.var(name)
        for position, coeff in enumerate(rep):
            if not coeff.is_zero():
                linear[position] = linear[position] + variable.scale(coeff)
    return KuranishiProblem(
        dgla=dgla,
        hodge=hodge,
        ring=ring,
        parameters=names,
        harmonic_reps=list(reps),
        linear_term=linear,
    )


# -- series expansion ---------------------------------------------------------

#: A polynomial with Gaussian-integer coefficients: packed monomial to ``(x, y)``,
#: standing for ``x + y*i``; no zero coefficients are stored.
IntPoly = dict[int, tuple[int, int]]

#: ``(D, rows)``: the vector of polynomials ``rows[c] / D``, with ``D > 0``.
IntVector = tuple[int, list[IntPoly]]


def _matrix_view(matrix: ExactMatrix) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """``(D, rows)``: each row of ``D * matrix`` as ``(column, x, y)`` for
    its nonzero entries ``x + y*i``, ``D`` the lcm of the denominators."""
    scale, view = integer_view(
        {
            r: {c: v for c, v in enumerate(row) if not v.is_zero()}
            for r, row in enumerate(matrix.rows)
        }
    )
    return scale, [[(c, x, y) for c, (x, y) in view[r].items()] for r in range(matrix.nrows)]


def _accumulate(
    acc: dict[int, list[int]], poly: Mapping, x: int, y: int, monomial: int = 0
) -> None:
    """``acc += (x + y*i) * monomial * poly`` on ``[re, im]`` cells, where
    ``poly`` maps monomials to ``(re, im)`` pairs."""
    get = acc.get
    for m, (p, q) in poly.items():
        m += monomial
        re, im = x * p - y * q, x * q + y * p
        cell = get(m)
        if cell is None:
            acc[m] = [re, im]
        else:
            cell[0] += re
            cell[1] += im


def _nonzero(cells: dict[int, list[int]]) -> IntPoly:
    return {m: (re, im) for m, (re, im) in cells.items() if re or im}


def _apply(rows: list[list[tuple[int, int, int]]], vec: list[IntPoly]) -> list[IntPoly]:
    """The integer matrix ``rows`` (a :func:`_matrix_view`) times ``vec``."""
    out = []
    for row in rows:
        cells: dict[int, list[int]] = {}
        for c, x, y in row:
            if vec[c]:
                _accumulate(cells, vec[c], x, y)
        out.append(_nonzero(cells))
    return out


def _numerators(vec: Sequence[MultiPoly]) -> IntVector:
    scale, view = integer_view(dict(enumerate(p.terms for p in vec)))
    return scale, [view[c] for c in range(len(vec))]


def _content_reduced(den: int, rows: list[IntPoly]) -> IntVector:
    """``(den, rows)`` divided by the gcd of ``den`` and every coefficient part."""
    g = den
    for row in rows:
        for x, y in row.values():
            g = math.gcd(g, x, y)
            if g == 1:
                return den, rows
    return den // g, [{m: (x // g, y // g) for m, (x, y) in row.items()} for row in rows]


class _SeriesKernel:
    """Integer views of the maps that the series and the certificates apply.

    ``brackets`` maps ``(a, b)`` with ``a <= b`` to the degree-one bracket
    entry ``[e_a, e_b]`` as ``[(c, x, y), ...]``, over ``D_b``.  The bracket
    of two degree-one elements is symmetric (the axiom gate has checked
    graded antisymmetry), so an entry with ``a < b`` stands for both orders
    and carries a factor 2.  ``correction_rows`` are the rows of ``-H``,
    the negated homotopy ``L^2 -> L^1``, over ``D_h``, and
    ``coordinate_rows`` those of the harmonic coordinates of degree two,
    over ``D_c``, and ``linear`` is the linear term of the series.
    """

    def __init__(self, problem: KuranishiProblem) -> None:
        dgla = problem.dgla
        self.ring = problem.ring
        self.dim2 = dgla.dim(2)
        one_one = {
            (a, b): entry
            for ((i, a), (j, b)), entry in dgla.brackets.items()
            if i == j == 1 and a <= b
        }
        self.bracket_scale, view = integer_view(one_one)
        self.brackets = {}
        for (a, b), entry in view.items():
            f = 1 if a == b else 2
            self.brackets[a, b] = [(c, f * x, f * y) for c, (x, y) in entry.items()]
        self.homotopy_scale, homotopy = _matrix_view(problem.homotopy(2))
        self.correction_rows = [[(c, -x, -y) for c, x, y in row] for row in homotopy]
        record = problem.hodge.get(2)
        self.coordinate_scale, self.coordinate_rows = _matrix_view(
            record.harmonic_coordinates if record is not None else ExactMatrix([], ncols=0)
        )
        self.linear = _numerators(problem.linear_term)

    def constant(self, vec: Sequence[GaussianRational]) -> IntVector:
        """The scalar vector ``vec`` as polynomials of degree zero."""
        return _numerators([self.ring.constant(c) for c in vec])

    @staticmethod
    def scalars(vec: IntVector) -> list[GaussianRational]:
        """The constant vector ``vec`` as scalars."""
        den, rows = vec
        return [GaussianRational.from_triple(*row[0], den) if row else ZERO for row in rows]

    def polys(self, den: int, rows: list[IntPoly]) -> list[MultiPoly]:
        ring, make = self.ring, GaussianRational.from_triple
        return [
            MultiPoly(ring, {m: make(x, y, den) for m, (x, y) in row.items()})
            for row in rows
        ]

    def bracket_sum(self, pairs: Sequence[tuple[IntVector, IntVector]]) -> IntVector:
        """The sum over ``(u, v)`` in ``pairs`` of ``[u, v]``, doubled when
        ``u`` is not ``v``, in degree two.  It is put over ``D_b * L``, with
        ``L`` the lcm of the pairs' ``D_u * D_v``: each pair's products are
        scaled by ``L / (D_u * D_v)``.

        Only pairs of nonzero rows of the operands are visited.  An entry
        ``(a, b)`` with ``a < b`` already carries the factor 2 of its two
        orders, so for ``u is v`` each unordered pair of rows of ``u`` is
        taken once.  For distinct operands the rows ``a`` of ``u`` and ``b``
        of ``v`` meet both ways round, ``u_a v_b`` and ``u_b v_a`` under the
        same entry, which with the factor 2 gives ``2[u, v]``; on the
        diagonal ``a == b`` only one product exists, so it is doubled."""
        common = math.lcm(*(du * dv for (du, _), (dv, _) in pairs))
        brackets = self.brackets
        products: dict[tuple[int, int], dict[int, list[int]]] = {}

        def multiply(key: tuple[int, int], f: IntPoly, g: IntPoly, scale: int) -> None:
            acc = products.setdefault(key, {})
            for m, (x, y) in f.items():
                _accumulate(acc, g, scale * x, scale * y, m)

        for (du, u), (dv, v) in pairs:
            scale = common // (du * dv)
            rows_u = [a for a, row in enumerate(u) if row]
            if u is v:
                for i, a in enumerate(rows_u):
                    for b in rows_u[i:]:
                        if (a, b) in brackets:
                            multiply((a, b), u[a], u[b], scale)
                continue
            rows_v = [b for b, row in enumerate(v) if row]
            for a in rows_u:
                for b in rows_v:
                    key = (a, b) if a <= b else (b, a)
                    if key in brackets:
                        multiply(key, u[a], v[b], 2 * scale if a == b else scale)
        out: list[dict[int, list[int]]] = [{} for _ in range(self.dim2)]
        for key, product in products.items():
            for c, x, y in brackets[key]:
                _accumulate(out[c], product, x, y)
        return self.bracket_scale * common, [_nonzero(cells) for cells in out]

    def correction(self, bracket: IntVector) -> IntVector:
        """``-1/2`` times the homotopy of ``bracket``, in lowest terms."""
        den, rows = bracket
        return _content_reduced(
            2 * self.homotopy_scale * den, _apply(self.correction_rows, rows)
        )

    def coordinates(self, bracket: IntVector) -> list[MultiPoly]:
        """The harmonic coordinates of ``bracket``."""
        den, rows = bracket
        return self.polys(self.coordinate_scale * den, _apply(self.coordinate_rows, rows))

    def delta(self, u: IntVector, v: IntVector) -> IntVector:
        """``correction(bracket_sum([(u, v)]))``: ``-H[u, v]`` when ``u`` is
        not ``v`` and ``-1/2 H[u, u]`` when it is, so always a nonzero
        multiple of ``H[u, v]``.  A span of such vectors, and whether one
        vanishes, do not depend on that factor."""
        return self.correction(self.bracket_sum([(u, v)]))


def expand_series(
    problem: KuranishiProblem, order: int
) -> tuple[dict[int, list[MultiPoly]], dict[int, list[MultiPoly]]]:
    """Expand the deformation series and its obstructions up to ``order``.

    Returns ``(series, obstructions)``: ``series[k]`` is the degree-k term
    of the series as a polynomial-valued degree-one coordinate vector
    (``series[1]`` is the linear term) and ``obstructions[k]`` lists the
    harmonic coordinates of the degree-k part of the self-bracket, one
    homogeneous polynomial per degree-two harmonic direction.

    The recursion runs on Gaussian-integer numerators.  Each nonzero term
    ``s_k`` is held as ``N_k / D_k``, and the self-bracket of degree ``k``,
    ``sb_k = sum over i + j = k, i <= j of [s_i, s_j]`` (doubled for
    ``i != j``), is put over ``D_b * L_k`` with ``L_k`` the lcm of the
    ``D_i * D_j``; then ``s_k = -H sb_k / 2`` is over ``2 D_h D_b L_k`` and
    the obstructions ``C sb_k`` over ``D_c D_b L_k``, where ``D_b``,
    ``D_h`` and ``D_c`` clear the denominators of the bracket, the
    homotopy ``H`` and the harmonic coordinates ``C``.  Every step is an
    exact integer identity, so each term is the rational one; it is divided
    by the gcd of its content and converted to polynomials once.

    Let ``last`` be the highest degree with a nonzero term.  Once ``k >
    2 * last``, every pair ``i + j = k`` has ``j >= k/2 > last``, so the
    self-bracket of degree ``k`` vanishes and with it ``s_k`` and the
    obstructions; ``last`` then never grows, so every later degree is zero
    too.  This is the argument of the termination certificate, and the
    expansion fills in those degrees without computing them.
    """
    kernel = problem._series_kernel
    zero = problem.ring.zero()
    shift = problem.ring.shift
    n, h = problem.dgla.dim(1), len(kernel.coordinate_rows)
    series: dict[int, list[MultiPoly]] = {1: list(problem.linear_term)}
    obstructions: dict[int, list[MultiPoly]] = {}
    linear = kernel.linear
    terms = {1: linear} if any(linear[1]) else {}  # the nonzero terms
    last = 1
    for k in range(2, order + 1):
        if k > 2 * last:
            for rest in range(k, order + 1):
                series[rest] = [zero] * n
                obstructions[rest] = [zero] * h
            break
        pairs = [
            (terms[i], terms[k - i])
            for i in range(1, k // 2 + 1)
            if i in terms and k - i in terms
        ]
        bracket = kernel.bracket_sum(pairs)
        obstructions[k] = kernel.coordinates(bracket)
        den, rows = kernel.correction(bracket)
        for row in rows:
            if any(m >> shift != k for m in row):
                raise RuntimeError(
                    f"series term of degree {k} is not homogeneous of degree {k}"
                )
        series[k] = kernel.polys(den, rows)
        if any(rows):
            terms[k] = den, rows
            last = k
    return series, obstructions


# -- exactness certificates ---------------------------------------------------


def _degree_two_coefficients(
    problem: KuranishiProblem, series: dict[int, list[MultiPoly]]
) -> list[list[GaussianRational]]:
    """The nonzero coefficient vectors of ``t_a t_b`` in ``series[2]``, in
    the order of the pairs ``a <= b``.

    ``series[2]`` is ``-1/2 H[x1, x1]`` with ``x1 = sum t_a h_a``, so the
    coefficient of ``t_a t_b`` is ``-H[h_a, h_b]`` for ``a < b`` and
    ``-1/2 H[h_a, h_a]`` for ``a == b``: exactly ``kernel.delta(h_a, h_b)``,
    the first round of either span route, already evaluated.  A zero one
    grows no span, so it is left out.
    """
    term = series[2]
    vectors: dict[int, list[GaussianRational]] = {}
    for c, p in enumerate(term):
        for m, coeff in p.terms.items():
            vectors.setdefault(m, [ZERO] * len(term))[c] = coeff
    monomial = problem.ring.variable_monomial
    r = len(problem.parameters)
    pairs = (monomial(a) + monomial(b) for a in range(r) for b in range(a, r))
    return [vectors[m] for m in pairs if m in vectors]


def _closure_certificate(
    problem: KuranishiProblem,
    series: dict[int, list[MultiPoly]],
    obstructions: dict[int, list[MultiPoly]],
) -> dict | None:
    """Bracket-closure certificate: every obstruction vanishes identically.

    Saturates the span of the degree-one harmonic representatives under the
    homotopy-corrected bracket; if all harmonic components of brackets of
    the saturated span vanish, every series term stays inside the span and
    every obstruction is zero.  The saturation is a worklist: each vector
    that grows the span joins a list and is bracketed once with itself and
    each vector before it (the degree-one bracket is symmetric).  The list
    spans the saturated span and the bracket is bilinear, so these brackets
    decide both the closure and the harmonic check, which returns None at
    the first nonzero harmonic coordinate.  The series kernel evaluates
    the brackets; its factor 2 on a distinct pair changes neither check.

    The first round, the brackets of two representatives, is read off the
    series: their harmonic coordinates are the coefficients of
    ``obstructions[2]``, the coordinates of ``[x1, x1]``, so the route
    returns None when it is nonzero, and their corrections are the
    coefficient vectors of ``series[2]``, which seed the list.
    """
    if any(obstructions[2]):
        return None
    kernel = problem._series_kernel
    reps = problem.harmonic_reps
    # the harmonic representatives are independent, so each grows the span
    span = EchelonBasis(problem.dgla.dim(1), reps)
    found = [kernel.constant(rep) for rep in reps]
    found += [
        kernel.constant(w) for w in _degree_two_coefficients(problem, series) if span.add(w)
    ]
    # ``found`` grows while it is walked; each new vector is walked in turn,
    # and the representatives, bracketed with each other above, are skipped
    for k, u in enumerate(found):
        if k < len(reps):
            continue
        for v in found[: k + 1]:
            bracket = kernel.bracket_sum([(u, v)])
            if any(kernel.coordinates(bracket)):
                return None
            image = kernel.correction(bracket)
            if span.add(kernel.scalars(image)):
                found.append(image)
    return {"spanDimension": len(found)}


def _in_constant_span(span: EchelonBasis, vec: Sequence[MultiPoly]) -> bool:
    """Whether the polynomial vector ``vec`` lies in the span of constant
    vectors ``span``: exactly when each of its per-monomial coefficient
    vectors does."""
    monomials = {m for p in vec for m in p.terms}
    return all(span.contains([p.terms.get(m, ZERO) for p in vec]) for m in monomials)


def _rational_certificate(
    problem: KuranishiProblem,
    series: dict[int, list[MultiPoly]],
    obstructions: dict[int, list[MultiPoly]],
) -> tuple[dict, dict[int, list[MultiPoly]]] | None:
    """Rational-fixed-point certificate for the correction tail.

    Saturates the span of homotopy-corrected harmonic brackets under
    bracketing with single harmonic directions, by a worklist: seeded with
    ``delta[h_a, h_b]`` for ``a <= b`` (the degree-one bracket is
    symmetric), read off ``series[2]`` as its coefficient vectors, each
    vector that grows the span is bracketed once with each harmonic
    representative, which closes the span since the bracket is bilinear.
    The span must bracket to zero with itself after the homotopy.  The
    correction tail then solves a linear system over the parameter field,
    the obstruction generating function times ``q**2`` (``q`` the system
    determinant, ``q(0) = 1``) is a polynomial of some degree ``D``, and a
    recurrence shows all obstructions above degree ``D`` are redundant.
    Every bracket is evaluated on the series kernel, whose ``delta`` is a
    nonzero multiple of ``H[u, v]``, so it spans what the homotopy-corrected
    brackets span.

    Returns certificate metadata plus the complete obstruction table up to
    degree ``D``, or None when the route does not apply.
    """
    ring = problem.ring
    n = problem.dgla.dim(1)
    kernel = problem._series_kernel
    reps = [kernel.constant(rep) for rep in problem.harmonic_reps]
    span = EchelonBasis(n)
    found = [
        kernel.constant(w) for w in _degree_two_coefficients(problem, series) if span.add(w)
    ]
    # ``found`` grows while it is walked; each new vector is walked in turn
    for w in found:
        for rep in reps:
            image = kernel.delta(rep, w)
            if span.add(kernel.scalars(image)):
                found.append(image)
    basis = [kernel.constant(row) for row in span.rows]
    width = len(basis)
    for a, u in enumerate(basis):
        for v in basis[a:]:
            if any(kernel.delta(u, v)[1]):
                return None

    x1 = kernel.linear
    # forcing term: the series' degree-two term, -1/2 homotopy of [x1, x1]
    forcing_vec = series[2]
    if not _in_constant_span(span, forcing_vec):
        return None
    if width == 0:
        tail = 1, [{} for _ in range(n)]
        q = ring.one()
    else:
        forcing = [forcing_vec[p] for p in span.pivots]
        # tail map: column j gives the span coordinates of
        # -homotopy[x1, basis_j]; entries are linear in the parameters
        columns: list[list[MultiPoly]] = []
        for row in basis:
            # -1/2 homotopy of the doubled bracket 2[x1, row]: -homotopy[x1, row]
            image = kernel.polys(*kernel.delta(x1, row))
            if not _in_constant_span(span, image):
                return None
            columns.append([image[p] for p in span.pivots])
        system = [
            [
                (ring.one() if i == j else ring.zero()) - columns[j][i]
                for j in range(width)
            ]
            for i in range(width)
        ]
        q = poly_matrix_det(system)
        if q.homogeneous_component(0) != ring.one():
            raise RuntimeError("fixed-point determinant has nonunit constant term")
        numerators = []
        for c in range(width):
            replaced = [
                [forcing[i] if j == c else system[i][j] for j in range(width)]
                for i in range(width)
            ]
            numerators.append(poly_matrix_det(replaced))
        # the tail numerator: the sum of numerators[c] * basis[c]
        scale, basis_view = _matrix_view(ExactMatrix.from_columns(span.rows))
        den, rows = _numerators(numerators)
        tail = scale * den, _apply(basis_view, rows)

    # clear denominators: q^2 * selfbracket(x1 + tail/q); the harmonic
    # coordinates are linear, so they are taken of each bracket
    q2 = q * q
    # [x1, x1], 2[x1, tail] and [tail, tail]
    self_bracket, br_1n, br_nn = (
        kernel.coordinates(kernel.bracket_sum([pair]))
        for pair in ((x1, x1), (x1, tail), (tail, tail))
    )
    coords = [(a * q2) + (b * q) + c for a, b, c in zip(self_bracket, br_1n, br_nn)]
    bound = max((p.total_degree() for p in coords), default=0)
    bound = max(bound, 2)
    q2_parts = q2.homogeneous_components()
    # Beyond the degree bound the cleared coordinates have no component, so
    # the same recurrence extends the table and must reproduce the series.
    top = max([bound, *obstructions.keys()])
    table: dict[int, list[MultiPoly]] = {}
    for k in range(2, top + 1):
        row = []
        for c, cleared_poly in enumerate(coords):
            value = cleared_poly.homogeneous_component(k)
            for j in range(1, k - 1):
                part = q2_parts.get(j)
                if part is not None and (k - j) in table:
                    value = value - part * table[k - j][c]
            row.append(value)
        table[k] = row
    for k in sorted(obstructions):
        if obstructions[k] != table[k]:
            raise RuntimeError(
                "fixed-point obstruction table disagrees with the series"
            )
    table = {k: row for k, row in table.items() if k <= bound}
    data = {
        "spanDimension": width,
        "denominator": str(q),
        "degreeBound": bound,
    }
    return data, table


@dataclass
class SeriesAnalysis:
    """Deformation series, obstruction ideal, and its exactness status."""

    problem: KuranishiProblem
    truncation_order: int
    series: dict[int, list[MultiPoly]]
    obstructions_by_degree: dict[int, list[MultiPoly]]
    generators: list[MultiPoly]
    certificate: str | None
    certificate_data: dict

    @property
    def exact(self) -> bool:
        """Whether a certificate proves the generators cut out the ideal."""
        return self.certificate is not None


def _collect_generators(
    obstructions: Mapping[int, Sequence[MultiPoly]], highest: int
) -> list[MultiPoly]:
    raw = []
    for k in sorted(obstructions):
        if k > highest:
            continue
        for poly in obstructions[k]:
            if not poly.is_zero():
                raw.append(poly)
    return minimalize_generators(raw)


def default_truncation_order(problem: KuranishiProblem) -> int:
    """Twice the number of parameters plus two."""
    return 2 * len(problem.parameters) + 2


def analyze_obstructions(
    problem: KuranishiProblem, truncation: int | None = None
) -> SeriesAnalysis:
    """Expand the series and certify the obstruction ideal when possible.

    Certificates are attempted in a fixed order, and the first that applies
    picks the obstruction table and the degree up to which its generators
    are collected: termination by doubling (the series vanishes beyond half
    the computed order; the series' own obstructions up to twice the last
    nonzero degree), bracket closure (all obstructions vanish identically;
    no generator), then the rational fixed point (its own table up to its
    degree bound).  When none applies the analysis is an honest
    truncation: ``certificate`` is None, so ``exact`` is False, and the
    generators only reflect obstructions up to the truncation order.
    """
    order = truncation if truncation is not None else default_truncation_order(problem)
    order = max(order, 2)
    series, obstructions = expand_series(problem, order)
    last = max((k for k, vec in series.items() if any(vec)), default=1)
    if 2 * last <= order:
        certificate, data, table, cutoff = (
            "termination", {"terminationOrder": last}, obstructions, 2 * last
        )
    elif (closure := _closure_certificate(problem, series, obstructions)) is not None:
        if any(any(row) for row in obstructions.values()):
            raise RuntimeError(
                "bracket-closure certificate contradicts a computed obstruction"
            )
        certificate, data, table, cutoff = "bracket-closure", closure, {}, order
    elif (rational := _rational_certificate(problem, series, obstructions)) is not None:
        data, table = rational
        certificate, cutoff = "rational-fixed-point", data["degreeBound"]
    else:
        certificate, data, table, cutoff = None, {}, obstructions, order
    return SeriesAnalysis(
        problem=problem,
        truncation_order=order,
        series=series,
        obstructions_by_degree=obstructions,
        generators=_collect_generators(table, cutoff),
        certificate=certificate,
        certificate_data=data,
    )


# -- germ invariants ----------------------------------------------------------


@dataclass
class GermInvariants:
    """Set-level invariants of the cone germ cut out by an obstruction ideal."""

    embedding_dimension: int
    generators: list[MultiPoly]
    #: reduced Groebner basis of the ideal; ``[]`` for the zero ideal and
    #: None for an uncertified truncation.  Not part of any report.
    basis: list[MultiPoly] | None
    generator_degrees: list[int]
    smooth: bool | None
    dimension: int | None
    quadric_rank: int
    method: str


def _quadric_rank(ring: PolyRing, generators: Sequence[MultiPoly]) -> int:
    rows: list[list[GaussianRational]] = []
    for g in generators:
        quadric = g.homogeneous_component(2)
        if quadric.is_zero():
            continue
        rows.extend(quadric.quadratic_symmetric_matrix())
    return len(EchelonBasis(ring.nvars, rows).pivots)


def _is_linear_basis(basis: Sequence[MultiPoly]) -> bool:
    return all(g.total_degree() == 1 for g in basis)


def _split_factors(ring: PolyRing, g: MultiPoly) -> list[MultiPoly] | None:
    """Factors to branch on: the variety of g is the union of their zero sets."""
    if len(g.terms) == 1:
        return [ring.var(ring.variables[i]) for i in g.support_variables()]
    power = pure_linear_power(g)
    if power is not None:
        _, linear, _ = power
        return [linear]
    split = quadric_split(g)
    if split is not None:
        return list(split)
    return None


def _leaf_decomposition(
    ring: PolyRing, basis: list[MultiPoly], budget: int
) -> list[list[MultiPoly]] | None:
    """Decompose the variety into linear leaves by branching on factors.

    Returns the list of leaf bases (each a reduced, all-linear basis), or
    None if an unfactorable generator or the node budget stops the search.
    ``basis`` is a reduced Groebner basis, and each child's basis extends
    its parent's by the one factor (:func:`extend_reduced_basis`): the
    parent's elements form no pairs among each other.
    """
    stack = [basis]
    seen: set[tuple[MultiPoly, ...]] = set()
    leaves: dict[tuple[MultiPoly, ...], list[MultiPoly]] = {}
    nodes = 0
    while stack:
        current = stack.pop()
        key = tuple(current)
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        if nodes > budget:
            return None
        if _is_linear_basis(current):
            leaves.setdefault(key, current)
            continue
        factors = None
        for g in current:
            if g.total_degree() <= 1:
                continue
            factors = _split_factors(ring, g)
            if factors is not None:
                break
        if factors is None:
            return None
        for factor in factors:
            stack.append(extend_reduced_basis(current, [factor]))
    return list(leaves.values())


def _leaf_contains(outer: list[MultiPoly], inner: list[MultiPoly]) -> bool:
    """Whether the subspace of ``outer`` contains the subspace of ``inner``.

    Containment of linear varieties is ideal containment the other way:
    every defining form of ``outer`` must reduce to zero against ``inner``.
    """
    return all(normal_form(g, inner).is_zero() for g in outer)


def germ_invariants(
    ring: PolyRing,
    generators: Sequence[MultiPoly],
    *,
    exact: bool = True,
) -> GermInvariants:
    """Set-level smoothness analysis of the cone germ of a homogeneous ideal.

    Computes the reduced Groebner basis of the ideal once (none for an
    uncertified truncation) and runs the decision tree of :func:`_decide`.
    Generators returned by :func:`minimalize_generators` carry the basis
    their survivor test built, complete up to their top degree; the germ's
    basis finishes it rather than starting over.
    """
    gens = [g for g in generators if not g.is_zero()]
    basis: list[MultiPoly] | None = None
    if exact:
        for g in gens:
            if not g.is_homogeneous():
                raise ValueError("germ analysis expects homogeneous generators")
        if isinstance(generators, MinimalGenerators):
            basis = generators.reduced_basis()
        else:
            basis = reduced_groebner_basis(gens) if gens else []
    return _decide(ring, gens, basis)


def product_of_germs(
    ring: PolyRing,
    left: GermInvariants,
    right: GermInvariants,
) -> GermInvariants:
    """The germ of the sum of two block ideals, embedded into ``ring``.

    The blocks' variables must be disjoint and keep their relative order in
    ``ring``, so grevlex leading monomials embed to leading monomials.  Then
    every cross S-pair has coprime leading monomials (Buchberger's first
    criterion) and no block's leading monomial divides a term of the other
    block, so the union of the two reduced bases, sorted, is the reduced
    basis of the sum: no Groebner run is needed.
    """
    gens = [g.embed(ring) for g in left.generators + right.generators]
    basis: list[MultiPoly] | None = None
    if left.basis is not None and right.basis is not None:
        basis = sorted(
            (g.embed(ring) for g in left.basis + right.basis),
            key=lambda g: ring.key(g.leading_monomial()),
        )
    return _decide(ring, gens, basis)


def _decide(
    ring: PolyRing,
    gens: list[MultiPoly],
    basis: list[MultiPoly] | None,
) -> GermInvariants:
    """The germ decision tree on nonzero generators and their reduced basis.

    A zero ideal is smooth; an all-linear reduced basis is smooth; a
    principal ideal is smooth exactly when its generator is a scalar
    multiple of a power of a linear form; otherwise the variety is
    decomposed into linear leaves — a single maximal leaf is a smooth germ,
    two incomparable maximal leaves certify a singularity.  Ideals from
    uncertified truncations (``basis`` None) are never given a verdict.
    """
    n = ring.nvars
    if basis is None:
        smooth, dimension, method = None, None, "truncated"
    elif not gens:
        smooth, dimension, method = True, n, "zero-ideal"
    elif _is_linear_basis(basis):
        smooth, dimension, method = True, n - len(basis), "linear"
    elif len(gens) == 1:
        smooth = pure_linear_power(gens[0]) is not None
        dimension, method = (n - 1 if smooth else None), "principal"
    else:
        leaves = _leaf_decomposition(ring, basis, LEAF_BUDGET) or []
        # the leaves have distinct keys, so the maximal ones are distinct too
        maximal = [
            leaf
            for leaf in leaves
            if not any(
                other is not leaf and _leaf_contains(other, leaf)
                for other in leaves
            )
        ]
        if len(maximal) == 1:
            smooth, dimension, method = True, n - len(maximal[0]), "leaf-single"
        elif len(maximal) >= 2:
            smooth, dimension, method = False, None, "leaf-union"
        else:
            smooth, dimension, method = None, None, "unknown"
    return GermInvariants(
        embedding_dimension=n,
        generators=gens,
        basis=basis,
        generator_degrees=[g.total_degree() for g in gens],
        smooth=smooth,
        dimension=dimension,
        quadric_rank=_quadric_rank(ring, gens),
        method=method,
    )


# -- splitting ----------------------------------------------------------------


@dataclass
class SplittingAssessment:
    """Verdict on whether a joint germ is the product of its block germs."""

    verdict: str
    reason: str
    ideal_comparison: str  # "equal" | "different" | "unknown"


def assess_splitting(
    joint_germ: GermInvariants,
    product_germ: GermInvariants | None,
    *,
    coupling_is_zero: bool,
) -> SplittingAssessment:
    """Compare the joint germ against the product of the block germs.

    The ideals are compared through the germs' reduced Groebner bases, which
    are unique, so equal ideals have equal bases; the comparison is
    ``unknown`` when either ideal is an uncertified truncation.  A
    ``product_germ`` of None means the blocks have no canonical split: a
    curvature couples them through the differential, so there is nothing to
    compare against and the verdict is inconclusive.

    Priority: a vanishing coupling splits by direct sum outright; certified
    equality of the joint ideal with the sum of the block ideals certifies
    splitting after a reparameterization; a certified invariant mismatch
    (smooth against singular, or differing smooth dimensions) certifies
    non-splitting; anything else is inconclusive.
    """
    comparison = "unknown"
    if (
        product_germ is not None
        and joint_germ.basis is not None
        and product_germ.basis is not None
    ):
        comparison = "equal" if joint_germ.basis == product_germ.basis else "different"
    if product_germ is None:
        verdict, reason = "Inconclusive", (
            "the curvature couples the blocks through the differential, "
            "so there is no canonical block split to compare against"
        )
    elif coupling_is_zero:
        verdict, reason = "SplitsByDirectSum", (
            "the coupling bracket between the blocks vanishes identically"
        )
    elif comparison == "equal":
        verdict, reason = "SplitsAfterReparameterization", (
            "the joint obstruction ideal equals the sum of the block ideals"
        )
    elif comparison == "unknown":
        verdict, reason = "Inconclusive", (
            "exactness of an obstruction ideal could not be certified"
        )
    elif None not in (joint_germ.smooth, product_germ.smooth) and (
        joint_germ.smooth != product_germ.smooth
    ):
        joint_word = "smooth" if joint_germ.smooth else "singular"
        product_word = "smooth" if product_germ.smooth else "singular"
        verdict, reason = "DoesNotSplit", (
            f"the joint germ is {joint_word} while the product of the "
            f"block germs is {product_word}"
        )
    elif (
        joint_germ.smooth is True
        and product_germ.smooth is True
        and joint_germ.dimension != product_germ.dimension
    ):
        verdict, reason = "DoesNotSplit", (
            f"both germs are smooth with different dimensions "
            f"({joint_germ.dimension} against {product_germ.dimension})"
        )
    else:
        verdict, reason = "Inconclusive", (
            "the ideals differ in the given coordinates but no computed "
            "invariant distinguishes the germs"
        )
    return SplittingAssessment(
        verdict=verdict, reason=reason, ideal_comparison=comparison
    )
