"""Finite-dimensional differential graded Lie algebras with explicit bases.

A differential graded Lie algebra (DGLA) is presented here by a basis of
every graded piece, the matrices of its degree ``+1`` differential, and a
sparse table of structure constants for the graded bracket.  On top of the
container this module provides

* axiom validation (``d**2 = 0``, graded antisymmetry, the graded Leibniz
  rule, and the graded Jacobi identity), reporting human-readable failures.
  The check visits only nonzero structure: the Leibniz rule is evaluated on
  the pairs that a stored bracket or a nonzero differential column can make
  nonzero, and the Jacobi identity on the triples that contain a stored pair
  whose bracket has a nonzero bracket with the third element.  On every
  other pair or triple both sides are zero term by term, so it cannot fail
  there; the candidates are visited in basis-key order, so the messages and
  their order are those of a loop over every pair and every triple.  After
  ``d**2``, which is checked on the exact matrices, the check is
  fraction-free: the bracket table is multiplied once by the lcm of its
  denominators and the differential by the lcm of its own, so every
  compared sum is the rational one times a fixed nonzero integer, which
  changes neither whether it vanishes nor whether two sums agree.  The
  Leibniz and Jacobi sums then run on Gaussian integers, each vector packed
  into one int per part under a written bound on its fields;
* the canonical splitting of each graded piece into harmonic, exact, and
  coexact subspaces (the harmonic counts are the cohomology dimensions),
  with the harmonic coordinates and the contracting homotopy that the
  deformation engine uses to solve the recursive deformation equation.

All choices are deterministic: harmonic representatives are kernel-basis
vectors reduced modulo the reduced echelon basis of the exact subspace
(:class:`kuranishi.linalg.EchelonBasis`), kept in kernel order when they are
independent of those kept before, and the coexact complement consists of
coordinate vectors at pivot columns of the differential under a selectable
pivot rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .linalg import (
    EchelonBasis,
    ExactMatrix,
    Vector,
    inverse,
    kernel_basis,
    pivot_columns,
    rref,
)
from .scalars import GaussianRational, ONE, ZERO

__all__ = [
    "Dgla",
    "DglaAxiomError",
    "HodgeDegree",
    "dgla_axiom_failures",
    "hodge_decomposition",
    "integer_view",
    "validate_dgla",
]

#: A basis element is addressed by ``(degree, position)``.
BasisKey = tuple[int, int]

#: Sparse bracket table: ``table[key_a, key_b]`` maps positions in degree
#: ``deg(a) + deg(b)`` to the coefficient of that basis vector in the bracket.
BracketTable = dict[tuple[BasisKey, BasisKey], dict[int, GaussianRational]]


class DglaAxiomError(ValueError):
    """Raised when a putative DGLA violates one of the defining axioms."""


def _clean_entry(entry: Mapping[int, object], target_dim: int) -> dict[int, GaussianRational]:
    cleaned: dict[int, GaussianRational] = {}
    for position, coeff in entry.items():
        if not 0 <= position < target_dim:
            raise ValueError(
                f"bracket target position {position} outside dimension {target_dim}"
            )
        value = coeff if type(coeff) is GaussianRational else GaussianRational.coerce(coeff)
        if not value.is_zero():
            cleaned[position] = value
    return cleaned


class Dgla:
    """A finite-dimensional DGLA with a distinguished basis in each degree.

    Parameters
    ----------
    basis : mapping of int to sequence of str
        Human-readable labels for the basis of each graded piece; degrees
        that are absent (or have no labels) are zero.
    differentials : mapping of int to ExactMatrix
        ``differentials[i]`` is the matrix of ``d : L^i -> L^{i+1}`` in the
        chosen bases; missing degrees denote the zero map.
    brackets : mapping
        Complete sparse bracket table including both orders of every pair;
        use :meth:`from_bracket_entries` to have the graded-antisymmetric
        mirrors filled in automatically.
    """

    def __init__(
        self,
        basis: Mapping[int, Sequence[str]],
        differentials: Mapping[int, ExactMatrix],
        brackets: Mapping[tuple[BasisKey, BasisKey], Mapping[int, object]],
    ) -> None:
        self.basis: dict[int, list[str]] = {
            degree: list(labels) for degree, labels in basis.items() if len(labels) > 0
        }
        self.differentials: dict[int, ExactMatrix] = {}
        for degree, matrix in differentials.items():
            expected = (self.dim(degree + 1), self.dim(degree))
            if (matrix.nrows, matrix.ncols) != expected:
                raise ValueError(
                    f"differential on degree {degree} has shape "
                    f"{(matrix.nrows, matrix.ncols)}, expected {expected}"
                )
            if not matrix.is_zero():
                self.differentials[degree] = matrix
        dims = {degree: len(labels) for degree, labels in self.basis.items()}
        table: BracketTable = {}
        for (key_a, key_b), entry in brackets.items():
            for key in (key_a, key_b):
                degree, position = key
                if not 0 <= position < dims.get(degree, 0):
                    raise ValueError(f"bracket key {key} is not a basis element")
            cleaned = _clean_entry(entry, dims.get(key_a[0] + key_b[0], 0))
            if cleaned:
                table[(key_a, key_b)] = cleaned
        self.brackets = table

    @classmethod
    def from_bracket_entries(
        cls,
        basis: Mapping[int, Sequence[str]],
        differentials: Mapping[int, ExactMatrix],
        entries: Mapping[tuple[BasisKey, BasisKey], Mapping[int, object]],
    ) -> "Dgla":
        """Build a DGLA, completing the bracket table by graded antisymmetry.

        Each supplied entry ``[x, y]`` induces ``[y, x] = -(-1)**(|x||y|) [x, y]``.
        Supplying both orders is allowed when they are consistent; an even
        diagonal entry ``[x, x] != 0`` is rejected outright.  The constructor
        cleans the supplied entries; the mirrors are added to its table.
        """
        dgla = cls(basis, differentials, entries)
        table = dgla.brackets
        for key_a, key_b in entries:
            value = table.get((key_a, key_b), {})
            mirror = value if (key_a[0] * key_b[0]) % 2 else {c: -v for c, v in value.items()}
            if (key_b, key_a) not in entries:
                if mirror:
                    table[key_b, key_a] = mirror
            elif table.get((key_b, key_a), {}) != mirror:
                if key_a == key_b:
                    raise ValueError(f"bracket of the even element {key_a} with itself must vanish")
                raise ValueError(f"inconsistent bracket entries for pair {(key_a, key_b)}")
        return dgla

    # -- structure access ------------------------------------------------

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, ()))

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def label(self, degree: int, position: int) -> str:
        return self.basis[degree][position]

    def differential_matrix(self, degree: int) -> ExactMatrix:
        matrix = self.differentials.get(degree)
        if matrix is None:
            return ExactMatrix.zeros(self.dim(degree + 1), self.dim(degree))
        return matrix

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dgla):
            return NotImplemented
        return (
            self.basis == other.basis
            and {i: m for i, m in self.differentials.items()}
            == {i: m for i, m in other.differentials.items()}
            and self.brackets == other.brackets
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = ", ".join(f"{i}:{self.dim(i)}" for i in self.degrees())
        return f"Dgla(dims={{{dims}}})"


# -- axiom validation -------------------------------------------------------

#: A sparse table in integers: per key, ``{position: (x, y)}``, where
#: ``x + y*i`` is a Gaussian integer.
IntegerTable = dict[Hashable, dict[Hashable, tuple[int, int]]]


def integer_view(
    table: Mapping[Hashable, Mapping[Hashable, GaussianRational]],
) -> tuple[int, IntegerTable]:
    """``(D, view)``: ``view`` is ``table`` times ``D``, the lcm of its
    denominators, in Gaussian integers; ``D`` is 1 for an empty table."""
    scale = math.lcm(*(v.triple[2] for entry in table.values() for v in entry.values()))
    view: IntegerTable = {}
    for key, entry in table.items():
        row = view[key] = {}
        for c, v in entry.items():
            a, b, d = v.triple
            q = scale // d
            row[c] = (a * q, b * q)
    return scale, view


def _pack(entry: Mapping[BasisKey, tuple[int, int]], width: int) -> tuple[int, int]:
    """One entry of an integer view as a pair ``(re, im)`` of ints: the part
    at target ``(degree, c)`` is the signed field at ``2**(width*c)``."""
    re = im = 0
    for (_, c), (x, y) in entry.items():
        re += x << (width * c)
        im += y << (width * c)
    return re, im


def _packed_sum(groups: Iterable[tuple[int, Mapping, Mapping]]) -> tuple[int, int]:
    """The packed sum over ``groups`` ``(sign, entry, row)`` of ``sign`` times
    the sum of ``(x + y*i) * (p + q*i)`` over the keys with ``entry[key] ==
    (x, y)`` and ``row[key] == (p, q)``; a product scales every field."""
    re = im = 0
    for sign, entry, row in groups:
        part_re = part_im = 0
        for key, (x, y) in entry.items():
            packed = row.get(key)
            if packed is not None:
                p, q = packed
                part_re += x * p - y * q
                part_im += x * q + y * p
        re += sign * part_re
        im += sign * part_im
    return re, im


def _pair_text(dgla: Dgla, key_a: BasisKey, key_b: BasisKey) -> str:
    return f"[{dgla.label(*key_a)}, {dgla.label(*key_b)}]"


def dgla_axiom_failures(dgla: Dgla, *, max_failures: int = 20) -> list[str]:
    """Human-readable list of axiom violations (empty when valid).

    Checks, in order: ``d`` squares to zero, the bracket is graded
    antisymmetric, the graded Leibniz rule, and the graded Jacobi identity.
    At most ``max_failures`` messages are collected.

    Only nonzero structure is visited.  ``d**2`` is formed only where two
    consecutive differentials are stored.  The Leibniz rule is evaluated on
    the pairs ``(a, b)`` with ``[a, b] != 0``, or with a component ``c`` of
    ``d(a)`` such that ``[c, b] != 0``, or a component ``c`` of ``d(b)``
    such that ``[a, c] != 0``; on every other pair both sides are zero.  The
    Jacobi identity is evaluated on the sorted triples ``{o, p, q}`` where a
    stored pair ``(p, q)``, in either order, has a component ``m`` with
    ``[o, m] != 0``; on every other triple each term of the cyclic sum is
    zero.  Candidates are visited in the order of the basis keys, as a loop
    over every pair and every sorted triple would visit them, so the
    messages and their order are those of that loop.

    After ``d**2`` every check runs on Gaussian integers.  The bracket
    table is multiplied by ``D_b``, the lcm of its denominators, and the
    differential columns by ``D_d``, the lcm of theirs.  Every antisymmetry
    term is one bracket coefficient, every Leibniz term on either side a
    bracket coefficient times a differential coefficient, and every Jacobi
    term a product of two bracket coefficients, so each compared sum is the
    rational one times ``D_b``, ``D_b * D_d`` or ``D_b**2``: a fixed nonzero
    integer, which changes neither whether a sum is zero nor whether two
    sums are equal.

    The Leibniz and Jacobi sums are formed on whole vectors: the entries of
    the target degree are packed into one int per part, position ``c`` in
    the signed field of width ``w`` at ``2**(w*c)``.  A field of a compared
    sum (or of the difference of the two Leibniz sides) adds at most ``3L``
    products of Gaussian integers whose parts are at most ``M`` in absolute
    value, where ``L`` is the longest bracket entry or differential column
    and ``M`` the largest part of either integer table; so it is at most
    ``6 L M**2 < 2**(w-1)``.  With every field below ``2**(w-1)`` in
    absolute value, a packed int is zero only when every field is zero (the
    highest nonzero field outweighs all the fields below it), so the packed
    comparison is the comparison of the vectors.
    """
    failures: list[str] = []

    def full() -> bool:
        return len(failures) >= max_failures

    for i in dgla.degrees():
        outer, inner = dgla.differentials.get(i + 1), dgla.differentials.get(i)
        if outer is not None and inner is not None and not (outer @ inner).is_zero():
            failures.append(f"d(d(x)) is nonzero for x in degree {i}")
            if full():
                return failures

    # each target position keyed as a basis key
    _, brackets = integer_view(
        {
            (key_a, key_b): {(key_a[0] + key_b[0], c): v for c, v in entry.items()}
            for (key_a, key_b), entry in dgla.brackets.items()
        }
    )
    for (key_a, key_b), entry in sorted(brackets.items()):
        if (key_a[0] * key_b[0]) % 2 == 0:
            entry = {c: (-x, -y) for c, (x, y) in entry.items()}
        if brackets.get((key_b, key_a), {}) != entry:
            failures.append(
                f"bracket is not graded-antisymmetric on {_pair_text(dgla, key_a, key_b)}"
            )
            if full():
                return failures

    # nonzero differential columns
    d_columns: dict[BasisKey, dict[BasisKey, GaussianRational]] = {}
    for i, matrix in dgla.differentials.items():
        for row, values in enumerate(matrix.rows):
            for a, v in enumerate(values):
                if not v.is_zero():
                    d_columns.setdefault((i, a), {})[i + 1, row] = v
    _, columns = integer_view(d_columns)

    # packed vectors: d(x) for each key x, and [x, y] filed both as
    # right[x][y] and as left[y][x], so each key finds its bracket partners
    entries = [*brackets.values(), *columns.values()]
    longest = max(map(len, entries), default=0)
    largest = max((abs(t) for e in entries for xy in e.values() for t in xy), default=0)
    width = (6 * longest * largest * largest).bit_length() + 1
    image = {key: _pack(column, width) for key, column in columns.items()}
    right: dict[BasisKey, dict[BasisKey, tuple[int, int]]] = {}
    left: dict[BasisKey, dict[BasisKey, tuple[int, int]]] = {}
    for (key_a, key_b), entry in brackets.items():
        packed = _pack(entry, width)
        right.setdefault(key_a, {})[key_b] = left.setdefault(key_b, {})[key_a] = packed

    pairs = set(brackets)
    for key, column in columns.items():
        for key_c in column:
            pairs.update((key, key_b) for key_b in right.get(key_c, ()))
            pairs.update((key_a, key) for key_a in left.get(key_c, ()))
    for key_a, key_b in sorted(pairs):
        lhs = _packed_sum([(1, brackets.get((key_a, key_b), {}), image)])
        rhs = _packed_sum(
            [
                (1, columns.get(key_a, {}), left.get(key_b, {})),
                (-1 if key_a[0] % 2 else 1, columns.get(key_b, {}), right.get(key_a, {})),
            ]
        )
        if lhs != rhs:
            failures.append(f"Leibniz rule fails on {_pair_text(dgla, key_a, key_b)}")
            if full():
                return failures

    # the outer partners of each stored pair, both orders together
    outers: dict[tuple[BasisKey, BasisKey], set[BasisKey]] = {}
    for (key_p, key_q), entry in brackets.items():
        group = outers.setdefault(tuple(sorted((key_p, key_q))), set())
        for key_m in entry:
            group.update(left.get(key_m, ()))
    triples = {
        tuple(sorted((key_o, key_p, key_q)))
        for (key_p, key_q), group in outers.items()
        for key_o in group
    }
    for key_x, key_y, key_z in sorted(triples):
        i, j, k = key_x[0], key_y[0], key_z[0]
        total = _packed_sum(
            [
                (-1 if i * k % 2 else 1, brackets.get((key_y, key_z), {}), right.get(key_x, {})),
                (-1 if j * i % 2 else 1, brackets.get((key_z, key_x), {}), right.get(key_y, {})),
                (-1 if k * j % 2 else 1, brackets.get((key_x, key_y), {}), right.get(key_z, {})),
            ]
        )
        if total != (0, 0):
            failures.append(
                "graded Jacobi identity fails on "
                f"({dgla.label(*key_x)}, {dgla.label(*key_y)}, {dgla.label(*key_z)})"
            )
            if full():
                return failures

    return failures


def validate_dgla(dgla: Dgla) -> None:
    """Raise :class:`DglaAxiomError` on the first axiom violation found."""
    failures = dgla_axiom_failures(dgla, max_failures=1)
    if failures:
        raise DglaAxiomError(failures[0])


# -- harmonic / exact / coexact splitting ------------------------------------


@dataclass
class HodgeDegree:
    """Canonical splitting of one graded piece ``L^i = H + im(d) + A``.

    Attributes
    ----------
    degree : int
        The graded degree this record describes.
    harmonic : list of vectors
        Canonical representatives of cohomology classes: kernel-basis
        vectors reduced modulo the exact subspace, kept in kernel order.
    image : list of vectors
        Basis of ``d(L^{i-1})``: images of the coordinate vectors at the
        pivot columns of the incoming differential.
    coexact : list of vectors
        Coordinate vectors at the pivot columns of the outgoing
        differential; ``d`` is injective on their span ``A``.
    homotopy : ExactMatrix
        The contracting homotopy ``delta : L^i -> L^{i-1}``; it inverts
        ``d`` on the exact subspace, vanishes on the harmonic and coexact
        summands, and takes values in the coexact part of ``L^{i-1}``.
    harmonic_coordinates : ExactMatrix
        Rows give the coordinates of the harmonic component of a vector
        with respect to ``harmonic``.
    """

    degree: int
    harmonic: list[Vector]
    image: list[Vector]
    coexact: list[Vector]
    homotopy: ExactMatrix
    harmonic_coordinates: ExactMatrix


def _harmonic_representatives(
    kernel: Sequence[Vector], image_vectors: Sequence[Vector], n: int
) -> list[Vector]:
    image = EchelonBasis(n, image_vectors)
    seen = EchelonBasis(n)
    reps: list[Vector] = []
    for vec in kernel:
        reduced = image.reduce(vec)
        if seen.add(reduced):
            reps.append(tuple(reduced))
    return reps


def hodge_decomposition(dgla: Dgla, pivot_rule: str = "earliest") -> dict[int, HodgeDegree]:
    """Split every graded piece into harmonic, exact, and coexact parts.

    ``pivot_rule`` selects which coordinate vectors span the coexact
    complements (see :func:`kuranishi.linalg.pivot_columns`).  Harmonic
    representatives are independent of the rule; the homotopy is not.

    The degrees are visited once, in increasing order, and each ``d_i`` is
    eliminated once: its echelon form gives both its kernel and its pivot
    columns.  Those pivots index the coexact part of ``L^i`` and are carried
    to degree ``i + 1`` as its image pivots (none when that degree is
    zero).  The harmonic coordinates and the homotopy are rows of the
    inverse change of basis ``[H | Im | A]``, read off the inverse of its
    ``k x k`` block of harmonic and image vectors, ``k = dim ker d_i``; the
    homotopy places the image-coordinate rows at the pivot rows of
    ``L^{i-1}``, zero elsewhere.
    """
    result: dict[int, HodgeDegree] = {}
    incoming = ExactMatrix([], ncols=0)
    below_pivots: tuple[int, ...] = ()
    for i in dgla.degrees():
        n = dgla.dim(i)
        outgoing = dgla.differential_matrix(i)
        echelon = rref(outgoing)
        here_pivots = pivot_columns(*echelon, pivot_rule)
        image_vectors = [incoming.column(p) for p in below_pivots]
        coexact_vectors: list[Vector] = []
        for p in here_pivots:
            unit = [ZERO] * n
            unit[p] = ONE
            coexact_vectors.append(tuple(unit))
        kernel = kernel_basis(*echelon)
        harmonic = _harmonic_representatives(kernel, image_vectors, n)
        h = len(harmonic)
        if h != len(kernel) - len(image_vectors):
            raise RuntimeError(
                f"harmonic count mismatch in degree {i}: the exact subspace "
                "is not contained in the kernel"
            )
        # Of the inverse of the change of basis [H | Im | A] only the rows of
        # H and Im are used.  They vanish on A's unit vectors, so they are
        # the inverse of the k x k block of H and Im on the other columns,
        # placed at those columns.  The block is invertible: a combination of
        # H and Im that vanishes there lies in A and in ker d_i, so it is 0.
        pivot_set = set(here_pivots)
        free = [c for c in range(n) if c not in pivot_set]
        dual = harmonic + image_vectors
        block = ExactMatrix([[v[c] for v in dual] for c in free], ncols=len(dual))
        rows = []
        for block_row in inverse(block).rows:
            row = [ZERO] * n
            for c, x in zip(free, block_row):
                row[c] = x
            rows.append(row)
        homotopy_rows = [[ZERO] * n for _ in range(dgla.dim(i - 1))]
        for p, row in zip(below_pivots, rows[h:]):
            homotopy_rows[p] = row
        result[i] = HodgeDegree(
            degree=i,
            harmonic=harmonic,
            image=image_vectors,
            coexact=coexact_vectors,
            homotopy=ExactMatrix(homotopy_rows, ncols=n),
            harmonic_coordinates=ExactMatrix(rows[:h], ncols=n),
        )
        incoming, below_pivots = outgoing, here_pivots
    return result
