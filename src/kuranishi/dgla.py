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
  their order are those of a loop over every pair and every triple;
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

from dataclasses import dataclass
from typing import Mapping, Sequence

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
        value = GaussianRational.coerce(coeff)
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
        table: BracketTable = {}
        for (key_a, key_b), entry in brackets.items():
            for key in (key_a, key_b):
                degree, position = key
                if not 0 <= position < self.dim(degree):
                    raise ValueError(f"bracket key {key} is not a basis element")
            cleaned = _clean_entry(entry, self.dim(key_a[0] + key_b[0]))
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
        diagonal entry ``[x, x] != 0`` is rejected outright.
        """
        completed: dict[tuple[BasisKey, BasisKey], dict[int, GaussianRational]] = {}
        for (key_a, key_b), entry in entries.items():
            value = {c: GaussianRational.coerce(v) for c, v in entry.items()}
            value = {c: v for c, v in value.items() if not v.is_zero()}
            sign = -ONE if (key_a[0] * key_b[0]) % 2 == 0 else ONE
            mirror = {c: v * sign for c, v in value.items()}
            if key_a == key_b and mirror != value:
                raise ValueError(
                    f"bracket of the even element {key_a} with itself must vanish"
                )
            for key, want in (((key_a, key_b), value), ((key_b, key_a), mirror)):
                have = completed.get(key)
                if have is None:
                    if want:
                        completed[key] = want
                elif have != want:
                    raise ValueError(f"inconsistent bracket entries for pair {key}")
        return cls(basis, differentials, completed)

    # -- structure access ------------------------------------------------

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, ()))

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def label(self, degree: int, position: int) -> str:
        return self.basis[degree][position]

    def basis_keys(self) -> list[BasisKey]:
        return [(i, a) for i in self.degrees() for a in range(self.dim(i))]

    def differential_matrix(self, degree: int) -> ExactMatrix:
        matrix = self.differentials.get(degree)
        if matrix is None:
            return ExactMatrix.zeros(self.dim(degree + 1), self.dim(degree))
        return matrix

    def bracket_entry(self, key_a: BasisKey, key_b: BasisKey) -> dict[int, GaussianRational]:
        return self.brackets.get((key_a, key_b), {})

    # -- element operations ----------------------------------------------

    def bracket_vectors(
        self,
        degree_a: int,
        u: Sequence[object],
        degree_b: int,
        v: Sequence[object],
        *,
        zero: object = ZERO,
    ) -> list[object]:
        """Bracket of two coordinate vectors, landing in ``degree_a + degree_b``.

        The coordinates may be scalars or ring elements supporting ``+``,
        ``*`` and ``scale`` (pass the ring's zero as ``zero``).
        """
        if len(u) != self.dim(degree_a) or len(v) != self.dim(degree_b):
            raise ValueError("vector length mismatch")
        out = [zero] * self.dim(degree_a + degree_b)
        for a, ua in enumerate(u):
            if ua.is_zero():
                continue
            for b, vb in enumerate(v):
                if vb.is_zero():
                    continue
                entry = self.brackets.get(((degree_a, a), (degree_b, b)))
                if not entry:
                    continue
                product = ua * vb
                for c, coeff in entry.items():
                    out[c] = out[c] + product.scale(coeff)
        return out

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


def _add_scaled_entry(
    acc: dict[int, GaussianRational],
    coeff: GaussianRational,
    entry: Mapping[int, GaussianRational],
) -> None:
    for c, v in entry.items():
        w = acc.get(c, ZERO) + coeff * v
        if w.is_zero():
            acc.pop(c, None)
        else:
            acc[c] = w


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
    """
    failures: list[str] = []

    def full() -> bool:
        return len(failures) >= max_failures

    brackets = dgla.brackets
    for i in dgla.degrees():
        outer, inner = dgla.differentials.get(i + 1), dgla.differentials.get(i)
        if outer is not None and inner is not None and not (outer @ inner).is_zero():
            failures.append(f"d(d(x)) is nonzero for x in degree {i}")
            if full():
                return failures

    for (key_a, key_b), entry in sorted(brackets.items()):
        sign = -ONE if (key_a[0] * key_b[0]) % 2 == 0 else ONE
        expected = {c: v * sign for c, v in entry.items()}
        if dgla.bracket_entry(key_b, key_a) != expected:
            failures.append(
                f"bracket is not graded-antisymmetric on {_pair_text(dgla, key_a, key_b)}"
            )
            if full():
                return failures

    # nonzero differential columns, and who each key is bracketed with
    columns: dict[BasisKey, dict[int, GaussianRational]] = {}
    for i, matrix in dgla.differentials.items():
        for row, values in enumerate(matrix.rows):
            for a, v in enumerate(values):
                if not v.is_zero():
                    columns.setdefault((i, a), {})[row] = v
    right_partners: dict[BasisKey, list[BasisKey]] = {}
    left_partners: dict[BasisKey, list[BasisKey]] = {}
    for key_a, key_b in brackets:
        right_partners.setdefault(key_a, []).append(key_b)
        left_partners.setdefault(key_b, []).append(key_a)

    pairs = set(brackets)
    for key, column in columns.items():
        for c in column:
            image = (key[0] + 1, c)
            pairs.update((key, key_b) for key_b in right_partners.get(image, ()))
            pairs.update((key_a, key) for key_a in left_partners.get(image, ()))
    for key_a, key_b in sorted(pairs):
        i, j = key_a[0], key_b[0]
        lhs: dict[int, GaussianRational] = {}
        for c, v in brackets.get((key_a, key_b), {}).items():
            _add_scaled_entry(lhs, v, columns.get((i + j, c), {}))
        rhs: dict[int, GaussianRational] = {}
        for c, v in columns.get(key_a, {}).items():
            _add_scaled_entry(rhs, v, brackets.get(((i + 1, c), key_b), {}))
        for c, v in columns.get(key_b, {}).items():
            coeff = -v if i % 2 else v
            _add_scaled_entry(rhs, coeff, brackets.get((key_a, (j + 1, c)), {}))
        if lhs != rhs:
            failures.append(f"Leibniz rule fails on {_pair_text(dgla, key_a, key_b)}")
            if full():
                return failures

    triples: set[tuple[BasisKey, BasisKey, BasisKey]] = set()
    for (key_p, key_q), entry in brackets.items():
        degree = key_p[0] + key_q[0]
        for m in entry:
            for key_o in left_partners.get((degree, m), ()):
                triples.add(tuple(sorted((key_o, key_p, key_q))))
    for key_x, key_y, key_z in sorted(triples):
        i, j, k = key_x[0], key_y[0], key_z[0]
        total: dict[int, GaussianRational] = {}
        for outer, pair, degree, sign_exp in (
            (key_x, (key_y, key_z), j + k, i * k),
            (key_y, (key_z, key_x), k + i, j * i),
            (key_z, (key_x, key_y), i + j, k * j),
        ):
            for m, v in brackets.get(pair, {}).items():
                outer_entry = brackets.get((outer, (degree, m)))
                if outer_entry:
                    _add_scaled_entry(total, -v if sign_exp % 2 else v, outer_entry)
        if total:
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
    zero).  The homotopy places the image-coordinate rows of the inverse change of
    basis at those pivot rows of ``L^{i-1}``, zero elsewhere.
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
        change = ExactMatrix.from_columns(
            [list(v) for v in harmonic + image_vectors + coexact_vectors], nrows=n
        )
        change_inv = inverse(change)
        homotopy_rows = [[ZERO] * n for _ in range(dgla.dim(i - 1))]
        for p, row in zip(below_pivots, change_inv.rows[h:]):
            homotopy_rows[p] = row
        result[i] = HodgeDegree(
            degree=i,
            harmonic=harmonic,
            image=image_vectors,
            coexact=coexact_vectors,
            homotopy=ExactMatrix(homotopy_rows, ncols=n),
            harmonic_coordinates=ExactMatrix(change_inv.rows[:h], ncols=n),
        )
        incoming, below_pivots = outgoing, here_pivots
    return result
