"""FROZEN builder oracle: the pair DGLA as it was built block by block.

This module keeps, verbatim, the builders that ``kuranishi.builders``
replaced: the deformation and endomorphism DGLAs built separately, glued by
a direct sum, with the coupling bracket and the curvature term added on top
of the glued table.  ``_block_diagonal`` and ``direct_sum`` are copied from
the ``dgla`` module of the same time, and ``form_basis``,
``_normalize_word``, ``_coframe_differentials`` and ``ce_differential``
(the Chevalley-Eilenberg differential on every bidegree) from the ``lie``
module of the time the builder took over the (0,q)-part of it.  Only the
imports are rewritten to absolute ones.  The test suite compares the
one-rule builder with it.

The dense frame constants it reads, ``frame_constants`` and
``frame_bracket`` with their helpers ``conjugate_vector`` and
``frame_vector``, are the ``ComplexStructure`` methods of the time the
structure began to hold its doubled-frame constants as a sparse table.
Each became a function of the structure (``structure.frame_bracket(``
is ``frame_bracket(structure, ``), and ``basis_inverse.apply(`` is
``apply(basis_inverse, `` on the frozen ``oracle_maps``.  The edits to the
logic: the structure no longer stores the inverse of its doubled frame,
so ``frame_constants`` forms it, and the table it cached in a slot of the
structure is cached by an ``lru_cache`` keyed on the structure object.
``ExactMatrix.__getitem__`` is gone from the package, so the curvature
entry ``value[u, v]`` is spelled ``value.rows[u][v]``, spelling only.

Frozen at creation; do not edit when changing the builder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from kuranishi.dgla import BasisKey, BracketTable, Dgla, DglaAxiomError, validate_dgla
from kuranishi.lie import ComplexStructure
from kuranishi.linalg import ExactMatrix, Vector, inverse
from kuranishi.scalars import GaussianRational, ONE, ZERO
from oracle_maps import apply

__all__ = [
    "PairDgla",
    "build_deformation_dgla",
    "build_endomorphism_dgla",
    "build_pair_dgla",
]


# -- copied from ``ComplexStructure`` of the time it held dense constants ----


def conjugate_vector(vec: Sequence[GaussianRational]) -> Vector:
    return tuple(v.conjugate() for v in vec)


def frame_vector(structure: ComplexStructure, alpha: int) -> Vector:
    """The alpha-th vector of the doubled frame (W_1..W_m, conj W_1..conj W_m)."""
    if alpha < structure.m:
        return structure.frame[alpha]
    return conjugate_vector(structure.frame[alpha - structure.m])


@functools.lru_cache(maxsize=64)
def frame_constants(structure: ComplexStructure) -> dict[tuple[int, int], Vector]:
    """Brackets of doubled-frame vectors in doubled-frame coordinates.

    Key (alpha, beta) with alpha < beta in 0..2m-1; value is the
    coordinate vector of [V_alpha, V_beta] in the doubled frame.
    """
    vectors = [list(v) for v in structure.frame]
    conjugates = [list(conjugate_vector(v)) for v in structure.frame]
    basis_inverse = inverse(ExactMatrix.from_columns(vectors + conjugates))
    table: dict[tuple[int, int], Vector] = {}
    for alpha in range(2 * structure.m):
        for beta in range(alpha + 1, 2 * structure.m):
            w = structure.algebra.bracket_vectors(
                frame_vector(structure, alpha), frame_vector(structure, beta)
            )
            coords = apply(basis_inverse, w)
            if any(not c.is_zero() for c in coords):
                table[(alpha, beta)] = coords
    return table


def frame_bracket(structure: ComplexStructure, alpha: int, beta: int) -> Vector:
    """[V_alpha, V_beta] in doubled-frame coordinates (any index order)."""
    zero = tuple([ZERO] * (2 * structure.m))
    if alpha == beta:
        return zero
    if alpha < beta:
        return frame_constants(structure).get((alpha, beta), zero)
    flipped = frame_constants(structure).get((beta, alpha), zero)
    return tuple(-c for c in flipped)


# -- copied from the ``lie`` module of the same time ---------------------------


def form_basis(m: int, p: int, q: int) -> list[tuple[int, ...]]:
    """Basis words of (p,q)-forms: ascending doubled-frame index tuples.

    A word lists the 1-form legs; indices < m are holomorphic legs, indices
    >= m are conjugate legs.  Ordering is lexicographic in (holomorphic part,
    conjugate part), matching ``itertools.combinations``.
    """
    from itertools import combinations

    words = []
    for hol in combinations(range(m), p):
        for anti in combinations(range(m, 2 * m), q):
            words.append(hol + anti)
    return words


def _normalize_word(seq: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort a wedge word; return (sorted word, sign) or None when repeated."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return None
    return tuple(items), sign


def _coframe_differentials(structure: ComplexStructure) -> list[list[tuple[int, int, GaussianRational]]]:
    """d v^gamma as lists of (alpha, beta, coeff) with alpha < beta.

    From (d a)(x, y) = -a([x, y]):  d v^gamma = - sum_{alpha<beta}
    Gamma^gamma_{alpha beta} v^alpha ^ v^beta.
    """
    out: list[list[tuple[int, int, GaussianRational]]] = [
        [] for _ in range(2 * structure.m)
    ]
    for (alpha, beta), coords in frame_constants(structure).items():
        for gamma, coeff in enumerate(coords):
            if not coeff.is_zero():
                out[gamma].append((alpha, beta, -coeff))
    return out


def ce_differential(
    structure: ComplexStructure, p: int, q: int
) -> dict[tuple[int, int], ExactMatrix]:
    """The exterior differential on (p,q)-forms, split by target bidegree.

    Returns matrices indexed by target bidegree, acting on coordinate columns
    over :func:`form_basis`.  Possible targets are (p+2, q-1), (p+1, q) and
    (p, q+1), intersected with the valid range; missing components are zero
    matrices.
    """
    m = structure.m
    source = form_basis(m, p, q)
    diffs = _coframe_differentials(structure)
    targets = {}
    for tp, tq in ((p + 2, q - 1), (p + 1, q), (p, q + 1)):
        if 0 <= tp <= m and 0 <= tq <= m:
            basis = form_basis(m, tp, tq)
            targets[(tp, tq)] = (basis, {w: i for i, w in enumerate(basis)}, [
                [ZERO] * len(source) for _ in range(len(basis))
            ])
    for col, word in enumerate(source):
        for slot, leg in enumerate(word):
            slot_sign = -1 if slot % 2 else 1
            rest = word[:slot] + word[slot + 1 :]
            for alpha, beta, coeff in diffs[leg]:
                normalized = _normalize_word((alpha, beta) + rest)
                if normalized is None:
                    continue
                new_word, perm_sign = normalized
                tp = sum(1 for x in new_word if x < m)
                tq = len(new_word) - tp
                bucket = targets.get((tp, tq))
                if bucket is None:
                    continue
                _, index, rows = bucket
                row = index[new_word]
                value = coeff * (slot_sign * perm_sign)
                rows[row][col] = rows[row][col] + value
    return {
        key: ExactMatrix(rows, ncols=len(source))
        for key, (basis, _, rows) in targets.items()
    }


# -- the builders --------------------------------------------------------------


def _integrability_gate(structure: ComplexStructure) -> None:
    failures = structure.integrability_failures()
    if failures:
        pairs = ", ".join(f"[W{a}, W{b}]" for a, b in failures)
        raise ValueError(
            "complex structure is not integrable: "
            f"{pairs} ha{'s' if len(failures) == 1 else 've'} a nonzero "
            "(0,1) component"
        )


def _form_label(word: tuple[int, ...], value_label: str) -> str:
    if not word:
        return value_label
    forms = "^".join(f"a{j + 1}" for j in word)
    return f"{forms}*{value_label}"


def _anti_words(m: int) -> dict[int, list[tuple[int, ...]]]:
    return {q: list(combinations(range(m), q)) for q in range(m + 1)}


def _contraction_coefficients(
    structure: ComplexStructure,
) -> list[list[dict[int, GaussianRational]]]:
    """Slot-replacement coefficients of the holomorphic contractions.

    ``lam[a][j]`` maps ``b`` to the coefficient of ``a^b`` in the (0,1)-part
    of the contraction of ``W_{a+1}`` into the differential of ``a^{j+1}``.
    """
    m = structure.m
    lam: list[list[dict[int, GaussianRational]]] = [
        [{} for _ in range(m)] for _ in range(m)
    ]
    for a in range(m):
        for b in range(m):
            coords = frame_bracket(structure, a, m + b)
            for j in range(m):
                c = -coords[m + j]
                if not c.is_zero():
                    lam[a][j][b] = c
    return lam


def _replace_slots(
    word: tuple[int, ...], lam_a: list[dict[int, GaussianRational]]
) -> list[tuple[tuple[int, ...], int, GaussianRational]]:
    """Extend a coefficient table slot-by-slot over a sorted wedge word.

    Returns ``(new_word, sign, coeff)`` triples: one for every way of
    replacing a single leg ``a^j`` of ``word`` by a leg ``a^b`` carrying
    ``lam_a[j][b]``, with the resorting parity in ``sign``.
    """
    out: list[tuple[tuple[int, ...], int, GaussianRational]] = []
    for r, j in enumerate(word):
        for b, coeff in lam_a[j].items():
            replaced = word[:r] + (b,) + word[r + 1 :]
            normalized = _normalize_word(replaced)
            if normalized is None:
                continue
            new_word, sign = normalized
            out.append((new_word, sign, coeff))
    return out


def _scalar_differentials(
    structure: ComplexStructure, words: dict[int, list[tuple[int, ...]]]
) -> dict[int, ExactMatrix | None]:
    """The (0,q) -> (0,q+1) component of the exterior differential per degree.

    Columns follow the ``words`` ordering, which matches the ascending-word
    ordering of the full form basis restricted to conjugate legs.
    """
    m = structure.m
    out: dict[int, ExactMatrix | None] = {}
    for q in range(m):
        out[q] = ce_differential(structure, 0, q).get((0, q + 1))
    return out


def build_deformation_dgla(structure: ComplexStructure, *, check: bool = True) -> Dgla:
    """The DGLA of conjugate-coframe forms valued in holomorphic directions.

    Degree q has basis ``a{i1}^...^a{iq}*W{a}`` (form-major, vector minor).
    The differential combines the (0,q+1) component of the exterior
    differential on the form part with the holomorphic-projection action of
    the conjugate frame on the vector part; the bracket combines the
    holomorphic projection of the frame bracket with the two contraction
    terms required by graded antisymmetry.

    Raises ``ValueError`` when the structure is not integrable.
    """
    _integrability_gate(structure)
    m = structure.m
    words = _anti_words(m)
    index = {q: {w: i for i, w in enumerate(ws)} for q, ws in words.items()}
    basis = {
        q: [_form_label(w, f"W{a + 1}") for w in ws for a in range(m)]
        for q, ws in words.items()
    }
    lam = _contraction_coefficients(structure)
    scalar = _scalar_differentials(structure, words)

    differentials: dict[int, ExactMatrix] = {}
    for q in range(m):
        nrows, ncols = len(words[q + 1]) * m, len(words[q]) * m
        rows = [[ZERO] * ncols for _ in range(nrows)]
        for ci, word in enumerate(words[q]):
            for a in range(m):
                col = ci * m + a
                matrix = scalar[q]
                if matrix is not None:
                    for ri in range(matrix.nrows):
                        v = matrix.rows[ri][ci]
                        if not v.is_zero():
                            rows[ri * m + a][col] = rows[ri * m + a][col] + v
                for b in range(m):
                    if b in word:
                        continue
                    new_word, sign = _normalize_word((b,) + word)
                    base = index[q + 1][new_word] * m
                    action = frame_bracket(structure, m + b, a)
                    for c in range(m):
                        v = action[c]
                        if not v.is_zero():
                            rows[base + c][col] = rows[base + c][col] + v * sign
        differentials[q] = ExactMatrix(rows, ncols=ncols)

    entries: dict[tuple[BasisKey, BasisKey], dict[int, GaussianRational]] = {}
    for p in range(m + 1):
        for q in range(p, m + 1):
            if p + q > m:
                continue
            for ia, word_a in enumerate(words[p]):
                for a in range(m):
                    for jb, word_b in enumerate(words[q]):
                        for b in range(m):
                            if q == p and jb * m + b < ia * m + a:
                                continue
                            entry = _deformation_bracket(
                                structure, lam, index, m, word_a, a, word_b, b
                            )
                            if entry:
                                key = ((p, ia * m + a), (q, jb * m + b))
                                entries[key] = entry
    dgla = Dgla.from_bracket_entries(basis, differentials, entries)
    if check:
        validate_dgla(dgla)
    return dgla


def _deformation_bracket(
    structure: ComplexStructure,
    lam: list[list[dict[int, GaussianRational]]],
    index: dict[int, dict[tuple[int, ...], int]],
    m: int,
    word_a: tuple[int, ...],
    a: int,
    word_b: tuple[int, ...],
    b: int,
) -> dict[int, GaussianRational]:
    out: dict[int, GaussianRational] = {}

    def add(word: tuple[int, ...], c: int, coeff: GaussianRational) -> None:
        if coeff.is_zero():
            return
        pos = index[len(word)][word] * m + c
        total = out.get(pos, ZERO) + coeff
        if total.is_zero():
            out.pop(pos, None)
        else:
            out[pos] = total

    normalized = _normalize_word(word_a + word_b)
    if normalized is not None:
        word, sign = normalized
        hol = frame_bracket(structure, a, b)
        for c in range(m):
            add(word, c, hol[c] * sign)
    for new_word, s1, coeff in _replace_slots(word_b, lam[a]):
        normalized = _normalize_word(word_a + new_word)
        if normalized is None:
            continue
        word, s2 = normalized
        add(word, b, coeff * (s1 * s2))
    mirror_sign = -ONE if (len(word_a) * len(word_b)) % 2 == 0 else ONE
    for new_word, s1, coeff in _replace_slots(word_a, lam[b]):
        normalized = _normalize_word(word_b + new_word)
        if normalized is None:
            continue
        word, s2 = normalized
        add(word, a, coeff * (s1 * s2) * mirror_sign)
    return out


def build_endomorphism_dgla(
    structure: ComplexStructure, rank: int, *, check: bool = True
) -> Dgla:
    """The DGLA of conjugate-coframe forms valued in r-by-r matrices.

    Degree q has basis ``a{i1}^...^a{iq}*E{uv}`` (form-major, matrix units
    row-major).  The differential acts on the form part only (the bundle is
    trivial); the bracket wedges forms and commutes matrix values, so it
    vanishes identically for rank 1.
    """
    _integrability_gate(structure)
    if rank < 1:
        raise ValueError("bundle rank must be a positive integer")
    m = structure.m
    square = rank * rank
    words = _anti_words(m)
    gl_labels = [f"E{u + 1}{v + 1}" for u in range(rank) for v in range(rank)]
    basis = {
        q: [_form_label(w, g) for w in ws for g in gl_labels]
        for q, ws in words.items()
    }
    scalar = _scalar_differentials(structure, words)

    differentials: dict[int, ExactMatrix] = {}
    for q in range(m):
        matrix = scalar[q]
        nrows, ncols = len(words[q + 1]) * square, len(words[q]) * square
        rows = [[ZERO] * ncols for _ in range(nrows)]
        if matrix is not None:
            for ri in range(matrix.nrows):
                for ci in range(len(words[q])):
                    v = matrix.rows[ri][ci]
                    if v.is_zero():
                        continue
                    for g in range(square):
                        rows[ri * square + g][ci * square + g] = v
        differentials[q] = ExactMatrix(rows, ncols=ncols)

    index = {q: {w: i for i, w in enumerate(ws)} for q, ws in words.items()}
    entries: dict[tuple[BasisKey, BasisKey], dict[int, GaussianRational]] = {}
    for p in range(m + 1):
        for q in range(p, m + 1):
            if p + q > m:
                continue
            for ia, word_a in enumerate(words[p]):
                for jb, word_b in enumerate(words[q]):
                    normalized = _normalize_word(word_a + word_b)
                    if normalized is None:
                        continue
                    word, sign = normalized
                    base = index[p + q][word] * square
                    for ga in range(square):
                        for gb in range(square):
                            if q == p and jb * square + gb < ia * square + ga:
                                continue
                            u, v = divmod(ga, rank)
                            x, y = divmod(gb, rank)
                            entry: dict[int, GaussianRational] = {}
                            if v == x:
                                pos = base + u * rank + y
                                entry[pos] = entry.get(pos, ZERO) + ONE * sign
                            if y == u:
                                pos = base + x * rank + v
                                entry[pos] = entry.get(pos, ZERO) - ONE * sign
                            entry = {k: c for k, c in entry.items() if not c.is_zero()}
                            if entry:
                                key = ((p, ia * square + ga), (q, jb * square + gb))
                                entries[key] = entry
    dgla = Dgla.from_bracket_entries(basis, differentials, entries)
    if check:
        validate_dgla(dgla)
    return dgla


@dataclass
class PairDgla:
    """The joint DGLA of a (complex structure, trivial bundle) pair.

    In every degree the deformation block occupies the leading positions and
    the endomorphism block the trailing ones, matching
    :func:`kuranishi.dgla.direct_sum` of the two blocks; on top of the
    block-internal brackets the joint structure carries the coupling
    bracket from deformation directions into the bundle block.
    """

    dgla: Dgla
    deformation: Dgla
    endomorphism: Dgla
    rank: int
    curvature: dict[tuple[int, int], ExactMatrix] | None = None

    def deformation_dim(self, degree: int) -> int:
        return self.deformation.dim(degree)

    def has_curvature(self) -> bool:
        return bool(self.curvature)

    def coupling_entries(
        self,
    ) -> dict[tuple[BasisKey, BasisKey], dict[int, GaussianRational]]:
        """All bracket entries that pair the two blocks."""
        out = {}
        for (key_a, key_b), entry in self.dgla.brackets.items():
            in_left = (
                key_a[1] < self.deformation.dim(key_a[0]),
                key_b[1] < self.deformation.dim(key_b[0]),
            )
            if in_left[0] != in_left[1]:
                out[(key_a, key_b)] = dict(entry)
        return out

    def coupling_is_zero(self) -> bool:
        """Whether the blocks interact at all (brackets and differential)."""
        return not self.has_curvature() and not self.coupling_entries()


def _normalize_curvature(
    curvature: Mapping[tuple[int, int], ExactMatrix] | None,
    m: int,
    rank: int,
) -> dict[tuple[int, int], ExactMatrix]:
    out: dict[tuple[int, int], ExactMatrix] = {}
    if curvature is None:
        return out
    for (hol, anti), matrix in curvature.items():
        if not (0 <= hol < m and 0 <= anti < m):
            raise ValueError(
                f"curvature slot ({hol}, {anti}) outside frame range 0..{m - 1}"
            )
        if matrix.nrows != rank or matrix.ncols != rank:
            raise ValueError(
                f"curvature value at ({hol}, {anti}) must be a "
                f"{rank}x{rank} matrix"
            )
        if not matrix.is_zero():
            out[(hol, anti)] = matrix
    return out


def build_pair_dgla(
    structure: ComplexStructure,
    rank: int,
    *,
    curvature: Mapping[tuple[int, int], ExactMatrix] | None = None,
) -> PairDgla:
    """Joint DGLA of the deformation and endomorphism blocks with coupling.

    The coupling bracket of a deformation generator with a bundle generator
    contracts the holomorphic leg of the deformation direction into the
    exterior differential of the bundle generator's form part:  it is the
    same slot-replacement contraction that appears inside the deformation
    bracket, wedged on the left by the deformation form and keeping the
    matrix value.  The built structure is always validated against the DGLA
    axioms and the build aborts on failure.

    ``curvature`` is an expert option: an invariant mixed-type two-form
    valued in the bundle endomorphisms, given as a map from 0-based
    ``(holomorphic, antiholomorphic)`` frame-index pairs to rank-sized
    exact matrices.  It adds the block-coupling term to the differential:
    the image of a deformation generator acquires, with a minus sign, the
    contraction of its holomorphic leg into the curvature, wedged by its
    form part.  The result must still satisfy every DGLA axiom, otherwise
    the build is rejected.
    """
    left = build_deformation_dgla(structure, check=False)
    right = build_endomorphism_dgla(structure, rank, check=False)
    total = direct_sum(left, right)

    m = structure.m
    square = rank * rank
    words = _anti_words(m)
    index = {q: {w: i for i, w in enumerate(ws)} for q, ws in words.items()}
    lam = _contraction_coefficients(structure)

    entries: dict[tuple[BasisKey, BasisKey], dict[int, GaussianRational]] = {
        key: dict(value) for key, value in total.brackets.items()
    }
    for p in range(m + 1):
        for ia, word_a in enumerate(words[p]):
            for a in range(m):
                left_key = (p, ia * m + a)
                for q in range(m + 1 - p):
                    offset_source = left.dim(q)
                    offset_target = left.dim(p + q)
                    for jb, word_b in enumerate(words[q]):
                        contracted: dict[tuple[int, ...], GaussianRational] = {}
                        for new_word, s1, coeff in _replace_slots(word_b, lam[a]):
                            normalized = _normalize_word(word_a + new_word)
                            if normalized is None:
                                continue
                            word, s2 = normalized
                            total_coeff = contracted.get(word, ZERO) + coeff * (s1 * s2)
                            if total_coeff.is_zero():
                                contracted.pop(word, None)
                            else:
                                contracted[word] = total_coeff
                        if not contracted:
                            continue
                        for g in range(square):
                            right_key = (q, offset_source + jb * square + g)
                            entry = {
                                offset_target + index[p + q][word] * square + g: c
                                for word, c in contracted.items()
                            }
                            entries[(left_key, right_key)] = entry
    normalized_curvature = _normalize_curvature(curvature, m, rank)
    differentials = dict(total.differentials)
    if normalized_curvature:
        for p in range(m):
            matrix = total.differential_matrix(p)
            rows = [list(row) for row in matrix.rows]
            changed = False
            for ia, word_a in enumerate(words[p]):
                for a in range(m):
                    column = ia * m + a
                    for (hol, anti), value in normalized_curvature.items():
                        if hol != a:
                            continue
                        normalized = _normalize_word(word_a + (anti,))
                        if normalized is None:
                            continue
                        word, sign = normalized
                        base = left.dim(p + 1) + index[p + 1][word] * square
                        scale = GaussianRational(-sign)
                        for u in range(rank):
                            for v in range(rank):
                                coeff = value.rows[u][v]
                                if coeff.is_zero():
                                    continue
                                row = base + u * rank + v
                                rows[row][column] = (
                                    rows[row][column] + coeff * scale
                                )
                                changed = True
            if changed:
                differentials[p] = ExactMatrix(rows, ncols=matrix.ncols)
    joint = Dgla.from_bracket_entries(total.basis, differentials, entries)
    try:
        validate_dgla(joint)
    except DglaAxiomError as exc:
        if normalized_curvature:
            raise ValueError(
                f"curvature breaks the DGLA axioms: {exc}"
            ) from exc
        raise
    return PairDgla(
        dgla=joint,
        deformation=left,
        endomorphism=right,
        rank=rank,
        curvature=normalized_curvature or None,
    )


def _block_diagonal(top_left: ExactMatrix, bottom_right: ExactMatrix) -> ExactMatrix:
    nrows = top_left.nrows + bottom_right.nrows
    ncols = top_left.ncols + bottom_right.ncols
    rows = [[ZERO] * ncols for _ in range(nrows)]
    for r in range(top_left.nrows):
        rows[r][: top_left.ncols] = list(top_left.rows[r])
    for r in range(bottom_right.nrows):
        rows[top_left.nrows + r][top_left.ncols :] = list(bottom_right.rows[r])
    return ExactMatrix(rows, ncols=ncols)


def direct_sum(left: Dgla, right: Dgla) -> Dgla:
    """Direct sum, with the left block's basis listed first in each degree.

    The two summands do not interact: all cross brackets vanish.
    """
    degrees = sorted(set(left.degrees()) | set(right.degrees()))
    basis = {
        i: list(left.basis.get(i, [])) + list(right.basis.get(i, [])) for i in degrees
    }
    differentials = {
        i: _block_diagonal(left.differential_matrix(i), right.differential_matrix(i))
        for i in degrees
    }
    brackets: BracketTable = {}
    for (key_a, key_b), entry in left.brackets.items():
        brackets[(key_a, key_b)] = dict(entry)
    for ((i, a), (j, b)), entry in right.brackets.items():
        shifted = {c + left.dim(i + j): v for c, v in entry.items()}
        brackets[((i, a + left.dim(i)), (j, b + left.dim(j)))] = shifted
    return Dgla(basis, differentials, brackets)
