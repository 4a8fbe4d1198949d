"""Builder for the invariant deformation DGLA of a (nilmanifold, bundle) pair.

Given a nilpotent Lie algebra with an integrable left-invariant complex
structure and a bundle rank r, one differential graded Lie algebra is built
on (0,q)-forms in the conjugate coframe legs ``a1..am`` with values in one
algebra W + gl_r: the holomorphic frame directions ``W1..Wm`` followed by
the r-by-r matrix units ``E11..Err``.  Its bracket is one rule: wedge the
forms, bracket the values (the holomorphic part of the frame bracket on W,
the commutator on gl_r), and let each W value act on the other form by
contracting its holomorphic leg into that form's differential.

This module owns the calculus of those forms: the wedge sort of leg words,
and the two derivations read off the frame structure constants of
:class:`kuranishi.lie.ComplexStructure`, the (0,2)-part of the exterior
differential (the form part of the DGLA differential) and the holomorphic
contractions (the W action in the bracket).  Both are leg tables extended
over a word slot by slot.  A build tabulates the wedges of word pairs, the
contraction images and the value brackets once, and emits the bracket
table from their nonzero products only.

The two blocks are read off the joint DGLA.  The W-valued forms, in the
leading positions of every degree, make the *deformation* DGLA of the
complex structure; the gl_r-valued forms, in the trailing positions, make
the *endomorphism* DGLA of the trivial bundle.  The gl_r block is an ideal
and the W block is the quotient by it (a sub-DGLA when there is no
curvature), so both are lawful whenever the joint DGLA is.  Every build is
validated against the full set of DGLA axioms and aborts on failure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .dgla import BracketTable, Dgla, DglaAxiomError, validate_dgla
from .lie import ComplexStructure
from .linalg import ExactMatrix
from .scalars import GaussianRational, ONE, ZERO

__all__ = ["PairDgla", "build_pair_dgla"]

#: A basis element: its sorted conjugate-leg word and its value index, which
#: is ``a`` for ``W{a+1}`` and ``m + u*r + v`` for ``E{u+1}{v+1}``.
Element = tuple[tuple[int, ...], int]


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


def _normalize_word(seq: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort a wedge word; return (sorted word, sign) or None when repeated."""
    if len(set(seq)) < len(seq):
        return None
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


def _signed(value: GaussianRational, sign: int) -> GaussianRational:
    """``value`` times the sign ``+1`` or ``-1``, by negation."""
    return value if sign > 0 else -value


#: ``table[j]`` maps a sorted leg word to its coefficient in the image of
#: the leg ``a^{j+1}`` under a derivation of the conjugate coframe forms.
LegTable = list[dict[tuple[int, ...], GaussianRational]]


def _contraction_coefficients(structure: ComplexStructure) -> list[LegTable]:
    """Leg tables of the holomorphic contractions.

    ``lam[a][j]`` maps ``(b,)`` to the coefficient of ``a^b`` in the
    (0,1)-part of the contraction of ``W_{a+1}`` into the differential of
    ``a^{j+1}``.
    """
    m = structure.m
    lam: list[LegTable] = [[{} for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            for c, v in structure.frame_bracket(a, m + b).items():
                if c >= m:
                    lam[a][c - m][(b,)] = -v
    return lam


def _dbar_coefficients(structure: ComplexStructure) -> LegTable:
    """Leg table of the (0,2)-part of the exterior differential.

    From ``(d a)(x, y) = -a([x, y])``, ``dbar[j]`` maps ``(a, b)``, ``a < b``,
    to the coefficient ``-Gamma^{m+j}_{m+a, m+b}`` of ``a^{a+1} ^ a^{b+1}``
    in ``d a^{j+1}``, where Gamma are the doubled-frame structure constants.
    """
    m = structure.m
    dbar: LegTable = [{} for _ in range(m)]
    for a, b in combinations(range(m), 2):
        for c, v in structure.frame_bracket(m + a, m + b).items():
            if c >= m:
                dbar[c - m][(a, b)] = -v
    return dbar


def _replace_slots(
    word: tuple[int, ...], table: LegTable
) -> list[tuple[tuple[int, ...], int, GaussianRational]]:
    """Extend a leg table slot-by-slot over a sorted wedge word.

    Returns ``(new_word, sign, coeff)`` triples: one for every way of
    replacing a single leg ``a^j`` of ``word`` in place by a word carrying
    ``table[j][...]``.  ``sign`` holds the resorting parity and, for a
    replacement of ``k`` legs, the derivation sign ``(-1)^(slot (k - 1))``:
    none for a contraction, ``(-1)^slot`` for the differential.
    """
    out: list[tuple[tuple[int, ...], int, GaussianRational]] = []
    for r, j in enumerate(word):
        for legs, coeff in table[j].items():
            replaced = word[:r] + legs + word[r + 1 :]
            normalized = _normalize_word(replaced)
            if normalized is None:
                continue
            new_word, sign = normalized
            if r * (len(legs) - 1) % 2:
                sign = -sign
            out.append((new_word, sign, coeff))
    return out


def _value_bracket(
    structure: ComplexStructure, rank: int, x: int, y: int
) -> list[tuple[int, GaussianRational]]:
    """``[x, y]`` of two values as ``(value, coeff)`` terms.

    The frame bracket on W, the commutator on gl_r, and zero between the
    two: a W value reaches a gl_r-valued form through its form part only.
    [W_x, W_y] has no (0,1)-part, since ``_integrability_gate`` rejects any
    structure where it has one before the builder reads a bracket.
    """
    m = structure.m
    if x < m and y < m:
        return list(structure.frame_bracket(x, y).items())
    if x < m or y < m:
        return []
    (u, v), (s, t) = divmod(x - m, rank), divmod(y - m, rank)
    out = []
    if v == s:
        out.append((m + u * rank + t, ONE))
    if t == u:
        out.append((m + s * rank + v, -ONE))
    return out


def _accumulate(
    acc: dict[int, GaussianRational], position: int, coeff: GaussianRational
) -> None:
    total = acc.get(position, ZERO) + coeff
    if total.is_zero():
        acc.pop(position, None)
    else:
        acc[position] = total


@dataclass
class PairDgla:
    """The joint DGLA of a (complex structure, trivial bundle) pair.

    In every degree the deformation block occupies the leading positions and
    the endomorphism block the trailing ones; ``deformation`` and
    ``endomorphism`` are those blocks read off ``dgla``, whose brackets and
    differential also carry the coupling between them.
    """

    dgla: Dgla
    deformation: Dgla
    endomorphism: Dgla
    rank: int
    curvature: dict[tuple[int, int], ExactMatrix] | None = None

    def has_curvature(self) -> bool:
        return bool(self.curvature)

    @functools.cached_property
    def coupling(self) -> BracketTable:
        """All bracket entries that pair the two blocks, found on first use.

        The entries are the joint table's own dicts: read, never change them.
        """
        split = self.deformation.dim
        return {
            (key_a, key_b): entry
            for (key_a, key_b), entry in self.dgla.brackets.items()
            if (key_a[1] < split(key_a[0])) != (key_b[1] < split(key_b[0]))
        }

    def coupling_is_zero(self) -> bool:
        """Whether the blocks interact at all (brackets and differential)."""
        return not self.has_curvature() and not self.coupling


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


def _block(dgla: Dgla, start: Mapping[int, int], stop: Mapping[int, int]) -> Dgla:
    """The positions ``start[q] <= i < stop[q]`` of every degree as a DGLA.

    The span must be closed under the bracket; components of the
    differential that leave it are dropped, which is the quotient by an
    ideal complementing the span.
    """
    basis = {q: labels[start[q] : stop[q]] for q, labels in dgla.basis.items()}
    differentials = {}
    for q, matrix in dgla.differentials.items():
        rows = matrix.rows[start[q + 1] : stop[q + 1]]
        differentials[q] = ExactMatrix(
            [row[start[q] : stop[q]] for row in rows], ncols=stop[q] - start[q]
        )
    brackets: BracketTable = {}
    for ((i, a), (j, b)), entry in dgla.brackets.items():
        if start[i] <= a < stop[i] and start[j] <= b < stop[j]:
            shift = start[i + j]
            brackets[((i, a - start[i]), (j, b - start[j]))] = {
                c - shift: v for c, v in entry.items()
            }
    return Dgla(basis, differentials, brackets)


def build_pair_dgla(
    structure: ComplexStructure,
    rank: int,
    *,
    curvature: Mapping[tuple[int, int], ExactMatrix] | None = None,
) -> PairDgla:
    """The DGLA of conjugate-coframe forms valued in W + gl_r, and its blocks.

    Degree q lists ``a{i1}^...^a{iq}*W{a}`` first (form-major, vector
    minor), then ``a{i1}^...^a{iq}*E{uv}`` (form-major, matrix units
    row-major).  The differential is the (0,q+1) component of the exterior
    differential on the form part, plus the holomorphic projection of the
    conjugate frame's action on W values.  The bracket of ``A*x`` and
    ``B*y`` is ``(A^B)*[x, y]``, plus ``i_x dB`` wedged on the left by ``A``
    and valued in ``y`` when ``x`` is a W value, plus the mirror term when
    ``y`` is one; so a W value contracts its holomorphic leg into the
    differential of the form it meets in either block.  The built structure
    is always validated against the DGLA axioms and the build aborts on
    failure.

    ``curvature`` is an expert option: an invariant mixed-type two-form
    valued in the bundle endomorphisms, given as a map from 0-based
    ``(holomorphic, antiholomorphic)`` frame-index pairs to rank-sized
    exact matrices.  It adds the block-coupling term to the differential:
    the image of a deformation generator acquires, with a minus sign, the
    contraction of its holomorphic leg into the curvature, wedged by its
    form part.  The result must still satisfy every DGLA axiom, otherwise
    the build is rejected.

    Raises ``ValueError`` when the structure is not integrable, the rank is
    not positive, or the curvature is malformed or breaks the axioms.
    """
    _integrability_gate(structure)
    if rank < 1:
        raise ValueError("bundle rank must be a positive integer")
    m = structure.m
    square = rank * rank
    normalized_curvature = _normalize_curvature(curvature, m, rank)
    value_labels = [f"W{a + 1}" for a in range(m)]
    value_labels += [f"E{u + 1}{v + 1}" for u in range(rank) for v in range(rank)]
    words = {q: list(combinations(range(m), q)) for q in range(m + 1)}
    elements: dict[int, list[Element]] = {
        q: [(w, a) for w in ws for a in range(m)]
        + [(w, m + g) for w in ws for g in range(square)]
        for q, ws in words.items()
    }
    position = {q: {e: i for i, e in enumerate(es)} for q, es in elements.items()}
    basis = {
        q: [_form_label(w, value_labels[x]) for w, x in es]
        for q, es in elements.items()
    }
    lam = _contraction_coefficients(structure)
    values = range(m + square)

    # per-build tables: wedges[b][a] is ``(a ^ b sorted, sign)`` for disjoint
    # words, contraction[x][w] the terms of ``i_{W x} d w``, value_brackets
    # the nonzero ``[x, y]``
    all_words = [w for ws in words.values() for w in ws]
    wedges: dict[tuple[int, ...], dict] = {b: {} for b in all_words}
    for a in all_words:
        for b in all_words:
            normalized = _normalize_word(a + b)
            if normalized is not None:
                wedges[b][a] = normalized
    contraction = [
        {
            w: [(new_word, _signed(c, s)) for new_word, s, c in _replace_slots(w, lam[x])]
            for w in all_words
        }
        for x in range(m)
    ]
    value_brackets = {}
    for x in values:
        for y in values:
            terms = _value_bracket(structure, rank, x, y)
            if terms:
                value_brackets[x, y] = terms

    # The table keeps the pairs of basis keys key_a <= key_b, for
    # Dgla.from_bracket_entries to complete; it is emitted from its nonzero
    # sources only, and an entry that cancels to {} is dropped there.
    entries: BracketTable = {}

    # the wedge term (A ^ B) * [x, y] of [A * x, B * y]
    for (x, y), terms in value_brackets.items():
        for word_b in all_words:
            key_b = (len(word_b), position[len(word_b)][(word_b, y)])
            for word_a, (word, sign) in wedges[word_b].items():
                key_a = (len(word_a), position[len(word_a)][(word_a, x)])
                if key_a > key_b:
                    continue
                entry = entries.setdefault((key_a, key_b), {})
                targets = position[len(word)]
                for value, coeff in terms:
                    _accumulate(entry, targets[(word, value)], _signed(coeff, sign))
    # A W value x of (P, x) contracted into d Q, wedged on the left by P and
    # valued in Q's value y: a term of [(P, x), (Q, y)], and by graded
    # antisymmetry of [(Q, y), (P, x)] with the sign -(-1)^(pq)
    for x in range(m):
        for word_q, image in contraction[x].items():
            q = len(word_q)
            for new_word, coeff in image:
                for word_p, (word, sign) in wedges[new_word].items():
                    p = len(word_p)
                    key_p = (p, position[p][(word_p, x)])
                    targets = position[p + q]
                    term = _signed(coeff, sign)
                    mirror = term if (p * q) % 2 else -term
                    for y in values:
                        key_q = (q, position[q][(word_q, y)])
                        target = targets[(word, y)]
                        for pair, v in (((key_p, key_q), term), ((key_q, key_p), mirror)):
                            if pair[0] <= pair[1]:
                                _accumulate(entries.setdefault(pair, {}), target, v)

    dbar = _dbar_coefficients(structure)
    # the holomorphic part of [conj W_b, W_x], read by the W action
    w_action = {
        (b, x): [(c, v) for c, v in structure.frame_bracket(m + b, x).items() if c < m]
        for b in range(m)
        for x in range(m)
    }
    differentials: dict[int, ExactMatrix] = {}
    for q in range(m):
        form_image = {
            word: [(w, _signed(c, s)) for w, s, c in _replace_slots(word, dbar)]
            for word in words[q]
        }
        targets = position[q + 1]
        rows = [[ZERO] * len(elements[q]) for _ in elements[q + 1]]
        for col, (word, x) in enumerate(elements[q]):
            image: dict[int, GaussianRational] = {}
            for new_word, v in form_image[word]:
                _accumulate(image, targets[(new_word, x)], v)
            if x < m:
                for b in range(m):
                    wedged = wedges[word].get((b,))
                    if wedged is None:
                        continue
                    new_word, sign = wedged
                    for c, v in w_action[b, x]:
                        _accumulate(image, targets[(new_word, c)], _signed(v, sign))
                for (hol, anti), matrix in normalized_curvature.items():
                    wedged = wedges[(anti,)].get(word)
                    if hol != x or wedged is None:
                        continue
                    new_word, sign = wedged
                    for g in range(square):
                        coeff = _signed(matrix.rows[g // rank][g % rank], -sign)
                        _accumulate(image, targets[(new_word, m + g)], coeff)
            for row, v in image.items():
                rows[row][col] = v
        differentials[q] = ExactMatrix(rows, ncols=len(elements[q]))

    joint = Dgla.from_bracket_entries(basis, differentials, entries)
    try:
        validate_dgla(joint)
    except DglaAxiomError as exc:
        if normalized_curvature:
            raise ValueError(f"curvature breaks the DGLA axioms: {exc}") from exc
        raise
    split = {q: m * len(ws) for q, ws in words.items()}
    return PairDgla(
        dgla=joint,
        deformation=_block(joint, dict.fromkeys(words, 0), split),
        endomorphism=_block(joint, split, {q: joint.dim(q) for q in words}),
        rank=rank,
        curvature=normalized_curvature or None,
    )
