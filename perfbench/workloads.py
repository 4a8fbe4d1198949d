"""The benchmark's inputs and the facts its output checks rely on.

Everything here is kept apart from ``kuranishi.catalog``: the structure
constants and frames are written out again from the definitions of the
structures, and the expected values come from the mathematics, not from the
program's own tables.
"""

from __future__ import annotations

import random
from fractions import Fraction

M = 3  # complex dimension of every structure here

_MI = (0, -1)
_HALF = (Fraction(1, 2), 0)
_MHI = (0, Fraction(-1, 2))
_STANDARD_FRAME = [
    [1, _MI, 0, 0, 0, 0],
    [0, 0, 1, _MI, 0, 0],
    [0, 0, 0, 0, 1, _MI],
]

# Structures given as JSON configs in frames-r1, in the catalog's basis:
# the Lie algebra (a structure string or [i, j, k, c] constants) and the
# holomorphic coframe, each scalar an int or an (re, im) pair.
STRUCTURES = {
    "torus": {"algebra": {"dimension": 6, "constants": []}, "frame": _STANDARD_FRAME},
    "iwasawa": {
        "algebra": {
            "dimension": 6,
            "constants": [
                [1, 3, 5, "-1/2"],
                [1, 4, 6, "-1/2"],
                [2, 3, 6, "-1/2"],
                [2, 4, 5, "1/2"],
            ],
        },
        "frame": _STANDARD_FRAME,
    },
    "n3": {"algebra": "(0,0,0,0,0,12+34)", "frame": _STANDARD_FRAME},
    "n8": {"algebra": "(0,0,0,0,0,12)", "frame": _STANDARD_FRAME},
    "n9": {
        "algebra": "(0,0,0,0,12,14+25)",
        "frame": [
            [1, _MI, 0, 0, 0, 0],
            [0, 0, 0, 1, _MI, 0],
            [0, 0, 1, 0, 0, _MI],
        ],
    },
    "example1": {
        "algebra": {"dimension": 6, "constants": [[1, 2, 3, 1], [4, 5, 6, 1]]},
        "frame": [
            [_HALF, _MHI, 0, 0, 0, 0],
            [0, 0, 0, _HALF, _MHI, 0],
            [0, 0, _HALF, 0, 0, _MHI],
        ],
    },
}

# h^{0,1} of each structure: 3 when the complex structure is abelian (every
# (0,1)-form is closed), 2 on the Iwasawa manifold, where one of the three
# (0,1)-forms has a nonzero differential.
H01 = {
    "torus": 3,
    "iwasawa": 2,
    "n3": 3,
    "n8": 3,
    "n9": 3,
    "example1": 3,
    "example2": 3,
}

# The paper's statements at bundle rank one.  A complex parallelizable
# nilmanifold with a trivial bundle splits by a direct sum (the Iwasawa
# manifold; the torus is the abelian case of it); both worked examples on
# abelian complex structures do not split, and in the first the joint germ
# is cut out by a single quadric mixing the manifold and bundle parameters.
PAPER = {
    "iwasawa": {"verdict": "SplitsByDirectSum"},
    "torus": {"verdict": "SplitsByDirectSum"},
    "example1": {"verdict": "DoesNotSplit", "joint_single_cross_quadric": True},
    "example2": {"verdict": "DoesNotSplit"},
}

CATALOG_NAMES = ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")
FRAME_NAMES = ("torus", "iwasawa", "n3", "n8", "n9", "example1")

# Off-diagonal entries of the frame-mixing factors.  Every value has the
# same height (numerators 1 and 2, denominator 3), so the cost of a mixed
# frame varies little from seed to seed.
_MIXING_VALUES = tuple(
    (Fraction(a, 3), Fraction(b, 3))
    for a, b in ((1, 2), (2, 1), (1, -2), (2, -1), (-1, 2), (-2, 1), (-1, -2), (-2, -1))
)
_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


# Gaussian rationals as (re, im) pairs of Fractions.
ZERO = (Fraction(0), Fraction(0))


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _as_pair(value):
    if isinstance(value, tuple):
        return (Fraction(value[0]), Fraction(value[1]))
    return (Fraction(value), Fraction(0))


def _json_scalar(value):
    re, im = value

    def text(q: Fraction):
        return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if im == 0:
        return text(re)
    return [text(re), text(im)]


def mixing_matrix(rng: random.Random) -> list[list[tuple]]:
    """A dense invertible m-by-m Gaussian-rational matrix ``L @ U``.

    ``L`` is unit lower triangular, ``U`` upper triangular with unit-modulus
    diagonal (1, -1, i or -i), and every off-diagonal entry of either is
    drawn from ``_MIXING_VALUES``; so the product is invertible.
    """
    lower = [[ZERO] * M for _ in range(M)]
    upper = [[ZERO] * M for _ in range(M)]
    for i in range(M):
        lower[i][i] = (Fraction(1), Fraction(0))
        upper[i][i] = _as_pair(rng.choice(_UNITS))
        for j in range(M):
            if j < i:
                lower[i][j] = rng.choice(_MIXING_VALUES)
            elif j > i:
                upper[i][j] = rng.choice(_MIXING_VALUES)
    product = [[ZERO] * M for _ in range(M)]
    for i in range(M):
        for j in range(M):
            for k in range(M):
                product[i][j] = cadd(product[i][j], cmul(lower[i][k], upper[k][j]))
    return product


def mixed_frame_document(name: str, seed: int) -> dict:
    """Config for ``name`` with its coframe rows mixed by a seeded matrix.

    Row-mixing by an invertible matrix keeps the span of the (1,0)-forms,
    so the complex structure -- and every invariant -- is unchanged.
    """
    rng = random.Random(f"frames-r1/{seed}/{name}")
    mixing = mixing_matrix(rng)
    frame = [[_as_pair(x) for x in row] for row in STRUCTURES[name]["frame"]]
    mixed = []
    for i in range(M):
        row = [ZERO] * (2 * M)
        for k in range(M):
            row = [cadd(acc, cmul(mixing[i][k], x)) for acc, x in zip(row, frame[k])]
        mixed.append([_json_scalar(x) for x in row])
    algebra = STRUCTURES[name]["algebra"]
    return {
        "lieAlgebra": algebra,
        "complexStructure": {"frame": mixed},
        "bundleRank": 1,
    }


def catalog_document(name: str, rank: int) -> dict:
    return {"catalog": name, "bundleRank": rank}


def analyses(workload: str, seed: int) -> list[dict]:
    """The timed analyses of one pass of a workload.

    Each item holds the ``name`` of the structure, the bundle ``rank``, the
    config ``document`` handed to the program, for frames-r1 the
    ``reference`` document of the same structure in its catalog frame, and
    for singular-r2 the dimension of the endomorphism germ.
    """
    if workload == "catalog-r1":
        return [
            {"name": n, "rank": 1, "document": catalog_document(n, 1)}
            for n in CATALOG_NAMES
        ]
    if workload == "frames-r1":
        return [
            {
                "name": n,
                "rank": 1,
                "document": mixed_frame_document(n, seed),
                "reference": catalog_document(n, 1),
            }
            for n in FRAME_NAMES
        ]
    if workload == "singular-r2":
        return [
            {
                "name": "example1",
                "rank": 2,
                "document": catalog_document("example1", 2),
                # Commuting triples of 2x2 matrices: a regular first matrix
                # (4 dimensions) and two more in its 2-dimensional centralizer.
                "commuting_dimension": 8,
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("catalog-r1", "frames-r1", "singular-r2")
