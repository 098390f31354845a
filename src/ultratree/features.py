"""The binary noun/verb feature system and its sign matrix.

Each of the four major lexical categories carries a +/-1 value for the
nominal and verbal features (noun +N -V, verb -N +V, adjective +N +V,
preposition -N -V).  Symmetrizing the category-by-feature table produces a
4x4 sign matrix with one free entry, the adjective/preposition cell.  The
matrix is singular, splits into 2x2 blocks expressible with Pauli matrices,
and bears no monotone relation to the corpus distance matrix; all of that is
checkable here in exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations

from .errors import MissingEntry, NonSquare, UltratreeError, UnknownCategory, _Record, _set
from .matrix import CategoryDistanceMatrix, SignMatrix

FEATURE_CATEGORIES = ("N", "V", "A", "P")

DEFAULT_FEATURE_ROWS: Mapping[str, tuple[int, int]] = {
    "N": (1, -1),
    "V": (-1, 1),
    "A": (1, 1),
    "P": (-1, -1),
}


class FeatureTable(_Record):
    """(+/-N, +/-V) feature values for the four major categories."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: Mapping[str, tuple[int, int]] = DEFAULT_FEATURE_ROWS):
        rows = dict(rows)  # its own copy: a caller's later change cannot reach it
        if tuple(rows) != FEATURE_CATEGORIES:
            raise UltratreeError(f"feature table must cover exactly {FEATURE_CATEGORIES}")
        for category, (n_value, v_value) in rows.items():
            if n_value not in (1, -1) or v_value not in (1, -1):
                raise UltratreeError(f"feature values for {category!r} must be +1 or -1")
        _set(self, "rows", rows)

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(self.rows)

    def vector(self, category: str) -> tuple[int, int]:
        try:
            return self.rows[category]
        except KeyError:
            raise UnknownCategory(f"category {category!r} not in feature table") from None


def build_feature_matrix(
    table: FeatureTable | None = None, ap_value: int = -1
) -> SignMatrix:
    """Symmetric 4x4 sign matrix over (N, V, A, P) from the feature table.

    The N and V columns hold each category's feature values and are mirrored
    by symmetry; the diagonal is +1; the single remaining unknown, the (A, P)
    cell, is ``ap_value`` (-1 by default, which balances the matrix at eight
    positive and eight negative entries).
    """
    table = FeatureTable() if table is None else table
    if ap_value not in (1, -1):
        raise UltratreeError("ap_value must be +1 or -1")
    order = table.categories
    n = len(order)
    cells: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, category in enumerate(order):
        n_value, v_value = table.vector(category)
        cells[i][0] = n_value
        cells[i][1] = v_value
    for i in range(n):
        for j in (0, 1):
            if cells[j][i] is None:
                cells[j][i] = cells[i][j]
            elif cells[j][i] != cells[i][j]:
                raise UltratreeError("feature table does not symmetrize")
    cells[2][2] = cells[3][3] = 1
    cells[2][3] = cells[3][2] = ap_value
    return SignMatrix(order, cells)


def determinant(matrix) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination).

    Accepts a labeled matrix or a plain sequence of integer rows.
    """
    rows = matrix.entries if hasattr(matrix, "entries") else matrix
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSquare("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    previous = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
            m[i][k] = 0
        previous = m[k][k]
    return sign * m[n - 1][n - 1]


def matrix_rank(matrix) -> int:
    """Rank by integer row reduction (cross-multiplication, no division)."""
    rows = matrix.entries if hasattr(matrix, "entries") else matrix
    m = [list(row) for row in rows]
    if not m:
        return 0
    width = len(m[0])
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor_i, factor_r = m[rank][col], m[i][col]
                m[i] = [factor_i * a - factor_r * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# 2x2 complex matrices as (real, imag) integer pairs, so the block assembly
# below stays in exact Gaussian-integer arithmetic.
_IDENTITY_2 = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
_SIGMA_1 = (((0, 0), (1, 0)), ((1, 0), (0, 0)))
_SIGMA_2 = (((0, 0), (0, -1)), ((0, 1), (0, 0)))
_SIGMA_3 = (((1, 0), (0, 0)), ((0, 0), (-1, 0)))


def _combine(*terms):
    """The 2x2 block sum of ``coefficient * block`` over ``(coefficient,
    block)`` terms, each coefficient a (real, imag) integer pair."""
    out = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]
    for (a, b), block in terms:
        for i, row in enumerate(block):
            for j, (c, d) in enumerate(row):
                real, imag = out[i][j]
                out[i][j] = (real + a * c - b * d, imag + a * d + b * c)
    return out


def pauli_assembly() -> list[list[complex]]:
    """The sign matrix rebuilt from 2x2 Pauli blocks.

    Top-left and bottom-right blocks are I - sigma1, top-right is
    -i*sigma2 + sigma3, bottom-left is +i*sigma2 + sigma3.  The imaginary
    parts cancel exactly, leaving the integer sign matrix.
    """
    one = (1, 0)
    diagonal = _combine((one, _IDENTITY_2), ((-1, 0), _SIGMA_1))
    blocks = (
        (diagonal, _combine(((0, -1), _SIGMA_2), (one, _SIGMA_3))),
        (_combine(((0, 1), _SIGMA_2), (one, _SIGMA_3)), diagonal),
    )
    return [[complex(*blocks[r // 2][c // 2][r % 2][c % 2]) for c in range(4)] for r in range(4)]


def feature_distance(table: FeatureTable, c1: str, c2: str) -> int:
    """Hamming distance between two categories' feature vectors (0, 1, or 2)."""
    return sum(a != b for a, b in zip(table.vector(c1), table.vector(c2)))


def _is_monotone_map(pairs: list[tuple[int, int]]) -> bool:
    """Whether some nondecreasing function sends the first coordinates to the second."""
    image: dict[int, int] = {}
    for x, y in pairs:
        if x in image and image[x] != y:
            return False
        image[x] = y
    ordered = sorted(image.items())
    return all(a[1] <= b[1] for a, b in zip(ordered, ordered[1:]))


def compare_feature_vs_ultrametric(
    table: FeatureTable, distances: CategoryDistanceMatrix
) -> dict:
    """Set feature distances beside corpus ultrametric distances per pair.

    Reports both distances for every category pair and whether a monotone
    (order-preserving) map carries either distance onto the other.  On the
    standard values no such map exists in either direction.
    """
    pairs = []
    for c1, c2 in combinations(table.categories, 2):
        u = distances.get(c1, c2) if c1 in distances.labels and c2 in distances.labels else None
        if u is None:
            raise MissingEntry(f"no ultrametric distance for pair ({c1}, {c2})")
        pairs.append(
            {
                "pair": [c1, c2],
                "feature_distance": feature_distance(table, c1, c2),
                "ultrametric_distance": u,
            }
        )
    forward = _is_monotone_map(
        [(p["feature_distance"], p["ultrametric_distance"]) for p in pairs]
    )
    backward = _is_monotone_map(
        [(p["ultrametric_distance"], p["feature_distance"]) for p in pairs]
    )
    return {
        "pairs": pairs,
        "monotone_feature_to_ultrametric": forward,
        "monotone_ultrametric_to_feature": backward,
        "monotone_relation": forward or backward,
    }
