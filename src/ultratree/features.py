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

from .errors import MissingEntry, NonSquare, UltratreeError, UnknownCategory, _ReadOnlyDict, _Record, _set
from .matrix import CategoryDistanceMatrix, SignMatrix

FEATURE_CATEGORIES = ("N", "V", "A", "P")

DEFAULT_FEATURE_ROWS: Mapping[str, tuple[int, int]] = {
    "N": (1, -1),
    "V": (-1, 1),
    "A": (1, 1),
    "P": (-1, -1),
}


class FeatureTable(_Record):
    """(+/-N, +/-V) feature values for the four major categories, each a
    tuple of two ints that are +1 or -1 (a bool or a float is refused)."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: Mapping[str, tuple[int, int]] = DEFAULT_FEATURE_ROWS):
        rows = _ReadOnlyDict(rows)  # its own copy, which refuses change
        if tuple(rows) != FEATURE_CATEGORIES:
            raise UltratreeError(f"feature table must cover exactly {FEATURE_CATEGORIES}")
        for category, pair in rows.items():
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise UltratreeError(f"feature values for {category!r} must be an (N, V) tuple, got {pair!r}")
            for value in pair:
                if not isinstance(value, int) or isinstance(value, bool) or value not in (1, -1):
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

    Row and column N hold each category's N value, row and column V its V
    value, so the N and V diagonal cells are those categories' own values
    and N's V value must equal V's N value.  The A and P diagonal cells are
    +1 and the one free cell, (A, P), is ``ap_value`` (-1 by default, which
    balances the matrix at eight positive and eight negative entries).
    """
    table = FeatureTable() if table is None else table
    if not isinstance(ap_value, int) or isinstance(ap_value, bool) or ap_value not in (1, -1):
        raise UltratreeError("ap_value must be +1 or -1")
    (nn, nv), (vn, vv), (an, av), (pn, pv) = table.rows.values()
    if nv != vn:
        raise UltratreeError("feature table does not symmetrize")
    cells = [[nn, nv, an, pn], [vn, vv, av, pv], [an, av, 1, ap_value], [pn, pv, ap_value, 1]]
    return SignMatrix(table.categories, cells)


def _echelon(matrix, square: bool) -> tuple[int, int]:
    """The rank and the signed last pivot of one fraction-free (Bareiss)
    row-echelon pass over a labeled matrix or a sequence of integer rows.
    Raises NonSquare for rows of the wrong length, and UltratreeError naming
    ``rows[i][j]`` for the first entry that is not an int (or is a bool).

    Each pivot is a minor of the input (Sylvester's identity), so every
    division is exact.  At full rank the signed last pivot of a square matrix
    is its determinant; a column without a pivot makes it 0.
    """
    m = [list(row) for row in (matrix.entries if hasattr(matrix, "entries") else matrix)]
    width = len(m) if square else len(m[0]) if m else 0
    if any(len(row) != width for row in m):
        raise NonSquare("determinant needs a square matrix" if square
                        else "matrix_rank needs rows of equal length")
    # A float or Fraction would make the result inexact, and a bool is not a number.
    for i, row in enumerate(m):
        for j, value in enumerate(row):
            if not isinstance(value, int) or isinstance(value, bool):
                raise UltratreeError(f"rows[{i}][{j}]: expected an integer, got {value!r}")
    rank, sign, previous = 0, 1, 1
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            sign = 0  # short of full rank, so the determinant is 0
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        for row in m[rank + 1 :]:
            factor = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * top[col] - factor * top[j]) // previous
        previous = top[col]
        rank += 1
    return rank, sign * previous


def determinant(matrix) -> int:
    """Exact integer determinant; accepts a labeled matrix or integer rows."""
    return _echelon(matrix, square=True)[1]


def matrix_rank(matrix) -> int:
    """Exact rank, the pivot count; accepts a labeled matrix or integer rows."""
    return _echelon(matrix, square=False)[0]


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
