"""Minimum ultrametric distances between lexical categories over a corpus.

Each tree's leaf matrix is ultrametric, but their minimum need not be: the
bundled corpus's, its diagonal set to 0, fails ``check_ultrametric`` on 7
triples, as d(V, A) = 4 > max(d(V, P), d(A, P)) = 3."""

from __future__ import annotations

import os
from collections.abc import Sequence

from .errors import EmptyCorpus, MissingEntry, UnknownLabel, _Record, _set
from .matrix import CategoryDistanceMatrix
from .trees import PhraseTree, parse_tree_file

DEFAULT_CATEGORY_ORDER = ("D", "N", "V", "A", "P")


def load_category_corpus() -> list[PhraseTree]:
    """The five-tree sample corpus behind the category distance matrix, read
    as any tree file is from the plain, editable ``data/category_corpus.trees``."""
    return parse_tree_file(os.path.join(os.path.dirname(__file__), "data", "category_corpus.trees"))


def tree_category_minima(tree: PhraseTree) -> dict[tuple[str, str], int]:
    """Minimum leaf distance per unordered category pair present in the tree.

    Same-category pairs are included when the tree holds two or more tokens
    of the category.  A tree with fewer than two leaves yields an empty map.
    One preorder pass: two leaves' distance is the largest step (the join
    height of two adjacent leaves) between them, so the nearest earlier leaf
    of a category is also the closest."""
    minima: dict[tuple[str, str], int] = {}
    since: dict[str, int] = {}  # per category seen, the largest step since its last leaf
    step, up, height = 0, tree._up, tree._height
    for p, (x, word) in enumerate(zip(tree._label, tree._word)):
        if up[p] + 1 != p:  # not a first child: the last leaf before p meets p's leaves at the parent
            step = height[up[p]]
        if word is not None:
            for y, d in since.items():
                if d < step:
                    since[y] = d = step
                pair = (x, y) if x <= y else (y, x)
                if pair not in minima or d < minima[pair]:
                    minima[pair] = d
            since[x] = 0
    return minima


def min_distance_matrix(
    corpus: Sequence[PhraseTree], categories: Sequence[str] | None = None
) -> CategoryDistanceMatrix:
    """Entrywise minimum of per-tree category minima across a corpus.

    ``categories`` fixes the label order; by default the conventional
    D, N, V, A, P order is used for the categories it covers, and any other
    categories seen in the corpus follow alphabetically.  Pairs never seen
    together are absent (None).
    """
    if not corpus:
        raise EmptyCorpus("corpus has no trees")
    combined: dict[tuple[str, str], int] = {}
    seen: set[str] = set()
    for tree in corpus:
        seen.update(tree.leaf_categories())
        for pair, d in tree_category_minima(tree).items():
            if pair not in combined or d < combined[pair]:
                combined[pair] = d
    if categories is None:
        ordered = [c for c in DEFAULT_CATEGORY_ORDER if c in seen]
        ordered += sorted(seen - set(ordered))
    else:
        ordered = list(categories)
    rows = [tuple([combined.get((x, y) if x <= y else (y, x)) for y in ordered]) for x in ordered]
    return CategoryDistanceMatrix._made(tuple(ordered), tuple(rows))


def check_nested_pattern(matrix: CategoryDistanceMatrix, order: Sequence[str], start: int) -> bool:
    """Test the nested band pattern along a category order.

    True iff for the order c0..cn every entry in row r equals ``start + r``:
    d(c0, ck) = start for all k > 0, d(c1, ck) = start + 1 for k > 1, and so
    on, each row constant and one higher than the last.  Such a matrix on
    n >= 3 categories is not ultrametric: each triple ci, cj, ck (i < j < k)
    has sides start + i, start + i and start + j, a unique longest side, so
    ``check_ultrametric`` fails all C(n, 3) triples of the categories."""
    for category in order:
        if category not in matrix.labels:
            raise UnknownLabel(f"category {category!r} not in matrix")
    n = len(order)
    required = [(order[r], order[k], start + r) for r in range(n - 1) for k in range(r + 1, n)]
    for c1, c2, _ in required:
        if matrix.get(c1, c2) is None:
            raise MissingEntry(f"no entry for pair ({c1}, {c2})")
    return all(matrix.get(c1, c2) == expected for c1, c2, expected in required)


class ComplexityReport(_Record):
    """Root heights per tree as (tree index, root height), their maximum, and
    the trees over the bound."""

    __slots__ = _fields = ("per_tree", "max_height", "bound", "exceeding")

    def __init__(
        self, per_tree: tuple[tuple[int, int], ...], max_height: int, bound: int, exceeding: tuple[int, ...]
    ):
        _set(self, "per_tree", per_tree)
        _set(self, "max_height", max_height)
        _set(self, "bound", bound)
        _set(self, "exceeding", exceeding)

    def to_json_dict(self) -> dict:
        return {
            "per_tree": [{"tree": i, "height": h} for i, h in self.per_tree],
            "max_height": self.max_height,
            "bound": self.bound,
            "exceeding": list(self.exceeding),
        }


def complexity(corpus: Sequence[PhraseTree], bound: int = 12) -> ComplexityReport:
    """Sentence complexity as root height, flagged against a configurable bound.

    The default bound of 12 is a rough working ceiling for natural sentences,
    not an assertion; trees above it are listed, never rejected.
    """
    per_tree = [(index, tree.height(0)) for index, tree in enumerate(corpus)]  # the root is position 0
    max_height = max((h for _, h in per_tree), default=0)
    exceeding = tuple(i for i, h in per_tree if h > bound)
    return ComplexityReport(tuple(per_tree), max_height, bound, exceeding)
