"""Category distance aggregation, the nested pattern, and complexity."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    CategoryDistanceMatrix,
    DistanceMatrix,
    EmptyCorpus,
    MissingEntry,
    UnknownLabel,
    check_nested_pattern,
    check_ultrametric,
    complexity,
    enumerate_binary_trees,
    leaf_matrix,
    load_category_corpus,
    min_distance_matrix,
    parse_tree,
    random_tree,
    tree_category_minima,
)

from . import helpers as fx
from .helpers import brute_leaf_distance

SVO = "(S (NP (D the) (N man)) (VP (V ate) (NP (D a) (N dog))))"
ADJECTIVE_OBJECT = (
    "(S (NP (D the) (N man)) (VP (V ate) (NP (D a) (N' (AP (A big)) (N' (N dog))))))"
)

U_ENTRIES = {
    ("D", "N"): 1,
    ("D", "V"): 2,
    ("D", "A"): 2,
    ("D", "P"): 2,
    ("N", "V"): 2,
    ("N", "A"): 2,
    ("N", "P"): 2,
    ("A", "V"): 4,
    ("P", "V"): 3,
    ("A", "P"): 3,
}


class TestTreeCategoryMinima:
    def test_svo_tree(self):
        minima = tree_category_minima(parse_tree(SVO))
        assert minima[("D", "N")] == 1
        assert minima[("D", "V")] == 2
        assert minima[("N", "V")] == 2
        # same-category pairs from distinct tokens
        assert minima[("D", "D")] == 3
        assert minima[("N", "N")] == 3

    def test_adjective_attachment_distance(self):
        minima = tree_category_minima(parse_tree(ADJECTIVE_OBJECT))
        assert minima[("A", "V")] == 4
        assert minima[("A", "N")] == 2

    def test_single_leaf_empty(self):
        assert tree_category_minima(parse_tree("(N dog)")) == {}


class TestMinDistanceMatrix:
    def test_single_tree_corpus(self):
        tree = parse_tree(SVO)
        matrix = min_distance_matrix([tree])
        for (c1, c2), value in tree_category_minima(tree).items():
            assert matrix.get(c1, c2) == value

    def test_bundled_corpus_reproduces_reference_values(self):
        matrix = min_distance_matrix(load_category_corpus())
        assert matrix.labels == ("D", "N", "V", "A", "P")
        for (c1, c2), value in U_ENTRIES.items():
            assert matrix.get(c1, c2) == value
            assert matrix.get(c2, c1) == value

    def test_entries_witnessed_by_some_token_pair(self):
        corpus = load_category_corpus()
        matrix = min_distance_matrix(corpus)
        for i, c1 in enumerate(matrix.labels):
            for c2 in matrix.labels[i:]:
                value = matrix.get(c1, c2)
                if value is None:
                    continue
                witnessed = []
                for tree in corpus:
                    for a in tree.leaves:
                        for b in tree.leaves:
                            if a.id < b.id and {a.label, b.label} == (
                                {c1, c2} if c1 != c2 else {c1}
                            ):
                                witnessed.append(brute_leaf_distance(tree, a.id, b.id))
                assert witnessed and min(witnessed) == value

    def test_monotone_under_corpus_extension(self):
        trees = [random_tree(seed, 2 + seed % 8, "mixed:4") for seed in range(12)]
        previous = None
        for k in range(1, len(trees) + 1):
            matrix = min_distance_matrix(trees[:k], categories=("D", "N", "V", "A", "P"))
            if previous is not None:
                for i in range(matrix.size):
                    for j in range(matrix.size):
                        old = previous.entries[i][j]
                        new = matrix.entries[i][j]
                        if old is not None:
                            assert new is not None and new <= old
            previous = matrix

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            min_distance_matrix([])

    def test_caller_supplied_order(self):
        matrix = min_distance_matrix(load_category_corpus(), categories=("N", "P", "V", "A"))
        assert matrix.labels == ("N", "P", "V", "A")


class TestNestedPattern:
    def test_reference_order_matches(self):
        matrix = min_distance_matrix(load_category_corpus())
        assert check_nested_pattern(matrix, ("N", "P", "V", "A"), 2)

    def test_other_starts_fail(self):
        matrix = min_distance_matrix(load_category_corpus())
        for start in (0, 1, 3, 4, 5):
            assert not check_nested_pattern(matrix, ("N", "P", "V", "A"), start)

    def test_default_order_fails(self):
        matrix = min_distance_matrix(load_category_corpus())
        assert not check_nested_pattern(matrix, ("D", "N", "V", "A", "P"), 1)

    def test_two_categories(self):
        matrix = CategoryDistanceMatrix(("X", "Y"), ((None, 5), (5, None)))
        assert check_nested_pattern(matrix, ("X", "Y"), 5)
        assert not check_nested_pattern(matrix, ("X", "Y"), 4)

    def test_missing_entry(self):
        matrix = min_distance_matrix([parse_tree(SVO)], categories=("D", "N", "V", "A"))
        with pytest.raises(MissingEntry):
            check_nested_pattern(matrix, ("D", "N", "V", "A"), 1)

    def test_unknown_label(self):
        matrix = min_distance_matrix([parse_tree(SVO)])
        with pytest.raises(UnknownLabel):
            check_nested_pattern(matrix, ("D", "Q"), 1)


def zero_diagonal(matrix):
    """The category matrix as a distance matrix, its diagonal of same-category
    minima (or None) set to 0."""
    rows = [[0 if x == y else value for y, value in enumerate(row)] for x, row in enumerate(matrix.entries)]
    return DistanceMatrix(matrix.labels, rows)


class TestNotUltrametric:
    """A minimum over trees of ultrametrics need not be one."""

    def test_bundled_corpus_fails_on_seven_triples(self):
        matrix = min_distance_matrix(load_category_corpus())
        report = check_ultrametric(zero_diagonal(matrix))
        triples = [tuple(matrix.labels[i] for i in v.indices) for v in report.ultrametric_violations]
        # (x, z, y): d(x, y) exceeds both d(x, z) and d(z, y), as d(V, A) = 4 > 3 = d(V, P) = d(P, A).
        assert triples == [
            ("V", "D", "A"), ("V", "N", "A"), ("V", "P", "A"),
            ("V", "D", "P"), ("V", "N", "P"), ("A", "D", "P"), ("A", "N", "P"),
        ]
        assert (matrix.get("V", "A"), matrix.get("V", "P"), matrix.get("A", "P")) == (4, 3, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nested_pattern_fails_on_every_triple(self, data):
        # The pattern fixes every entry off the diagonal; the labels are in
        # any order and the diagonal holds anything a category matrix may.
        n = data.draw(st.integers(3, 8))
        order = data.draw(st.permutations([f"c{k}" for k in range(n)]))
        labels = data.draw(st.permutations(order))
        start = data.draw(st.integers(1, 10))
        rank = {c: r for r, c in enumerate(order)}
        rows = [
            [data.draw(st.none() | st.integers(1, 20)) if x == y else start + min(rank[x], rank[y]) for y in labels]
            for x in labels
        ]
        matrix = CategoryDistanceMatrix(labels, rows)
        assert check_nested_pattern(matrix, order, start)
        assert len(check_ultrametric(zero_diagonal(matrix)).ultrametric_violations) == math.comb(n, 3)


def test_missing_entry_needs_category_column():
    # A requested category outside the corpus surfaces as UnknownLabel when
    # absent from the matrix, MissingEntry when present but never paired.
    matrix = min_distance_matrix([parse_tree(SVO)], categories=("D", "N", "A"))
    with pytest.raises(MissingEntry):
        check_nested_pattern(matrix, ("D", "N", "A"), 1)


class TestComplexity:
    def test_balanced_and_chain(self):
        report = complexity(
            [parse_tree(fx.TREE_FIRST), parse_tree(fx.TREE_SECOND)]
        )
        assert report.per_tree == ((0, 2), (1, 3))
        assert report.max_height == 3
        assert report.exceeding == ()

    def test_single_leaf(self):
        report = complexity([parse_tree("(N dog)")])
        assert report.per_tree == ((0, 0),)
        assert report.max_height == 0

    def test_bound_flagging(self):
        report = complexity(
            [parse_tree(fx.TREE_FIRST), parse_tree(fx.TREE_SECOND)], bound=2
        )
        assert report.exceeding == (1,)

    def test_root_height_equals_max_matrix_entry_exhaustive(self):
        for leaves in range(1, 6):
            for tree in enumerate_binary_trees(leaves):
                report = complexity([tree])
                maximum = max(v for row in leaf_matrix(tree).entries for v in row)
                assert report.per_tree[0][1] == maximum

    def test_root_height_equals_max_matrix_entry_random(self):
        for seed in range(200):
            tree = random_tree(seed, 1 + seed % 10, "mixed:4")
            report = complexity([tree])
            maximum = max(v for row in leaf_matrix(tree).entries for v in row)
            assert report.per_tree[0][1] == maximum

    def test_json_shape(self):
        report = complexity([parse_tree(fx.TREE_FIRST)], bound=1)
        assert report.to_json_dict() == {
            "per_tree": [{"tree": 0, "height": 2}],
            "max_height": 2,
            "bound": 1,
            "exceeding": [0],
        }
