"""The sign matrix, exact determinants, Pauli blocks, and the comparison."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    DEFAULT_FEATURE_ROWS,
    CategoryDistanceMatrix,
    FeatureTable,
    MissingEntry,
    NonSquare,
    UltratreeError,
    UnknownCategory,
    build_feature_matrix,
    compare_feature_vs_ultrametric,
    determinant,
    feature_distance,
    load_category_corpus,
    matrix_rank,
    min_distance_matrix,
    pauli_assembly,
)

from .helpers import Level, reference_build_feature_matrix

F_ROWS = ((1, -1, 1, -1), (-1, 1, 1, -1), (1, 1, 1, -1), (-1, -1, -1, 1))


class TestFeatureTable:
    def test_default_vectors(self):
        table = FeatureTable()
        assert table.vector("N") == (1, -1)
        assert table.vector("V") == (-1, 1)
        assert table.vector("A") == (1, 1)
        assert table.vector("P") == (-1, -1)

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory):
            FeatureTable().vector("Adv")

    def test_wrong_categories_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable({"N": (1, -1)})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable({"N": (1, 0), "V": (-1, 1), "A": (1, 1), "P": (-1, -1)})

    @pytest.mark.parametrize(
        "n_row, message",
        [
            ((True, -1), "feature values for 'N' must be +1 or -1"),
            ((1.0, -1), "feature values for 'N' must be +1 or -1"),
            ((1, -1.0), "feature values for 'N' must be +1 or -1"),
            (1, "feature values for 'N' must be an (N, V) tuple, got 1"),
            ((1, -1, 1), "feature values for 'N' must be an (N, V) tuple, got (1, -1, 1)"),
        ],
        ids=["bool", "float", "second-float", "not-a-pair", "triple"],
    )
    def test_non_integer_values_rejected(self, n_row, message):
        rows = {**DEFAULT_FEATURE_ROWS, "N": n_row}
        with pytest.raises(UltratreeError, match=re.escape(message)):
            FeatureTable(rows)

    def test_keeps_its_own_rows(self):
        # A later change to the caller's dict must not reach the table,
        # which would then hold a row its constructor rejects.
        rows = dict(DEFAULT_FEATURE_ROWS)
        table = FeatureTable(rows)
        rows["P"] = (0, 0)
        assert table.vector("P") == (-1, -1)
        assert build_feature_matrix(table).entries == build_feature_matrix().entries


class TestBuildFeatureMatrix:
    def test_default_matrix(self):
        sign = build_feature_matrix()
        assert sign.labels == ("N", "V", "A", "P")
        assert sign.entries == F_ROWS

    def test_balanced_entry_counts(self):
        sign = build_feature_matrix()
        values = [v for row in sign.entries for v in row]
        assert values.count(1) == 8
        assert values.count(-1) == 8

    def test_positive_ap_cell(self):
        sign = build_feature_matrix(ap_value=1)
        assert sign.entry("A", "P") == sign.entry("P", "A") == 1
        for x in sign.labels:
            for y in sign.labels:
                if {x, y} != {"A", "P"}:
                    assert sign.entry(x, y) == build_feature_matrix().entry(x, y)

    def test_symmetric(self):
        sign = build_feature_matrix()
        for x in sign.labels:
            for y in sign.labels:
                assert sign.entry(x, y) == sign.entry(y, x)

    def test_bad_ap_value(self):
        for ap_value in (0, True, 1.0, -1.0):
            with pytest.raises(ValueError, match="ap_value must be"):
                build_feature_matrix(ap_value=ap_value)

    @pytest.mark.parametrize("ap_value", [-1, 1, 0])
    def test_every_table_matches_the_mirror_loop(self, ap_value):
        # All 256 tables of +/-1 values: the same cells, or the same error.
        for values in itertools.product((1, -1), repeat=8):
            table = FeatureTable(dict(zip("NVAP", zip(values[::2], values[1::2]))))
            try:
                expected = reference_build_feature_matrix(table, ap_value)
            except UltratreeError as exc:
                with pytest.raises(type(exc)) as raised:
                    build_feature_matrix(table, ap_value)
                assert str(raised.value) == str(exc)
            else:
                built = build_feature_matrix(table, ap_value)
                assert (built.labels, built.entries) == (expected.labels, expected.entries)


def permutation_determinant(rows) -> int:
    """The Leibniz sum over every permutation, signed by its inversions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def fraction_rank(rows) -> int:
    """Gauss-Jordan elimination over the rationals; the rank is the pivot count."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def matrices(min_rows=0, max_rows=5, min_cols=0, max_cols=5, square=False):
    """Integer matrices, full or of low rank (a product through k columns)."""

    @st.composite
    def build(draw):
        rows = draw(st.integers(min_rows, max_rows))
        cols = rows if square else draw(st.integers(min_cols, max_cols))
        entry = st.integers(-3, 3) | st.integers(-(10**12), 10**12)
        if draw(st.booleans()):
            return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        k = draw(st.integers(0, 3))
        left = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=k, max_size=k))
        return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]

    return build()


class TestAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(matrices(max_rows=5, square=True))
    def test_determinant_is_the_permutation_sum(self, rows):
        assert determinant(rows) == permutation_determinant(rows)

    @settings(max_examples=300, deadline=None)
    @given(matrices(max_rows=6, max_cols=6))
    def test_rank_is_the_fraction_rank(self, rows):
        assert matrix_rank(rows) == fraction_rank(rows)
        assert matrix_rank([list(col) for col in zip(*rows)]) == fraction_rank(rows)  # rank of the transpose

    @pytest.mark.parametrize(
        "rows, det, rank",
        [
            ([], 1, 0),
            ([[0]], 0, 0),
            ([[0, 0], [0, 0]], 0, 0),
            ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], 0, 2),
            ([[0, 1], [1, 0]], -1, 2),
            ([[2, 4], [1, 2]], 0, 1),
        ],
        ids=["empty", "zero-1", "zero-2", "zero-column", "swap", "rank-one"],
    )
    def test_square_edge_cases(self, rows, det, rank):
        assert (determinant(rows), matrix_rank(rows)) == (det, rank)

    @pytest.mark.parametrize(
        "rows, rank",
        [([[], [], []], 0), ([[0, 0, 0]], 0), ([[0, 0, 5]], 1), ([[1, 2, 3], [2, 4, 6]], 1), ([[0], [3], [1]], 1)],
        ids=["no-columns", "zero-row", "late-pivot", "dependent-rows", "one-column"],
    )
    def test_rectangular(self, rows, rank):
        assert matrix_rank(rows) == rank
        with pytest.raises(NonSquare, match="^determinant needs a square matrix$"):
            determinant(rows)

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 2, 3], [4, 5]]])
    def test_ragged_rows_rejected(self, rows):
        with pytest.raises(NonSquare, match="^determinant needs a square matrix$"):
            determinant(rows)
        with pytest.raises(NonSquare, match="^matrix_rank needs rows of equal length$"):
            matrix_rank(rows)


class TestDeterminant:
    def test_sign_matrix_singular(self):
        assert determinant(build_feature_matrix()) == 0

    def test_rank_one_two_by_two(self):
        assert determinant([[1, -1], [-1, 1]]) == 0

    def test_regular_two_by_two(self):
        assert determinant([[1, -1], [1, 1]]) == 2

    def test_diagonal(self):
        assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24

    def test_permutation_sign(self):
        assert determinant([[0, 1], [1, 0]]) == -1

    def test_known_integer_case(self):
        m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        # cofactor expansion: 3*(25-54) - 1*(5-18) + 4*(6-10) = -90
        assert determinant(m) == -90

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ([[1, 2], [3, 4.5]], "rows[1][1]: expected an integer, got 4.5"),
            ([[Fraction(1, 2), 1], [1, 3]], "rows[0][0]: expected an integer, got Fraction(1, 2)"),
            ([[1, 0], [True, 1]], "rows[1][0]: expected an integer, got True"),
            (CategoryDistanceMatrix(("D", "N"), ((None, 1), (1, None))), "rows[0][0]: expected an integer, got None"),
        ],
        ids=["float", "fraction", "bool", "absent-category-distance"],
    )
    def test_non_integer_entries_rejected(self, rows, fault):
        # A float or Fraction would make the result inexact: 4.5 gave -2.0,
        # and Fraction(1, 2) a wrong 0.
        for function in (determinant, matrix_rank):
            with pytest.raises(UltratreeError, match=f"^{re.escape(fault)}$"):
                function(rows)

    def test_int_subclass_entries_accepted(self):
        assert determinant([[Level.ONE, 0], [0, Level.MINUS]]) == -1
        assert matrix_rank([[Level.ONE, Level.ONE], [1, 1]]) == 1


class TestRank:
    def test_sign_matrix_rank(self):
        # the last row is the negation of the third, the first three rows
        # are independent
        assert matrix_rank(build_feature_matrix()) == 3

    def test_identity(self):
        assert matrix_rank([[1, 0], [0, 1]]) == 2

    def test_zero(self):
        assert matrix_rank([[0, 0], [0, 0]]) == 0

    def test_rank_one(self):
        assert matrix_rank([[1, -1], [-1, 1]]) == 1


class TestPauliAssembly:
    def test_top_left_block(self):
        assembled = pauli_assembly()
        block = [[assembled[i][j] for j in range(2)] for i in range(2)]
        assert block == [[1 + 0j, -1 + 0j], [-1 + 0j, 1 + 0j]]

    def test_top_right_block(self):
        assembled = pauli_assembly()
        block = [[assembled[i][j + 2] for j in range(2)] for i in range(2)]
        assert block == [[1 + 0j, -1 + 0j], [1 + 0j, -1 + 0j]]

    def test_equals_sign_matrix_with_zero_imag(self):
        assembled = pauli_assembly()
        sign = build_feature_matrix()
        for i in range(4):
            for j in range(4):
                assert assembled[i][j].imag == 0.0
                assert int(assembled[i][j].real) == sign.entries[i][j]


class TestFeatureDistance:
    def test_values(self):
        table = FeatureTable()
        assert feature_distance(table, "N", "A") == 1
        assert feature_distance(table, "N", "N") == 0
        assert feature_distance(table, "N", "V") == 2

    def test_metric_axioms_on_four_categories(self):
        table = FeatureTable()
        categories = table.categories
        for x, y in itertools.product(categories, repeat=2):
            assert feature_distance(table, x, y) == feature_distance(table, y, x)
            assert (feature_distance(table, x, y) == 0) == (x == y)
        for x, y, z in itertools.product(categories, repeat=3):
            assert feature_distance(table, x, y) <= feature_distance(
                table, x, z
            ) + feature_distance(table, z, y)


class TestComparison:
    def test_reference_values_no_monotone_relation(self):
        report = compare_feature_vs_ultrametric(
            FeatureTable(), min_distance_matrix(load_category_corpus())
        )
        assert report["monotone_feature_to_ultrametric"] is False
        assert report["monotone_ultrametric_to_feature"] is False
        assert report["monotone_relation"] is False
        by_pair = {tuple(p["pair"]): p for p in report["pairs"]}
        # equal feature distance, different ultrametric distance
        assert by_pair[("N", "A")]["feature_distance"] == 1
        assert by_pair[("N", "A")]["ultrametric_distance"] == 2
        assert by_pair[("V", "A")]["feature_distance"] == 1
        assert by_pair[("V", "A")]["ultrametric_distance"] == 4

    def test_synthetic_positive_control(self):
        table = FeatureTable()
        labels = table.categories
        rows = [[None] * 4 for _ in range(4)]
        for i, c1 in enumerate(labels):
            for j, c2 in enumerate(labels):
                if i != j:
                    rows[i][j] = 2 * feature_distance(table, c1, c2)
        synthetic = CategoryDistanceMatrix(labels, rows)
        report = compare_feature_vs_ultrametric(table, synthetic)
        assert report["monotone_feature_to_ultrametric"] is True
        assert report["monotone_relation"] is True

    def test_missing_entry(self):
        sparse = CategoryDistanceMatrix(
            ("N", "V", "A", "P"),
            (
                (None, 2, None, None),
                (2, None, None, None),
                (None, None, None, None),
                (None, None, None, None),
            ),
        )
        with pytest.raises(MissingEntry):
            compare_feature_vs_ultrametric(FeatureTable(), sparse)
