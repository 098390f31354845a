"""The sign matrix, exact determinants, Pauli blocks, and the comparison."""

import itertools

import pytest

from ultratree import (
    DEFAULT_FEATURE_ROWS,
    CategoryDistanceMatrix,
    FeatureTable,
    MissingEntry,
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
        with pytest.raises(ValueError):
            build_feature_matrix(ap_value=0)


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
