"""Matrix containers and their JSON/CSV wire formats."""

import re

import pytest

from ultratree import (
    BadMatrixDocument,
    CategoryDistanceMatrix,
    DistanceMatrix,
    NonSquare,
    RelationMatrix,
    SignMatrix,
    UnknownLabel,
)


class TestDistanceMatrix:
    def test_json_round_trip(self):
        m = DistanceMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert DistanceMatrix.from_json_dict(m.to_json_dict()) == m

    @pytest.mark.parametrize(
        "document, message",
        [
            (None, "m.json: document: expected a JSON object"),
            ({"labels": ["a"]}, "m.json: rows: missing"),
            ({"labels": "a", "rows": [[0]]}, "m.json: labels: expected a list"),
            ({"labels": ["a", 1], "rows": []}, "m.json: labels[1]: expected a string"),
            ({"labels": ["a"], "rows": [(0,)]}, "m.json: rows[0]: expected a list"),
            # Faults the constructor finds, located again on the error path.
            ({"labels": ["a", "b"], "rows": [[0, 1]]}, "m.json: rows: matrix with 2 labels must be 2x2"),
            ({"labels": ["a", "b"], "rows": [[0, True], [1]]}, "m.json: rows[1]: matrix with 2 labels"),
            (
                {"labels": ["a", "b"], "rows": [[0, 1], [1, True]]},
                "m.json: rows[1][1]: distance entries must be integers, got True",
            ),
            ({"labels": ["a", "b"], "rows": [[0, 1.5], [1, 0]]}, "m.json: rows[0][1]: distance entries"),
            ({"labels": ["a", "b", "a"], "rows": [[0] * 3] * 3}, "m.json: labels[2]: matrix labels must be unique"),
            ({"labels": ["a", "\udc80"], "rows": [[0, 1], [1, 0]]}, "m.json: labels[1]: expected a string"),
        ],
    )
    def test_bad_json_document_names_source_and_path(self, document, message):
        with pytest.raises(BadMatrixDocument, match=re.escape(message)):
            DistanceMatrix.from_json_dict(document, source="m.json")

    def test_json_shape(self):
        m = DistanceMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert m.to_json_dict() == {"labels": ["a", "b"], "rows": [[0, 1], [1, 0]]}

    def test_csv(self):
        m = DistanceMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert m.to_csv() == ",a,b\na,0,1\nb,1,0\n"

    def test_entry_by_label(self):
        m = DistanceMatrix(("a", "b"), ((0, 7), (7, 0)))
        assert m.entry("a", "b") == 7

    def test_unknown_label(self):
        m = DistanceMatrix(("a", "b"), ((0, 1), (1, 0)))
        with pytest.raises(UnknownLabel):
            m.entry("a", "z")

    def test_non_square(self):
        with pytest.raises(NonSquare):
            DistanceMatrix(("a", "b", "c"), ((0, 1), (1, 0)))

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "b"), ((0, 1.5), (1.5, 0)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "a"), ((0, 1), (1, 0)))


class TestRelationMatrix:
    def test_json_uses_zero_one(self):
        m = RelationMatrix(("a", "b"), ((True, False), (False, True)))
        assert m.to_json_dict() == {"labels": ["a", "b"], "rows": [[1, 0], [0, 1]]}

    def test_from_json_coerces_to_bool(self):
        m = RelationMatrix.from_json_dict({"labels": ["a"], "rows": [[1]]})
        assert m.entries == ((True,),)

    def test_csv_zero_one(self):
        m = RelationMatrix(("a", "b"), ((True, False), (True, True)))
        assert m.to_csv() == ",a,b\na,1,0\nb,1,1\n"


class TestSignMatrix:
    def test_valid(self):
        m = SignMatrix(("x", "y"), ((1, -1), (-1, 1)))
        assert m.entry("x", "y") == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            SignMatrix(("x", "y"), ((1, 0), (0, 1)))


class TestCategoryDistanceMatrix:
    def test_none_serializes_as_null(self):
        m = CategoryDistanceMatrix(("D", "N"), ((None, 1), (1, None)))
        assert m.to_json_dict() == {
            "labels": ["D", "N"],
            "rows": [[None, 1], [1, None]],
        }

    def test_csv_empty_cell_for_absent(self):
        m = CategoryDistanceMatrix(("D", "N"), ((None, 1), (1, None)))
        assert m.to_csv() == ",D,N\nD,,1\nN,1,\n"

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            CategoryDistanceMatrix(("D", "N"), ((None, 0), (0, None)))

    def test_zero_entry_in_document_names_path(self):
        document = {"labels": ["D", "N"], "rows": [[None, 1], [0, None]]}
        message = "c.json: rows[1][0]: present entries must be at least 1, got 0"
        with pytest.raises(BadMatrixDocument, match=re.escape(message)):
            CategoryDistanceMatrix.from_json_dict(document, source="c.json")

    def test_relation_document_with_repeated_labels(self):
        document = {"labels": ["a", "a"], "rows": [[1, 0], [0, 1]]}
        with pytest.raises(BadMatrixDocument, match=re.escape("r.json: labels[1]: matrix labels")):
            RelationMatrix.from_json_dict(document, source="r.json")

    def test_get(self):
        m = CategoryDistanceMatrix(("D", "N"), ((None, 4), (4, None)))
        assert m.get("D", "N") == 4
        assert m.get("D", "D") is None
