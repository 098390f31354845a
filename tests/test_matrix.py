"""Matrix containers and their JSON/CSV wire formats."""

import copy
import json
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    BadMatrixDocument,
    CategoryDistanceMatrix,
    DistanceMatrix,
    LabeledMatrix,
    NonSquare,
    RelationMatrix,
    SignMatrix,
    UltratreeError,
    UnknownLabel,
    leaf_matrix,
    parse_tree,
)

from .helpers import Level, reference_csv_text


def reference_fault(rows):
    """The JSON path and message of the first entry a per-entry distance
    check rejects, in row-major order; None when every entry passes."""
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if not isinstance(value, int) or isinstance(value, bool):
                return f"rows[{i}][{j}]", f"distance entries must be integers, got {value!r}"
    return None


# Each kind's entries, as a reference predicate written apart from the kinds' own checks.
IS_ENTRY = {
    DistanceMatrix: lambda v: isinstance(v, int) and not isinstance(v, bool),
    RelationMatrix: lambda v: True,  # any value, kept as its bool
    SignMatrix: lambda v: isinstance(v, int) and not isinstance(v, bool) and v in (1, -1),
    CategoryDistanceMatrix: lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool) and v >= 1),
}


def reference_path(kind, labels, rows):
    """The JSON path of the first fault of a ``kind`` document, scanned in the
    order row count, row lengths, entries row by row, repeated labels; None
    when it has none."""
    n = len(labels)
    if len(rows) != n:
        return "rows"
    faults = [f"rows[{i}]" for i, row in enumerate(rows) if len(row) != n]
    faults += [f"rows[{i}][{j}]" for i, row in enumerate(rows) for j, v in enumerate(row) if not IS_ENTRY[kind](v)]
    faults += [f"labels[{j}]" for j, x in enumerate(labels) if x in labels[:j]]
    return faults[0] if faults else None


INTS = st.integers(-(10**30), 10**30) | st.sampled_from(Level)
BAD = st.sampled_from([True, False, 1.0, "1", None, Fraction(1), 0.5, [1]])


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_type_scan_matches_per_entry_check(self, n, data):
        labels = [f"x{i}" for i in range(n)]
        rows = [data.draw(st.lists(INTS, min_size=n, max_size=n)) for _ in range(n)]
        for _ in range(data.draw(st.integers(1, 2))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            rows[i][j] = data.draw(BAD)
        path, message = reference_fault(rows)
        with pytest.raises(UltratreeError) as built:
            DistanceMatrix(labels, rows)
        assert str(built.value) == message
        with pytest.raises(BadMatrixDocument) as loaded:
            DistanceMatrix.from_json_dict({"labels": labels, "rows": rows}, source="m.json")
        assert str(loaded.value) == f"m.json: {path}: {message}"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(st.lists(INTS, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_int_entries_and_subclasses_accepted(self, rows):
        assert reference_fault(rows) is None
        m = DistanceMatrix([f"x{i}" for i in range(len(rows))], rows)
        assert m.entries == tuple(map(tuple, rows))


class TestFaults:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(list(IS_ENTRY)), st.integers(0, 4), st.data())
    def test_every_kind_names_the_reference_fault(self, kind, n, data):
        # Mostly square documents over a few labels, so every kind of fault shows up, and some have none.
        near = st.sampled_from([n, n, n, n + 1, max(n - 1, 0)])
        values = st.sampled_from([0, 1, -1, 2, None, True, False, 1.0, "1", Fraction(1), Level.ONE, Level.MINUS])
        labels = data.draw(st.lists(st.sampled_from("abcdefg"), min_size=n, max_size=n))
        lengths = [data.draw(near) for _ in range(data.draw(near))]
        rows = [data.draw(st.lists(values, min_size=k, max_size=k)) for k in lengths]
        path = reference_path(kind, labels, rows)
        if path is None:
            assert kind.from_json_dict({"labels": labels, "rows": rows}) == kind(labels, rows)
            return
        with pytest.raises(UltratreeError) as built:
            kind(labels, rows)
        assert isinstance(built.value, NonSquare) == bool(re.fullmatch(r"rows(\[\d+\])?", path))  # a shape fault
        with pytest.raises(BadMatrixDocument) as loaded:
            kind.from_json_dict({"labels": labels, "rows": rows}, source="m.json")
        assert str(loaded.value) == f"m.json: {path}: {built.value}"


# Fresh matrices of every kind, each in the form its builder keeps: tuples, bytes or code points.
MAKERS = [
    lambda: LabeledMatrix(("a", "b"), (("x", None), (1.5, True))),
    lambda: DistanceMatrix(("a", "b"), ((0, 3), (3, 0))),
    lambda: leaf_matrix(parse_tree("(S (A a) (B (C c) (D d)))")),
    lambda: RelationMatrix(("p", "q"), ((1, 0), (1, 1))),
    lambda: SignMatrix(("x", "y"), ((1, -1), (-1, 1))),
    lambda: CategoryDistanceMatrix(("N", "V"), ((None, 2), (2, None))),
]


@pytest.mark.parametrize("make", MAKERS)
def test_every_kind_refuses_a_new_attribute(make):
    matrix = make()
    assert not hasattr(matrix, "__dict__")
    with pytest.raises(AttributeError):
        matrix.extra = 1


@pytest.mark.parametrize("make", MAKERS)
def test_copies_keep_the_rows_as_kept_and_build_no_view(make):
    matrix = make()
    copies = [copy.copy(matrix), copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix))]
    for copied in copies:
        assert type(copied) is type(matrix) and copied.labels == matrix.labels
        assert [*map(type, copied._rows)] == [*map(type, matrix._rows)] and copied._rows == matrix._rows
        assert copied._entries is None and matrix._entries is None
    assert all(copied == matrix and hash(copied) == hash(matrix) and repr(copied) == repr(matrix) for copied in copies)


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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0, 1, 2, -1, None, "x", "", 0.0, [], True, False]), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_entries_are_bool_of_input(self, rows):
        m = RelationMatrix([f"x{i}" for i in range(len(rows))], rows)
        assert m.entries == tuple(tuple(bool(v) for v in row) for row in rows)
        assert all(type(v) is bool for row in m.entries for v in row)


class TestSignMatrix:
    def test_valid(self):
        m = SignMatrix(("x", "y"), ((1, -1), (-1, 1)))
        assert m.entry("x", "y") == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            SignMatrix(("x", "y"), ((1, 0), (0, 1)))

    @pytest.mark.parametrize("value", [1.0, -1.0, Fraction(1), Fraction(-1), True, "1", None])
    def test_inexact_entries_rejected(self, value):
        # 1.0 and Fraction(1) equal 1, but would make the determinant
        # inexact and the JSON output fail.
        with pytest.raises(UltratreeError, match=re.escape(f"sign entries must be +1 or -1, got {value!r}")):
            SignMatrix(("a", "b"), ((1, -1), (value, 1)))

    def test_float_and_fraction_matrix_rejected(self):
        with pytest.raises(UltratreeError, match=re.escape("sign entries must be +1 or -1, got 1.0")):
            SignMatrix(["a", "b"], [[1.0, -1], [Fraction(-1), 1]])

    def test_float_in_document_names_path(self):
        message = "s.json: rows[0][0]: sign entries must be +1 or -1, got 1.0"
        with pytest.raises(BadMatrixDocument, match=re.escape(message)):
            SignMatrix.from_json_dict({"labels": ["a"], "rows": [[1.0]]}, source="s.json")

    def test_int_subclass_accepted(self):
        m = SignMatrix(("x", "y"), ((Level.ONE, Level.MINUS), (-1, 1)))
        assert m.entries == ((1, -1), (-1, 1))


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

    @pytest.mark.parametrize("value", [True, 2.5, "2", Fraction(2)])
    def test_entry_that_is_not_an_int_rejected(self, value):
        with pytest.raises(UltratreeError, match=re.escape(f"entries must be integers or None, got {value!r}")):
            CategoryDistanceMatrix(("D", "N"), ((None, value), (value, None)))

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
        assert m.categories == m.labels == ("D", "N")

    def test_repr(self):
        m = CategoryDistanceMatrix(("D", "N"), ((None, 4), (4, None)))
        assert repr(m) == "CategoryDistanceMatrix(labels=('D', 'N'), entries=((None, 4), (4, None)))"


# One matrix of each kind; the labels need quoting in CSV and escaping in JSON.
KINDS = [
    LabeledMatrix(("a", 'b"c'), (("x", None), (1.5, True))),
    DistanceMatrix(("a", "b,c"), ((0, 3), (3, 0))),
    RelationMatrix(("p", "q", "r"), ((1, 0, 1), (0, 1, 0), (1, 1, 1))),
    SignMatrix(("x", "y"), ((1, -1), (-1, 1))),
    CategoryDistanceMatrix(("N", "V"), ((None, 2), (2, None))),
]


class TestEqualityAndWireTexts:
    def test_equal_only_with_kind_labels_and_entries(self):
        m = DistanceMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert m == DistanceMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert m != DistanceMatrix(("b", "a"), ((0, 1), (1, 0)))
        assert m != DistanceMatrix(("a", "b"), ((0, 2), (2, 0)))
        assert m != LabeledMatrix(("a", "b"), ((0, 1), (1, 0)))

    @pytest.mark.parametrize("matrix", KINDS, ids=lambda m: type(m).__name__)
    def test_row_texts_are_the_json_cells(self, matrix):
        # Only the kinds with one fixed text per entry have row texts.
        texts = matrix._texts(",\n  ")
        if type(matrix) is LabeledMatrix:
            assert texts is None
        else:
            assert texts == [",\n  ".join(map(json.dumps, row)) for row in matrix.to_json_dict()["rows"]]

    @pytest.mark.parametrize("n", [0, 1, 181, 182, 200])
    def test_relation_row_texts_across_blocks(self, n):
        # A relation's rows are written in blocks of about 2**15 entries, so
        # 182 or more labels take two or more; each row's text is its cells.
        matrix = RelationMatrix([f"n{i}" for i in range(n)], [[(i * j + i) % 3 == 0 for j in range(n)] for i in range(n)])
        assert matrix._texts(",\n  ") == [",\n  ".join(map(json.dumps, row)) for row in matrix.to_json_dict()["rows"]]

    @pytest.mark.parametrize("matrix", KINDS, ids=lambda m: type(m).__name__)
    def test_csv_matches_csv_writer(self, matrix):
        rows = matrix.to_json_dict()["rows"]
        if type(matrix) is not LabeledMatrix:  # fixed kinds write their JSON cells, an absent entry empty
            rows = [["" if v is None else json.dumps(v) for v in row] for row in rows]
        expected = reference_csv_text([["", *matrix.labels], *([x, *row] for x, row in zip(matrix.labels, rows))])
        assert matrix.to_csv() == expected
