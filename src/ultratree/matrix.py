"""Labeled square matrices and their JSON/CSV wire formats.

All matrix kinds share one JSON shape, ``{"labels": [...], "rows": [[...]]}``,
and one CSV shape with a label header row and column.  Relation matrices
serialize booleans as 0/1; category-distance matrices serialize absent
entries as JSON null and empty CSV cells.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace

from .errors import BadMatrixDocument, NonSquare, UltratreeError, UnknownLabel

_surrogate = re.compile("[\ud800-\udfff]").search
_BITS = bytes.maketrans(b"\0\1", b"01")
RowForm = namedtuple("RowForm", "row number zero columns")  # how an integer kind keeps its rows
TUPLES = RowForm(tuple, int, 0, lambda m, n: tuple(zip(*m)))  # row(entries), an entry's int, 0, columns(m, n)
# A leaf matrix's, one str per row; column x is every n-th code point of the joined rows from x.
CODE_POINTS = RowForm("".join, ord, "\0", lambda m, n: tuple([s[x::n] for s in ["".join(m)] for x in range(n)]))


def _csv(header, rows) -> str:
    """The CSV text of a header row and then ``rows``, each line ended by ``\\n``.  Lines are written ended by
    ``\\r\\n`` and re-ended, so a field holding either character is quoted on every Python version."""
    import csv  # only CSV output pays for it

    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n")  # writerow returns write's result: the line
    return "\n".join(chain(map(itemgetter(slice(-2)), map(writer.writerow, chain([header], rows))), [""]))


class LabeledMatrix:
    """Immutable square matrix with one label per row/column."""

    __slots__ = ("labels", "entries", "_index")

    def __init__(self, labels: Sequence[str], entries: Sequence[Sequence]):
        labels = tuple(labels)
        # tuple() of a list, not of a generator: that grows the tuple by
        # resizing, and the resized tuples pile up in CPython's tuple free
        # lists, which only a full garbage collection empties.
        rows = tuple([tuple(row) for row in entries])
        if len(rows) != len(labels) or any(len(row) != len(labels) for row in rows):
            raise NonSquare(
                f"matrix with {len(labels)} labels must be {len(labels)}x{len(labels)}"
            )
        self._check_entries(rows)
        self._fill(labels, rows)

    @classmethod
    def _made(cls, labels: tuple[str, ...], rows: tuple[tuple, ...]):
        """The matrix over rows that a builder in this package made square,
        as tuples of entries of this kind (bytes for a relation, code points
        for a leaf matrix): nothing is copied or checked but that the labels are distinct."""
        matrix = object.__new__(cls)
        matrix._fill(labels, rows)
        return matrix

    def _fill(self, labels: tuple[str, ...], rows: tuple[tuple, ...]) -> None:
        # Labels a user gives, to a constructor or as min_distance_matrix's
        # categories, can repeat; disambiguated tree labels cannot.
        if len(set(labels)) != len(labels):
            raise UltratreeError("matrix labels must be unique")
        self.labels = labels
        self.entries = rows
        self._index = None  # label -> position, built on the first lookup

    def _check_entries(self, rows) -> None:
        check = self._check_entry  # one attribute lookup, not one per entry
        for row in rows:
            for value in row:
                check(value)

    @staticmethod
    def _check_entry(value) -> None:
        """Raise UltratreeError when ``value`` is not an entry of this kind."""

    _rows = property(lambda self: self.entries)  # the rows as kept, unless a kind keeps another form
    _form = TUPLES  # the form of _rows for the integer kinds

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.labels)}
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not in matrix") from None

    def entry(self, x: str, y: str):
        return self.entries[self.index(x)][self.index(y)]

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.labels == other.labels
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.labels, self.entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(labels={self.labels!r}, entries={self.entries!r})"

    # -- serialization ----------------------------------------------------

    def _cells(self, absent: str):
        """Each entry's text, with ``absent`` for None, for ``to_csv`` and
        ``_texts``; None for kinds without a fixed text per entry."""
        return None

    def _texts(self, sep: str) -> list[str] | None:
        """Each row's entry texts joined by ``sep``, null for None, for
        ``cli._matrix_text``; None for kinds without a fixed text per entry."""
        cells = self._cells("null")
        return None if cells is None else [sep.join(map(cells.__getitem__, row)) for row in self._rows]

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "rows": [list(row) for row in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict, source: str = "<json>"):
        """Read ``{"labels": [str, ...], "rows": [[...], ...]}``.

        Raises BadMatrixDocument, naming ``source`` and the JSON path, when
        the document is not an object, or ``labels`` or ``rows`` is missing,
        ``labels`` is not a list of distinct strings, ``rows`` not a square
        list of lists, or an entry is not of this matrix kind.
        """

        def bad(path: str, problem: str):
            return BadMatrixDocument(f"{source}: {path}: {problem}")

        if not isinstance(data, dict):
            raise bad("document", "expected a JSON object with labels and rows")
        for key in ("labels", "rows"):
            if key not in data:
                raise bad(key, "missing")
            if not isinstance(data[key], list):
                raise bad(key, "expected a list")
        labels, rows = data["labels"], data["rows"]
        for i, label in enumerate(labels):
            # A lone surrogate, from a "\ud800" escape, cannot be written out.
            if not isinstance(label, str) or _surrogate(label):
                raise bad(f"labels[{i}]", "expected a string of Unicode text")
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise bad(f"rows[{i}]", "expected a list")
        try:
            return cls(labels, rows)
        except UltratreeError as exc:
            raise bad(cls._fault_path(labels, rows), exc) from None

    @classmethod
    def _fault_path(cls, labels: list, rows: list) -> str:
        """The JSON path of the first fault ``__init__`` rejects, found
        again on the error path so that building a matrix costs no more."""
        if len(rows) != len(labels):
            return "rows"
        for i, row in enumerate(rows):
            if len(row) != len(labels):
                return f"rows[{i}]"
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                try:
                    cls._check_entry(value)
                except UltratreeError:
                    return f"rows[{i}][{j}]"
        return next((f"labels[{j}]" for j, x in enumerate(labels) if x in labels[:j]), "labels")

    def to_csv(self) -> str:
        cells = self._cells("")
        rows = self._rows if cells is None else (map(cells.__getitem__, row) for row in self._rows)
        return _csv(["", *self.labels], ([label, *row] for label, row in zip(self.labels, rows)))


def _int_cells(matrix: LabeledMatrix, absent: str) -> dict:
    """``_cells`` of ints and None, one ``int.__repr__`` per distinct element of the kept rows."""
    return {v: absent if v is None else int.__repr__(matrix._form.number(v)) for v in {*chain.from_iterable(matrix._rows)}}


class DistanceMatrix(LabeledMatrix):
    """Integer distances; symmetry and axioms are checked, not enforced.  A leaf matrix keeps ``CODE_POINTS`` rows,
    its ``entries`` built on first read; any other keeps tuples, its own ``entries`` (-1 or IntEnum has no code point)."""

    __slots__ = ("_rows", "_ints", "_form")
    _cells = _int_cells
    __reduce__ = lambda self: (type(self)._made, (self.labels, self._rows))  # copy and pickle keep the rows as kept

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._ints is None:
            self._ints = tuple([tuple(map(ord, row)) for row in self._rows])
        return self._ints

    @entries.setter
    def entries(self, rows) -> None:  # by _fill: leaf_matrix's code-point rows, or checked tuples
        form = CODE_POINTS if rows and type(rows[0]) is str else TUPLES
        self._rows, self._ints, self._form = rows, None if form is CODE_POINTS else rows, form

    def _check_entries(self, rows) -> None:
        # One scan of the entry types at C speed; the per-entry check runs
        # only for int subclasses and faults.
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            super()._check_entries(rows)

    @staticmethod
    def _check_entry(value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise UltratreeError(f"distance entries must be integers, got {value!r}")


class RelationMatrix(LabeledMatrix):
    """Boolean relation over labeled nodes; serialized as 0/1.  Each row is
    kept as ``bytes`` of 0s and 1s, which the builders make from slices and
    the writers translate whole; ``entries`` views them as tuples of bools,
    built on its first read and kept."""

    __slots__ = ("_rows", "_bools")

    @property
    def entries(self) -> tuple[tuple[bool, ...], ...]:
        if self._bools is None:
            self._bools = tuple([tuple(map(bool, row)) for row in self._rows])
        return self._bools

    @entries.setter
    def entries(self, rows) -> None:  # by _fill: a builder's bytes, or any entries coerced to bool
        self._rows, self._bools = tuple([row if type(row) is bytes else bytes(map(bool, row)) for row in rows]), None

    def _check_entries(self, rows) -> None:
        """Setting ``entries`` coerces every entry to bool, so none can fail a check."""

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "rows": [list(row) for row in self._rows]}  # bytes list as ints

    def _texts(self, sep: str) -> list[str]:
        # Blocks of about 2**15 entries (a longer text leaves the cache), as 0s and 1s with sep around each entry by
        # one translate and one replace; a row is the slice of its entries and the seps between them.
        n, texts = self.size, []
        width, block = n * (len(sep) + 1), max(1, 2**15 // max(n, 1))  # block: rows per text
        for i in range(0, n, block):
            text = b"".join(self._rows[i : i + block]).translate(_BITS).decode().replace("", sep)
            texts += [text[start : start + width - len(sep)] for start in range(len(sep), len(text), width)]
        return texts

    def to_csv(self) -> str:
        cells = (row.translate(_BITS).decode() for row in self._rows)  # a str of 0s and 1s per row
        return _csv(["", *self.labels], ([label, *row] for label, row in zip(self.labels, cells)))


class SignMatrix(LabeledMatrix):
    """Square matrix over {+1, -1}."""

    _cells = _int_cells

    @staticmethod
    def _check_entry(value) -> None:
        # Only ints: 1.0 and Fraction(1) compare equal to 1 but are not exact.
        if not isinstance(value, int) or isinstance(value, bool) or value not in (1, -1):
            raise UltratreeError(f"sign entries must be +1 or -1, got {value!r}")


class CategoryDistanceMatrix(LabeledMatrix):
    """Minimum distances per category pair; absent entries are None."""

    _cells = _int_cells

    @staticmethod
    def _check_entry(value) -> None:
        if value is None:
            return
        if not isinstance(value, int) or isinstance(value, bool):
            raise UltratreeError(f"entries must be integers or None, got {value!r}")
        if value < 1:
            raise UltratreeError(f"present entries must be at least 1, got {value!r}")

    @property
    def categories(self) -> tuple[str, ...]:
        return self.labels

    def get(self, x: str, y: str) -> int | None:
        return self.entry(x, y)
