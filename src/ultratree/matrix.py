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
    """Immutable square matrix with one label per row/column.  Its ``_rows`` hold the rows in a form its kind
    keeps: tuples of entries, a relation's bytes or a leaf matrix's code-point strings; ``_kept`` gives the form
    of a constructor's rows.  ``entries`` is the rows when they are tuples, else a view of tuples of entries,
    each ``_entry`` of a kept element, built on its first read and kept.  Copies and pickles hold the rows as
    kept and no view."""

    __slots__ = ("labels", "_rows", "_entries", "_index")
    _entry = None  # a kept element's entry, for kinds that keep rows other than tuples
    _check_entry = None  # raises UltratreeError for a value that is not an entry of this kind; None takes any value
    _plain = frozenset()  # entry types that pass _check_entry whatever their value

    def __init__(self, labels: Sequence[str], entries: Sequence[Sequence]):
        labels, rows = tuple(labels), self._kept(entries)
        fault = self._fault(labels, rows)
        if fault:
            raise fault[1]
        self._fill(labels, rows)

    @staticmethod
    def _kept(rows) -> tuple:
        # tuple() of a list, not of a generator: that grows the tuple by
        # resizing, and the resized tuples pile up in CPython's tuple free
        # lists, which only a full garbage collection empties.
        return tuple([tuple(row) for row in rows])

    @classmethod
    def _made(cls, labels: tuple[str, ...], rows: tuple):
        """The matrix over distinct labels and square rows, in a form its kind keeps, that a builder in this
        package made or a copy or pickle held: nothing is copied or checked."""
        matrix = object.__new__(cls)
        matrix._fill(labels, rows)
        return matrix

    def _fill(self, labels: tuple[str, ...], rows: tuple) -> None:
        self.labels, self._rows, self._entries, self._index = labels, rows, None, None  # views built on first use

    __reduce__ = lambda self: (type(self)._made, (self.labels, self._rows))  # copy and pickle keep the rows as kept

    @classmethod
    def _fault(cls, labels: Sequence, rows: Sequence[Sequence]) -> tuple[str, UltratreeError] | None:
        """The JSON path and error of the first fault of a matrix over ``labels`` and ``rows``, None if none: the
        row count, each row's length, the entries row by row, then a repeated label.  One scan of the entry types at
        C speed passes the entries when every type is in ``_plain``; only int subclasses and faults are checked one
        by one."""
        n, check = len(labels), cls._check_entry
        square = f"matrix with {n} labels must be {n}x{n}"
        if len(rows) != n:
            return "rows", NonSquare(square)
        for i, row in enumerate(rows):
            if len(row) != n:
                return f"rows[{i}]", NonSquare(square)
        if check and not set(map(type, chain.from_iterable(rows))) <= cls._plain:
            for i, row in enumerate(rows):
                for j, value in enumerate(row):
                    try:
                        check(value)
                    except UltratreeError as error:
                        return f"rows[{i}][{j}]", error
        if len(set(labels)) != n:
            j = next(j for j, x in enumerate(labels) if x in labels[:j])
            return f"labels[{j}]", UltratreeError("matrix labels must be unique")
        return None

    @property
    def entries(self) -> tuple[tuple, ...]:
        if self._entries is None:
            rows = self._rows
            own = not rows or type(rows[0]) is tuple  # tuple rows are their own entries: no copy
            self._entries = rows if own else tuple([tuple(map(self._entry, row)) for row in rows])
        return self._entries

    _form = property(lambda self: CODE_POINTS if self._rows and type(self._rows[0]) is str else TUPLES)  # of int kinds

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
        except UltratreeError:
            raise bad(*cls._fault(labels, rows)) from None

    def to_csv(self) -> str:
        cells = self._cells("")
        rows = self._rows if cells is None else (map(cells.__getitem__, row) for row in self._rows)
        return _csv(["", *self.labels], ([label, *row] for label, row in zip(self.labels, rows)))


def _int_cells(matrix: LabeledMatrix, absent: str) -> dict:
    """``_cells`` of ints and None, one ``int.__repr__`` per distinct element of the kept rows."""
    return {v: absent if v is None else int.__repr__(matrix._form.number(v)) for v in {*chain.from_iterable(matrix._rows)}}


class DistanceMatrix(LabeledMatrix):
    """Integer distances; symmetry and axioms are checked, not enforced.  A leaf matrix keeps ``CODE_POINTS`` rows,
    whose ``entries`` read each code point by ``ord``; any other keeps tuples (-1 or IntEnum has no code point)."""

    __slots__ = ()
    _entry, _plain, _cells = ord, {int}, _int_cells

    @staticmethod
    def _check_entry(value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise UltratreeError(f"distance entries must be integers, got {value!r}")


class RelationMatrix(LabeledMatrix):
    """Boolean relation over labeled nodes; serialized as 0/1.  Each row is
    kept as ``bytes`` of 0s and 1s, which the builders make from slices and
    the writers translate whole; ``entries`` views them as tuples of bools.
    Any value is an entry, kept as its bool."""

    __slots__ = ()
    _entry = bool
    _kept = staticmethod(lambda rows: tuple([bytes(map(bool, row)) for row in rows]))

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

    __slots__ = ()
    _cells = _int_cells

    @staticmethod
    def _check_entry(value) -> None:
        # Only ints: 1.0 and Fraction(1) compare equal to 1 but are not exact.
        if not isinstance(value, int) or isinstance(value, bool) or value not in (1, -1):
            raise UltratreeError(f"sign entries must be +1 or -1, got {value!r}")


class CategoryDistanceMatrix(LabeledMatrix):
    """Minimum distances per category pair; absent entries are None."""

    __slots__ = ()
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
