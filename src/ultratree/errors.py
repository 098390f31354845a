"""Exception types and the record base shared across the package, and the UTF-8 and JSON file readers."""

import json

_set = object.__setattr__  # how a record's ``__init__`` fills its slots


class _Record:
    """Base of the package's immutable records.

    A record lists its fields in ``_fields`` (its ``__slots__``), in
    ``__init__`` order, and fills them with ``_set``.  The base gives the
    behaviour of a frozen dataclass: a ``repr`` naming every field,
    equality and hashing over the fields for records of the same class
    only, AttributeError on assignment and ``del``, and a ``__reduce__`` that
    rebuilds the record through ``__init__`` for copy and pickle.  It does
    so without importing ``dataclasses`` and ``inspect``, whose import cost
    every CLI run more than the analysis of a small input.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class _ReadOnlyDict(dict):
    """A dict field of a record: it reads, compares and prints as a dict, and
    refuses every change, so a caller cannot alter the record through it."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a record's dict field is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # copy and pickle rebuild it as a plain dict
        return dict, (dict(self),)


class UltratreeError(ValueError):
    """Base class for every error raised by this package (a ValueError)."""


class ParseError(UltratreeError):
    """Malformed bracketed tree text.

    ``line`` is the 1-based line number when the text came from a file,
    otherwise None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UnbalancedBrackets(ParseError):
    """Opening and closing parentheses do not match up."""


class EmptyNode(ParseError):
    """A node with no label, or a labeled node with neither word nor children."""


class MixedNode(ParseError):
    """A node that carries both a word and child nodes."""


class UnknownNode(UltratreeError):
    """A node id that does not occur in the tree."""


class NonSquare(UltratreeError):
    """A labeled matrix whose row/column counts disagree with its labels."""


class BadMatrixDocument(UltratreeError):
    """A matrix JSON document whose shape is not ``{"labels": [...], "rows": [[...]]}``.

    The message names the source and the JSON path at fault, e.g. ``rows[1]``.
    """


class DuplicateVertex(UltratreeError):
    """The same label was given twice as a triangle vertex."""


class UnknownLabel(UltratreeError):
    """A label that does not occur in the matrix, chain, or order at hand."""


class TooFewLabels(UltratreeError):
    """An operation that needs at least three labels got fewer."""


class HeightMismatch(UltratreeError):
    """Two nodes that were required to sit at the same height do not."""


class NoBranchingAncestor(UltratreeError):
    """No ancestor with two or more children exists above the node."""


class EmptyPolicy(UltratreeError):
    """A governor policy with no categories."""


class BadAritySpec(UltratreeError):
    """An arity specification other than 'binary' or 'mixed:K' with K >= 2."""


class EmptyCorpus(UltratreeError):
    """A corpus-level aggregation was asked for zero trees."""


class MissingEntry(UltratreeError):
    """A category-distance entry required by a check is absent."""


class UnknownCategory(UltratreeError):
    """A lexical category missing from the feature table."""


class CyclicOrder(UltratreeError):
    """An alleged partial order whose edge set contains a cycle."""


def _read_utf8(path) -> str:
    """The text of a UTF-8 file; other bytes raise UltratreeError naming the file and line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks lines where a text-mode file does: \n, \r, \r\n.
        line = len((raw[: exc.start] + b".").splitlines())
        raise UltratreeError(f"{path}:{line}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def _read_json(path):
    """The JSON document in a UTF-8 file; every fault names the file."""
    text = _read_utf8(path)  # outside the try: its UltratreeError is a ValueError
    # A JSONDecodeError gives the line and column.  Other ValueErrors report
    # an integer too long to convert, and RecursionError nesting too deep.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UltratreeError(f"{path}: {exc}") from None
