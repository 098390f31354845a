"""Exception types shared across the package, and a UTF-8 file reader."""


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
