"""Phrase trees: bracketed-text parsing, minimum heights, and ancestry queries.

Trees are written in single-line labeled bracketing, with leaves of the form
``(CAT word)`` and internal nodes ``(LABEL child child ...)``::

    (S (NP (D the) (N man)) (VP (V ate) (NP (D a) (N dog))))

Every tree is stored as its preorder labels, words and parent positions and
is immutable once built.  Node ids are preorder positions, so the root is
node 0 and leaves appear in left-to-right order.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, islice, repeat

from .errors import (
    BadAritySpec,
    EmptyNode,
    MixedNode,
    ParseError,
    UltratreeError,
    UnbalancedBrackets,
    UnknownNode,
    _read_utf8,
    _Record,
    _set,
)
from .matrix import RelationMatrix

DEFAULT_RANDOM_CATEGORIES = ("D", "N", "V", "A", "P")


class Node(_Record):
    """A view of one tree position.  Leaves carry a word; internal nodes carry
    children.  Equality, hashing and ``repr`` are structural and walk the
    subtree with a stack, so deep chains do not recurse."""

    __slots__ = _fields = ("id", "label", "word", "children")

    def __init__(self, id: int, label: str, word: str | None, children: tuple[Node, ...]):
        _set(self, "id", id)
        _set(self, "label", label)
        _set(self, "word", word)
        _set(self, "children", children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def _signature(self) -> tuple[tuple[int, str, str | None, int], ...]:
        # The subtree's preorder sequence with arities fixes the subtree.
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append((node.id, node.label, node.word, len(node.children)))
            stack.extend(reversed(node.children))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[Node | str] = [self]  # nodes still to print, and the text between them
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"Node(id={item.id!r}, label={item.label!r}, word={item.word!r}, children=(")
            stack.append(",))" if len(item.children) == 1 else "))")
            stack.extend(x for child in reversed(item.children) for x in (child, ", "))
            if item.children:
                stack.pop()  # no separator before the first child
        return "".join(out)


class PhraseTree:
    """A rooted, ordered, labeled, non-reticulate tree.

    ``PhraseTree(records)`` takes the preorder records ``(label, word,
    parent position)``: the root first with parent -1, a word on each leaf
    and None on each internal node.  Node ids are the positions.  Each
    node's label, word, parent, subtree end, minimum height and child count
    are stored in lists by position, filled by one backward pass that every
    builder shares.  Before it, one forward pass raises ParseError for the
    first record, front to back, whose label or word is not one token (a
    non-empty string free of whitespace and parentheses, so that it prints
    back), whose parent is not an earlier record (-1 for the root), or
    whose parent's subtree has already closed, so the records are not a
    preorder; empty records raise it too.  After the fill, MixedNode or
    EmptyNode names the last node in preorder with both or neither of a
    word and children.  ``from_nested`` builds through this constructor.
    ``parse_tree`` makes only valid preorders, so it fills the lists
    directly and runs the same word check; ``random_tree`` and
    ``enumerate_binary_trees`` make only valid trees and skip it.  ``Node``
    views and the command pass are built on first use and kept (copies and
    pickles carry them); queries are pure, and trees may be shared by threads.
    """

    __slots__ = ("_label", "_word", "_up", "_end", "_height", "_arity", "_views", "_facts")

    def __init__(self, records: Sequence[tuple[str, str | None, int]]):
        if not records:
            raise ParseError("a tree needs at least one record")
        path: list[int] = []  # the open nodes, from the root to the last record read
        for p, (label, word, parent) in enumerate(records):
            if not (_token(label) and (word is None or _token(word))):
                raise _bad_token(p, label, word)
            if not isinstance(parent, int) or not (0 if p else -1) <= parent < p:
                wanted = "an earlier record" if p else "-1: the first record is the root"
                raise ParseError(f"record {p}: parent {parent} is not {wanted}")
            # In a preorder each record's parent is still open: the nodes
            # closed since then are popped, and a closed parent is not found.
            while path and path[-1] != parent:
                path.pop()
            if p and not path:
                raise ParseError(f"not a preorder: record {parent}'s descendants do not directly follow it")
            path.append(p)
        labels, words, up = map(list, zip(*records))
        _check_words(_filled(labels, words, up, self))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_nested(cls, nested) -> "PhraseTree":
        """Build a tree from nested pairs.

        A leaf is ``(category, word)`` with a string word; an internal node is
        ``(label, [child, child, ...])``.
        """
        records: list[tuple[str, str | None, int]] = []
        stack = [(nested, -1)]
        while stack:
            (label, payload), parent = stack.pop()
            if isinstance(payload, str):
                records.append((label, payload, parent))
            else:
                records.append((label, None, parent))
                here = len(records) - 1
                stack.extend((child, here) for child in reversed(list(payload)))
        return cls(records)

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes in preorder, as views built on first use."""
        if self._views is None:
            end, views = self._end, [None] * len(self)
            for p in range(len(views) - 1, -1, -1):  # every child before its parent
                kids, child = [], p + 1
                while child < end[p]:
                    kids.append(views[child])
                    child = end[child]
                views[p] = Node(p, self._label[p], self._word[p], tuple(kids))
            self._views = tuple(views)
        return self._views

    @property
    def root(self) -> Node:
        return self.nodes[0]

    @property
    def leaves(self) -> tuple[Node, ...]:
        """Leaves in left-to-right order."""
        # A list first, as in LabeledMatrix.
        return tuple([v for v, word in zip(self.nodes, self._word) if word is not None])

    def __len__(self) -> int:
        return len(self._up)

    def _position(self, node_id: int) -> int:
        if isinstance(node_id, int) and 0 <= node_id < len(self._up):
            return node_id
        raise UnknownNode(f"no node with id {node_id}")

    def node(self, node_id: int) -> Node:
        return self.nodes[self._position(node_id)]

    def height(self, node_id: int) -> int:
        """Minimum branching height: leaves at 0, parents one above their tallest child."""
        return self._height[self._position(node_id)]

    def parent_id(self, node_id: int) -> int | None:
        parent = self._up[self._position(node_id)]
        return None if parent < 0 else parent

    def ancestor_ids(self, node_id: int, include_self: bool = False) -> Iterator[int]:
        """Walk upward from a node toward the root."""
        p = self._position(node_id)
        if not include_self:
            p = self._up[p]
        while p >= 0:
            yield p
            p = self._up[p]

    def leaf_blocks(self) -> Iterator[tuple[int, int, int, int]]:
        """``(height, lo, mid, hi)`` for each internal node and each child but its last.

        Leaves are numbered left to right.  Every leaf in ``[lo, mid)`` (the
        child) meets every leaf in ``[mid, hi)`` (its later siblings) first
        at that node, of the given height; each pair of distinct leaves lies
        in exactly one block.
        """
        # Leaves before each preorder position.
        rank = [*accumulate([word is not None for word in self._word], initial=0)]
        end, height = self._end, self._height
        for p, arity in enumerate(self._arity):
            child = p + 1
            while arity > 1 and end[child] < end[p]:
                yield height[p], rank[child], rank[end[child]], rank[end[p]]
                child = end[child]

    def node_labels(self) -> tuple[str, ...]:
        """Node labels in preorder, suffixed ``#k`` where duplicated."""
        return disambiguate(self._label)

    def leaf_categories(self) -> list[str]:
        """Leaf labels, the lexical categories, in left-to-right order."""
        return [label for label, word in zip(self._label, self._word) if word is not None]

    def leaf_labels(self) -> tuple[str, ...]:
        """Leaf words in left-to-right order, suffixed ``#k`` where duplicated."""
        return disambiguate([word for word in self._word if word is not None])

    # -- serialization -----------------------------------------------------

    def to_bracketed(self) -> str:
        out: list[str] = []
        closing: list[int] = []  # subtree ends of the open internal nodes
        for p, (label, word) in enumerate(zip(self._label, self._word)):
            out.append(f" ({label}" if p else f"({label}")
            if word is not None:
                out.append(f" {word})")
            else:
                closing.append(self._end[p])
            while closing and closing[-1] == p + 1:
                closing.pop()
                out.append(")")
        return "".join(out)

    def __eq__(self, other: object) -> bool:  # labels, words and parents fix a tree
        same = isinstance(other, PhraseTree) and self._up == other._up
        return same and self._label == other._label and self._word == other._word

    def __hash__(self) -> int:
        return hash((tuple(self._label), tuple(self._word), tuple(self._up)))

    def __repr__(self) -> str:
        return f"PhraseTree({self.to_bracketed()!r})"


def _filled(
    labels: list[str], words: list[str | None], up: list[int], tree: PhraseTree | None = None
) -> PhraseTree:
    """``tree``, or a new tree, over the labels, words and parent positions
    of a valid preorder.  One backward pass, with no checks, adds each
    node's subtree end, minimum height and child count: children follow
    their parent, so every subtree is finished before its root is read."""
    n = len(up)
    end, height, arity = list(range(1, n + 1)), [0] * n, [0] * n
    for p in range(n - 1, 0, -1):
        parent, h = up[p], height[p] + 1
        if arity[parent]:
            arity[parent] += 1
            if h > height[parent]:
                height[parent] = h
        else:  # the last child, read first, ends its parent's subtree
            arity[parent], end[parent], height[parent] = 1, end[p], h
    tree = object.__new__(PhraseTree) if tree is None else tree
    tree._label, tree._word, tree._up, tree._end = labels, words, up, end
    tree._height, tree._arity, tree._views, tree._facts = height, arity, None, None  # built on first use
    return tree


def _check_words(tree: PhraseTree) -> None:
    """Raise MixedNode or EmptyNode for the last node in preorder that has
    both or neither of a word and children."""
    words, arity = tree._word, tree._arity
    for p in range(len(words) - 1, -1, -1):
        if (words[p] is None) == (not arity[p]):
            if words[p] is None:
                raise EmptyNode(f"node {tree._label[p]!r} has neither a word nor children")
            raise MixedNode(f"node {tree._label[p]!r} has both a word and children")


def _bad_token(p: int, label, word) -> ParseError:
    """The error for record ``p``, whose label or word is not one token."""
    kind, token = ("word", word) if _token(label) else ("label", label)
    return ParseError(
        f"record {p}: {kind} {token!r} is not a non-empty string free of whitespace and parentheses"
    )


def disambiguate(labels: Iterable[str]) -> tuple[str, ...]:
    """Suffix repeated labels with ``#k`` (k-th occurrence, 1-based).

    Unique labels are returned unchanged, so ``the the man`` becomes
    ``the#1 the#2 man``.  A ``label#k`` that is itself an input label is
    skipped, so ``N#1 N N`` becomes ``N#1 N#2 N#3`` and the output is
    always distinct.
    """
    labels = list(labels)
    counts = Counter(labels)
    seen: dict[str, int] = {}
    out: list[str] = []
    for label in labels:
        if counts[label] == 1:
            out.append(label)
        else:
            # Two repeated labels never give the same label#k: k holds no "#".
            k = seen.get(label, 0) + 1
            while (name := f"{label}#{k}") in counts:
                k += 1
            seen[label] = k
            out.append(name)
    return tuple(out)


# -- parsing ---------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    """``(``, ``)`` and the runs between them: ``str.split`` splits at exactly
    the ``str.isspace`` characters, as a character loop testing them would."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _token(text) -> bool:
    """A label or word must be one token: a string that prints back as it parses."""
    if not isinstance(text, str):
        return False
    return str.isalnum(text) or text.split() == [text] and "(" not in text and ")" not in text  # most are alnum


def parse_tree(text: str) -> PhraseTree:
    """Parse one bracketed tree.

    Args:
        text: a single balanced labeled bracketing, e.g.
            ``(S (NP (D the) (N man)) (VP (V slept)))``.

    Returns:
        The corresponding PhraseTree with preorder node ids.

    Raises:
        UnbalancedBrackets: parentheses do not balance, or there is trailing
            content after the tree.
        EmptyNode: a ``()`` group, or a labeled group with no content.
        MixedNode: a group mixing a word with child groups, or several words.

    One ``str.split`` makes the tokens, and one pass of an iterator over
    them reads them into preorder columns, raising a bracket, label or
    repeated-word fault at once.  If the text reads cleanly, the
    columns fill the tree's arrays in the pass every builder uses, and the
    last group in preorder with both or neither of a word and children is
    raised by the check the constructor runs.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    if tokens[0] != "(":
        raise UnbalancedBrackets(f"expected '(' but found {tokens[0]!r}")
    labels, words, up = [], [], []  # up: parent positions, -1 at the root
    open_groups = [-1]  # positions of the open groups, on the root's parent -1
    it = iter(tokens)
    for token in it:
        if token == "(":
            if (label := next(it, None)) is None:
                raise UnbalancedBrackets("unexpected end of input")
            if label in "()":
                raise EmptyNode("node with no label")
            up.append(open_groups[-1])
            open_groups.append(len(labels))
            labels.append(label)
            words.append(None)
        elif token == ")":
            if open_groups.pop() == 0:  # the root closed
                break
        else:
            p = open_groups[-1]
            if words[p] is not None:
                raise MixedNode(f"node {labels[p]!r} has more than one word")
            words[p] = token
    else:
        raise UnbalancedBrackets("missing closing parenthesis")
    if next(it, None) is not None:
        raise UnbalancedBrackets("trailing content after the tree")
    tree = _filled(labels, words, up)
    _check_words(tree)
    return tree


def serialize_tree(tree: PhraseTree) -> str:
    """Inverse of parse_tree: single-line labeled bracketing."""
    return tree.to_bracketed()


def parse_tree_lines(lines: Iterable[str], source: str = "<text>") -> list[PhraseTree]:
    """Parse a tree file body: one tree per line, ``#`` comments, blanks ignored."""
    trees: list[PhraseTree] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            trees.append(parse_tree(line))
        except ParseError as exc:
            raise type(exc)(f"{source}:{lineno}: {exc.args[0]}", line=lineno) from exc
    return trees


def parse_tree_file(path) -> list[PhraseTree]:
    """Read a UTF-8 tree file, one bracketed tree per line; errors name the file and line."""
    return parse_tree_lines(io.StringIO(_read_utf8(path), newline=None), source=str(path))


# -- heights and ancestry --------------------------------------------------

def assign_heights(tree: PhraseTree) -> dict[int, int]:
    """Minimum branching heights: leaves at 0, parents one above their tallest child.

    This is the pointwise-least assignment that is strictly increasing from
    child to parent, so every branching event sits at the lowest height
    available to it.  The tree computes it once when built; this returns a
    fresh copy keyed by node id.
    """
    return dict(enumerate(tree._height))


def lca(tree: PhraseTree, a: int, b: int) -> int:
    """Lowest common ancestor of two nodes; ``lca(a, a) == a``."""
    p, q = tree._position(a), tree._position(b)
    end, up = tree._end, tree._up
    while not p <= q < end[p]:
        p = up[p]
    return p


def dominates(tree: PhraseTree, a: int, b: int) -> bool:
    """Reflexive ancestorhood: a dominates b iff b lies in a's subtree, or a == b.

    A subtree is one interval of preorder positions, so this is O(1).
    """
    p, q = tree._position(a), tree._position(b)
    return p <= q < tree._end[p]


def dominance_matrix(tree: PhraseTree) -> RelationMatrix:
    """Boolean dominance matrix over all nodes in preorder: row p is 1 on p's subtree."""
    n, end = len(tree), tree._end
    rows = [bytes(p) + b"\1" * (end[p] - p) + bytes(n - end[p]) for p in range(n)]
    return RelationMatrix._made(tree.node_labels(), tuple(rows))


def is_switched(tree: PhraseTree) -> bool:
    """True when every internal node branches exactly in two."""
    return all(arity in (0, 2) for arity in tree._arity)


# -- generation ------------------------------------------------------------

def _parse_arity(arity: str) -> int | None:
    """Return None for binary, or the maximum arity for ``mixed:K``."""
    if arity == "binary":
        return None
    if isinstance(arity, str) and arity.startswith("mixed:"):
        try:
            max_arity = int(arity.split(":", 1)[1])
        except ValueError:
            raise BadAritySpec(f"bad arity spec {arity!r}") from None
        if max_arity < 2:
            raise BadAritySpec(f"mixed arity must be at least 2, got {max_arity}")
        return max_arity
    raise BadAritySpec(f"bad arity spec {arity!r} (use 'binary' or 'mixed:K')")


def random_tree(
    seed: int,
    leaf_count: int,
    arity: str = "binary",
    categories: Sequence[str] = DEFAULT_RANDOM_CATEGORIES,
) -> PhraseTree:
    """Deterministic random tree over ``leaf_count`` leaves.

    Splits of the leaf sequence shape the tree, each node's before its
    children's, into 2 parts or, with ``arity='mixed:K'``, 2 to K.  Leaves are
    words ``w1..wn`` with categories, all tokens, from ``categories``.  It is
    the tree that ``choice``, ``randint`` and ``sample`` on ``Random(seed)`` draw.
    """
    if leaf_count < 1:
        raise UltratreeError("leaf_count must be at least 1")
    max_arity, categories = _parse_arity(arity), list(categories)
    bad = [c for c in categories if not _token(c)]  # PhraseTree's test
    if bad or not categories:
        raise UltratreeError(f"category {bad[0]!r} is not one token" if bad else "categories must not be empty")
    return _drawn(random.Random(seed), leaf_count, max_arity, categories)


def _suite(seed: int, count: int, max_leaves: int, max_arity: int | None) -> Iterator[PhraseTree]:
    """The randtest trees: per tree, ``randint(1, max_leaves)`` leaves and a ``randrange(2**32)``
    seed on ``Random(seed)``, then the tree ``_drawn`` on a generator reseeded with it."""
    draw, rng = random.Random(seed).getrandbits, random.Random()
    reseed = super(random.Random, rng).seed  # the C seed: Random.seed adds type checks and a gauss_next no draw reads
    for _ in range(count):
        leaf_count = 1 + _below(draw, max_leaves)
        reseed(_below(draw, 2**32))
        yield _drawn(rng, leaf_count, max_arity, DEFAULT_RANDOM_CATEGORIES)


def _below(getrandbits, n: int) -> int:
    """``Random._randbelow(n)``: k-bit draws until one is below n, so n == 1 spends one too."""
    r = getrandbits(k := n.bit_length())
    while r >= n:
        r = getrandbits(k)
    return r


def _cuts(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """``sorted(rng.sample(range(lo, hi), k))``; up to 21 candidates, by sample's own rule on ``getrandbits``."""
    if (n := hi - lo) > 21:  # sample's set branch may take over from here
        return sorted(rng.sample(range(lo, hi), k))
    pool, draw = list(range(lo, hi)), rng.getrandbits  # sample's pool: each pick swapped to the pool's end
    for i in range(n - 1, n - 1 - k, -1):
        j = _below(draw, i + 1)
        pool[j], pool[i] = pool[i], pool[j]
    return sorted(pool[n - k :])


def _drawn(rng: random.Random, leaf_count: int, max_arity: int | None, categories: Sequence[str]) -> PhraseTree:
    """The tree that a ``choice`` per leaf, then a ``randint`` and a ``sample`` per split, draw on ``rng``."""
    draw, n = rng.getrandbits, len(categories)
    chosen = [categories[r] for r in islice(filter(n.__gt__, map(draw, repeat(n.bit_length()))), leaf_count)]
    labels, words, up, stack = [], [], [], [(0, leaf_count, -1)]  # stack: spans [lo, hi) to draw, next on top
    while stack:
        lo, hi, parent = stack.pop()
        leaf = hi - lo == 1
        labels.append(chosen[lo] if leaf else "X")
        words.append(f"w{hi}" if leaf else None)
        up.append(parent)
        if not leaf:  # children go on the stack last first; a two-way cut is sample(range(lo + 1, hi), 1)
            if max_arity is None or (parts := 2 + _below(draw, min(max_arity, hi - lo) - 1)) == 2:
                cut = lo + 1 + _below(draw, hi - lo - 1)
                stack += (cut, hi, len(up) - 1), (lo, cut, len(up) - 1)
            else:
                bounds = [lo, *_cuts(rng, lo + 1, hi, parts - 1), hi]
                stack.extend(zip(bounds[-2::-1], bounds[:0:-1], repeat(len(up) - 1)))
    return _filled(labels, words, up)


def enumerate_binary_trees(leaf_count: int) -> Iterator[PhraseTree]:
    """All strictly binary tree shapes over ``leaf_count`` ordered leaves.

    Yields the Catalan(leaf_count - 1) shapes in a fixed order; leaves are
    ``(W w1) .. (W wn)`` and internal nodes are labeled ``X``.
    """
    if leaf_count < 1:
        raise UltratreeError("leaf_count must be at least 1")
    cuts: list[list[int]] = []  # an odometer: [cut, last cut] of each internal node, in preorder
    while True:
        labels, words, up, stack, at = [], [], [], [(0, leaf_count, -1)], 0
        while stack:  # one walk of the leaf spans, as in _drawn
            lo, hi, parent = stack.pop()
            leaf = hi - lo == 1
            labels.append("W" if leaf else "X")
            words.append(f"w{hi}" if leaf else None)
            up.append(parent)
            if not leaf:
                if at == len(cuts):  # a node past the last advanced cut starts at its least cut
                    cuts.append([lo + 1, hi - 1])
                cut, at = cuts[at][0], at + 1
                stack += (cut, hi, len(up) - 1), (lo, cut, len(up) - 1)
        yield _filled(labels, words, up)
        while cuts and cuts[-1][0] == cuts[-1][1]:  # the last cut that can advance does; those after it drop
            cuts.pop()
        if not cuts:
            return
        cuts[-1][0] += 1
