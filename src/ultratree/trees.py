"""Phrase trees: bracketed-text parsing, minimum heights, and ancestry queries.

Trees are written in single-line labeled bracketing, with leaves of the form
``(CAT word)`` and internal nodes ``(LABEL child child ...)``::

    (S (NP (D the) (N man)) (VP (V ate) (NP (D a) (N dog))))

Every tree is immutable once built.  Node ids are preorder positions, so the
root is node 0 and leaves appear in left-to-right order.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadAritySpec,
    EmptyNode,
    MixedNode,
    ParseError,
    UnbalancedBrackets,
    UnknownNode,
)
from .matrix import RelationMatrix

DEFAULT_RANDOM_CATEGORIES = ("D", "N", "V", "A", "P")


@dataclass(frozen=True)
class Node:
    """One tree position.  Leaves carry a word; internal nodes carry children."""

    id: int
    label: str
    word: str | None
    children: tuple["Node", ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


class PhraseTree:
    """A rooted, ordered, labeled, non-reticulate tree.

    Construction validates that words appear exactly on childless nodes and
    that node ids are unique, and indexes the tree once: each node's preorder
    position, parent, subtree end and minimum height.  Ids may be any unique
    integers, so the index is kept by preorder position.  All queries are
    pure; instances may be shared freely across threads.
    """

    __slots__ = ("root", "_preorder", "_pos", "_up", "_end", "_height")

    def __init__(self, root: Node):
        preorder: list[Node] = []
        pos: dict[int, int] = {}
        up: list[int] = []  # parent position, -1 at the root
        stack: list[tuple[Node, int]] = [(root, -1)]
        while stack:
            node, parent = stack.pop()
            if node.children and node.word is not None:
                raise MixedNode(f"node {node.label!r} has both a word and children")
            if not node.children and node.word is None:
                raise EmptyNode(f"node {node.label!r} has neither a word nor children")
            if node.id in pos:
                raise ValueError(f"duplicate node id {node.id}")
            here = pos[node.id] = len(preorder)
            stack.extend((child, here) for child in reversed(node.children))
            preorder.append(node)
            up.append(parent)
        # Children follow their parent in preorder, so one backward pass
        # finishes every subtree before its root is read.
        end = list(range(1, len(preorder) + 1))  # one past the subtree's last position
        height = [0] * len(preorder)
        for p in range(len(preorder) - 1, 0, -1):
            parent = up[p]
            end[parent] = max(end[parent], end[p])
            height[parent] = max(height[parent], height[p] + 1)
        self.root = root
        self._preorder = tuple(preorder)
        self._pos = pos
        self._up = up
        self._end = end
        self._height = height

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bracketed(cls, text: str) -> "PhraseTree":
        return parse_tree(text)

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
        return cls(_link(records))

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes in preorder."""
        return self._preorder

    @property
    def leaves(self) -> tuple[Node, ...]:
        """Leaves in left-to-right order."""
        return tuple(n for n in self._preorder if n.is_leaf)

    def __len__(self) -> int:
        return len(self._preorder)

    def _position(self, node_id: int) -> int:
        try:
            return self._pos[node_id]
        except KeyError:
            raise UnknownNode(f"no node with id {node_id}") from None

    def node(self, node_id: int) -> Node:
        return self._preorder[self._position(node_id)]

    def height(self, node_id: int) -> int:
        """Minimum branching height: leaves at 0, parents one above their tallest child."""
        return self._height[self._position(node_id)]

    def parent_id(self, node_id: int) -> int | None:
        parent = self._up[self._position(node_id)]
        return None if parent < 0 else self._preorder[parent].id

    def ancestor_ids(self, node_id: int, include_self: bool = False) -> Iterator[int]:
        """Walk upward from a node toward the root."""
        p = self._position(node_id)
        if not include_self:
            p = self._up[p]
        while p >= 0:
            yield self._preorder[p].id
            p = self._up[p]

    def leaf_blocks(self) -> Iterator[tuple[int, int, int, int]]:
        """``(height, lo, mid, hi)`` for each internal node and each child but its last.

        Leaves are numbered left to right.  Every leaf in ``[lo, mid)`` (the
        child) meets every leaf in ``[mid, hi)`` (its later siblings) first
        at that node, of the given height; each pair of distinct leaves lies
        in exactly one block.
        """
        rank = [0]  # leaves before each preorder position
        for node in self._preorder:
            rank.append(rank[-1] + node.is_leaf)
        end = self._end
        for p, node in enumerate(self._preorder):
            child = p + 1
            while node.children and end[child] < end[p]:
                yield self._height[p], rank[child], rank[end[child]], rank[end[p]]
                child = end[child]

    def node_labels(self) -> tuple[str, ...]:
        """Node labels in preorder, suffixed ``#k`` where duplicated."""
        return disambiguate(n.label for n in self._preorder)

    def leaf_labels(self) -> tuple[str, ...]:
        """Leaf words in left-to-right order, suffixed ``#k`` where duplicated."""
        return disambiguate(n.word for n in self.leaves)  # type: ignore[misc]

    # -- serialization -----------------------------------------------------

    def to_bracketed(self) -> str:
        out: list[str] = []
        closing: list[int] = []  # subtree ends of the open internal nodes
        for p, node in enumerate(self._preorder):
            out.append(f" ({node.label}" if p else f"({node.label}")
            if node.is_leaf:
                out.append(f" {node.word})")
            else:
                closing.append(self._end[p])
            while closing and closing[-1] == p + 1:
                closing.pop()
                out.append(")")
        return "".join(out)

    def _signature(self) -> tuple[tuple[int, str, str | None, int], ...]:
        # The preorder sequence with arities fixes the tree, as recursive
        # Node equality would, without recursing through deep chains.
        return tuple((n.id, n.label, n.word, len(n.children)) for n in self._preorder)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhraseTree) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        return f"PhraseTree({self.to_bracketed()!r})"


def disambiguate(labels: Iterable[str]) -> tuple[str, ...]:
    """Suffix repeated labels with ``#k`` (k-th occurrence, 1-based).

    Unique labels are returned unchanged, so ``the the man`` becomes
    ``the#1 the#2 man``.
    """
    labels = list(labels)
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    seen: dict[str, int] = {}
    out: list[str] = []
    for label in labels:
        if counts[label] == 1:
            out.append(label)
        else:
            seen[label] = seen.get(label, 0) + 1
            out.append(f"{label}#{seen[label]}")
    return tuple(out)


# -- parsing ---------------------------------------------------------------

# Regex ``\s`` and ``str.isspace`` agree on every code point, so this splits
# where a character loop testing ``isspace`` would.
_tokenize = re.compile(r"[()]|[^\s()]+").findall


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
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    if tokens[0] != "(":
        raise UnbalancedBrackets(f"expected '(' but found {tokens[0]!r}")
    records: list[list] = []  # [label, word, parent position] in preorder
    open_groups: list[int] = []
    pos = 0
    while True:
        token = tokens[pos]
        if token == "(":
            pos += 1
            if pos >= len(tokens):
                raise UnbalancedBrackets("unexpected end of input")
            if tokens[pos] in "()":
                raise EmptyNode("node with no label")
            records.append([tokens[pos], None, open_groups[-1] if open_groups else -1])
            open_groups.append(len(records) - 1)
        elif token == ")":
            here = open_groups.pop()
            label, word, _ = records[here]
            has_children = len(records) > here + 1
            if word is not None and has_children:
                raise MixedNode(f"node {label!r} has both a word and children")
            if word is None and not has_children:
                raise EmptyNode(f"node {label!r} has neither a word nor children")
            if not open_groups:
                break
        else:
            record = records[open_groups[-1]]
            if record[1] is not None:
                raise MixedNode(f"node {record[0]!r} has more than one word")
            record[1] = token
        pos += 1
        if pos >= len(tokens):
            raise UnbalancedBrackets("missing closing parenthesis")
    if pos + 1 != len(tokens):
        raise UnbalancedBrackets("trailing content after the tree")
    return PhraseTree(_link(records))


def _link(records) -> Node:
    """Build nodes bottom-up from ``(label, word, parent position)`` records in
    preorder; node ids are the positions.  Returns the root."""
    children: list[list[Node]] = [[] for _ in records]
    for p in range(len(records) - 1, -1, -1):
        label, word, parent = records[p]
        node = Node(p, label, word, tuple(reversed(children[p])))
        if parent >= 0:
            children[parent].append(node)
    return node


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
    """Read a UTF-8 tree file (one bracketed tree per line)."""
    with open(path, encoding="utf-8") as handle:
        return parse_tree_lines(handle, source=str(path))


# -- heights and ancestry --------------------------------------------------

def assign_heights(tree: PhraseTree) -> dict[int, int]:
    """Minimum branching heights: leaves at 0, parents one above their tallest child.

    This is the pointwise-least assignment that is strictly increasing from
    child to parent, so every branching event sits at the lowest height
    available to it.  The tree computes it once when built; this returns a
    fresh copy keyed by node id.
    """
    return {node.id: h for node, h in zip(tree._preorder, tree._height)}


def lca(tree: PhraseTree, a: int, b: int) -> int:
    """Lowest common ancestor of two nodes; ``lca(a, a) == a``."""
    p, q = tree._position(a), tree._position(b)
    end, up = tree._end, tree._up
    while not p <= q < end[p]:
        p = up[p]
    return tree._preorder[p].id


def dominates(tree: PhraseTree, a: int, b: int) -> bool:
    """Reflexive ancestorhood: a dominates b iff b lies in a's subtree, or a == b.

    A subtree is one interval of preorder positions, so this is O(1).
    """
    p, q = tree._position(a), tree._position(b)
    return p <= q < tree._end[p]


def dominance_matrix(tree: PhraseTree) -> RelationMatrix:
    """Boolean dominance matrix over all nodes in preorder."""
    ids = [n.id for n in tree.nodes]
    entries = tuple(tuple(dominates(tree, a, b) for b in ids) for a in ids)
    return RelationMatrix(tree.node_labels(), entries)


def is_switched(tree: PhraseTree) -> bool:
    """True when every internal node branches exactly in two."""
    return all(n.is_leaf or len(n.children) == 2 for n in tree.nodes)


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

    The shape is drawn by recursive random splits of the leaf sequence; with
    ``arity='mixed:K'`` each split picks between 2 and K parts.  Leaves are
    words ``w1..wn`` with categories drawn from ``categories``.  The same seed
    always yields the identical tree.
    """
    if leaf_count < 1:
        raise ValueError("leaf_count must be at least 1")
    max_arity = _parse_arity(arity)
    rng = random.Random(seed)
    leaves = [
        (rng.choice(list(categories)), f"w{i + 1}") for i in range(leaf_count)
    ]

    def build(lo: int, hi: int):
        n = hi - lo
        if n == 1:
            return leaves[lo]
        if max_arity is None:
            parts = 2
        else:
            parts = rng.randint(2, min(max_arity, n))
        cuts = sorted(rng.sample(range(lo + 1, hi), parts - 1))
        bounds = [lo, *cuts, hi]
        return ("X", [build(bounds[i], bounds[i + 1]) for i in range(parts)])

    if leaf_count == 1:
        return PhraseTree.from_nested(leaves[0])
    return PhraseTree.from_nested(build(0, leaf_count))


def enumerate_binary_trees(leaf_count: int) -> Iterator[PhraseTree]:
    """All strictly binary tree shapes over ``leaf_count`` ordered leaves.

    Yields the Catalan(leaf_count - 1) shapes in a fixed order; leaves are
    ``(W w1) .. (W wn)`` and internal nodes are labeled ``X``.
    """
    if leaf_count < 1:
        raise ValueError("leaf_count must be at least 1")

    def shapes(lo: int, hi: int):
        if hi - lo == 1:
            yield ("W", f"w{lo + 1}")
            return
        for split in range(lo + 1, hi):
            for left in shapes(lo, split):
                for right in shapes(split, hi):
                    yield ("X", [left, right])

    for nested in shapes(0, leaf_count):
        yield PhraseTree.from_nested(nested)
