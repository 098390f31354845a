"""Seeded phrase-tree shapes and an independent oracle over them.

The benchmark makes its own inputs here instead of calling
``ultratree.random_tree``, so a change to the program's generator cannot
change what the ``corpus``, ``relations`` and ``violations`` workloads feed
it.  The oracle answers the questions the spot checks ask (leaf distances,
root height, dominance, c-command, cu-command, government, theorem
disagreements) from the shape the benchmark built, without the program.
"""

from __future__ import annotations

import random
import re

PHRASE_LABELS = ("S", "NP", "VP", "PP", "AP", "DP", "CP", "IP")
CATEGORIES = ("D", "N", "V", "A", "P")
WORDS_PER_CATEGORY = 12  # small vocabulary, so repeated words get #k suffixes
GOVERNORS = frozenset({"V", "P"})  # the CLI's default --governors


class Shape:
    """A phrase tree as preorder arrays: label, word, parent, children, height."""

    def __init__(self) -> None:
        self.label: list[str] = []
        self.word: list[str | None] = []
        self.parent: list[int | None] = []
        self.children: list[list[int]] = []
        self.height: list[int] = []

    def add(self, label: str, word: str | None, parent: int | None) -> int:
        node = len(self.label)
        self.label.append(label)
        self.word.append(word)
        self.parent.append(parent)
        self.children.append([])
        self.height.append(0)
        if parent is not None:
            self.children[parent].append(node)
        return node

    def finish(self) -> "Shape":
        # Children always follow their parent in preorder, so a reverse
        # sweep sees every child before its parent.
        for node in range(len(self.label) - 1, -1, -1):
            kids = self.children[node]
            self.height[node] = 1 + max(self.height[k] for k in kids) if kids else 0
        self._ancestors = [self._walk_up(n) for n in range(len(self.label))]
        return self

    def _walk_up(self, node: int) -> list[int]:
        path = []
        current: int | None = node
        while current is not None:
            path.append(current)
            current = self.parent[current]
        return path

    # -- facts -------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.label)

    @property
    def leaves(self) -> list[int]:
        return [n for n in range(self.size) if not self.children[n]]

    def bracketed(self) -> str:
        def write(node: int) -> str:
            if not self.children[node]:
                return f"({self.label[node]} {self.word[node]})"
            return f"({self.label[node]} {' '.join(write(k) for k in self.children[node])})"

        return write(0)

    def names(self) -> list[str]:
        """Node names in disagreement reports: the word of a leaf, else the label."""
        return disambiguate(
            self.word[n] if self.word[n] is not None else self.label[n] for n in range(self.size)
        )

    def node_labels(self) -> list[str]:
        """Row labels of the all-node relation matrices."""
        return disambiguate(self.label)

    def leaf_labels(self) -> list[str]:
        """Row labels of a leaf distance matrix."""
        return disambiguate(self.word[n] for n in self.leaves)

    def lca(self, a: int, b: int) -> int:
        above_a = set(self._ancestors[a])
        return next(n for n in self._ancestors[b] if n in above_a)

    def distance(self, a: int, b: int) -> int:
        """Height of the lowest common ancestor, as in a leaf matrix."""
        return self.height[self.lca(a, b)]

    def dominates(self, a: int, b: int) -> bool:
        return a in self._ancestors[b]

    def c_commands(self, a: int, b: int) -> bool:
        if a == b:
            return True
        if self.height[a] != self.height[b]:
            return False
        branching = next(
            (n for n in self._ancestors[a][1:] if len(self.children[n]) >= 2), None
        )
        return branching is not None and self.dominates(branching, b)

    def cu_members(self) -> list[frozenset[int]]:
        """For every node: itself plus its closest same-height peers."""
        out = []
        for a in range(self.size):
            peers = [b for b in range(self.size) if b != a and self.height[b] == self.height[a]]
            dist = {b: self.height[self.lca(a, b)] - self.height[a] for b in peers}
            closest = min(dist.values(), default=None)
            out.append(frozenset([a, *(b for b in peers if dist[b] == closest)]))
        return out

    def disagreements(self) -> list[tuple[int, int, str]]:
        """Same-height pairs on which c-command and cu-command differ."""
        members = self.cu_members()
        found = []
        for a in range(self.size):
            for b in range(self.size):
                if self.height[a] != self.height[b]:
                    continue
                c = self.c_commands(a, b)
                if c != (b in members[a]):
                    found.append((a, b, "c_command" if c else "cu_command"))
        return found


def disambiguate(names) -> list[str]:
    """Suffix repeated names with ``#k``, the k-th occurrence counting from 1."""
    names = list(names)
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    seen: dict[str, int] = {}
    out = []
    for name in names:
        if counts[name] == 1:
            out.append(name)
        else:
            seen[name] = seen.get(name, 0) + 1
            out.append(f"{name}#{seen[name]}")
    return out


def random_shape(rng: random.Random, leaf_count: int, unary: float) -> Shape:
    """A tree over ``leaf_count`` leaves: recursive splits into 2-4 parts.

    With probability ``unary`` a subtree is wrapped in a one-child phrase,
    which gives first-branching-ancestor lookups something to skip.
    """
    shape = Shape()

    def build(count: int, parent: int | None) -> None:
        if parent is not None and rng.random() < unary:
            parent = shape.add(rng.choice(PHRASE_LABELS), None, parent)
        if count == 1:
            category = rng.choice(CATEGORIES)
            word = f"{category.lower()}{rng.randrange(WORDS_PER_CATEGORY)}"
            shape.add(category, word, parent)
            return
        node = shape.add(rng.choice(PHRASE_LABELS), None, parent)
        parts = rng.randint(2, min(4, count))
        cuts = sorted(rng.sample(range(1, count), parts - 1))
        for lo, hi in zip([0, *cuts], [*cuts, count]):
            build(hi - lo, node)

    build(leaf_count, None)
    return shape.finish()


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_bracketed(text: str) -> Shape:
    """Read one labelled bracketing, as the CLI prints it, into a Shape."""
    shape = Shape()
    stack: list[int] = []
    tokens = _TOKEN.findall(text)
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "(":
            label = tokens[i + 1]
            if tokens[i + 2] not in "()":
                shape.add(label, tokens[i + 2], stack[-1] if stack else None)
                i += 4  # "(", label, word, ")"
                continue
            stack.append(shape.add(label, None, stack[-1] if stack else None))
            i += 2
        else:
            stack.pop()
            i += 1
    return shape.finish()
