"""Shared fixtures and independent brute-force oracles.

The oracles recompute ancestry, heights, and leaf distances directly from
the node structure so library results can be checked against a second path.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import enum
import io
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import ultratree
from ultratree import (
    EmptyNode,
    FeatureTable,
    MixedNode,
    Node,
    ParseError,
    PhraseTree,
    SignMatrix,
    UltratreeError,
    UnbalancedBrackets,
    cli,
)
from ultratree.trees import DEFAULT_RANDOM_CATEGORIES, _parse_arity, _tokenize

# Trees behind the eight 4-leaf branching matrices (words A, M, J, H).
TREE_FIRST = "(S (X (W A) (W M)) (Y (W J) (W H)))"
TREE_SECOND = "(S (W A) (X (W M) (Y (W J) (W H))))"
TREE_THIRD_CORRECTED = "(S (W A) (X (Y (W M) (W J)) (W H)))"
TREE_FOURTH = "(S (X (W A) (Y (W M) (W J))) (W H))"
TREE_FIFTH = "(S (X (Y (W A) (W M)) (W J)) (W H))"
TREE_SIXTH_CORRECTED = "(S (X (W A) (W M) (W J)) (W H))"
TREE_SEVENTH = "(S (W A) (X (W M) (W J) (W H)))"
TREE_EIGHTH = "(S (W A) (W M) (W J) (W H))"

LABELS_AMJH = ("A", "M", "J", "H")


class Level(enum.IntEnum):
    """An int subclass for matrix entries; json writes its members as ints."""

    MINUS = -1
    ONE = 1
    HUGE = 10**30

MATRIX_FIRST = ((0, 1, 2, 2), (1, 0, 2, 2), (2, 2, 0, 1), (2, 2, 1, 0))
MATRIX_SECOND = ((0, 3, 3, 3), (3, 0, 2, 2), (3, 2, 0, 1), (3, 2, 1, 0))
MATRIX_FOURTH = ((0, 2, 2, 3), (2, 0, 1, 3), (2, 1, 0, 3), (3, 3, 3, 0))
MATRIX_FIFTH = ((0, 1, 2, 3), (1, 0, 2, 3), (2, 2, 0, 3), (3, 3, 3, 0))
MATRIX_SEVENTH = ((0, 2, 2, 2), (2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0))
MATRIX_EIGHTH = ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0))

# As printed, these two are not ultrametric; they serve as checker vectors.
MATRIX_THIRD_PRINTED = ((0, 3, 3, 3), (3, 0, 1, 2), (3, 1, 0, 1), (3, 2, 1, 0))
MATRIX_SIXTH_PRINTED = ((0, 1, 1, 3), (1, 0, 1, 2), (1, 1, 0, 2), (3, 2, 2, 0))

MATRIX_THIRD_CORRECTED = ((0, 3, 3, 3), (3, 0, 1, 2), (3, 1, 0, 2), (3, 2, 2, 0))
MATRIX_SIXTH_CORRECTED = ((0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 2), (2, 2, 2, 0))

# Four same-height leaves A..D; the deeper pair B, C meets lowest.
TREE_CCOMMAND = "(H (F (W A) (E (W B) (W C))) (W D))"

# Nine-node dominance example: a clause with a unary subject NP and a
# branching object NP.
TREE_DOMINANCE = (
    "(S (NP-S (N-S John)) (AUX must) (VP (V eat) (NP-E (Det the) (N-E dog))))"
)

DOMINANCE_LABELS = ("S", "NP-S", "N-S", "AUX", "VP", "V", "NP-E", "Det", "N-E")

DOMINANCE_EXPECTED = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
)

CCOMMAND_EXPECTED = (
    (1, 1, 1, 0),
    (0, 1, 1, 0),
    (0, 1, 1, 0),
    (1, 1, 1, 1),
)


def reference_tokenize(text: str) -> Iterator[str]:
    """Split bracketed text one character at a time: ``(``, ``)``, and
    maximal runs of other characters that are not ``str.isspace``."""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            yield ch
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield text[i:j]
            i = j


def reference_parse_tree(text: str) -> PhraseTree:
    """``parse_tree`` as two passes: the token loop collects preorder
    records, then the validating constructor builds the tree and reports a
    word and children on one node, or neither, at the last such position."""
    return PhraseTree(reference_parse_records(text))


def reference_parse_records(text: str) -> list[list]:
    """The token loop of ``parse_tree``: the preorder records ``[label,
    word, parent position]`` of the groups, raising bracket, label and
    repeated-word faults as they are read."""
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
            open_groups.pop()
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
    return records


def reference_word_fault(records) -> tuple[type, str] | None:
    """The error type and message for the last record in preorder whose
    node has both a word and children, or neither, with children read off
    the parent column alone; None when every node has exactly one."""
    parents = {parent for _, _, parent in records}
    for p in range(len(records) - 1, -1, -1):
        label, word, _ = records[p]
        if word is not None and p in parents:
            return MixedNode, f"node {label!r} has both a word and children"
        if word is None and p not in parents:
            return EmptyNode, f"node {label!r} has neither a word nor children"
    return None


def reference_build_feature_matrix(table: FeatureTable | None = None, ap_value: int = -1) -> SignMatrix:
    """``build_feature_matrix`` as a mirror loop: the N and V columns are
    filled from the table, then each empty cell of the N and V rows copies
    its mirror image and each filled one must equal it."""
    table = FeatureTable() if table is None else table
    if ap_value not in (1, -1):
        raise UltratreeError("ap_value must be +1 or -1")
    order = table.categories
    n = len(order)
    cells: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, category in enumerate(order):
        cells[i][0], cells[i][1] = table.vector(category)
    for i in range(n):
        for j in (0, 1):
            if cells[j][i] is None:
                cells[j][i] = cells[i][j]
            elif cells[j][i] != cells[i][j]:
                raise UltratreeError("feature table does not symmetrize")
    cells[2][2] = cells[3][3] = 1
    cells[2][3] = cells[3][2] = ap_value
    return SignMatrix(order, cells)


def brute_parent_map(tree: PhraseTree) -> dict[int, int | None]:
    parents: dict[int, int | None] = {tree.root.id: None}

    def walk(node: Node) -> None:
        for child in node.children:
            parents[child.id] = node.id
            walk(child)

    walk(tree.root)
    return parents


def brute_ancestors(tree: PhraseTree, node_id: int) -> list[int]:
    """Ancestor chain including the node itself, bottom up."""
    parents = brute_parent_map(tree)
    chain = [node_id]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return chain


def brute_depths(tree: PhraseTree) -> dict[int, int]:
    depths: dict[int, int] = {}

    def walk(node: Node, depth: int) -> None:
        depths[node.id] = depth
        for child in node.children:
            walk(child, depth + 1)

    walk(tree.root, 0)
    return depths


def brute_lca(tree: PhraseTree, a: int, b: int) -> int:
    """Deepest node in the intersection of the two ancestor chains."""
    common = set(brute_ancestors(tree, a)) & set(brute_ancestors(tree, b))
    depths = brute_depths(tree)
    return max(common, key=lambda node_id: depths[node_id])


def brute_heights(tree: PhraseTree) -> dict[int, int]:
    heights: dict[int, int] = {}

    def walk(node: Node) -> int:
        value = 0 if node.is_leaf else 1 + max(walk(c) for c in node.children)
        heights[node.id] = value
        return value

    walk(tree.root)
    return heights


def brute_leaf_distance(tree: PhraseTree, a: int, b: int) -> int:
    return brute_heights(tree)[brute_lca(tree, a, b)]


def brute_axiom_scan(entries) -> tuple[list[tuple[str, tuple[int, ...]]], list[tuple[str, tuple[int, ...]]]]:
    """Every failed axiom as ``(axiom, indices)``, in report order, by plain
    loops over every entry, pair and triple: the metric list (zero diagonal,
    positivity, symmetry, then triangle triples) and the ultrametric list.
    Triples are ``(x, z, y)`` with x < y."""
    n = len(entries)
    metric = [("zero_diagonal", (i,)) for i in range(n) if entries[i][i] != 0]
    metric += [("positivity", (i, j)) for i in range(n) for j in range(n) if i != j and entries[i][j] <= 0]
    metric += [("symmetry", (i, j)) for i in range(n) for j in range(i + 1, n) if entries[i][j] != entries[j][i]]
    ultrametric = []
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(n):
                if z in (x, y):
                    continue
                xy, xz, zy = entries[x][y], entries[x][z], entries[z][y]
                if xy > xz + zy:
                    metric.append(("triangle_inequality", (x, z, y)))
                if xy > max(xz, zy):
                    ultrametric.append(("ultrametric", (x, z, y)))
    return metric, ultrametric


def code_point_matrix(labels, rows) -> "ultratree.DistanceMatrix":
    """A distance matrix over ``rows`` of ints in ``range(sys.maxunicode + 1)``,
    kept as ``leaf_matrix`` keeps its rows: one ``str`` of code points per row."""
    return ultratree.DistanceMatrix._made(tuple(labels), tuple(["".join(map(chr, row)) for row in rows]))


def reference_csv_text(rows) -> str:
    """``rows`` as CSV lines ended by "\\n", each written alone by ``csv`` with
    the line end "\\r\\n", which makes it quote a field that holds "\\r" or
    "\\n" on every Python version, and then re-ended."""
    lines = []
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def minimax_closure(entries) -> list[list]:
    """The subdominant ultrametric of a symmetric matrix, the largest one at or
    below it off the diagonal: for each pair, the least over all paths of the
    path's largest entry, by Floyd-Warshall with max in place of +."""
    n = len(entries)
    u = [[0 if x == y else entries[x][y] for y in range(n)] for x in range(n)]
    for k in range(n):
        for x in range(n):
            for y in range(n):
                if x != y:
                    u[x][y] = min(u[x][y], max(u[x][k], u[k][y]))
    return u


def reference_random_records(seed: int, leaf_count: int, arity: str = "binary") -> list[tuple]:
    """The preorder records ``random_tree`` drew with ``randint`` and a
    ``sample`` for every split, two-way ones included; the generator must
    keep drawing the same trees from the same stream."""
    max_arity = _parse_arity(arity)
    rng, categories = random.Random(seed), list(DEFAULT_RANDOM_CATEGORIES)
    leaf_categories = [rng.choice(categories) for _ in range(leaf_count)]
    records: list[tuple] = []
    stack = [(0, leaf_count, -1)]
    while stack:
        lo, hi, parent = stack.pop()
        if hi - lo == 1:
            records.append((leaf_categories[lo], f"w{lo + 1}", parent))
            continue
        parts = 2 if max_arity is None else rng.randint(2, min(max_arity, hi - lo))
        bounds = [lo, *sorted(rng.sample(range(lo + 1, hi), parts - 1)), hi]
        records.append(("X", None, parent))
        here = len(records) - 1
        stack.extend((bounds[i], bounds[i + 1], here) for i in range(parts - 1, -1, -1))
    return records


def binary_shape_records(lo: int, hi: int, parent: int = -1, at: int = 0):
    """The preorder records of each strictly binary shape over leaves [lo, hi),
    rooted at position ``at`` under ``parent``, by nested loops over the root's
    cut, then the left shapes, then the right: the order that
    ``enumerate_binary_trees`` keeps.  Recursive, so for small leaf counts only."""
    if hi - lo == 1:
        yield [("W", f"w{lo + 1}", parent)]
        return
    for split in range(lo + 1, hi):
        for left in binary_shape_records(lo, split, at, at + 1):
            for right in binary_shape_records(split, hi, at, at + 2 * (split - lo)):
                yield [("X", None, parent), *left, *right]


def all_tree_shapes(node_count: int):
    """Every rooted ordered tree shape with exactly ``node_count`` nodes.

    Unary nodes are allowed.  Yields nested pairs ready for
    PhraseTree.from_nested, with leaves numbered left to right.
    """

    def compositions(total: int):
        if total == 0:
            yield []
            return
        for head in range(1, total + 1):
            for rest in compositions(total - head):
                yield [head, *rest]

    def shapes(n: int):
        # A shape is None for a leaf or a list of child shapes.
        if n == 1:
            yield None
            return
        for composition in compositions(n - 1):
            for children in child_combinations(composition):
                yield children

    def child_combinations(sizes: list[int]):
        if not sizes:
            yield []
            return
        for first in shapes(sizes[0]):
            for rest in child_combinations(sizes[1:]):
                yield [first, *rest]

    def to_nested(shape, counter: list[int]):
        if shape is None:
            counter[0] += 1
            return ("W", f"w{counter[0]}")
        return ("X", [to_nested(child, counter) for child in shape])

    for shape in shapes(node_count):
        yield to_nested(shape, [0])


def unary_spine(nested, length):
    """``nested`` under ``length`` unary nodes: the topmost branching node,
    if any, has no branching ancestor."""
    for _ in range(length):
        nested = ("U", [nested])
    return nested


def as_nested(node, unary):
    """The nested form of ``node``, each node id in ``unary`` under that many unary nodes."""
    if node.is_leaf:
        nested = (node.label, node.word)
    else:
        nested = (node.label, [as_nested(child, unary) for child in node.children])
    return unary_spine(nested, unary.get(node.id, 0))


# Shape families that random_tree never draws: each is a function of n
# that returns bracketed text.  Labels cycle through V, N, P and D, so under
# the default policy some leaves and some unary nodes govern.
def _category(k: int, categories: str = "VNPD") -> str:
    return categories[k % len(categories)]


def unary_chain(n: int) -> str:
    """n unary nodes, one above the other, over a single leaf."""
    return "".join(f"({_category(k)} " for k in range(n)) + "(N w1)" + ")" * n


def padded_comb(n: int) -> str:
    """A right comb over n leaves with a unary node over each left leaf: the
    n - 1 unary nodes are peers at height 1, each under its own spine node."""
    text = f"({_category(n - 1)} w{n})"
    for k in range(n - 1, 0, -1):
        text = f"(X ({_category(k)} ({_category(k - 1)} w{k})) {text})"
    return text


def star(n: int) -> str:
    """One node over n leaves."""
    return "(S " + " ".join(f"({_category(k)} w{k + 1})" for k in range(n)) + ")"


def right_comb(n: int, categories: str = "VNPD") -> str:
    """n leaves, each but the last beside the comb of the rest: leaf k+1 is
    labeled ``categories[k % len(categories)]``."""
    spine = "".join(f"(X ({_category(k, categories)} w{k + 1}) " for k in range(n - 1))
    return spine + f"({_category(n - 1, categories)} w{n})" + ")" * (n - 1)


def left_comb(n: int) -> str:
    """n leaves, each but the first beside the comb of the ones before it."""
    return "(X " * (n - 1) + "(V w1)" + "".join(f" ({_category(k)} w{k + 1}))" for k in range(1, n))


def growing_chains(n: int) -> str:
    """One root over n + 1 chains of 0, 1, ..., n unary nodes, each above one
    leaf: the root is every node's first branching ancestor, so the n - h + 1
    nodes at each height h form one class that governs within itself."""
    chains = ["".join(f"({_category(j)} " for j in range(k)) + f"({_category(k)} w{k + 1})" + ")" * k for k in range(n + 1)]
    return "(S " + " ".join(chains) + ")"


SHAPE_FAMILIES = {
    "unary_chain": unary_chain,
    "padded_comb": padded_comb,
    "star": star,
    "right_comb": right_comb,
    "left_comb": left_comb,
    "growing_chains": growing_chains,
}


def block_category_minima(tree: PhraseTree) -> dict[tuple[str, str], int]:
    """``tree_category_minima`` by the leaf blocks: every leaf of a block's
    child meets every leaf of its later siblings at the block's height, so
    each pair of categories on the two sides takes that height.  Quadratic on
    a comb; the reference on trees too large for the brute oracle."""
    categories = tree.leaf_categories()
    minima: dict[tuple[str, str], int] = {}
    for d, lo, mid, hi in tree.leaf_blocks():
        later = dict.fromkeys(categories[mid:hi])
        for x in dict.fromkeys(categories[lo:mid]):
            for y in later:
                pair = (x, y) if x <= y else (y, x)
                if pair not in minima or d < minima[pair]:
                    minima[pair] = d
    return minima


def python_command(*args: str) -> list[str]:
    """argv for a fresh interpreter with this one's ``-X dev`` and ``-W``
    options, so a child runs under the same warning rules as the tests."""
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    return [sys.executable, *dev, *(f"-W{option}" for option in sys.warnoptions), *args]


def python_env(**extra: str) -> dict[str, str]:
    """This environment with the imported ``ultratree`` first on PYTHONPATH."""
    src = str(Path(ultratree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_python(
    *args: str, text: bool = True, timeout: float = 60, preexec_fn=None, **env: str
) -> subprocess.CompletedProcess:
    """Run ``args`` in a fresh interpreter (python_command, python_env with
    ``env`` added) and capture its output; ``preexec_fn`` runs in the child
    before the interpreter starts."""
    return subprocess.run(
        python_command(*args),
        capture_output=True,
        text=text,
        env=python_env(**env),
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def argv_pieces(commands: dict) -> tuple[dict[str, list[tuple[str, ...]]], list[tuple[str, ...]]]:
    """What to draw argv from, given cli's table of subcommand parsers by
    name: by the word that comes first, its pieces, and stray pieces for any
    first word.  A first word is a subcommand's name, an unknown one, none
    (``""``) or a flag; a piece is one or two words.
    A subcommand's pieces are its file, and each of its flags alone, with
    each of its values, as ``--flag=value`` and abbreviated; a word that is no
    subcommand gets every subcommand's pieces.  The stray pieces are
    ``--``, ``-h``, values, subcommand names and flags no parser knows."""
    table = {}
    for name, sub in commands.items():
        pieces = set()
        for action in sub._actions:
            if not action.option_strings:  # the file, as a tree file's name
                pieces.add(("t.trees",))
            if isinstance(action, argparse._HelpAction):  # -h is a stray piece
                continue
            if action.nargs == 0:  # switches take no value
                values = []
            elif action.choices:
                values = [str(choice) for choice in action.choices]
            else:
                values = ["1", "-1", "x"] if action.type is int else ["V,P", "t.trees"]
            for flag in action.option_strings:
                names = [flag, *(flag[:end] for end in (4, 6) if flag.startswith("--") and end < len(flag))]
                pieces.update((word,) for word in names)
                pieces.update((word, value) for word in names for value in values)
                pieces.update((f"{flag}={value}",) for value in values)
        table[name] = sorted(pieces)
    everything = sorted(set().union(*table.values()))
    table.update(dict.fromkeys(["nosuch", "", "-h", "--help", "--format"], everything))
    stray = ["--", "-", "-h", "--help", "--he", "--bogus", "-x", "", "t.trees", "-1", "x", "nosuch", *commands]
    return table, [(word,) for word in stray]


def random_argv(rng: random.Random, table: dict, stray: list) -> list[str]:
    """A first word (``""`` stands for none) and then up to five pieces,
    each a stray one with odds 1 in 5."""
    first = rng.choice(list(table))
    pieces = [rng.choice(stray if rng.random() < 0.2 else table[first]) for _ in range(rng.randrange(6))]
    rest = [word for piece in pieces for word in piece]
    return [first, *rest] if first else rest


def parse_outcome(parse, argv) -> tuple:
    """What ``parse(argv)`` gives: ``vars`` of its namespace or its
    SystemExit code, and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", vars(parse(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class _Parsed(Exception):
    """Carries the namespace that run() hands its subcommand's handler."""


def _hand_back(args):
    raise _Parsed(args)


@contextlib.contextmanager
def handed_back_parsers():
    """cli's top-level parser and its table of subcommand parsers, built
    afresh for the block with every subcommand's handler swapped for one
    that raises its namespace back, so ``run_parse`` sees what run()
    parsed.  The next run() builds the parsers again."""
    cli._parser.cache_clear()
    parser, commands = cli._parser()
    for sub in commands.values():
        sub.set_defaults(handler=_hand_back)
    try:
        yield parser, commands
    finally:
        cli._parser.cache_clear()


def run_parse(argv):
    """The namespace that ``cli.run(argv)`` parsed, inside ``handed_back_parsers``."""
    try:
        cli.run(argv)
    except _Parsed as parsed:
        return parsed.args[0]
    raise AssertionError(f"run({argv!r}) returned without calling its handler")


def argv_differences(count: int, seed: int = 0) -> list[list[str]]:
    """The argv, of ``count`` drawn by ``random_argv``, for which run()'s
    parse and the top-level parser's ``parse_args`` differ."""
    with handed_back_parsers() as (parser, commands):
        table, stray = argv_pieces(commands)
        rng = random.Random(seed)
        draws = (random_argv(rng, table, stray) for _ in range(count))
        return [a for a in draws if parse_outcome(run_parse, a) != parse_outcome(parser.parse_args, a)]


if __name__ == "__main__":
    # python tests/helpers.py [COUNT]  (with src on PYTHONPATH; needs no pytest)
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    differences = argv_differences(count)
    print(f"{sys.version.split()[0]}: {len(differences)} of {count} argv differ")
    for argv in differences[:10]:
        print(argv)
    sys.exit(1 if differences else 0)
