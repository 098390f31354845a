"""Structural command relations: c-command, cu-command, and government.

Both relations are restricted to node pairs at the same minimum height and
include the self pair.  C-command asks whether the first branching ancestor
of one node dominates the other; cu-command asks whether the other node lies
at minimum positive ultrametric distance.  On leaves the two always agree;
``theorem_check`` verifies that agreement tree by tree, and can extend the
comparison to internal nodes, where configurations exist that separate the
two relations (see the ``nodes`` argument).  They separate one way only:
c-command is contained in cu-command.

Each relation holds within the run of peers under a root (``_Facts``).  Two
distinct peers command each other exactly when they share that root, for each
root is then an ancestor of both holding another peer, the lowest one of its
node.  So government (mutual cu-command from a governor category) is a shared
height and cu-command root, and mutual c-command a shared first branching ancestor.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from itertools import accumulate

from .errors import EmptyPolicy, HeightMismatch, NoBranchingAncestor, UltratreeError, _ReadOnlyDict, _Record, _set
from .matrix import RelationMatrix
from .trees import PhraseTree, _parse_arity, _suite, disambiguate, lca, serialize_tree

DEFAULT_GOVERNOR_CATEGORIES = frozenset({"V", "P"})


class GovernorPolicy(_Record):
    """The categories allowed to govern; there is no canonical inventory, so
    the set is caller configuration.  Verbs and prepositions by default."""

    __slots__ = _fields = ("governor_categories",)

    def __init__(self, governor_categories: Iterable[str] = DEFAULT_GOVERNOR_CATEGORIES):
        _set(self, "governor_categories", frozenset(governor_categories))


class CuDomain(_Record):
    """Distances from a node to its height peers, and the closest of them.

    ``distance_set`` maps every node at the owner's height (owner included,
    at distance 0) to its ultrametric distance; ``members`` is the owner plus
    all peers attaining the minimum positive distance.
    """

    __slots__ = _fields = ("owner", "distance_set", "members")

    def __init__(self, owner: int, distance_set: Mapping[int, int], members: frozenset[int]):
        _set(self, "owner", owner)
        _set(self, "distance_set", _ReadOnlyDict(distance_set))  # its own copy, which refuses change
        _set(self, "members", members)


class Disagreement(_Record):
    """A same-height pair on which only cu-command holds: c-command is contained
    in it, so ``holds`` is always ``"cu_command"``, kept for the JSON layout."""

    __slots__ = _fields = ("a", "b", "holds")

    def __init__(self, a: int, b: int, holds: str):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "holds", holds)


def _positions(tree: PhraseTree, nodes: str) -> list[int]:
    if nodes not in ("leaves", "all"):
        raise UltratreeError(f"nodes must be 'leaves' or 'all', got {nodes!r}")
    return [p for p, arity in enumerate(tree._arity) if nodes == "all" or not arity]


class _Facts:
    """Each node's command facts by preorder position, in one O(N·depth) pass.

    Same-height nodes never dominate one another, so a subtree holds a
    contiguous run of them in preorder, under a root kept per node and
    relation: the first branching ancestor for c-command, the lowest ancestor
    holding the previous or next peer for cu-command, the node itself for
    both when it is alone.  A first branching ancestor holding another peer
    is the cu-command root too, so c-command is contained in cu-command.
    ``_facts`` runs the pass once per tree and keeps it on the tree.
    """

    def __init__(self, tree: PhraseTree):
        up, end, height, arity = tree._up, tree._end, tree._height, tree._arity
        n = len(up)
        self.end = end
        levels: list[list[int]] = [[] for _ in range(height[0] + 1)]
        index = self.index = [0] * n  # each node's index among its peers
        for p, h in enumerate(height):
            index[p] = len(levels[h])
            levels[h].append(p)
        self.peers = [levels[h] for h in height]  # positions at each node's height
        c_root, cu_root = self.c_root, self.cu_root = list(range(n)), list(range(n))
        above = self.above = [-1] * n  # first branching ancestor or -1; a node with peers has one
        for p in range(1, n):
            top = above[p] = up[p] if arity[up[p]] > 1 else above[up[p]]
            level = self.peers[p]
            if len(level) == 1:
                continue
            i = index[p]
            before = level[i - 1] if i else -1
            after = level[i + 1] if i + 1 < len(level) else n
            q = top  # the ancestors below it hold no other peer
            while before < q and end[q] <= after:
                q = up[q]
            c_root[p], cu_root[p] = top, q

    def run(self, roots: list[int], p: int) -> list[int]:
        level, root, i = self.peers[p], roots[p], self.index[p]
        return level[bisect_left(level, root, 0, i) : bisect_left(level, self.end[root], i + 1)]

    def holds(self, roots: list[int], p: int, q: int) -> bool:
        """Whether ``q`` is in ``p``'s run of ``roots``."""
        root = roots[p]
        return self.peers[p] is self.peers[q] and root <= q < self.end[root]


def _facts(tree: PhraseTree) -> _Facts:
    """The tree's command facts, kept from its first query; racing threads build equal ones."""
    if tree._facts is None:
        tree._facts = _Facts(tree)
    return tree._facts


def _matrix(tree: PhraseTree, nodes: str, rows: list[bytes]) -> RelationMatrix:
    """The relation matrix over ``rows``, labelled by the chosen nodes."""
    labels = tree.leaf_labels() if nodes == "leaves" else tree.node_labels()
    return RelationMatrix._made(labels, tuple(rows))


def _relation(tree: PhraseTree, nodes: str, roots: list[int]) -> RelationMatrix:
    """The matrix over the chosen nodes whose row p is the slice of the mask of p's height (1 at
    the chosen nodes of that height) from ``roots[p]`` to its subtree's end, zeros on both sides."""
    positions, end, height = _positions(tree, nodes), tree._end, tree._height
    m, chosen = len(positions), bytearray(len(end))
    masks = [bytearray(m) for _ in range(height[0] + 1)]  # over leaves alone, height 0's is all ones
    for k, p in enumerate(positions):
        masks[height[p]][k] = chosen[p] = 1
    masks, rank = [*map(bytes, masks)], [*accumulate(chosen, initial=0)]  # chosen positions before each
    spans = [(masks[height[p]], rank[roots[p]], rank[end[roots[p]]]) for p in positions]
    return _matrix(tree, nodes, [mask[lo:hi].rjust(hi, b"\0").ljust(m, b"\0") for mask, lo, hi in spans])


def first_branching_ancestor(tree: PhraseTree, node_id: int) -> int:
    """Nearest strict ancestor with at least two children; unary nodes are skipped."""
    top = _facts(tree).above[tree._position(node_id)]
    if top < 0:
        raise NoBranchingAncestor(f"no branching ancestor above node {node_id}")
    return top


def same_height_distance(tree: PhraseTree, a: int, b: int) -> int:
    """Ultrametric distance between two same-height nodes.

    The distance is the height climbed to their lowest common ancestor, so it
    is 0 exactly when a == b.
    """
    if tree.height(a) != tree.height(b):
        raise HeightMismatch(f"nodes sit at heights {tree.height(a)} and {tree.height(b)}")
    return tree.height(lca(tree, a, b)) - tree.height(a)


def c_command(tree: PhraseTree, a: int, b: int) -> bool:
    """Whether the first branching node strictly above ``a`` dominates ``b``:
    the self pair included, between same-height nodes only, in O(1) once
    the tree's command pass is kept."""
    facts = _facts(tree)
    return facts.holds(facts.c_root, tree._position(a), tree._position(b))


def c_command_matrix(tree: PhraseTree, nodes: str = "leaves") -> RelationMatrix:
    return _relation(tree, nodes, _facts(tree).c_root)


def cu_domain(tree: PhraseTree, a: int) -> CuDomain:
    """Distances from ``a`` to its height peers and the set of closest ones.

    The members come from the tree's kept command pass, and each
    distance from one ``lca``.  When ``a`` is alone the domain is ``{a}``.
    """
    facts, p, height = _facts(tree), tree._position(a), tree._height
    distance_set = {q: height[lca(tree, p, q)] - height[p] for q in facts.peers[p]}
    return CuDomain(a, distance_set, frozenset(facts.run(facts.cu_root, p)))


def cu_command(tree: PhraseTree, a: int, b: int) -> bool:
    facts = _facts(tree)
    return facts.holds(facts.cu_root, tree._position(a), tree._position(b))


def cu_command_matrix(tree: PhraseTree, nodes: str = "leaves") -> RelationMatrix:
    return _relation(tree, nodes, _facts(tree).cu_root)


def theorem_check(tree: PhraseTree, nodes: str = "leaves") -> list[Disagreement]:
    """Compare c-command against cu-command over same-height pairs.

    Returns the pairs on which the relations disagree, by ``a`` then ``b``
    in preorder; an empty list means they coincide on this tree.  With
    ``nodes='leaves'`` (the default) the two provably coincide;
    ``nodes='all'`` also compares internal nodes, where a node alone at its
    height under its first branching ancestor can cu-command a distant peer
    it does not c-command.  C-command is contained in cu-command, so every
    disagreement holds ``"cu_command"``: O(N·depth + output).
    """
    positions, facts = _positions(tree, nodes), _facts(tree)
    c_root, cu_root = facts.c_root, facts.cu_root
    return [
        Disagreement(p, q, "cu_command")
        for p in positions
        if c_root[p] != cu_root[p]
        for q in facts.run(cu_root, p)
        if q != p
    ]


def label_disagreements(tree: PhraseTree, found: list[Disagreement]) -> list[dict]:
    """Render disagreements with readable node names (leaf word or node label)."""
    if not found:
        return []
    names = disambiguate([word or label for label, word in zip(tree._label, tree._word)])
    bracketed = serialize_tree(tree)
    return [{"tree": bracketed, "a": names[d.a], "b": names[d.b], "relation": d.holds} for d in found]


def theorem_report(trees: Iterable[PhraseTree], nodes: str = "leaves") -> dict:
    """Run theorem_check over each tree and label what it finds.

    Returns ``{"trees_tested": n, "disagreements": [...]}`` where each
    disagreement records the offending tree (bracketed), the node pair, and
    which relation held.
    """
    tested, disagreements = 0, []
    for tested, tree in enumerate(trees, 1):
        disagreements.extend(label_disagreements(tree, theorem_check(tree, nodes=nodes)))
    return {"trees_tested": tested, "disagreements": disagreements}


def random_theorem_suite(
    seed: int, trees: int, max_leaves: int, arity: str = "mixed:4", nodes: str = "leaves"
) -> dict:
    """Run theorem_report over seeded random trees; deterministic for a fixed seed."""
    if max_leaves < 1:
        raise UltratreeError(f"max_leaves must be at least 1, got {max_leaves}")
    if trees < 0:
        raise UltratreeError(f"trees must be at least 0, got {trees}")
    max_arity = _parse_arity(arity)  # a bad spec fails even when no tree is drawn
    return theorem_report(_suite(seed, trees, max_leaves, max_arity), nodes=nodes)


def _checked(policy: GovernorPolicy | None) -> GovernorPolicy:
    policy = GovernorPolicy() if policy is None else policy
    if not policy.governor_categories:
        raise EmptyPolicy("governor policy has no categories")
    return policy


def governs(tree: PhraseTree, a: int, b: int, policy: GovernorPolicy | None = None) -> bool:
    """Whether a's label is a governor category, a != b, and each lies in the other's
    cu-domain: a shared height and cu-command root, in O(1) once the pass is kept."""
    policy, p, q, facts = _checked(policy), tree._position(a), tree._position(b), _facts(tree)
    shared = p != q and facts.peers[p] is facts.peers[q] and facts.cu_root[p] == facts.cu_root[q]
    return shared and tree._label[p] in policy.governor_categories


def government_matrix(
    tree: PhraseTree, policy: GovernorPolicy | None = None, nodes: str = "all"
) -> RelationMatrix:
    """Row p marks the nodes p governs: the byte mask of p's class, the chosen nodes
    of p's height and cu-command root (see the module docstring), with p's own bit
    cleared if p's label governs; the nodes that do not govern share one zero row."""
    policy, facts, positions = _checked(policy), _facts(tree), _positions(tree, nodes)
    keys = [(tree._height[p], facts.cu_root[p]) for p in positions]  # each chosen node's class
    zero, masks, rows = bytes(len(positions)), {}, []
    for k, key in enumerate(keys):
        masks.setdefault(key, bytearray(zero))[k] = 1
    for k, p in enumerate(positions):
        if tree._label[p] in policy.governor_categories:
            mask = masks[keys[k]]
            rows.append(bytes(mask[:k]) + b"\0" + mask[k + 1 :])  # the class, p's own bit cleared
        else:
            rows.append(zero)
    return _matrix(tree, nodes, rows)
