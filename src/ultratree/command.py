"""Structural command relations: c-command, cu-command, and government.

Both relations are restricted to node pairs at the same minimum height and
include the self pair.  C-command asks whether the first branching ancestor
of one node dominates the other; cu-command asks whether the other node lies
at minimum positive ultrametric distance.  On leaves the two always agree;
``theorem_check`` verifies that agreement tree by tree, and can extend the
comparison to internal nodes, where configurations exist that separate the
two relations (see the ``nodes`` argument).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import EmptyPolicy, HeightMismatch, NoBranchingAncestor
from .matrix import RelationMatrix
from .trees import PhraseTree, disambiguate, dominates, lca, random_tree, serialize_tree

DEFAULT_GOVERNOR_CATEGORIES = frozenset({"V", "P"})


@dataclass(frozen=True)
class GovernorPolicy:
    """The categories allowed to govern; there is no canonical inventory, so
    the set is caller configuration.  Verbs and prepositions by default."""

    governor_categories: frozenset[str] = DEFAULT_GOVERNOR_CATEGORIES

    def __post_init__(self):
        object.__setattr__(
            self, "governor_categories", frozenset(self.governor_categories)
        )


@dataclass(frozen=True)
class CuDomain:
    """Distances from a node to its height peers, and the closest of them.

    ``distance_set`` maps every node at the owner's height (owner included,
    at distance 0) to its ultrametric distance; ``members`` is the owner plus
    all peers attaining the minimum positive distance.
    """

    owner: int
    distance_set: Mapping[int, int]
    members: frozenset[int]


@dataclass(frozen=True)
class Disagreement:
    """A same-height pair on which exactly one of the two relations holds."""

    a: int
    b: int
    holds: str  # "c_command" or "cu_command"


def _node_ids(tree: PhraseTree, nodes: str) -> list[int]:
    if nodes == "leaves":
        return [n.id for n in tree.leaves]
    if nodes == "all":
        return [n.id for n in tree.nodes]
    raise ValueError(f"nodes must be 'leaves' or 'all', got {nodes!r}")


def _node_labels(tree: PhraseTree, nodes: str) -> tuple[str, ...]:
    return tree.leaf_labels() if nodes == "leaves" else tree.node_labels()


def first_branching_ancestor(tree: PhraseTree, node_id: int) -> int:
    """Nearest strict ancestor with at least two children; unary nodes are skipped."""
    for ancestor in tree.ancestor_ids(node_id):
        if len(tree.node(ancestor).children) >= 2:
            return ancestor
    raise NoBranchingAncestor(f"no branching ancestor above node {node_id}")


def same_height_distance(tree: PhraseTree, a: int, b: int) -> int:
    """Ultrametric distance between two same-height nodes.

    The distance is the height climbed to their lowest common ancestor, so it
    is 0 exactly when a == b.
    """
    if tree.height(a) != tree.height(b):
        raise HeightMismatch(
            f"nodes sit at heights {tree.height(a)} and {tree.height(b)}"
        )
    return tree.height(lca(tree, a, b)) - tree.height(a)


def c_command(tree: PhraseTree, a: int, b: int) -> bool:
    """Whether the first branching node strictly above ``a`` dominates ``b``.

    The relation includes the self pair and applies only between nodes at
    the same height.  Neither node of such a pair dominates the other, since
    ancestors are strictly higher.
    """
    if tree.height(a) != tree.height(b):
        return False
    return a == b or dominates(tree, first_branching_ancestor(tree, a), b)


def c_command_matrix(tree: PhraseTree, nodes: str = "leaves") -> RelationMatrix:
    ids = _node_ids(tree, nodes)
    entries = [[c_command(tree, a, b) for b in ids] for a in ids]
    return RelationMatrix(_node_labels(tree, nodes), entries)


def cu_domain(tree: PhraseTree, a: int) -> CuDomain:
    """Distances from ``a`` to its height peers and the set of closest ones.

    When ``a`` is alone at its height the domain is just ``{a}``.
    """
    h = tree.height(a)
    peers = [n.id for n in tree.nodes if tree.height(n.id) == h]
    distance_set = {peer: same_height_distance(tree, a, peer) for peer in peers}
    positive = [d for d in distance_set.values() if d > 0]
    members = {a}
    if positive:
        closest = min(positive)
        members.update(peer for peer, d in distance_set.items() if d == closest)
    return CuDomain(owner=a, distance_set=distance_set, members=frozenset(members))


def cu_command(tree: PhraseTree, a: int, b: int) -> bool:
    return b in cu_domain(tree, a).members


def cu_command_matrix(tree: PhraseTree, nodes: str = "leaves") -> RelationMatrix:
    ids = _node_ids(tree, nodes)
    members = {a: cu_domain(tree, a).members for a in ids}
    entries = [[b in members[a] for b in ids] for a in ids]
    return RelationMatrix(_node_labels(tree, nodes), entries)


def theorem_check(tree: PhraseTree, nodes: str = "leaves") -> list[Disagreement]:
    """Compare c-command against cu-command over same-height pairs.

    Returns every pair on which the relations disagree; an empty list means
    they coincide on this tree.  With ``nodes='leaves'`` (the default) the
    two provably coincide; ``nodes='all'`` also compares internal nodes,
    where a node alone at its height under its first branching ancestor can
    cu-command a distant peer it does not c-command.
    """
    ids = _node_ids(tree, nodes)
    members = {a: cu_domain(tree, a).members for a in ids}
    disagreements: list[Disagreement] = []
    for a in ids:
        for b in ids:
            if tree.height(a) != tree.height(b):
                continue
            c = c_command(tree, a, b)
            if c != (b in members[a]):
                disagreements.append(
                    Disagreement(a=a, b=b, holds="c_command" if c else "cu_command")
                )
    return disagreements


def label_disagreements(tree: PhraseTree, found: list[Disagreement]) -> list[dict]:
    """Render disagreements with readable node names (leaf word or node label)."""
    names = disambiguate(n.word if n.is_leaf else n.label for n in tree.nodes)
    labels = dict(zip((n.id for n in tree.nodes), names))
    bracketed = serialize_tree(tree)
    return [
        {"tree": bracketed, "a": labels[d.a], "b": labels[d.b], "relation": d.holds}
        for d in found
    ]


def theorem_report(trees: Iterable[PhraseTree], nodes: str = "leaves") -> dict:
    """Run theorem_check over each tree and label what it finds.

    Returns ``{"trees_tested": n, "disagreements": [...]}`` where each
    disagreement records the offending tree (bracketed), the node pair, and
    which relation held.
    """
    tested = 0
    disagreements: list[dict] = []
    for tree in trees:
        tested += 1
        disagreements.extend(label_disagreements(tree, theorem_check(tree, nodes=nodes)))
    return {"trees_tested": tested, "disagreements": disagreements}


def random_theorem_suite(
    seed: int,
    trees: int,
    max_leaves: int,
    arity: str = "mixed:4",
    nodes: str = "leaves",
) -> dict:
    """Run theorem_report over seeded random trees; deterministic for a fixed seed."""
    rng = random.Random(seed)

    def generate():
        for _ in range(trees):
            leaf_count = rng.randint(1, max_leaves)
            yield random_tree(rng.randrange(2**32), leaf_count, arity)

    return theorem_report(generate(), nodes=nodes)


def _checked(policy: GovernorPolicy | None) -> GovernorPolicy:
    policy = GovernorPolicy() if policy is None else policy
    if not policy.governor_categories:
        raise EmptyPolicy("governor policy has no categories")
    return policy


def _governs(
    tree: PhraseTree,
    a: int,
    b: int,
    policy: GovernorPolicy,
    members: Callable[[int], frozenset[int]],
) -> bool:
    return (
        a != b
        and tree.node(a).label in policy.governor_categories
        and tree.height(a) == tree.height(b)
        and b in members(a)
        and a in members(b)
    )


def governs(
    tree: PhraseTree, a: int, b: int, policy: GovernorPolicy | None = None
) -> bool:
    """Government as mutual closest-peer membership by a governor category.

    ``a`` governs ``b`` iff a's label is a governor category, a != b, and
    each node lies in the other's cu-domain.  Self government is excluded.
    """
    return _governs(tree, a, b, _checked(policy), lambda n: cu_domain(tree, n).members)


def government_matrix(
    tree: PhraseTree, policy: GovernorPolicy | None = None, nodes: str = "all"
) -> RelationMatrix:
    policy = _checked(policy)
    ids = _node_ids(tree, nodes)
    members = {a: cu_domain(tree, a).members for a in ids}
    entries = [[_governs(tree, a, b, policy, members.__getitem__) for b in ids] for a in ids]
    return RelationMatrix(_node_labels(tree, nodes), entries)
