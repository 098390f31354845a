"""The indexed tree queries against the brute-force oracles in helpers.

Inputs are every tree shape with 1-7 nodes (unary nodes included) and
hypothesis-drawn random trees.  The command relations are checked pairwise,
over all nodes, against references built here from brute_heights and
brute_lca alone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    GovernorPolicy,
    PhraseTree,
    c_command_matrix,
    cu_command_matrix,
    dominance_matrix,
    dominates,
    government_matrix,
    leaf_matrix,
    random_tree,
    tree_category_minima,
)

from .helpers import (
    all_tree_shapes,
    brute_ancestors,
    brute_heights,
    brute_lca,
    brute_leaf_distance,
)

SMALL_SHAPES = [
    PhraseTree.from_nested(nested) for count in range(1, 8) for nested in all_tree_shapes(count)
]

RANDOM_TREES = st.builds(
    random_tree,
    st.integers(0, 10**6),
    st.integers(1, 10),
    st.sampled_from(["binary", "mixed:4"]),
)

# Leaves of the small shapes are labeled W and internal nodes X, so this
# lets leaves govern and keeps internal nodes from it.
POLICY = GovernorPolicy(frozenset({"W", "V", "P"}))


def check_dominance(tree):
    ids = [n.id for n in tree.nodes]
    expected = [[a in brute_ancestors(tree, b) for b in ids] for a in ids]
    assert [[dominates(tree, a, b) for b in ids] for a in ids] == expected
    assert [list(row) for row in dominance_matrix(tree).entries] == expected


def check_leaf_matrix(tree):
    ids = [n.id for n in tree.leaves]
    expected = [[brute_leaf_distance(tree, a, b) for b in ids] for a in ids]
    assert [list(row) for row in leaf_matrix(tree).entries] == expected


def check_category_minima(tree):
    leaves = tree.leaves
    expected = {}
    for i, x in enumerate(leaves):
        for y in leaves[i + 1 :]:
            pair = tuple(sorted((x.label, y.label)))
            d = brute_leaf_distance(tree, x.id, y.id)
            expected[pair] = min(d, expected.get(pair, d))
    assert tree_category_minima(tree) == expected


def check_command_relations(tree):
    heights = brute_heights(tree)
    ids = [n.id for n in tree.nodes]
    peers = {a: [b for b in ids if heights[b] == heights[a]] for a in ids}
    children = {n.id: len(n.children) for n in tree.nodes}

    def c_commands(a, b):
        if heights[a] != heights[b]:
            return False
        if a == b:
            return True
        above = next(x for x in brute_ancestors(tree, a)[1:] if children[x] >= 2)
        return brute_lca(tree, above, b) == above

    def cu_members(a):
        distance = {b: heights[brute_lca(tree, a, b)] - heights[a] for b in peers[a]}
        positive = [d for d in distance.values() if d > 0]
        return {a} | {b for b, d in distance.items() if positive and d == min(positive)}

    members = {a: cu_members(a) for a in ids}
    labels = {n.id: n.label for n in tree.nodes}

    def governs(a, b):
        return (
            a != b
            and labels[a] in POLICY.governor_categories
            and heights[a] == heights[b]
            and b in members[a]
            and a in members[b]
        )

    def rows(matrix):
        return [list(row) for row in matrix.entries]

    assert rows(c_command_matrix(tree, nodes="all")) == [
        [c_commands(a, b) for b in ids] for a in ids
    ]
    assert rows(cu_command_matrix(tree, nodes="all")) == [
        [b in members[a] for b in ids] for a in ids
    ]
    assert rows(government_matrix(tree, POLICY, nodes="all")) == [
        [governs(a, b) for b in ids] for a in ids
    ]


CHECKS = [check_dominance, check_leaf_matrix, check_category_minima, check_command_relations]


@pytest.mark.parametrize("check", CHECKS)
def test_every_small_shape(check):
    for tree in SMALL_SHAPES:
        check(tree)


@pytest.mark.parametrize("check", CHECKS)
@given(tree=RANDOM_TREES)
@settings(max_examples=40, deadline=None)
def test_random_trees(check, tree):
    check(tree)
