"""The indexed tree queries against the brute-force oracles in helpers.

Inputs are every tree shape with 1-7 nodes (unary nodes included), shapes
under a unary root spine, and hypothesis-drawn random trees with unary nodes
inserted.  The command relations are checked pairwise, over all nodes,
against references built here from brute_heights and brute_ancestors
alone, each node's chain found once per tree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    CategoryDistanceMatrix,
    Disagreement,
    DistanceMatrix,
    GovernorPolicy,
    NoBranchingAncestor,
    PhraseTree,
    RelationMatrix,
    UnknownLabel,
    c_command,
    c_command_matrix,
    cu_command,
    cu_command_matrix,
    cu_domain,
    dominance_matrix,
    dominates,
    first_branching_ancestor,
    governs,
    government_matrix,
    leaf_matrix,
    min_distance_matrix,
    parse_tree,
    random_tree,
    same_height_distance,
    theorem_check,
    tree_category_minima,
)

from .helpers import (
    SHAPE_FAMILIES,
    all_tree_shapes,
    block_category_minima,
    brute_ancestors,
    brute_heights,
    brute_lca,
    padded_comb,
)


def unary_spine(nested, length):
    """``nested`` under ``length`` unary nodes: the topmost branching node,
    if any, has no branching ancestor."""
    for _ in range(length):
        nested = ("U", [nested])
    return nested


SMALL_SHAPES = [
    PhraseTree.from_nested(nested) for count in range(1, 8) for nested in all_tree_shapes(count)
] + [
    PhraseTree.from_nested(unary_spine(nested, length))
    for count in range(1, 6)
    for nested in all_tree_shapes(count)
    for length in (1, 3)
]


def as_nested(node, unary):
    """The nested form of ``node``, each node id in ``unary`` under that many unary nodes."""
    if node.is_leaf:
        nested = (node.label, node.word)
    else:
        nested = (node.label, [as_nested(child, unary) for child in node.children])
    return unary_spine(nested, unary.get(node.id, 0))


@st.composite
def random_trees(draw):
    """Random binary or mixed trees of 1-10 leaves, up to four nodes (the
    root may be one) each under 1-3 inserted unary nodes."""
    arity = draw(st.sampled_from(["binary", "mixed:4"]))
    tree = random_tree(draw(st.integers(0, 10**6)), draw(st.integers(1, 10)), arity)
    ids = st.sampled_from([n.id for n in tree.nodes])
    unary = draw(st.dictionaries(ids, st.integers(1, 3), max_size=4))
    return PhraseTree.from_nested(as_nested(tree.root, unary))


RANDOM_TREES = random_trees()

# Leaves of the small shapes are labeled W and internal nodes X, so this
# lets leaves govern and keeps internal nodes from it.
POLICY = GovernorPolicy(frozenset({"W", "V", "P"}))


def brute_chains(tree):
    """Each node's ancestor chain from brute_ancestors, and brute_heights,
    found once per tree: brute_lca and brute_leaf_distance find them again
    for every pair."""
    return {n.id: brute_ancestors(tree, n.id) for n in tree.nodes}, brute_heights(tree)


def chain_lca(chains, a, b):
    """brute_lca from the chains: the first of a's ancestors, bottom up, on b's chain."""
    above_b = set(chains[b])
    return next(x for x in chains[a] if x in above_b)


def check_dominance(tree):
    ids = [n.id for n in tree.nodes]
    chains = {b: set(chain) for b, chain in brute_chains(tree)[0].items()}
    expected = [[a in chains[b] for b in ids] for a in ids]
    assert [[dominates(tree, a, b) for b in ids] for a in ids] == expected
    assert [list(row) for row in dominance_matrix(tree).entries] == expected


def check_ancestors(tree):
    chains = brute_chains(tree)[0]
    for n in tree.nodes:
        assert list(tree.ancestor_ids(n.id)) == chains[n.id][1:]
        assert list(tree.ancestor_ids(n.id, include_self=True)) == chains[n.id]


def check_leaf_matrix(tree):
    ids = [n.id for n in tree.leaves]
    chains, heights = brute_chains(tree)
    expected = [[heights[chain_lca(chains, a, b)] for b in ids] for a in ids]
    assert [list(row) for row in leaf_matrix(tree).entries] == expected


def check_category_minima(tree):
    leaves = tree.leaves
    chains, heights = brute_chains(tree)
    expected = {}
    for i, x in enumerate(leaves):
        for y in leaves[i + 1 :]:
            pair = tuple(sorted((x.label, y.label)))
            d = heights[chain_lca(chains, x.id, y.id)]
            expected[pair] = min(d, expected.get(pair, d))
    assert tree_category_minima(tree) == expected


def check_leaf_blocks(tree):
    """Each pair of distinct leaves, numbered left to right, lies in exactly
    one block, at the height of the pair's lowest common ancestor."""
    leaves = [n.id for n in tree.leaves]
    chains, heights = brute_chains(tree)
    blocks = [(i, j, h) for h, lo, mid, hi in tree.leaf_blocks() for i in range(lo, mid) for j in range(mid, hi)]
    expected = [
        (i, j, heights[chain_lca(chains, a, b)]) for i, a in enumerate(leaves) for j, b in enumerate(leaves) if i < j
    ]
    assert sorted(blocks) == expected


def check_command_relations(tree):
    chains, heights = brute_chains(tree)
    ids = [n.id for n in tree.nodes]
    peers = {a: [b for b in ids if heights[b] == heights[a]] for a in ids}
    children = {n.id: len(n.children) for n in tree.nodes}
    # Each node's branching ancestors and peer distances, from its chain.
    branching = {a: [x for x in chains[a][1:] if children[x] >= 2] for a in ids}
    distances = {a: {b: heights[chain_lca(chains, a, b)] - heights[a] for b in peers[a]} for a in ids}

    def c_commands(a, b):
        # The first branching ancestor of a dominates b.
        return heights[a] == heights[b] and (a == b or branching[a][0] in chains[b])

    def cu_members(a):
        distance = distances[a]
        positive = [d for d in distance.values() if d > 0]
        return {a} | {b for b, d in distance.items() if positive and d == min(positive)}

    members = {a: cu_members(a) for a in ids}
    labels = {n.id: n.label for n in tree.nodes}

    def governs_ref(a, b):
        return (
            a != b
            and labels[a] in POLICY.governor_categories
            and heights[a] == heights[b]
            and b in members[a]
            and a in members[b]
        )

    def rows(matrix):
        return [list(row) for row in matrix.entries]

    c_expected = [[c_commands(a, b) for b in ids] for a in ids]
    cu_expected = [[b in members[a] for b in ids] for a in ids]
    governs_expected = [[governs_ref(a, b) for b in ids] for a in ids]
    assert rows(c_command_matrix(tree, nodes="all")) == c_expected
    assert rows(cu_command_matrix(tree, nodes="all")) == cu_expected
    assert rows(government_matrix(tree, POLICY, nodes="all")) == governs_expected

    leaves = [n.id for n in tree.leaves]
    for nodes, chosen in (("all", ids), ("leaves", leaves)):
        expected = [
            Disagreement(a, b, "c_command" if c_commands(a, b) else "cu_command")
            for a in chosen
            for b in chosen
            if heights[a] == heights[b] and c_commands(a, b) != (b in members[a])
        ]
        assert theorem_check(tree, nodes=nodes) == expected

    for a in ids:
        domain = cu_domain(tree, a)
        assert domain.owner == a and domain.members == members[a]
        assert list(domain.distance_set.items()) == list(distances[a].items())

    assert [[c_command(tree, a, b) for b in ids] for a in ids] == c_expected
    assert [[cu_command(tree, a, b) for b in ids] for a in ids] == cu_expected
    assert [[governs(tree, a, b, POLICY) for b in ids] for a in ids] == governs_expected
    for a in ids:
        if branching[a]:
            assert first_branching_ancestor(tree, a) == branching[a][0]
        else:
            with pytest.raises(NoBranchingAncestor):
                first_branching_ancestor(tree, a)


def check_built_matrices(tree):
    """The builders make their matrices without the public constructors'
    copies and checks: each must equal the matrix those would make, with
    exact entries of its kind, and look its labels up."""
    built = [leaf_matrix(tree), dominance_matrix(tree), min_distance_matrix([tree])]
    for nodes in ("leaves", "all"):
        built += [
            c_command_matrix(tree, nodes),
            cu_command_matrix(tree, nodes),
            government_matrix(tree, POLICY, nodes),
        ]
    for matrix in built:
        kind = type(matrix)
        assert kind(matrix.labels, matrix.entries) == matrix
        assert type(matrix.labels) is tuple and all(type(row) is tuple for row in matrix.entries)
        exact = {DistanceMatrix: {int}, RelationMatrix: {bool}, CategoryDistanceMatrix: {int, type(None)}}[kind]
        assert {type(value) for row in matrix.entries for value in row} <= exact
        assert [matrix.index(label) for label in matrix.labels] == list(range(matrix.size))
        entries = [[matrix.entry(x, y) for y in matrix.labels] for x in matrix.labels]
        assert entries == [list(row) for row in matrix.entries]
        with pytest.raises(UnknownLabel):
            matrix.index("not a label")


CHECKS = [
    check_dominance,
    check_ancestors,
    check_leaf_matrix,
    check_category_minima,
    check_leaf_blocks,
    check_command_relations,
    check_built_matrices,
]


@pytest.mark.parametrize("check", CHECKS)
def test_every_small_shape(check):
    for tree in SMALL_SHAPES:
        check(tree)


@pytest.mark.parametrize("check", CHECKS)
@given(tree=RANDOM_TREES)
@settings(max_examples=40, deadline=None)
def test_random_trees(check, tree):
    check(tree)


def test_command_relations_pair_by_pair_on_a_large_tree():
    """A seeded 70-leaf tree with unary nodes inserted under every fifth
    node, the root included, checked pair by pair like the small ones."""
    tree = random_tree(27, 70, "mixed:4")
    tree = PhraseTree.from_nested(as_nested(tree.root, {n.id: 1 + n.id % 3 for n in tree.nodes if n.id % 5 == 0}))
    assert len(tree) >= 100
    check_command_relations(tree)


@st.composite
def deep_trees_and_owners(draw):
    """A random tree of up to 40 leaves with up to eight nodes under 1-4
    inserted unary nodes, and a few of its node ids."""
    tree = random_tree(draw(st.integers(0, 10**6)), draw(st.integers(1, 40)), "mixed:4")
    unary = draw(st.dictionaries(st.sampled_from([n.id for n in tree.nodes]), st.integers(1, 4), max_size=8))
    tree = PhraseTree.from_nested(as_nested(tree.root, unary))
    return tree, draw(st.lists(st.sampled_from([n.id for n in tree.nodes]), min_size=1, max_size=6))


@given(deep_trees_and_owners())
@settings(max_examples=60, deadline=None)
def test_cu_domain_distances_match_brute_lca(case):
    """Each peer's distance is the height of its lowest common ancestor with
    the owner, above the owner; brute_lca finds it from the ancestor chains."""
    tree, owners = case
    heights = brute_heights(tree)
    for a in owners:
        peers = [n.id for n in tree.nodes if heights[n.id] == heights[a]]
        assert list(cu_domain(tree, a).distance_set.items()) == [
            (b, heights[brute_lca(tree, a, b)] - heights[a]) for b in peers
        ]


@given(deep_trees_and_owners())
@settings(max_examples=60, deadline=None)
def test_leaf_matrix_on_deep_trees(case):
    """Up to 40 leaves, with unary chains: the top-down rows against the brute chains."""
    tree, _ = case
    check_leaf_matrix(tree)


def check_c_command_within_cu_command(tree):
    """C-command is contained in cu-command, so a disagreement is always a
    pair that only cu-command relates; the command pass relies on this."""
    c_rows = c_command_matrix(tree, nodes="all").entries
    cu_rows = cu_command_matrix(tree, nodes="all").entries
    assert all(c <= cu for c_row, cu_row in zip(c_rows, cu_rows) for c, cu in zip(c_row, cu_row))
    for nodes in ("all", "leaves"):
        assert all(d.holds == "cu_command" for d in theorem_check(tree, nodes=nodes))


def test_c_command_within_cu_command_on_every_small_shape():
    for count in range(1, 10):
        for nested in all_tree_shapes(count):
            check_c_command_within_cu_command(PhraseTree.from_nested(nested))


@given(tree=RANDOM_TREES)
@settings(max_examples=200, deadline=None)
def test_c_command_within_cu_command_on_random_trees(tree):
    check_c_command_within_cu_command(tree)


# Each shape family at two sizes: chains of unary nodes, many peers above
# height 0 under distinct roots, one node with many children, and combs.
FAMILY_TREES = {
    f"{name}-{n}": parse_tree(family(n)) for name, family in SHAPE_FAMILIES.items() for n in (5, 12)
}


@pytest.mark.parametrize("check", CHECKS)
def test_every_check_on_shape_families(check):
    for tree in FAMILY_TREES.values():
        check(tree)


@pytest.mark.parametrize("name", FAMILY_TREES)
def test_relation_matrices_match_pair_predicates_on_shape_families(name):
    """Each matrix row is built from slices of byte masks; each predicate
    asks the kept command pass about one pair."""
    tree = FAMILY_TREES[name]
    ids = [n.id for n in tree.nodes]
    leaves = [n.id for n in tree.leaves]

    def rows(matrix):
        return [list(row) for row in matrix.entries]

    assert rows(dominance_matrix(tree)) == [[dominates(tree, a, b) for b in ids] for a in ids]
    builders = [
        (c_command_matrix, c_command),
        (cu_command_matrix, cu_command),
        (lambda t, nodes: government_matrix(t, POLICY, nodes), lambda t, a, b: governs(t, a, b, POLICY)),
    ]
    for nodes, chosen in (("all", ids), ("leaves", leaves)):
        for build, holds in builders:
            assert rows(build(tree, nodes)) == [[holds(tree, a, b) for b in chosen] for a in chosen]


@pytest.mark.parametrize("name", ["right_comb", "left_comb"])
@pytest.mark.parametrize("n", [500, 2000])
def test_category_minima_match_the_leaf_blocks_on_combs(name, n):
    tree = parse_tree(SHAPE_FAMILIES[name](n))
    assert tree_category_minima(tree) == block_category_minima(tree)


def test_category_minima_match_the_leaf_blocks_on_a_large_random_tree():
    tree = random_tree(1, 400, "mixed:4")
    assert tree_category_minima(tree) == block_category_minima(tree)


def check_same_height_distance(tree, heights):
    """Every same-height pair, internal nodes included, against the height
    of its brute lowest common ancestor above the pair."""
    ids = [n.id for n in tree.nodes]
    for a in ids:
        for b in ids:
            if heights[a] == heights[b]:
                assert same_height_distance(tree, a, b) == heights[brute_lca(tree, a, b)] - heights[a]


@pytest.mark.parametrize("n", [5, 12])
def test_same_height_distance_on_internal_peers(n):
    # The unary nodes of a padded comb are peers at height 1, so a distance
    # that added the pair's height instead of subtracting it would differ.
    tree = parse_tree(padded_comb(n))
    heights = brute_heights(tree)
    assert sum(heights[x.id] == 1 for x in tree.nodes) == n - 1
    check_same_height_distance(tree, heights)


@given(deep_trees_and_owners())
@settings(max_examples=40, deadline=None)
def test_same_height_distance_on_deep_trees(case):
    tree, _ = case
    check_same_height_distance(tree, brute_heights(tree))
