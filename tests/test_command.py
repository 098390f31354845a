"""C-command, cu-command, theorem comparison, and government."""

import copy
import pickle
import random
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ultratree.command
from ultratree import (
    CuDomain,
    EmptyPolicy,
    GovernorPolicy,
    HeightMismatch,
    NoBranchingAncestor,
    PhraseTree,
    UltratreeError,
    UnknownNode,
    assign_heights,
    c_command,
    c_command_matrix,
    cu_command,
    cu_command_matrix,
    cu_domain,
    first_branching_ancestor,
    governs,
    government_matrix,
    parse_tree,
    random_theorem_suite,
    random_tree,
    same_height_distance,
    theorem_check,
    theorem_report,
)

from . import helpers as fx
from .mutants import EQUIVALENT


@pytest.fixture()
def f13():
    return parse_tree(fx.TREE_CCOMMAND)


def leaf_ids(tree):
    return {n.word: n.id for n in tree.leaves}


class TestSameHeightDistance:
    def test_adjacent_pair(self, f13):
        ids = leaf_ids(f13)
        assert same_height_distance(f13, ids["B"], ids["C"]) == 1

    def test_far_pair(self, f13):
        ids = leaf_ids(f13)
        assert same_height_distance(f13, ids["A"], ids["D"]) == 3

    def test_identity_zero(self, f13):
        for leaf in f13.leaves:
            assert same_height_distance(f13, leaf.id, leaf.id) == 0

    def test_height_mismatch(self, f13):
        internal = next(n for n in f13.nodes if not n.is_leaf)
        leaf = f13.leaves[0]
        with pytest.raises(HeightMismatch):
            same_height_distance(f13, leaf.id, internal.id)

    def test_unknown_node(self, f13):
        with pytest.raises(UnknownNode):
            same_height_distance(f13, 0, 42)


class TestCCommand:
    def test_matrix_matches_expected(self, f13):
        matrix = c_command_matrix(f13)
        assert matrix.labels == ("A", "B", "C", "D")
        got = tuple(tuple(int(v) for v in row) for row in matrix.entries)
        assert got == fx.CCOMMAND_EXPECTED

    def test_far_leaf_not_commanded(self, f13):
        ids = leaf_ids(f13)
        assert not c_command(f13, ids["A"], ids["D"])
        assert c_command(f13, ids["D"], ids["A"])

    def test_reflexive(self, f13):
        for node in f13.nodes:
            assert c_command(f13, node.id, node.id)

    def test_cross_height_false(self, f13):
        heights = assign_heights(f13)
        ids = [n.id for n in f13.nodes]
        for a in ids:
            for b in ids:
                if heights[a] != heights[b]:
                    assert not c_command(f13, a, b)

    def test_first_branching_ancestor_skips_unary(self):
        tree = parse_tree("(R (U (X (A a) (B b))) (C c))")
        a = tree.leaves[0].id
        # above A: X branches; above X: U is unary, R branches
        x = next(n.id for n in tree.nodes if n.label == "X")
        u = next(n.id for n in tree.nodes if n.label == "U")
        assert first_branching_ancestor(tree, a) == x
        assert first_branching_ancestor(tree, x) == tree.root.id
        assert first_branching_ancestor(tree, u) == tree.root.id

    def test_no_branching_ancestor(self):
        tree = parse_tree("(N dog)")
        with pytest.raises(NoBranchingAncestor):
            first_branching_ancestor(tree, tree.root.id)

    def test_no_branching_ancestor_anywhere_on_a_unary_chain(self):
        tree = parse_tree("(R (U (A a)))")
        for node in tree.nodes:
            with pytest.raises(NoBranchingAncestor, match=f"above node {node.id}$"):
                first_branching_ancestor(tree, node.id)


class TestCuDomain:
    def test_distance_set_and_members(self, f13):
        ids = leaf_ids(f13)
        domain = cu_domain(f13, ids["A"])
        by_word = {
            next(n.word for n in f13.leaves if n.id == node_id): d
            for node_id, d in domain.distance_set.items()
        }
        assert by_word == {"A": 0, "B": 2, "C": 2, "D": 3}
        assert domain.members == {ids["A"], ids["B"], ids["C"]}

    def test_closest_beats_farther(self, f13):
        ids = leaf_ids(f13)
        assert cu_domain(f13, ids["B"]).members == {ids["B"], ids["C"]}

    def test_keeps_its_own_distance_set(self):
        distances = {1: 0, 2: 1}
        domain = CuDomain(1, distances, frozenset({1, 2}))
        distances[9] = 9
        assert domain.distance_set == {1: 0, 2: 1}

    def test_sole_node_at_height(self, f13):
        root = f13.root.id
        assert cu_domain(f13, root).members == {root}

    def test_matrix_leaves_equal_c_command(self, f13):
        assert cu_command_matrix(f13).entries == c_command_matrix(f13).entries

    def test_flat_tree_everyone_commands_everyone(self):
        tree = parse_tree(fx.TREE_EIGHTH)
        matrix = cu_command_matrix(tree)
        assert all(all(row) for row in matrix.entries)

    def test_single_leaf(self):
        matrix = cu_command_matrix(parse_tree("(N dog)"))
        assert matrix.entries == ((True,),)


class TestTheorem:
    def test_worked_example_clean(self, f13):
        assert theorem_check(f13) == []
        assert theorem_check(f13, nodes="all") == []

    def test_balanced_tree_clean_all_nodes(self):
        tree = parse_tree(fx.TREE_FIRST)
        assert theorem_check(tree, nodes="all") == []

    def test_internal_nodes_can_disagree(self):
        # X is alone at height 1 inside F's subtree, but G sits at height 1
        # elsewhere: G lands in X's cu-domain while F never dominates G, so
        # the two relations separate on internal nodes.  Leaves still agree.
        tree = parse_tree("(R (F (X (A a) (B b)) (C c)) (G (D d) (E e)))")
        assert theorem_check(tree) == []
        found = theorem_check(tree, nodes="all")
        x = next(n.id for n in tree.nodes if n.label == "X")
        g = next(n.id for n in tree.nodes if n.label == "G")
        assert [(d.a, d.b, d.holds) for d in found] == [(x, g, "cu_command")]

    def test_report_names_leaves_by_word_and_the_rest_by_label(self):
        # The leaf word X counts among the X labels, so the unary X above w3 is the fifth X.
        tree = parse_tree("(X (X (W X)) (X (W w2) (X (W w3))))")
        disagreement = {"tree": tree.to_bracketed(), "a": "X#5", "b": "X#2", "relation": "cu_command"}
        assert theorem_report([tree], nodes="all") == {"trees_tested": 1, "disagreements": [disagreement]}

    def test_suite_deterministic(self):
        first = random_theorem_suite(seed=3, trees=40, max_leaves=8)
        second = random_theorem_suite(seed=3, trees=40, max_leaves=8)
        assert first == second
        assert first["trees_tested"] == 40
        assert first["disagreements"] == []

    @given(
        seed=st.integers(0, 2**64),
        trees=st.integers(0, 12),
        max_leaves=st.sampled_from([1, 10, 60]),
        arity=st.sampled_from(["binary", "mixed:4", "mixed:9"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_suite_keeps_the_reference_stream(self, seed, trees, max_leaves, arity):
        # Each tree's leaf count and then its seed come from one generator
        # seeded once, as randint and randrange drew them, and the tree is
        # the reference stream's for that seed.  The report names only trees
        # with disagreements, so the trees drawn are compared as well: with
        # one leaf, a tree's category shows whether its leaf count was drawn.
        outer, expected = random.Random(seed), []
        for _ in range(trees):
            leaf_count = outer.randint(1, max_leaves)
            records = fx.reference_random_records(outer.randrange(2**32), leaf_count, arity)
            expected.append(PhraseTree(records))
        report = random_theorem_suite(seed, trees, max_leaves, arity, nodes="all")
        assert report == theorem_report(expected, nodes="all")
        drawn = []
        with mock.patch.object(ultratree.command, "theorem_report", lambda trees, nodes: drawn.extend(trees)):
            random_theorem_suite(seed, trees, max_leaves, arity, nodes="all")
        assert drawn == expected

    def test_symmetric_membership_under_shared_branching_ancestor(self):
        for seed in range(60):
            tree = random_tree(seed, 2 + seed % 9, "mixed:4")
            heights = assign_heights(tree)
            ids = [n.id for n in tree.nodes]
            for a in ids:
                for b in ids:
                    if a == b or heights[a] != heights[b]:
                        continue
                    if heights[a] == heights[tree.root.id]:
                        continue
                    if first_branching_ancestor(tree, a) == first_branching_ancestor(
                        tree, b
                    ):
                        assert b in cu_domain(tree, a).members
                        assert a in cu_domain(tree, b).members


class TestGovernment:
    def test_verb_governs_sister(self):
        tree = parse_tree("(VP (V ate) (N dogs))")
        v, n = (leaf.id for leaf in tree.leaves)
        assert governs(tree, v, n, GovernorPolicy(frozenset({"V"})))

    def test_noun_governor_policy(self):
        tree = parse_tree("(VP (V ate) (N dogs))")
        v, n = (leaf.id for leaf in tree.leaves)
        policy = GovernorPolicy(frozenset({"N"}))
        assert governs(tree, n, v, policy)
        assert not governs(tree, v, n, policy)

    def test_non_governor_is_false(self):
        tree = parse_tree("(VP (V ate) (N dogs))")
        v, n = (leaf.id for leaf in tree.leaves)
        assert not governs(tree, n, v, GovernorPolicy(frozenset({"V"})))

    def test_self_government_excluded(self):
        tree = parse_tree("(VP (V ate) (N dogs))")
        v = tree.leaves[0].id
        assert not governs(tree, v, v, GovernorPolicy(frozenset({"V"})))

    def test_empty_policy(self):
        tree = parse_tree("(VP (V ate) (N dogs))")
        v, n = (leaf.id for leaf in tree.leaves)
        with pytest.raises(EmptyPolicy):
            governs(tree, v, n, GovernorPolicy(frozenset()))

    def test_default_policy_verbs_and_prepositions(self):
        tree = parse_tree("(PP (P in) (N paris))")
        p, n = (leaf.id for leaf in tree.leaves)
        assert governs(tree, p, n)
        assert not governs(tree, n, p)

    def test_government_implies_mutual_membership(self):
        policy = GovernorPolicy(frozenset({"V", "P", "N"}))
        for seed in range(40):
            tree = random_tree(seed, 2 + seed % 7, "mixed:3")
            ids = [n.id for n in tree.nodes]
            for a in ids:
                for b in ids:
                    if governs(tree, a, b, policy):
                        assert b in cu_domain(tree, a).members
                        assert a in cu_domain(tree, b).members

    def test_matrix_diagonal_false(self):
        tree = parse_tree("(VP (V ate) (N dogs))")
        matrix = government_matrix(tree, GovernorPolicy(frozenset({"V", "N"})))
        assert all(not matrix.entries[i][i] for i in range(matrix.size))

    def test_unary_peers_govern_without_mutual_c_command(self):
        # The unary X above w1 and the one above w3 are the only nodes at
        # height 1: each cu-commands the other, but only the first c-commands.
        tree = parse_tree("(X (X (W w1)) (X (W w2) (X (W w3))))")
        every = GovernorPolicy({"X", "W"})
        assert [n.id for n in tree.nodes if tree.height(n.id) == 1] == [1, 5]
        assert governs(tree, 1, 5, every) and governs(tree, 5, 1, every)
        assert cu_command(tree, 1, 5) and cu_command(tree, 5, 1)
        assert c_command(tree, 1, 5) and not c_command(tree, 5, 1)
        assert first_branching_ancestor(tree, 1) != first_branching_ancestor(tree, 5)

    def test_a_class_holds_one_height(self):
        # Leaf a and both height-1 nodes share the root as cu-command root,
        # but a is no peer of theirs: it governs neither, and they govern each other.
        tree = parse_tree("(X (W a) (X (W b) (W c)) (X (W d) (W e)))")
        every = GovernorPolicy({"X", "W"})
        a, x1, x2 = 1, 2, 5
        assert tree.height(x1) == tree.height(x2) == 1
        assert not governs(tree, a, x1, every) and not governs(tree, a, x2, every)
        assert governs(tree, x1, x2, every) and governs(tree, x2, x1, every)
        matrix = government_matrix(tree, every)
        assert not any(matrix.entries[a]) and not any(row[a] for row in matrix.entries)
        assert [x for x, held in enumerate(matrix.entries[x1]) if held] == [x2]


class TestPairQueries:
    @pytest.mark.parametrize("bad", [-1, 99, "a"])
    def test_pair_queries_reject_unknown_ids(self, f13, bad):
        for query in (c_command, cu_command, governs):
            with pytest.raises(UnknownNode, match=f"no node with id {bad}"):
                query(f13, 0, bad)
            with pytest.raises(UnknownNode, match=f"no node with id {bad}"):
                query(f13, bad, 0)


    @pytest.mark.parametrize("query", [c_command_matrix, cu_command_matrix, theorem_check])
    def test_node_sets_other_than_leaves_and_all_refused(self, f13, query):
        with pytest.raises(UltratreeError, match="^nodes must be 'leaves' or 'all', got 'some'$"):
            query(f13, nodes="some")


def every_answer(tree):
    """Every command query's answer on every node and pair of ``tree``."""
    ids = [n.id for n in tree.nodes]
    policy = GovernorPolicy(frozenset({"V", "P", "N"}))
    answers = [
        [c_command(tree, a, b), cu_command(tree, a, b), governs(tree, a, b, policy)] for a in ids for b in ids
    ]
    for a in ids:
        try:
            answers.append(first_branching_ancestor(tree, a))
        except NoBranchingAncestor:
            answers.append(None)
        answers.append(cu_domain(tree, a))
    for nodes in ("leaves", "all"):
        answers += [c_command_matrix(tree, nodes), cu_command_matrix(tree, nodes), theorem_check(tree, nodes)]
        answers.append(government_matrix(tree, policy, nodes))
    return answers


def unary_rooted(seed):
    """A random 14-leaf tree under a unary root, so that two nodes have no
    branching ancestor."""
    return parse_tree(f"(U {random_tree(seed, 14, 'mixed:4').to_bracketed()})")


class TestKeptPass:
    """Each tree runs the command pass once, on its first query, and keeps it."""

    @pytest.fixture()
    def built(self, monkeypatch):
        """The trees the command pass is run on, one entry per run."""
        built = []

        class Counted(ultratree.command._Facts):
            def __init__(self, tree):
                built.append(tree)
                super().__init__(tree)

        monkeypatch.setattr(ultratree.command, "_Facts", Counted)
        return built

    def test_built_once_per_tree(self, built):
        tree = unary_rooted(5)
        every_answer(tree)
        assert built == [tree]
        every_answer(random_tree(6, 3, "binary"))
        assert len(built) == 2

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_carry_the_pass(self, monkeypatch, round_trip):
        expected = every_answer(unary_rooted(5))
        tree = unary_rooted(5)
        assert every_answer(tree) == expected
        again = round_trip(tree)
        monkeypatch.setattr(ultratree.command, "_Facts", None)  # a pass run on the copy would fail
        assert again == tree and hash(again) == hash(tree)
        assert every_answer(again) == expected

    def test_threads_share_a_fresh_tree(self):
        expected, tree, results = every_answer(unary_rooted(5)), unary_rooted(5), []
        threads = [threading.Thread(target=lambda: results.append(every_answer(tree))) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4


def test_listed_equivalent_mutants_still_occur():
    """Each mutant that tests/mutants.py lists as equivalent names a line its
    module still holds, with the operator it swaps, so the list cannot go stale."""
    for module, line, swap, _ in EQUIVALENT:
        source = Path(ultratree.command.__file__).with_name(f"{module}.py").read_text()
        assert line in [text.strip() for text in source.splitlines()]
        assert f" {swap.split(' as ')[0]} " in f" {line} "
