"""Parsing, heights, ancestry, and tree generation."""

import itertools
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    BadAritySpec,
    EmptyNode,
    MixedNode,
    ParseError,
    PhraseTree,
    RelationMatrix,
    UltratreeError,
    UnbalancedBrackets,
    UnknownNode,
    assign_heights,
    disambiguate,
    dominance_matrix,
    dominates,
    enumerate_binary_trees,
    is_switched,
    lca,
    parse_tree,
    parse_tree_file,
    random_tree,
    serialize_tree,
)

import ultratree.trees
from ultratree.trees import _filled, _tokenize

from .helpers import (
    all_tree_shapes,
    binary_shape_records,
    brute_heights,
    brute_lca,
    reference_parse_records,
    reference_parse_tree,
    reference_random_records,
    reference_tokenize,
    reference_word_fault,
)

FIGURE4 = "(S (C (A Alf) (M must)) (D (J jump) (H high)))"

# Every shape with 1-7 nodes, unary nodes included.
SMALL_SHAPES = [
    PhraseTree.from_nested(nested) for count in range(1, 8) for nested in all_tree_shapes(count)
]


def records_of(tree):
    return [
        (n.label, n.word, -1 if p == 0 else tree.parent_id(p)) for p, n in enumerate(tree.nodes)
    ]


def one_token(value):
    """Whether ``value`` prints back as one token, checked by characters."""
    return isinstance(value, str) and value != "" and not any(c.isspace() or c in "()" for c in value)


def reference_records_ok(records):
    """Whether the records are a tree in preorder, checked front to back:
    each parent is still open, words sit exactly on childless nodes, and
    every label and word is one token."""
    has_children = {parent for _, _, parent in records}
    open_nodes: list[int] = []
    for p, (label, word, parent) in enumerate(records):
        while open_nodes and open_nodes[-1] != parent:
            open_nodes.pop()
        if (word is None) != (p in has_children) or (parent != -1 if p == 0 else not open_nodes):
            return False
        if not one_token(label) or (word is not None and not one_token(word)):
            return False
        open_nodes.append(p)
    return bool(records)


RECORD = st.tuples(st.sampled_from("XYW"), st.none() | st.sampled_from("ab"), st.integers(-2, 7))
# Labels and words that could not print back as one token.
BAD_TOKENS = st.sampled_from(["", "A B", "a)", "(", "a\u3000", "\tb", 5, None])


@st.composite
def _mutated_shapes(draw):
    """A small tree's records with up to two parents, words or labels redrawn."""
    records = records_of(draw(st.sampled_from(SMALL_SHAPES)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(records) - 1))
        label, word, parent = records[k]
        field = draw(st.sampled_from(["parent", "word", "label"]))
        if field == "parent":
            parent = draw(st.integers(-1, k))
        elif field == "word":
            word = draw(st.none() | st.sampled_from("ab") | BAD_TOKENS)
        else:
            label = draw(st.sampled_from("XYW") | BAD_TOKENS)
        records[k] = (label, word, parent)
    return records


RECORD_SEQUENCES = st.lists(RECORD, max_size=7) | _mutated_shapes()


class TestParse:
    def test_minimal_two_leaf(self):
        tree = parse_tree("(X (A a) (B b))")
        assert tree.root.label == "X"
        assert [(n.label, n.word) for n in tree.leaves] == [("A", "a"), ("B", "b")]

    def test_four_leaf_balanced(self):
        tree = parse_tree(FIGURE4)
        assert [n.word for n in tree.leaves] == ["Alf", "must", "jump", "high"]
        assert [len(n.children) for n in tree.nodes if not n.is_leaf] == [2, 2, 2]

    def test_preorder_ids(self):
        tree = parse_tree("(S (NP (D the) (N man)) (VP (V slept)))")
        assert [n.id for n in tree.nodes] == list(range(6))
        assert [n.label for n in tree.nodes] == ["S", "NP", "D", "N", "VP", "V"]

    def test_unbalanced(self):
        with pytest.raises(UnbalancedBrackets):
            parse_tree("(X (A a")

    def test_extra_close(self):
        with pytest.raises(UnbalancedBrackets):
            parse_tree("(X (A a)))")

    def test_two_roots(self):
        with pytest.raises(UnbalancedBrackets):
            parse_tree("(A a) (B b)")

    def test_empty_node(self):
        with pytest.raises(EmptyNode):
            parse_tree("()")

    def test_label_without_content(self):
        with pytest.raises(EmptyNode):
            parse_tree("(X (A a) (B))")

    def test_mixed_node(self):
        with pytest.raises(MixedNode):
            parse_tree("(X word (B b))")

    def test_word_after_children(self):
        with pytest.raises(MixedNode):
            parse_tree("(X (B b) word)")

    def test_two_words(self):
        with pytest.raises(MixedNode):
            parse_tree("(A the man)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_tree("   ")

    def test_round_trip_fixed(self):
        text = "(S (NP (D the) (N man)) (VP (V ate) (NP (D a) (N dog))))"
        assert serialize_tree(parse_tree(text)) == text

    @given(seed=st.integers(0, 10**6), leaf_count=st.integers(1, 10), mixed=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random(self, seed, leaf_count, mixed):
        tree = random_tree(seed, leaf_count, "mixed:4" if mixed else "binary")
        assert parse_tree(serialize_tree(tree)) == tree

    # Parentheses, letters, and characters on both sides of str.isspace:
    # ASCII and Unicode whitespace, and the zero-width space, which is not.
    TOKEN_CHARS = "()ab \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2028\u3000\u200b"

    @given(text=st.text(st.sampled_from(TOKEN_CHARS) | st.characters()))
    @settings(max_examples=300, deadline=None)
    def test_tokens_match_character_loop(self, text):
        assert _tokenize(text) == list(reference_tokenize(text))

    def test_split_whitespace_is_isspace(self):
        # _tokenize splits with str.split(), so it splits where isspace holds.
        wrong = [
            c
            for c in map(chr, range(sys.maxunicode + 1))
            if ("a" + c + "b").split() != (["a", "b"] if c.isspace() else ["a" + c + "b"])
        ]
        assert wrong == []


class TestTreeFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_text("# header\n\n(X (A a) (B b))\n  \n(Y (C c) (D d))\n")
        trees = parse_tree_file(path)
        assert len(trees) == 2
        assert trees[1].root.label == "Y"

    def test_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"(X (A a) (B b))\r\n(X (A caf\xe9) (B b))\n")
        with pytest.raises(UltratreeError, match=f"^{re.escape(str(path))}:2: not UTF-8: "):
            parse_tree_file(path)

    def test_lines_split_as_in_text_mode(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_bytes(b"(X (A a) (B b))\r(Y (C c\x0c) (D d\xc2\x85))\r\n(Z (E e) (F f))")
        assert [t.root.label for t in parse_tree_file(path)] == ["X", "Y", "Z"]

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("(X (A a) (B b))\n(X (A a\n")
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        assert err.value.line == 2
        assert ":2:" in str(err.value)


class TestHeights:
    def test_balanced(self):
        tree = parse_tree(FIGURE4)
        heights = assign_heights(tree)
        assert heights[tree.root.id] == 2
        internal = [heights[n.id] for n in tree.nodes if not n.is_leaf]
        assert internal == [2, 1, 1]
        assert all(heights[n.id] == 0 for n in tree.leaves)

    def test_left_chain(self):
        tree = parse_tree("(S (W A) (X (W M) (Y (W J) (W H))))")
        heights = assign_heights(tree)
        assert sorted(heights[n.id] for n in tree.nodes if not n.is_leaf) == [1, 2, 3]
        assert heights[tree.root.id] == 3

    def test_single_leaf(self):
        tree = parse_tree("(N dog)")
        assert assign_heights(tree) == {0: 0}

    def test_unary_chain(self):
        tree = parse_tree("(A (B (C c)))")
        heights = assign_heights(tree)
        assert heights == {0: 2, 1: 1, 2: 0}

    def test_matches_brute_force(self):
        for seed in range(60):
            tree = random_tree(seed, 1 + seed % 9, "mixed:3")
            assert assign_heights(tree) == brute_heights(tree)
        for tree in SMALL_SHAPES:
            assert assign_heights(tree) == brute_heights(tree)

    def test_pointwise_minimum_exhaustive(self):
        # Over every tree shape with up to 6 nodes, no valid assignment
        # (leaves 0, parent strictly above each child) beats assign_heights
        # anywhere.
        for node_count in range(1, 7):
            for nested in all_tree_shapes(node_count):
                tree = PhraseTree.from_nested(nested)
                heights = assign_heights(tree)
                ids = [n.id for n in tree.nodes]
                cap = heights[tree.root.id] + 1
                parent = {c.id: n.id for n in tree.nodes for c in n.children}
                leaves = {n.id for n in tree.leaves}
                for values in itertools.product(range(cap + 1), repeat=len(ids)):
                    candidate = dict(zip(ids, values))
                    if any(candidate[i] != 0 for i in leaves):
                        continue
                    if any(
                        candidate[parent[i]] <= candidate[i]
                        for i in ids
                        if i in parent
                    ):
                        continue
                    assert all(heights[i] <= candidate[i] for i in ids)


class TestAncestry:
    def test_lca_siblings(self):
        tree = parse_tree("(NP (D the) (N man))")
        the, man = (n.id for n in tree.leaves)
        assert lca(tree, the, man) == tree.root.id

    def test_lca_identity(self):
        tree = parse_tree(FIGURE4)
        for node in tree.nodes:
            assert lca(tree, node.id, node.id) == node.id

    def test_lca_far_pair_is_root(self):
        tree = parse_tree(FIGURE4)
        alf = tree.leaves[0].id
        high = tree.leaves[3].id
        assert lca(tree, alf, high) == brute_lca(tree, alf, high) == tree.root.id

    def test_lca_unknown_node(self):
        tree = parse_tree("(X (A a) (B b))")
        with pytest.raises(UnknownNode):
            lca(tree, 0, 99)

    @pytest.mark.parametrize("bad", [-1, 3, "a"])
    def test_ids_outside_the_tree(self, bad):
        # Ids index lists, where -1 would quietly read the last node.
        tree = parse_tree("(X (A a) (B b))")
        for query in (
            lambda: tree.height(bad),
            lambda: tree.node(bad),
            lambda: lca(tree, bad, 0),
            lambda: lca(tree, 0, bad),
            lambda: dominates(tree, bad, 0),
            lambda: dominates(tree, 0, bad),
        ):
            with pytest.raises(UnknownNode, match=f"no node with id {bad}"):
                query()

    @given(
        tree=st.one_of(
            st.builds(random_tree, st.integers(0, 10**6), st.integers(1, 12), st.just("mixed:4")),
            st.sampled_from(SMALL_SHAPES),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_lca_matches_brute_force(self, tree):
        ids = [n.id for n in tree.nodes]
        for a in ids:
            for b in ids:
                assert lca(tree, a, b) == brute_lca(tree, a, b)

    def test_dominates_reflexive(self):
        tree = parse_tree(FIGURE4)
        assert all(dominates(tree, n.id, n.id) for n in tree.nodes)

    def test_dominates_antisymmetric(self):
        for seed in range(40):
            tree = random_tree(seed, 1 + seed % 8, "mixed:4")
            for a in tree.nodes:
                for b in tree.nodes:
                    if dominates(tree, a.id, b.id) and dominates(tree, b.id, a.id):
                        assert a.id == b.id

    def test_dominance_matrix_single_leaf(self):
        matrix = dominance_matrix(parse_tree("(N dog)"))
        assert matrix.entries == ((True,),)

    def test_dominance_matrix_two_leaves(self):
        matrix = dominance_matrix(parse_tree("(X (A a) (B b))"))
        assert matrix.labels == ("X", "A", "B")
        assert matrix.entries == (
            (True, True, True),
            (False, True, False),
            (False, False, True),
        )

    def test_dominance_matrix_transitive(self):
        tree = random_tree(5, 9, "mixed:3")
        m = dominance_matrix(tree).entries
        n = len(m)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if m[a][b] and m[b][c]:
                        assert m[a][c]


class TestLabels:
    def test_disambiguate(self):
        assert disambiguate(["the", "man", "ate", "the"]) == (
            "the#1",
            "man",
            "ate",
            "the#2",
        )

    def test_disambiguate_unique_untouched(self):
        assert disambiguate(["a", "b"]) == ("a", "b")

    @staticmethod
    def numbered(labels):
        """Each repeated label suffixed with #k, its k-th occurrence."""
        seen = {}
        out = []
        for label in labels:
            if labels.count(label) == 1:
                out.append(label)
            else:
                seen[label] = seen.get(label, 0) + 1
                out.append(f"{label}#{seen[label]}")
        return tuple(out)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="N#12", max_size=4), max_size=8))
    def test_disambiguate_property(self, labels):
        out = disambiguate(labels)
        assert len(set(out)) == len(out) == len(labels)
        assert all(new.startswith(old) for old, new in zip(labels, out))
        numbered = self.numbered(labels)
        suffixed = {new for old, new in zip(labels, numbered) if new != old}
        if not suffixed & set(labels):  # no label#k is itself an input label
            assert out == numbered

    def test_leaf_labels(self):
        tree = parse_tree("(S (X (D the) (N man)) (Y (D the) (N dog)))")
        assert tree.leaf_labels() == ("the#1", "man", "the#2", "dog")


class TestGeneration:
    def test_random_tree_deterministic(self):
        assert random_tree(1, 4, "binary") == random_tree(1, 4, "binary")

    def test_random_tree_single_leaf(self):
        tree = random_tree(99, 1, "binary")
        assert len(tree.leaves) == 1 and tree.root.is_leaf

    @pytest.mark.parametrize("make", [lambda: random_tree(1, 0), lambda: list(enumerate_binary_trees(0))])
    def test_no_leaves_refused(self, make):
        with pytest.raises(UltratreeError, match="^leaf_count must be at least 1$"):
            make()

    def test_random_tree_bad_arity(self):
        with pytest.raises(BadAritySpec):
            random_tree(1, 4, "ternary")
        with pytest.raises(BadAritySpec):
            random_tree(1, 4, "mixed:1")
        with pytest.raises(BadAritySpec):
            random_tree(1, 4, "mixed:x")

    def test_random_tree_shape_variety(self):
        shapes = {
            serialize_tree(random_tree(seed, 8, "binary")) for seed in range(1000)
        }
        assert len(shapes) >= 2

    def test_random_binary_is_switched(self):
        for seed in range(100):
            assert is_switched(random_tree(seed, 1 + seed % 10, "binary"))

    @pytest.mark.parametrize("arity", ["binary", "mixed:2", "mixed:3", "mixed:4", "mixed:9"])
    def test_random_tree_keeps_the_reference_stream(self, arity):
        # Two-way splits draw one randrange where the reference samples one
        # cut; at 23 and 60 leaves a split can have over 21 cuts to choose
        # from, where sample takes its set branch rather than its pool.
        for leaf_count in (1, 2, 5, 10, 23, 60):
            for seed in range(500):
                tree = random_tree(seed, leaf_count, arity)
                records = list(zip(tree._label, tree._word, tree._up))
                assert records == reference_random_records(seed, leaf_count, arity), (seed, leaf_count)

    @pytest.mark.parametrize("arity, leaf_count, min_k, set_size", [("mixed:9", 120, 6, 85), ("mixed:40", 300, 22, 277)])
    def test_random_tree_keeps_the_reference_stream_past_samples_set_size(self, arity, leaf_count, min_k, set_size):
        # With k > 5 cuts to pick, sample's set size is 21 + 4**ceil(log(3k, 4)):
        # 85 for k = 6-21 and 277 for k = 22-85.  A split over more cuts than
        # that takes its set branch, which some split of these trees reaches.
        cuts, reached = ultratree.trees._cuts, []

        def spy(draw, lo, hi, k):
            reached.append(k >= min_k and hi - lo > set_size)
            return cuts(draw, lo, hi, k)

        with mock.patch.object(ultratree.trees, "_cuts", spy):
            for seed in range(150):
                tree = random_tree(seed, leaf_count, arity)
                records = list(zip(tree._label, tree._word, tree._up))
                assert records == reference_random_records(seed, leaf_count, arity), seed
        assert any(reached)

    def test_suite_reseeds_to_the_streams_of_its_seeds(self):
        # After each reseed the suite's one generator gives Random(s)'s
        # getrandbits stream, whatever it drew for the tree before.
        seeds, below, streams = [0, 1, 2**32 - 1], ultratree.trees._below, []
        fresh = iter(seeds)

        def stream(getrandbits):
            return [getrandbits(k) for k in (1, 5, 32, 33, 64, 200)]

        def seeded(draw, n):  # the tree seeds are drawn below 2**32
            return next(fresh) if n == 2**32 else below(draw, n)

        def drawn(rng, leaf_count, max_arity, categories):
            streams.append(stream(rng.getrandbits))

        with mock.patch.object(ultratree.trees, "_below", seeded), mock.patch.object(ultratree.trees, "_drawn", drawn):
            list(ultratree.trees._suite(5, len(seeds), 10, None))
        assert streams == [stream(random.Random(s).getrandbits) for s in seeds]

    def test_random_tree_refuses_no_categories(self):
        # With nothing to draw from, the leaf draws would never end.
        with pytest.raises(UltratreeError, match="categories must not be empty"):
            random_tree(1, 3, "binary", ())

    @pytest.mark.parametrize("category", ["a b", "(", ")", "", "a\tb", None, 7])
    def test_random_tree_refuses_categories_that_are_not_tokens(self, category):
        # Such a leaf would print as text that parse_tree rejects.
        with pytest.raises(UltratreeError, match=re.escape(f"category {category!r} is not one token")):
            random_tree(1, 3, "binary", ("N", category))

    def test_random_mixed_respects_max_arity(self):
        for seed in range(100):
            tree = random_tree(seed, 10, "mixed:4")
            assert all(len(n.children) in (0, 2, 3, 4) for n in tree.nodes)

    def test_enumerate_binary_counts(self):
        # Catalan numbers: shapes over n ordered leaves.
        expected = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42}
        for leaves, count in expected.items():
            shapes = list(enumerate_binary_trees(leaves))
            assert len(shapes) == count
            assert len({serialize_tree(t) for t in shapes}) == count
            assert all(is_switched(t) for t in shapes)

    @pytest.mark.parametrize("leaves", range(1, 9))
    def test_enumerate_binary_keeps_the_reference_order(self, leaves):
        # The odometer yields the shapes in the nested-loop order of the
        # recursive reference: root cut, then left shape, then right shape.
        shapes = [list(zip(t._label, t._word, t._up)) for t in enumerate_binary_trees(leaves)]
        assert shapes == list(binary_shape_records(0, leaves))

    def test_enumerate_binary_builds_a_deep_first_shape(self):
        # The first shape is the right comb: 2,999 nested right children,
        # past any recursion limit.
        tree = next(enumerate_binary_trees(3000))
        assert len(tree.leaves) == 3000 and tree.height(tree.root.id) == 2999
        assert tree.to_bracketed() == "".join(f"(X (W w{i}) " for i in range(1, 3000)) + "(W w3000)" + ")" * 2999

    def test_is_switched(self):
        assert is_switched(parse_tree(FIGURE4))
        assert not is_switched(parse_tree("(S (W A) (W M) (W J))"))
        assert not is_switched(parse_tree("(A (B (C c)))"))


class TestPhraseTreeValidation:
    def test_relation_matrix_type(self):
        assert isinstance(dominance_matrix(parse_tree("(X (A a) (B b))")), RelationMatrix)

    def test_word_on_internal_rejected(self):
        with pytest.raises(MixedNode, match="node 'X' has both a word and children"):
            PhraseTree([("X", "oops", -1), ("A", "a", 0)])

    @pytest.mark.parametrize("token", ["N'", "w-1", "X#2", "'s", ".", "été"])
    def test_tokens_need_not_be_alphanumeric(self, token):
        # One token is any string free of whitespace and parentheses; the
        # alphanumeric test is only a shortcut.
        tree = PhraseTree([(token, None, -1), ("W", token, 0)])
        assert tree.to_bracketed() == f"({token} (W {token}))" and parse_tree(tree.to_bracketed()) == tree
        assert random_tree(1, 3, "binary", (token,)).leaf_categories() == [token] * 3

    @pytest.mark.parametrize(
        "records, message",
        [
            ([], "at least one record"),
            ([("X", None, 0), ("A", "a", 0)], "record 0: parent 0 is not -1"),
            ([("X", None, -1), ("A", "a", -1)], "record 1: parent -1 is not an earlier record"),
            ([("X", None, -1), ("A", "a", 2), ("B", "b", 0)], "record 1: parent 2 is not an earlier record"),
            ([("X", None, -1), ("A", "a", 0.0)], "record 1: parent 0.0 is not an earlier record"),
            (
                [("X", None, -1), ("Y", None, 0), ("A", "a", 0), ("B", "b", 1)],
                "not a preorder: record 1's descendants",
            ),
            ([("X", None, -1), ("A", None, 0)], "node 'A' has neither a word nor children"),
            # Tokens that would print as something that does not parse back.
            ([("A B", "w", -1)], "record 0: label 'A B' is not a non-empty string"),
            ([("X", None, -1), ("A", "w)", 0)], "record 1: word 'w\\)' is not"),
            ([("X", None, -1), ("", "w", 0)], "record 1: label '' is not"),
            ([("X", None, -1), ("A", "", 0)], "record 1: word '' is not"),
            ([("X", None, -1), ("A", "a\tb", 0)], "record 1: word 'a\\\\tb' is not"),
            ([("X", None, -1), ("A", 5, 0)], "record 1: word 5 is not"),
            ([(None, "w", -1)], "record 0: label None is not"),
        ],
        ids=[
            "empty", "root-parent", "two-roots", "later-parent", "float-parent", "not-preorder",
            "empty-leaf", "spaced-label", "paren-word", "empty-label", "empty-word", "tab-word",
            "int-word", "none-label",
        ],
    )
    def test_bad_records_rejected(self, records, message):
        with pytest.raises(ParseError, match=message):
            PhraseTree(records)

    @pytest.mark.parametrize(
        "records, error, message",
        [
            # Token, parent and preorder faults are read front to back ...
            ([("X", None, -2)], ParseError, "record 0: parent -2 is not -1: the first record is the root"),
            ([("X", None, -1), ("A B", "a", 0), ("C", None, 0)], ParseError, "record 1: label 'A B' is not"),
            ([("X", None, -1), ("A", "a", 5), ("B", None, 0)], ParseError, "record 1: parent 5 is not an earlier"),
            (
                [("X", None, -1), ("Y", None, 0), ("Z", None, 0), ("A", "a", 1)],
                ParseError,
                "not a preorder: record 1's descendants do not directly follow it",
            ),
            (
                [("X", None, -1), ("Y", None, 0), ("Z", "z", 0), ("A", "a", 1), ("B", "", 0)],
                ParseError,
                "not a preorder: record 1's descendants",
            ),
            ([("X", "w", -1), ("A", "a b", 0)], ParseError, "record 1: word 'a b' is not"),
            # ... and only then the last node with both or neither of a word and children.
            ([("X", "x", -1), ("A", None, 0)], EmptyNode, "node 'A' has neither a word nor children"),
            ([("X", None, -1), ("A", None, 0), ("B", "b", 0), ("C", "c", 2)], MixedNode, "node 'B' has both"),
        ],
        ids=[
            "parent-before-empty", "token-before-empty", "parent-before-later-empty",
            "preorder-before-empty", "preorder-before-later-token", "token-before-mixed",
            "last-word-fault-empty", "last-word-fault-mixed",
        ],
    )
    def test_several_faults_in_order(self, records, error, message):
        with pytest.raises(error, match=message) as caught:
            PhraseTree(records)
        assert type(caught.value) is error

    @given(records=RECORD_SEQUENCES)
    @settings(max_examples=300, deadline=None)
    def test_records_build_or_raise(self, records):
        """Every record sequence builds the tree its records describe, or
        raises an UltratreeError exactly when a forward check rejects it."""
        if not reference_records_ok(records):
            with pytest.raises(UltratreeError):
                PhraseTree(records)
            return
        tree = PhraseTree(records)
        assert tree == parse_tree(tree.to_bracketed())
        assert records_of(tree) == records

    def test_node_repr_and_equality(self):
        tree = parse_tree("(X (U (A a)) (B b))")
        assert repr(tree.node(1)) == (
            "Node(id=1, label='U', word=None, children="
            "(Node(id=2, label='A', word='a', children=()),))"
        )
        again = parse_tree("(X (U (A a)) (B b))")
        assert tree.root == again.root and hash(tree.root) == hash(again.root)
        assert tree.root != parse_tree("(X (U (A a)) (B c))").root
        assert tree.node(1) != tree.node(2) and tree.root != "X"
        assert repr(tree) == "PhraseTree('(X (U (A a)) (B b))')"


@st.composite
def preorder_records(draw, max_nodes=30):
    """Valid records of any ordered tree shape with 1 to ``max_nodes`` nodes:
    each record's parent is drawn from the path still open at it."""
    count = draw(st.integers(1, max_nodes))
    records, path = [[draw(st.sampled_from("XYV")), None, -1]], [0]
    for p in range(1, count):
        del path[draw(st.integers(1, len(path))) :]
        records.append([draw(st.sampled_from("XYV")), None, path[-1]])
        path.append(p)
    internal = {parent for _, _, parent in records}
    for p, record in enumerate(records):
        if p not in internal:
            record[1] = draw(st.sampled_from(["a", "b", "c"]))
    return [tuple(record) for record in records]


class TestArrays:
    @given(records=preorder_records())
    @settings(max_examples=200, deadline=None)
    def test_node_views_match_the_records(self, records):
        tree = PhraseTree(records)
        children = {p: [] for p in range(len(records))}
        for p, (_, _, parent) in enumerate(records):
            if parent >= 0:
                children[parent].append(p)
        expected = [
            (p, label, word, tuple(children[p])) for p, (label, word, _) in enumerate(records)
        ]
        nodes = tree.nodes
        assert [(n.id, n.label, n.word, tuple(c.id for c in n.children)) for n in nodes] == expected
        # One set of views, shared by every accessor and by the children tuples.
        assert tree.nodes is nodes and tree.root is nodes[0]
        assert all(tree.node(p) is nodes[p] for p in range(len(nodes)))
        assert all(child is nodes[child.id] for n in nodes for child in n.children)
        assert [n.id for n in tree.leaves] == [p for p, (_, word, _) in enumerate(records) if word]

    @given(records=preorder_records(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_changed_field_breaks_equality(self, records, data):
        tree = PhraseTree(records)
        again = PhraseTree([tuple(record) for record in records])
        assert tree == again and hash(tree) == hash(again)
        assert tree != records and tree != tree.root
        changed = [list(record) for record in records]
        # A record's parent can move down the path open at it, to an
        # internal node below the old parent; the records stay a preorder.
        movable = [
            (p, q)
            for p in range(1, len(records))
            for q in tree.ancestor_ids(p - 1, include_self=True)
            if q > records[p][2] and records[q][1] is None
        ]
        field = data.draw(st.sampled_from(["label", "word", "parent"] if movable else ["label", "word"]))
        if field == "label":
            p = data.draw(st.integers(0, len(records) - 1))
            changed[p][0] += "Z"
        elif field == "word":
            p = data.draw(st.sampled_from([p for p, (_, word, _) in enumerate(records) if word]))
            changed[p][1] += "z"
        else:
            p, parent = data.draw(st.sampled_from(movable))
            changed[p][2] = parent
        other = PhraseTree(changed)
        assert other != tree and tree != other
        assert other == PhraseTree(changed) and hash(other) == hash(PhraseTree(changed))

    @given(records=preorder_records())
    @settings(max_examples=300, deadline=None)
    def test_constructor_fills_as_the_builders(self, records):
        tree = PhraseTree(records)
        filled = _filled(*map(list, zip(*records)))
        assert (tree._end, tree._height, tree._arity) == (filled._end, filled._height, filled._arity)
        assert dict(enumerate(tree._height)) == brute_heights(tree)

    @given(records=preorder_records(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_constructor_word_fault_matches_the_oracle(self, records, data):
        # A valid preorder with words redrawn: the constructor raises the
        # oracle's word/children fault, or builds when there is none.
        records = [(label, data.draw(st.none() | st.just("w")), parent) for label, _, parent in records]
        try:
            PhraseTree(records)
            outcome = None
        except ParseError as exc:
            outcome = type(exc), str(exc)
        assert outcome == reference_word_fault(records)


def arrays(tree):
    return tree._label, tree._word, tree._up, tree._end, tree._height, tree._arity


class TestBuilders:
    """parse_tree, random_tree and enumerate_binary_trees fill the arrays
    themselves; each must match the validating constructor's arrays."""

    @staticmethod
    def assert_as_constructed(tree):
        assert arrays(tree) == arrays(PhraseTree(list(zip(tree._label, tree._word, tree._up))))

    @given(records=preorder_records(max_nodes=40))
    @settings(max_examples=300, deadline=None)
    def test_parse_tree(self, records):
        # Any ordered shape: unary spines, deep chains, wide nodes.
        tree = PhraseTree(records)
        assert arrays(parse_tree(tree.to_bracketed())) == arrays(tree)

    @pytest.mark.parametrize("arity", ["binary", "mixed:2", "mixed:4", "mixed:9"])
    def test_random_tree(self, arity):
        for leaf_count in (1, 2, 5, 10, 23, 60):
            for seed in range(100):
                self.assert_as_constructed(random_tree(seed, leaf_count, arity))

    def test_enumerate_binary_trees(self):
        for leaf_count in range(1, 9):
            for tree in enumerate_binary_trees(leaf_count):
                self.assert_as_constructed(tree)


def parse_outcome(parse, text):
    """The six arrays of ``parse(text)``, or its exception's type and message."""
    try:
        return arrays(parse(text))
    except ParseError as exc:
        return type(exc), str(exc)


def _groups(inner):
    return st.builds("({} {})".format, st.sampled_from(["S", "NP"]), st.lists(inner, max_size=3).map(" ".join))


# Groups of bare tokens, leaf groups (drawn most often) and groups, nested,
# with stray brackets or tokens before or after: strings that parse, and
# strings with one or several faults of every kind.
PARSE_GROUPS = _groups(
    st.recursive(st.sampled_from(["(N a)", "(D the)", "(N a)", "a", "the", "(A)"]), _groups, max_leaves=10)
)
PARSE_JUNK = st.sampled_from(["(", ")", " ( ", "a", "()", "(T b)"])
PARSE_TEXTS = st.one_of(
    PARSE_GROUPS,
    PARSE_GROUPS,
    st.builds("{}\t{}".format, PARSE_GROUPS, PARSE_JUNK),
    st.builds("{}{}".format, PARSE_JUNK, PARSE_GROUPS),
)


class TestParseMatchesReference:
    """parse_tree raises what the token loop and the validating constructor
    raised together, and otherwise builds the same tree."""

    @given(text=PARSE_TEXTS)
    @settings(max_examples=1000, deadline=None)
    def test_drawn_text(self, text):
        assert parse_outcome(parse_tree, text) == parse_outcome(reference_parse_tree, text)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # Word against children: the last faulty node in preorder.
            ("(S (A) (B (C d) e))", MixedNode, "node 'B' has both a word and children"),
            ("(S (B (C) d))", EmptyNode, "node 'C' has neither a word nor children"),
            ("(S (A b (C d)))", MixedNode, "node 'A' has both a word and children"),
            ("(S (A) (B))", EmptyNode, "node 'B' has neither a word nor children"),
            # Faults of the token loop come first, wherever they stand.
            ("(S (NP the man))", MixedNode, "node 'NP' has more than one word"),
            ("(S (A) (B c d))", MixedNode, "node 'B' has more than one word"),
            ("(S (A) (B (C d) e)", UnbalancedBrackets, "missing closing parenthesis"),
            ("(S (A)) (T b)", UnbalancedBrackets, "trailing content after the tree"),
            ("(S (A) ( (N a)))", EmptyNode, "node with no label"),
        ],
    )
    def test_several_faults(self, text, error, message):
        assert parse_outcome(parse_tree, text) == (error, message)
        assert parse_outcome(reference_parse_tree, text) == (error, message)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("(", UnbalancedBrackets, "unexpected end of input"),
            ("(S", UnbalancedBrackets, "missing closing parenthesis"),
            ("(S (A a)", UnbalancedBrackets, "missing closing parenthesis"),
            ("(S (A a)) x", UnbalancedBrackets, "trailing content after the tree"),
            ("( )", EmptyNode, "node with no label"),
        ],
    )
    def test_end_of_input(self, text, error, message):
        assert parse_outcome(parse_tree, text) == (error, message)
        assert parse_outcome(reference_parse_tree, text) == (error, message)

    @given(text=PARSE_TEXTS)
    @settings(max_examples=1000, deadline=None)
    def test_word_fault_matches_the_oracle(self, text):
        # reference_parse_tree shares the word check with parse_tree; this
        # oracle reads the faulty node off the records' parent column.
        try:
            expected = reference_word_fault(reference_parse_records(text))
        except ParseError as exc:
            expected = type(exc), str(exc)
        if expected:
            assert parse_outcome(parse_tree, text) == expected
        else:
            parse_tree(text)
