"""The command-line surface: outputs, exit codes, determinism, coverage."""

import contextlib
import importlib
import inspect
import io
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    UltratreeError,
    c_command_matrix,
    cli,
    cu_command_matrix,
    dominance_matrix,
    government_matrix,
    leaf_matrix,
    min_distance_matrix,
    parse_tree,
    random_theorem_suite,
)
from ultratree.cli import COMMAND_OPERATIONS, run

from . import helpers as fx
from .pins import INPUTS

# Every public operation must be reachable from at least one subcommand.
SPEC_OPERATIONS = {
    "parse_tree",
    "assign_heights",
    "lca",
    "dominates",
    "dominance_matrix",
    "leaf_matrix",
    "check_metric",
    "check_ultrametric",
    "classify_triangle",
    "all_triangles",
    "xbar_template",
    "same_height_distance",
    "c_command",
    "cu_domain",
    "cu_command_matrix",
    "theorem_check",
    "governs",
    "random_tree",
    "tree_category_minima",
    "min_distance_matrix",
    "check_nested_pattern",
    "complexity",
    "build_feature_matrix",
    "determinant",
    "pauli_assembly",
    "feature_distance",
    "compare_feature_vs_ultrametric",
    "check_strategy",
    "check_language",
    "check_downset",
}


@pytest.fixture()
def tree_file(tmp_path):
    path = tmp_path / "trees.txt"
    path.write_text(f"{fx.TREE_FIRST}\n")
    return str(path)


@pytest.fixture()
def printed_third(tmp_path):
    """The third branching matrix as printed: one ultrametric violation."""
    path = tmp_path / "third.json"
    rows = [list(r) for r in fx.MATRIX_THIRD_PRINTED]
    path.write_text(json.dumps({"labels": list(fx.LABELS_AMJH), "rows": rows}))
    return str(path)


def get_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestMatrixCommand:
    def test_tree_file(self, tree_file, capsys):
        assert run(["matrix", tree_file]) == 0
        payload = get_json(capsys)
        assert payload == [
            {
                "labels": ["A", "M", "J", "H"],
                "rows": [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
            }
        ]

    def test_csv(self, tree_file, tmp_path, capsys):
        assert run(["matrix", tree_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(",A,M,J,H\nA,0,1,2,2\n")
        # A file of comments holds no trees: no CSV document, not a blank line.
        comments = tmp_path / "comments.txt"
        comments.write_text("# no trees\n")
        for command in ("matrix", "dominance", "ccommand", "cucommand", "govern"):
            assert run([command, str(comments), "--format", "csv"]) == 0
            assert capsys.readouterr().out == ""

    def test_xbar(self, capsys):
        assert run(["matrix", "--xbar", "--i", "1"]) == 0
        payload = get_json(capsys)
        assert payload["rows"] == [[0, 3, 3], [3, 0, 2], [3, 2, 0]]

    @pytest.mark.parametrize("command", ["matrix", "triangles"])
    def test_xbar_head_height_defaults_to_zero(self, capsys, command):
        assert run([command, "--xbar"]) == 0
        alone = capsys.readouterr().out
        assert run([command, "--xbar", "--i", "0"]) == 0
        assert capsys.readouterr().out == alone

    def test_byte_identical_output(self, tree_file, capsys):
        run(["matrix", tree_file])
        first = capsys.readouterr().out
        run(["matrix", tree_file])
        second = capsys.readouterr().out
        assert first == second


class TestCheckCommand:
    def test_clean_tree_file(self, tree_file, capsys):
        assert run(["check", tree_file]) == 0
        assert get_json(capsys) == []

    def test_inconsistent_matrix_exits_one(self, tmp_path, capsys):
        path = tmp_path / "third.json"
        path.write_text(
            json.dumps(
                {
                    "labels": list(fx.LABELS_AMJH),
                    "rows": [list(r) for r in fx.MATRIX_THIRD_PRINTED],
                }
            )
        )
        assert run(["check", "--matrix", str(path)]) == 1
        payload = get_json(capsys)
        assert payload == [{"axiom": "ultrametric", "indices": [1, 2, 3]}]

    def test_missing_input(self, capsys):
        assert run(["check"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrianglesCommand:
    def test_over_matrix(self, tmp_path, capsys):
        path = tmp_path / "eighth.json"
        path.write_text(
            json.dumps(
                {
                    "labels": list(fx.LABELS_AMJH),
                    "rows": [list(r) for r in fx.MATRIX_EIGHTH],
                }
            )
        )
        assert run(["triangles", "--matrix", str(path)]) == 0
        payload = get_json(capsys)
        assert len(payload) == 4
        assert {t["kind"] for t in payload} == {"equilateral"}

    def test_xbar_triangle(self, capsys):
        assert run(["triangles", "--xbar", "--i", "0"]) == 0
        payload = get_json(capsys)
        assert payload[0]["kind"] == "isosceles" and payload[0]["base"] == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tree_with_two_leaves_adds_no_records(self, tmp_path, capsys, fmt):
        path = tmp_path / "t.txt"
        path.write_text("(X (A a) (B b) (C c))\n(X (A a) (B b))\n(X (A a))\n")
        assert run(["triangles", "--format", fmt, str(path)]) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            assert out == "tree,vertices,kind,sides,base\n0,a b c,equilateral,1 1 1,\n"
        else:
            assert json.loads(out) == [
                {"tree": 0, "vertices": ["a", "b", "c"], "kind": "equilateral", "sides": [1, 1, 1], "base": None}
            ]


class TestRelationCommands:
    def test_dominance(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text(fx.TREE_DOMINANCE + "\n")
        assert run(["dominance", str(path)]) == 0
        payload = get_json(capsys)
        assert payload[0]["labels"] == list(fx.DOMINANCE_LABELS)
        assert payload[0]["rows"] == [list(r) for r in fx.DOMINANCE_EXPECTED]

    def test_ccommand(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(fx.TREE_CCOMMAND + "\n")
        assert run(["ccommand", str(path)]) == 0
        payload = get_json(capsys)
        assert payload[0]["rows"] == [list(r) for r in fx.CCOMMAND_EXPECTED]

    def test_cucommand_matches_ccommand(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(fx.TREE_CCOMMAND + "\n")
        run(["ccommand", str(path)])
        ccommand = capsys.readouterr().out
        run(["cucommand", str(path)])
        cucommand = capsys.readouterr().out
        assert ccommand == cucommand

    def test_govern(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("(VP (V ate) (N dogs))\n")
        assert run(["govern", str(path), "--governors", "V"]) == 0
        payload = get_json(capsys)
        labels = payload[0]["labels"]
        rows = payload[0]["rows"]
        assert rows[labels.index("V")][labels.index("N")] == 1
        assert rows[labels.index("N")][labels.index("V")] == 0


class TestTheoremCommand:
    def test_clean(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(f"{fx.TREE_CCOMMAND}\n{fx.TREE_FIRST}\n")
        assert run(["theorem", str(path)]) == 0
        payload = get_json(capsys)
        assert payload == {"trees_tested": 2, "disagreements": []}

    def test_internal_disagreement_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("(R (F (X (A a) (B b)) (C c)) (G (D d) (E e)))\n")
        assert run(["theorem", str(path), "--nodes", "all"]) == 1
        payload = get_json(capsys)
        assert payload["disagreements"][0]["relation"] == "cu_command"


class TestMindistCommand:
    def test_bundled_corpus_default(self, capsys):
        assert run(["mindist"]) == 0
        payload = get_json(capsys)
        assert payload["labels"] == ["D", "N", "V", "A", "P"]
        assert payload["rows"][0][1] == 1  # D-N

    def test_pattern_check_pass(self, capsys):
        assert run(["mindist", "--order", "N,P,V,A", "--i", "2"]) == 0
        payload = get_json(capsys)
        assert payload["pattern_matches"] is True

    def test_pattern_check_fail(self, capsys):
        assert run(["mindist", "--order", "N,P,V,A", "--i", "3"]) == 1
        payload = get_json(capsys)
        assert payload["pattern_matches"] is False

    def test_corpus_file(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("(S (NP (D the) (N man)) (VP (V ate) (NP (D a) (N dog))))\n")
        assert run(["mindist", str(path)]) == 0
        payload = get_json(capsys)
        assert payload["labels"] == ["D", "N", "V"]


class TestComplexityCommand:
    def test_within_bound(self, tree_file, capsys):
        assert run(["complexity", tree_file]) == 0
        payload = get_json(capsys)
        assert payload["max_height"] == 2 and payload["exceeding"] == []

    def test_over_bound_exits_one(self, tree_file, capsys):
        assert run(["complexity", tree_file, "--bound", "1"]) == 1
        payload = get_json(capsys)
        assert payload["exceeding"] == [0]

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("(X (A a) (B b))\n(X (Y (A a) (B b)) (C c))\n(A a)\n")
        assert run(["complexity", str(path), "--bound", "1", "--format", "csv"]) == 1
        assert capsys.readouterr().out == "tree,height,over_bound\n0,1,0\n1,2,1\n2,0,0\n"
        path.write_text("# no trees\n")
        assert run(["complexity", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "tree,height,over_bound\n"

    def test_csv_over_bound_is_json_exceeding(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("(A a)\n(X (A a) (B b))\n" * 50)  # every tree is over the bound
        assert run(["complexity", str(path), "--bound", "-1"]) == 1
        exceeding = get_json(capsys)["exceeding"]
        assert run(["complexity", str(path), "--bound", "-1", "--format", "csv"]) == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows if row.endswith(",1")] == exceeding == list(range(100))


class TestFeaturesCommand:
    def test_report(self, capsys):
        assert run(["features"]) == 0
        payload = get_json(capsys)
        assert payload["determinant"] == 0
        assert payload["positive_entries"] == 8
        assert payload["negative_entries"] == 8
        assert payload["pauli_assembly_real"] is True
        assert payload["pauli_assembly_matches"] is True
        assert payload["comparison"]["monotone_relation"] is False

    def test_custom_matrix(self, tmp_path, capsys):
        rows = [[None] * 4 for _ in range(4)]
        labels = ["N", "V", "A", "P"]
        for i in range(4):
            for j in range(4):
                if i != j:
                    rows[i][j] = 9
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"labels": labels, "rows": rows}))
        assert run(["features", "--matrix", str(path)]) == 0
        payload = get_json(capsys)
        # constant target admits a (weakly) monotone map
        assert payload["comparison"]["monotone_relation"] is True


class TestHierarchyCommand:
    def test_language_clean(self, tmp_path, capsys):
        doc = {
            "kind": "language",
            "strategies": [
                {"name": "main", "covered": ["SU", "DO"], "primary": True}
            ],
        }
        path = tmp_path / "lang.json"
        path.write_text(json.dumps(doc))
        assert run(["hierarchy", str(path)]) == 0
        assert get_json(capsys) == []

    def test_language_gap(self, tmp_path, capsys):
        doc = {
            "kind": "language",
            "strategies": [
                {"name": "main", "covered": ["SU", "DO"], "primary": True},
                {"name": "gappy", "covered": ["SU", "IO"]},
            ],
        }
        path = tmp_path / "lang.json"
        path.write_text(json.dumps(doc))
        assert run(["hierarchy", str(path)]) == 1
        payload = get_json(capsys)
        assert [v["constraint"] for v in payload] == ["AHC2"]

    def test_downset_with_bundled_order(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"kind": "downset", "inventory": ["black", "white", "red"]}))
        assert run(["hierarchy", str(path)]) == 0
        assert get_json(capsys)["downward_closed"] is True

    def test_downset_violation(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"kind": "downset", "inventory": ["blue"]}))
        assert run(["hierarchy", str(path)]) == 1

    @pytest.mark.parametrize(
        "document",
        [{"kind": "colours"}, [1, 2], 3, "x"],
        ids=["unknown-kind", "array", "number", "string"],
    )
    def test_bad_kind(self, tmp_path, capsys, document):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(document))
        assert run(["hierarchy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if not isinstance(document, dict):
            assert str(path) in err


class TestRandtestCommand:
    def test_deterministic_and_clean(self, capsys):
        assert run(["randtest", "--seed", "7", "--trees", "60", "--max-leaves", "8"]) == 0
        first = capsys.readouterr().out
        run(["randtest", "--seed", "7", "--trees", "60", "--max-leaves", "8"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload == {"trees_tested": 60, "disagreements": []}

    def test_random_mode_defaults(self, capsys):
        # Without --trees, --max-leaves or --arity: 1000 trees of up to 10
        # leaves with splits of up to 4 children.
        assert run(["randtest", "--seed", "3", "--nodes", "all"]) == 1
        expected = random_theorem_suite(seed=3, trees=1000, max_leaves=10, arity="mixed:4", nodes="all")
        assert get_json(capsys) == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("nodes", ["leaves", "all"])
    def test_exhaustive_sweep_without_seed(self, tmp_path, capsys, nodes):
        # The exhaustive sweep draws nothing, so --seed may be left out.
        argv = ["randtest", "--exhaustive-leaves", "6", "--nodes", nodes, "--counterexamples"]
        seeded = (run([*argv, str(tmp_path / "a.json"), "--seed", "0"]), capsys.readouterr())
        assert (run([*argv, str(tmp_path / "b.json")]), capsys.readouterr()) == seeded
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_random_flag_help_names_the_suite_defaults(self):
        # The defaults are written once, in random_theorem_suite's signature.
        defaults = inspect.signature(random_theorem_suite).parameters
        helps = {action.dest: action.help for action in cli._parser()[1]["randtest"]._actions}
        for name in ("trees", "max_leaves", "arity"):
            assert helps[name].endswith(f"(default {defaults[name].default})")

    def test_exhaustive_sweep(self, capsys):
        assert run(["randtest", "--seed", "1", "--exhaustive-leaves", "5"]) == 0
        payload = get_json(capsys)
        assert payload["trees_tested"] == 1 + 1 + 2 + 5 + 14
        assert payload["disagreements"] == []

    def test_counterexample_file(self, tmp_path, capsys):
        out = tmp_path / "cx.json"
        tree_path = tmp_path / "unused.txt"
        tree_path.write_text("")
        # force disagreements by sweeping internal nodes over mixed trees
        code = run(
            [
                "randtest",
                "--seed",
                "5",
                "--trees",
                "200",
                "--max-leaves",
                "8",
                "--nodes",
                "all",
                "--counterexamples",
                str(out),
            ]
        )
        payload = get_json(capsys)
        if payload["disagreements"]:
            assert code == 1
            assert json.loads(out.read_text()) == payload["disagreements"]
        else:
            assert code == 0 and json.loads(out.read_text()) == []

    def test_clean_run_overwrites_a_stale_counterexample_file(self, tmp_path, capsys):
        out = tmp_path / "cx.json"
        out.write_text("stale")
        assert run(["randtest", "--seed", "7", "--trees", "20", "--counterexamples", str(out)]) == 0
        assert get_json(capsys)["disagreements"] == []
        assert json.loads(out.read_text()) == []


class TestDeepInput:
    DEPTH = 1200  # deeper than Python's default recursion limit

    def test_unary_chain(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text("(X " * self.DEPTH + "(W w)" + ")" * self.DEPTH + "\n")
        tree = str(path)
        assert run(["matrix", tree]) == 0
        assert get_json(capsys) == [{"labels": ["w"], "rows": [[0]]}]
        assert run(["check", tree]) == 0
        assert get_json(capsys) == []
        assert run(["complexity", tree]) == 1
        assert get_json(capsys)["per_tree"] == [{"tree": 0, "height": self.DEPTH}]
        assert run(["theorem", tree, "--nodes", "all"]) == 0
        assert get_json(capsys) == {"trees_tested": 1, "disagreements": []}
        # CSV keeps the 1,201 x 1,201 matrix small; each node dominates
        # itself and every node below it.
        assert run(["dominance", tree, "--format", "csv"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split(",")[1:] == [f"X#{i}" for i in range(1, self.DEPTH + 1)] + ["W"]
        size = self.DEPTH + 1
        for i, row in enumerate(rows):
            assert row.split(",")[1:] == ["0"] * i + ["1"] * (size - i)
        assert len(rows) == size

    def test_unary_chain_command_relations(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text("(X " * self.DEPTH + "(X (V a) (N b))" + ")" * self.DEPTH + "\n")
        tree = str(path)
        size = self.DEPTH + 3
        v, n = size - 2, size - 1  # the two leaves, last in preorder
        # Every chain node is alone at its height and relates only to
        # itself; the two leaves c-command and cu-command each other.
        mutual = {(a, a) for a in range(size)} | {(v, n), (n, v)}
        relations = {"ccommand": mutual, "cucommand": mutual, "govern": {(v, n)}}
        for command, expected in relations.items():
            assert run([command, tree, "--nodes", "all", "--format", "csv"]) == 0
            header, *rows = capsys.readouterr().out.splitlines()
            assert len(header.split(",")) == len(rows) + 1 == size + 1
            cells = [row.split(",")[1:] for row in rows]
            found = {(a, b) for a, row in enumerate(cells) for b, x in enumerate(row) if x == "1"}
            assert found == expected
        assert run(["theorem", tree, "--nodes", "all"]) == 0
        assert get_json(capsys) == {"trees_tested": 1, "disagreements": []}

    def test_unary_chain_equality_and_hash(self):
        tree = parse_tree("(X " * self.DEPTH + "(W w)" + ")" * self.DEPTH)
        again = parse_tree(tree.to_bracketed())
        assert again == tree and hash(again) == hash(tree)
        assert parse_tree("(X " * self.DEPTH + "(W v)" + ")" * self.DEPTH) != tree
        # The nodes themselves compare, hash and print without recursing.
        assert again.root == tree.root and hash(again.root) == hash(tree.root)
        assert again.root != parse_tree("(X " * self.DEPTH + "(W v)" + ")" * self.DEPTH).root
        assert repr(tree.root).count("Node(") == self.DEPTH + 1


# Disambiguation skips a label#k that the tree already holds: N#1 N N
# becomes N#1 N#2 N#3, and the words a#1 a a become a#1 a#2 a#3.
COLLIDING_NODES = "(S (N#1 a) (N b) (N c))"
COLLIDING_WORDS = "(S (N a#1) (N a) (N a))"
DISTINCT_NODES = ["S", "N#1", "N#2", "N#3"]
DISTINCT_WORDS = ["a#1", "a#2", "a#3"]


class TestLabelCollisions:
    @pytest.mark.parametrize(
        "argv, tree, labels",
        [
            (["dominance"], COLLIDING_NODES, DISTINCT_NODES),
            (["ccommand", "--nodes", "all"], COLLIDING_NODES, DISTINCT_NODES),
            (["cucommand", "--nodes", "all"], COLLIDING_NODES, DISTINCT_NODES),
            (["govern"], COLLIDING_NODES, DISTINCT_NODES),
            (["matrix"], COLLIDING_WORDS, DISTINCT_WORDS),
        ],
        ids=["dominance", "ccommand", "cucommand", "govern", "matrix"],
    )
    def test_exit_0_with_distinct_labels(self, tmp_path, capsys, argv, tree, labels):
        path = tmp_path / "trees.txt"
        path.write_text(f"{fx.TREE_FIRST}\n{tree}\n")
        assert run([*argv, str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)[1]["labels"] == labels

    @pytest.mark.parametrize(
        "build, tree, labels",
        [
            (dominance_matrix, COLLIDING_NODES, DISTINCT_NODES),
            (partial(c_command_matrix, nodes="all"), COLLIDING_NODES, DISTINCT_NODES),
            (partial(cu_command_matrix, nodes="all"), COLLIDING_NODES, DISTINCT_NODES),
            (government_matrix, COLLIDING_NODES, DISTINCT_NODES),
            (leaf_matrix, COLLIDING_WORDS, DISTINCT_WORDS),
        ],
        ids=["dominance", "ccommand", "cucommand", "govern", "matrix"],
    )
    def test_library_makes_labels_distinct(self, build, tree, labels):
        assert build(parse_tree(tree)).labels == tuple(labels)

    @pytest.mark.parametrize(
        "build, tree",
        [(lambda tree: min_distance_matrix([tree], categories=("N", "N")), COLLIDING_WORDS)],
        ids=["mindist"],
    )
    def test_library_raises(self, build, tree):
        # Categories come from the caller, so a repeated one is refused.
        with pytest.raises(UltratreeError, match="^matrix labels must be unique$"):
            build(parse_tree(tree))


class TestErrors:
    def test_missing_file(self, capsys):
        assert run(["matrix", "/nonexistent/file.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("(X (A a) (B b))\n(X (A a\n")
        assert run(["matrix", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_bad_matrix_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["check", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: Expecting property name")

    def test_randtest_negative_trees(self, capsys):
        assert run(["randtest", "--seed", "1", "--trees", "-3"]) == 2
        assert self.one_error(capsys) == "error: trees must be at least 0, got -3\n"

    @pytest.mark.parametrize(
        "arity, message",
        [
            ("bogus", "bad arity spec 'bogus' (use 'binary' or 'mixed:K')"),
            ("mixed:1", "mixed arity must be at least 2, got 1"),
        ],
        ids=["bogus", "mixed-1"],
    )
    def test_randtest_bad_arity_without_trees(self, capsys, arity, message):
        # No tree is drawn, but the spec is still checked.
        assert run(["randtest", "--seed", "1", "--trees", "0", "--arity", arity]) == 2
        assert self.one_error(capsys) == f"error: {message}\n"

    @staticmethod
    def one_error(capsys) -> str:
        """The single error line of an exit-2 run that printed nothing else."""
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize(
        "command, document, where",
        [
            ("check", {"labels": ["a", "b"], "rows": [[0, True], [1, 0]]},
             "rows[0][1]: distance entries must be integers, got True"),
            ("triangles", {"labels": ["a", "b", "c"], "rows": [[0, 1, 1], [1, 0, 1], [1, 1, "1"]]},
             "rows[2][2]: distance entries must be integers, got '1'"),
            ("check", {"labels": ["a", "a"], "rows": [[0, 1], [1, 0]]}, "labels[1]: matrix labels must be unique"),
            ("features", {"labels": ["N", "V"], "rows": [[1, 0], [0, 1]]},
             "rows[0][1]: present entries must be at least 1, got 0"),
            ("check", {"labels": ["a", "b"], "rows": [[0, 1]]}, "rows: matrix with 2 labels must be 2x2"),
        ],
        ids=["true-entry", "string-entry", "repeated-labels", "zero-category-entry", "missing-row"],
    )
    def test_bad_matrix_entry_names_file_and_path(self, tmp_path, capsys, command, document, where):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        assert run([command, "--matrix", str(path)]) == 2
        assert self.one_error(capsys) == f"error: {path}: {where}\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["triangles", "--matrix"], json.dumps({"labels": ["a", "b"], "rows": [[0, 1], [1, 0]]}),
             "need at least 3 labels, got 2"),
            (["triangles", "--format", "csv", "--matrix"], json.dumps({"labels": [], "rows": []}),
             "need at least 3 labels, got 0"),
            (["features", "--matrix"], json.dumps({"labels": ["N", "A"], "rows": [[None, 2], [2, None]]}),
             "no ultrametric distance for pair (N, V)"),
            (["mindist"], "# only\n", "corpus has no trees"),
            # D and A share no tree, so the nested pattern lacks their pair.
            (["mindist", "--i", "0"], "(S (D a) (N b) (V c))\n(S (A d) (N e))\n", "no entry for pair (D, A)"),
        ],
        ids=["triangles-two-labels", "triangles-csv-empty", "features-no-n-v", "mindist-no-trees", "mindist-no-pair"],
    )
    def test_analysis_fault_names_file(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        assert run([*command, str(path)]) == 2
        assert self.one_error(capsys) == f"error: {path}: {message}\n"

    def test_pattern_pair_missing_from_the_bundled_corpus_names_the_order(self, capsys):
        # The bundled corpus holds every pair of its categories; Q is not one.
        assert run(["mindist", "--order", "D,Q", "--i", "0"]) == 2
        assert self.one_error(capsys) == "error: --order: no entry for pair (D, Q)\n"

    @pytest.mark.parametrize(
        "order, source, pair",
        [
            ("D,Q", "--order", "(D, Q)"),
            ("Q,D", "--order", "(Q, D)"),
            ("D,A,Q", "file", "(D, A)"),
            ("D,N,Q", "--order", "(D, Q)"),
        ],
        ids=["unheld-last", "unheld-first", "held-pair-first", "held-pairs-present"],
    )
    def test_pattern_pair_missing_from_a_file_names_the_order_for_an_unheld_category(
        self, tmp_path, capsys, order, source, pair
    ):
        # Q is in no tree of the file; D and A are, but share no tree.  The
        # first missing pair names the source at fault.
        path = tmp_path / "two.trees"
        path.write_text("(S (D a) (N b) (V c))\n(S (A d) (N e))\n")
        assert run(["mindist", str(path), "--order", order, "--i", "0"]) == 2
        where = str(path) if source == "file" else source
        assert self.one_error(capsys) == f"error: {where}: no entry for pair {pair}\n"
        assert run(["mindist", str(path), "--order", order]) == 0  # without --i, Q's row is all null
        assert json.loads(capsys.readouterr().out)["labels"] == order.split(",")

    def test_repeated_order_names_the_flag(self, capsys):
        assert run(["mindist", "--order", "N,N"]) == 2
        assert self.one_error(capsys) == "error: --order: categories must be distinct, got 'N,N'\n"

    @pytest.mark.parametrize("i", ["0", "2"])
    def test_csv_refused_with_pattern_start(self, tmp_path, capsys, i):
        # The pattern report is JSON only; checked before the file is read.
        assert run(["mindist", "--order", "N,P,V,A", "--i", i, "--format", "csv"]) == 2
        assert self.one_error(capsys) == "error: --format: csv not used with --i\n"
        assert run(["mindist", str(tmp_path / "missing.txt"), "--i", i, "--format", "csv"]) == 2
        assert self.one_error(capsys) == "error: --format: csv not used with --i\n"

    @pytest.mark.parametrize("order", ["", ",", ",,"], ids=["empty", "comma", "commas"])
    def test_empty_order_names_the_flag(self, tmp_path, capsys, order):
        # Checked before the file is read, and never read as the default order.
        assert run(["mindist", "--order", order]) == 2
        assert self.one_error(capsys) == "error: --order: names no category\n"
        assert run(["mindist", str(tmp_path / "missing.txt"), "--order", order]) == 2
        assert self.one_error(capsys) == "error: --order: names no category\n"

    @pytest.mark.parametrize("governors", ["", ",", ",,"], ids=["empty", "comma", "commas"])
    @pytest.mark.parametrize("trees", ["(VP (V ate) (N dogs))\n", "# no trees\n"], ids=["one-tree", "no-trees"])
    def test_empty_governors_names_the_flag(self, tmp_path, capsys, governors, trees):
        # Checked before the file is read, so a file of no trees fails too.
        path = tmp_path / "t.txt"
        path.write_text(trees)
        assert run(["govern", str(path), "--governors", governors]) == 2
        assert self.one_error(capsys) == "error: --governors: governor policy has no categories\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["matrix"], "matrix needs a tree file or --xbar"),
            (["matrix", "--format", "csv", "--i", "2"], "matrix needs a tree file or --xbar"),
            (["check"], "check needs a tree file or --matrix"),
            (["check", "--format", "csv"], "check needs a tree file or --matrix"),
            (["triangles"], "triangles needs a tree file, --matrix, or --xbar"),
            (["triangles", "--i", "3"], "triangles needs a tree file, --matrix, or --xbar"),
        ],
    )
    def test_no_input_names_what_is_needed(self, capsys, argv, message):
        assert run(argv) == 2
        assert self.one_error(capsys) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, sources, message",
        [
            ("triangles", ["--matrix", "--xbar"], "triangles takes one of a tree file, --matrix, or --xbar"),
            ("triangles", ["file", "--matrix"], "triangles takes one of a tree file, --matrix, or --xbar"),
            ("triangles", ["file", "--xbar"], "triangles takes one of a tree file, --matrix, or --xbar"),
            ("triangles", ["file", "--matrix", "--xbar"], "triangles takes one of a tree file, --matrix, or --xbar"),
            ("check", ["file", "--matrix"], "check takes one of a tree file or --matrix"),
            ("matrix", ["file", "--xbar"], "matrix takes one of a tree file or --xbar"),
        ],
        ids=["triangles-matrix-xbar", "triangles-file-matrix", "triangles-file-xbar", "triangles-all",
             "check-file-matrix", "matrix-file-xbar"],
    )
    def test_several_sources_are_refused(self, tree_file, printed_third, capsys, command, sources, message):
        given = {"file": [tree_file], "--matrix": ["--matrix", printed_third], "--xbar": ["--xbar"]}
        argv = [command] + [part for source in sources for part in given[source]]
        assert run(argv) == 2
        assert self.one_error(capsys) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, source, i",
        [
            ("matrix", "file", "5"),
            ("matrix", "file", "0"),
            ("triangles", "file", "7"),
            ("triangles", "--matrix", "2"),
        ],
        ids=["matrix-file", "matrix-file-zero", "triangles-file", "triangles-matrix"],
    )
    def test_i_without_xbar_is_refused(self, tree_file, printed_third, capsys, command, source, i):
        # --i sets the head height of the --xbar template and nothing else.
        given = {"file": [tree_file], "--matrix": ["--matrix", printed_third]}
        assert run([command, *given[source], "--i", i]) == 2
        assert self.one_error(capsys) == "error: --i: needs --xbar\n"

    @pytest.mark.parametrize("command", ["matrix", "triangles"])
    def test_negative_head_height_names_its_flag(self, capsys, command):
        assert run([command, "--xbar", "--i", "-1"]) == 2
        assert self.one_error(capsys) == "error: --i: template height must be non-negative\n"

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--trees", "5"], "--trees"),
            (["--trees", "-1"], "--trees"),
            (["--max-leaves", "0"], "--max-leaves"),
            (["--arity", "bogus"], "--arity"),
            (["--arity", "binary", "--max-leaves", "10", "--trees", "1000"], "--trees"),
        ],
        ids=["trees", "trees-negative", "max-leaves-zero", "arity-bogus", "all-three-at-defaults"],
    )
    def test_random_flags_refused_when_exhaustive(self, tmp_path, capsys, extra, flag):
        # They shape random trees only; the exhaustive sweep would drop them.
        out = tmp_path / "cx.json"
        argv = ["randtest", "--seed", "0", "--exhaustive-leaves", "3", *extra, "--counterexamples", str(out)]
        assert run(argv) == 2
        assert self.one_error(capsys) == f"error: {flag}: not used with --exhaustive-leaves\n"
        assert not out.exists()

    def test_unwritable_counterexamples_print_nothing(self, tmp_path, capsys):
        # The file is written before the report, so exit 2 leaves stdout empty.
        out = tmp_path / "missing" / "cx.json"
        argv = ["randtest", "--seed", "1", "--trees", "50", "--nodes", "all", "--counterexamples", str(out)]
        assert run(argv) == 2
        assert self.one_error(capsys).startswith("error: [Errno 2] No such file or directory: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["matrix", "check", "theorem", "mindist"])
    def test_tree_file_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"(X (A a) (B b))\n(X (A caf\xe9) (B b))\n")
        assert run([command, str(path)]) == 2
        assert self.one_error(capsys).startswith(f"error: {path}:2: not UTF-8: invalid continuation byte")

    @pytest.mark.parametrize("command", [["check", "--matrix"], ["features", "--matrix"], ["hierarchy"]])
    def test_json_file_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"labels": ["caf\xe9"]}')
        assert run([*command, str(path)]) == 2
        assert self.one_error(capsys).startswith(f"error: {path}:1: not UTF-8: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            ('{"labels": ["a"], "rows": [[' + "1" * 5000 + "]]}", "Exceeds the limit (4300 digits)"),
        ],
        ids=["nested-too-deeply", "integer-too-long"],
    )
    def test_json_the_decoder_rejects(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert run(["check", "--matrix", str(path)]) == 2
        assert self.one_error(capsys).startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_label_rejected_on_read(self, tmp_path, capsys, fmt):
        # A lone surrogate would make the CSV writer raise UnicodeEncodeError.
        path = tmp_path / "m.json"
        path.write_text('{"labels": ["a", "b", "\\ud800"], "rows": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}')
        assert run(["triangles", "--format", fmt, "--matrix", str(path)]) == 2
        assert self.one_error(capsys) == f"error: {path}: labels[2]: expected a string of Unicode text\n"

    @pytest.mark.parametrize(
        "command", ["matrix", "triangles", "dominance", "ccommand", "cucommand", "govern", "mindist"]
    )
    def test_stdout_that_cannot_encode_the_output(self, tmp_path, capsys, command):
        path = tmp_path / "t.txt"
        path.write_text("(VP (V café) (É b) (N c))\n", encoding="utf-8")
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        with contextlib.redirect_stdout(out):
            assert run([command, str(path), "--format", "csv"]) == 2
        out.flush()
        assert out.buffer.getvalue() == b""
        assert self.one_error(capsys).startswith("error: stdout: 'ascii' codec can't encode character ")

    def test_randtest_max_leaves_below_one(self, capsys):
        assert run(["randtest", "--seed", "1", "--trees", "3", "--max-leaves", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_leaves must be at least 1, got 0\n"

    @pytest.mark.parametrize("extra", [[], ["--trees", "5"], ["--trees", "-1", "--arity", "bogus"]])
    def test_random_sweep_needs_seed(self, tmp_path, capsys, extra):
        # Without --exhaustive-leaves the trees are drawn, so the seed must be given.
        out = tmp_path / "cx.json"
        assert run(["randtest", *extra, "--counterexamples", str(out)]) == 2
        assert self.one_error(capsys) == "error: --seed: needed without --exhaustive-leaves\n"
        assert not out.exists()

    @pytest.mark.parametrize("leaves", ["0", "-3"])
    def test_randtest_exhaustive_leaves_below_one(self, capsys, leaves):
        assert run(["randtest", "--seed", "1", "--exhaustive-leaves", leaves]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: exhaustive_leaves must be at least 1, got {leaves}\n"

    @pytest.mark.parametrize(
        "document, where",
        [
            ({"kind": "language", "chain": 5, "strategies": []}, "chain: expected"),
            ({"kind": "language", "chain": [], "strategies": []}, "chain: expected"),
            ({"kind": "language", "chain": ["SU", "SU"], "strategies": []}, "chain: expected"),
            ({"kind": "language"}, "strategies: missing"),
            ({"kind": "language", "strategies": {}}, "strategies: expected a list"),
            ({"kind": "language", "strategies": [5]}, "strategies[0]: expected an object"),
            ({"kind": "language", "strategies": [{}]}, "strategies[0].covered: missing"),
            (
                {"kind": "language", "strategies": [{"covered": 3}]},
                "strategies[0].covered: expected a list of strings",
            ),
            (
                {"kind": "language", "strategies": [{"covered": ["SU"]}, {"covered": [1]}]},
                "strategies[1].covered: expected a list of strings",
            ),
            (
                {"kind": "language", "strategies": [{"covered": ["SU"], "name": 3}]},
                "strategies[0].name: expected a string",
            ),
            (
                {"kind": "language", "strategies": [{"covered": ["SU"], "primary": 1}]},
                "strategies[0].primary: expected true or false",
            ),
            ({"kind": "downset"}, "inventory: missing"),
            ({"kind": "downset", "inventory": 5}, "inventory: expected a list of strings"),
            ({"kind": "downset", "order": 5, "inventory": []}, "order: expected an object"),
            (
                {"kind": "downset", "order": {"nodes": ["a"]}, "inventory": []},
                "order.edges: missing",
            ),
            (
                {"kind": "downset", "order": {"nodes": ["a"], "edges": [["a"]]}, "inventory": []},
                "order.edges: expected a list of [earlier, later] string pairs",
            ),
            # Errors the library's checks raise, with the file named in front.
            (
                {"kind": "language", "strategies": [{"covered": ["ZZ"]}]},
                "label 'ZZ' not on the chain",
            ),
            ({"kind": "downset", "inventory": ["zz"]}, "inventory label 'zz' not a node"),
            (
                {"kind": "downset", "order": {"nodes": ["a"], "edges": [["a", "b"]]}, "inventory": []},
                "edge endpoint 'b' not a node",
            ),
            ({"kind": "tree"}, 'kind: expected "language" or "downset"'),
        ],
        ids=[
            "chain-number", "chain-empty", "chain-repeated", "no-strategies", "strategies-object",
            "strategy-number", "no-covered", "covered-number", "covered-numbers", "name-number",
            "primary-number", "no-inventory", "inventory-number", "order-number", "no-edges",
            "edge-single", "covered-off-chain", "inventory-off-order", "edge-off-order", "bad-kind",
        ],
    )
    def test_bad_hierarchy_document(self, tmp_path, capsys, document, where):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(document))
        assert run(["hierarchy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: {where}")

    @pytest.mark.parametrize("command", ["check", "triangles", "features"])
    @pytest.mark.parametrize(
        "document, where",
        [
            ([1, 2], "document"),
            ({"labels": ["a", "b"], "rows": 3}, "rows"),
            ({"labels": [["x"]], "rows": [[0]]}, "labels[0]"),
            ({"labels": ["a", "b"]}, "rows: missing"),
            ({"rows": [[0]]}, "labels: missing"),
            ({"labels": "ab", "rows": [[0, 1], [1, 0]]}, "labels"),
            ({"labels": ["a", "b"], "rows": [[0, 1], 3]}, "rows[1]"),
        ],
        ids=["array", "rows-number", "label-list", "no-rows", "no-labels",
             "labels-string", "row-number"],
    )
    def test_bad_matrix_document(self, tmp_path, capsys, command, document, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert run([command, "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: {where}")


class TestParserReuse:
    """run() builds its parser once and shares it across calls."""

    def test_calls_see_only_their_own_arguments(self, tree_file, printed_third, capsys):
        first = ["check", "--matrix", printed_third, "--format", "csv"]
        second = ["check", tree_file]
        alone = []
        for argv in (first, second):
            cli._parser.cache_clear()  # a new parser, as in a process of its own
            alone.append((run(argv), capsys.readouterr().out))
        assert alone[0][0] == 1 and alone[1] == (0, "[]\n")
        assert [(run(argv), capsys.readouterr().out) for argv in (first, second)] == alone
        with pytest.raises(SystemExit) as exc:
            run(["nosuch"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert (run(second), capsys.readouterr().out) == alone[1]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_triangles_share_no_state(self, tmp_path, printed_third, capsys, fmt):
        # Both matrices have the side triples (1, 3, 3) and (2, 3, 3).
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"labels": ["p", "q", "r", "s"], "rows": [list(r) for r in fx.MATRIX_SECOND]}))
        argvs = [["triangles", "--matrix", path, "--format", fmt] for path in (printed_third, str(other))]
        alone = []
        for argv in argvs:
            cli._parser.cache_clear()
            alone.append((run(argv), capsys.readouterr().out))
        assert [(run(argv), capsys.readouterr().out) for argv in argvs] == alone

    def test_parser_built_once(self, tree_file, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        for _ in range(3):
            assert run(["check", tree_file]) == 0
        assert len(built) == 1

    def test_build_parser_is_a_factory(self):
        assert cli.build_parser() is not cli.build_parser()


PIECES, STRAY = fx.argv_pieces(cli._parser()[1])


@st.composite
def argvs(draw):
    """A first word (``""`` for none) and up to five of its or stray pieces."""
    first = draw(st.sampled_from(sorted(PIECES)))
    pieces = draw(st.lists(st.sampled_from(PIECES[first]) | st.sampled_from(STRAY), max_size=5))
    rest = [word for piece in pieces for word in piece]
    return [first, *rest] if first else rest


class TestOnePassParse:
    """run() parses a call that names its subcommand first with that
    subcommand's parser alone, and gets what the top-level parse_args gets:
    the same namespace, or the same exit code, stdout and stderr."""

    @staticmethod
    def assert_same_parse(argv):
        with fx.handed_back_parsers() as (top, _):
            assert fx.parse_outcome(fx.run_parse, argv) == fx.parse_outcome(top.parse_args, argv)

    @settings(max_examples=1000, deadline=None)
    @given(argvs())
    def test_matches_parse_args(self, argv):
        self.assert_same_parse(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            [""],
            ["-h"],
            ["--help"],
            ["--he"],
            ["nosuch"],
            ["nosuch", "t.trees"],
            ["--format", "csv", "check", "t.trees"],
            ["--", "check", "t.trees"],
            ["check"],
            ["check", "-h"],
            ["check", "--help"],
            ["check", "--he"],
            ["check", "t.trees", "-h"],
            ["check", "t.trees"],
            ["check", "--", "t.trees"],
            ["check", "t.trees", "--"],
            ["check", "--", "--format"],
            ["check", "--format=csv", "t.trees"],
            ["check", "--format=xml", "t.trees"],
            ["check", "--form", "csv", "t.trees"],
            ["check", "t.trees", "--bogus"],
            ["check", "t.trees", "--bogus=1", "extra"],
            ["check", "t.trees", "u.trees"],
            ["check", ""],
            ["check", "", ""],
            ["check", "-x", "t.trees"],
            ["ccommand", "t.trees", "--nodes", "all"],
            ["ccommand", "--nodes=all", "t.trees"],
            ["ccommand", "t.trees", "--nodes"],
            ["ccommand", "--nodes", "some", "t.trees"],
            ["govern", "t.trees", "--governors", ""],
            ["randtest", "--max", "3", "--seed", "1"],
            ["randtest", "--max-leaves", "-1", "--seed", "-1"],
            ["randtest", "--seed", "x"],
            ["randtest", "--se", "1", "--ex", "3"],
            ["randtest"],
            ["matrix", "--xbar", "--i", "-1"],
            ["matrix", "--xbar=1"],
            ["features", "--ap", "2"],
            ["hierarchy"],
            ["mindist", "--", "-1"],
            ["dominance", "t.trees", "dominance"],
        ],
    )
    def test_rows(self, argv):
        self.assert_same_parse(argv)

    def test_argv_none_is_sys_argv(self, tree_file, monkeypatch, capsys):
        expected = (run(["ccommand", tree_file, "--nodes", "all"]), capsys.readouterr())
        monkeypatch.setattr(sys, "argv", ["ultratree", "ccommand", tree_file, "--nodes", "all"])
        assert (run(), capsys.readouterr()) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["dominance", "{file}"],
            ["ccommand", "{file}", "--nodes", "all"],
            ["cucommand", "{file}", "--nodes", "all"],
            ["govern", "{file}"],
            ["theorem", "{file}", "--nodes", "all"],
            ["matrix", "{file}"],
            ["check", "{file}"],
            ["randtest", "--seed", "1", "--trees", "5"],
        ],
    )
    def test_no_top_level_pass(self, argv, tree_file, monkeypatch, capsys):
        argv = [word.format(file=tree_file) for word in argv]
        expected = (run(argv), capsys.readouterr())

        def second_pass(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a subcommand's call")

        top = cli._parser()[0]
        monkeypatch.setattr(top, "parse_args", second_pass)
        monkeypatch.setattr(top, "parse_known_args", second_pass)
        assert (run(argv), capsys.readouterr()) == expected
        assert expected[0] in (0, 1) and expected[1].out


class TestEntryPoint:
    """``python -m ultratree`` runs main() in a process of its own."""

    @pytest.mark.parametrize("use_matrix", [False, True], ids=["tree", "matrix"])
    def test_module_matches_run(self, tree_file, printed_third, capsys, use_matrix):
        argv = ["check", "--matrix", printed_third] if use_matrix else ["check", tree_file]
        code = run(argv)
        out = capsys.readouterr().out
        child = fx.run_python("-m", "ultratree", *argv)
        assert (child.returncode, child.stdout) == (code, out)
        assert code == (1 if use_matrix else 0)

    def test_import_builds_no_parser(self):
        child = fx.run_python("-c", "import ultratree.cli as c; print(c._parser.cache_info().currsize)")
        assert (child.returncode, child.stdout) == (0, "0\n")

    def test_out_of_memory_exits_2(self, tmp_path):
        resource = pytest.importorskip("resource")

        def limit_memory():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

        # A 20,000-leaf right-branching chain: every matrix over it needs gigabytes.
        leaves = 20_000
        tree = tmp_path / "chain.txt"
        tree.write_text("(X (W w) " * (leaves - 1) + "(W w)" + ")" * (leaves - 1) + "\n")
        for argv in (
            ["matrix"], ["check"], ["triangles"], ["dominance"],
            ["ccommand", "--nodes", "all"], ["cucommand", "--nodes", "all"], ["govern"],
        ):
            child = fx.run_python("-m", "ultratree", argv[0], str(tree), *argv[1:], preexec_fn=limit_memory)
            assert (child.returncode, child.stdout, child.stderr) == (2, "", f"error: {argv[0]}: out of memory\n")

    def test_closed_stdout_exits_141_with_empty_stderr(self, tmp_path):
        tree = tmp_path / "t300"
        tree.write_text(INPUTS["t300"])
        command = fx.python_command("-m", "ultratree", "dominance", str(tree))
        env = fx.python_env(PYTHONUNBUFFERED="")  # empty is unset: stdout is block-buffered
        with open(tmp_path / "err", "wb") as err, subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=err, env=env
        ) as child:
            assert child.stdout.read(10)
            child.stdout.close()
            assert child.wait(timeout=60) == 141
        assert (tmp_path / "err").read_bytes() == b""


class TestStartup:
    """What ``import ultratree.cli`` loads, in an isolated interpreter.

    The tests above share one process, which other tests have filled with
    every module; a child started with ``-I -S`` sees only what the import
    itself loads.
    """

    HEAVY = [
        "dataclasses", "inspect", "typing", "csv", "importlib.resources",
        "ultratree.features", "ultratree.hierarchy",
    ]
    CORE = [
        "ultratree.trees", "ultratree.ultrametric", "ultratree.command", "ultratree.lexdist",
        "ultratree.matrix",
    ]
    CHILD = """
import io, json, sys
sys.path.insert(0, {src!r})
import ultratree.cli
report = {{"import": [m for m in {heavy!r} if m in sys.modules], "core": [m for m in {core!r} if m in sys.modules]}}
stdout, sys.stdout = sys.stdout, io.StringIO()
report["codes"] = [ultratree.cli.run(argv) for argv in {runs!r}]
sys.stdout = stdout
report["runs"] = [m for m in {heavy!r} if m in sys.modules]
print(json.dumps(report))
"""

    def test_import_loads_only_what_the_hot_subcommands_use(self, tree_file):
        runs = [
            ["check", tree_file], ["matrix", tree_file], ["complexity", tree_file],
            ["randtest", "--seed", "1", "--trees", "5"],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        code = self.CHILD.format(src=src, heavy=self.HEAVY, core=self.CORE, runs=runs)
        child = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (child.returncode, child.stderr) == (0, "")
        report = json.loads(child.stdout)
        assert report["import"] == [] and report["core"] == self.CORE
        assert report["codes"] == [0, 0, 0, 0]
        assert "dataclasses" not in report["runs"]

    # The package's names before its exports became lazy.
    ALL = """
        ACCESSIBILITY_HIERARCHY BadAritySpec BadMatrixDocument CategoryDistanceMatrix Chain
        ComplexityReport ConstraintViolation CuDomain CyclicOrder DEFAULT_CATEGORY_ORDER
        DEFAULT_FEATURE_ROWS DEFAULT_GOVERNOR_CATEGORIES Disagreement DistanceMatrix DuplicateVertex
        EmptyCorpus EmptyNode EmptyPolicy FeatureTable GovernorPolicy HeightMismatch LabeledMatrix
        MissingEntry MixedNode NoBranchingAncestor Node NonSquare ParseError PartialOrder PhraseTree
        RelationMatrix SignMatrix Strategy TooFewLabels TriangleClass TriangleKind UltratreeError
        UnbalancedBrackets UnknownCategory UnknownLabel UnknownNode Violation ViolationReport
        all_triangles assign_heights build_feature_matrix c_command c_command_matrix check_document
        check_downset check_language check_metric check_nested_pattern check_strategy
        check_ultrametric classify_triangle compare_feature_vs_ultrametric complexity cu_command
        cu_command_matrix cu_domain determinant disambiguate dominance_matrix dominates
        enumerate_binary_trees feature_distance first_branching_ancestor government_matrix governs
        is_switched lca leaf_matrix load_berlin_kay_order load_category_corpus matrix_rank
        min_distance_matrix parse_tree parse_tree_file parse_tree_lines pauli_assembly
        random_theorem_suite random_tree same_height_distance serialize_tree theorem_check
        theorem_report tree_category_minima xbar_template
    """.split()

    def test_star_import_binds_the_same_names(self):
        import ultratree

        namespace = {}
        exec("from ultratree import *", namespace)
        del namespace["__builtins__"]
        assert sorted(ultratree.__all__) == sorted(self.ALL) == sorted(namespace)
        assert set(self.ALL) <= set(dir(ultratree))
        for name, value in namespace.items():
            module = importlib.import_module(f"ultratree.{ultratree._EXPORTS[name]}")
            assert getattr(module, name) is value is getattr(ultratree, name)

    def test_submodules_and_unknown_names(self):
        import ultratree

        assert ultratree.hierarchy is importlib.import_module("ultratree.hierarchy")
        with pytest.raises(AttributeError, match="no_such_name"):
            ultratree.no_such_name

    def test_submodule_imported_on_first_use(self):
        # In a fresh interpreter the package has no hierarchy attribute yet,
        # so the name is resolved by the package's __getattr__.
        code = (
            "import sys, ultratree; before = 'ultratree.hierarchy' in sys.modules; "
            "print(before, ultratree.hierarchy is sys.modules['ultratree.hierarchy'])"
        )
        child = fx.run_python("-c", code)
        assert (child.returncode, child.stdout, child.stderr) == (0, "False True\n", "")


def test_command_table_covers_public_operations():
    covered = set()
    for operations in COMMAND_OPERATIONS.values():
        covered.update(operations)
    missing = SPEC_OPERATIONS - covered
    assert not missing, f"operations unreachable from the CLI: {sorted(missing)}"


def test_command_table_matches_parser():
    assert set(COMMAND_OPERATIONS) == set(cli._parser()[1])
