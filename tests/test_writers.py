"""The CLI's JSON and CSV writers against the standard library's.

``cli._json_text`` must equal ``json.dumps(obj, indent=2)`` byte for byte,
matrix documents must equal ``json.dumps`` of ``to_json_dict()``, and the
``triangles`` output must equal ``json.dumps``/``csv`` of the record dicts
built from ``classify_triangle``, the ``check`` output those of the
violation dicts from the brute axiom scan, and the ``theorem`` and
``randtest`` output ``json.dumps`` of their report.  No subcommand may leave reference
cycles behind, so memory does not depend on when the collector runs.
"""

import contextlib
import csv
import gc
import io
import json
import os
import sys
import tempfile
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    CategoryDistanceMatrix,
    DistanceMatrix,
    LabeledMatrix,
    PhraseTree,
    RelationMatrix,
    SignMatrix,
    all_triangles,
    classify_triangle,
    leaf_matrix,
    parse_tree,
    random_theorem_suite,
    random_tree,
    theorem_report,
)
from ultratree.cli import _json_text, _matrices_text, _matrix_text, _triangle_text, run

from . import helpers as fx

# Text with quotes, backslashes, control characters, non-ASCII and lone
# surrogates, which json escapes.
TEXT = st.text(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", "\ud800", "a", " "])
    | st.characters(),
    max_size=6,
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
KEYS = TEXT | st.integers(-5, 5) | st.booleans() | st.none()
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(), max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=16,
)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(DOCUMENTS)
    def test_matches_json_dumps(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [
            [], {}, [[]], [{}], {"a": []}, {"a": {}}, True, False, None, -0, 10**30, "",
            [True, False, 1], [1, True], {"": None}, {1: "a", "1": "b"}, {True: 1, None: 2},
            (), (1, "a"), [float("nan"), float("inf"), -float("inf"), -0.0], {"x": [1.5, (2, [3])]},
            ["\ud800", '"', "\\", "\x00\n", "é😀"],
        ],
    )
    def test_edge_cases(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2)

    def test_nested_level(self):
        # A fallback value deep inside takes the indent of its place.
        obj = {"a": [1, {"b": (1, [2.5])}]}
        assert _json_text(obj) == json.dumps(obj, indent=2)
        assert _json_text([2.5, (1,)], level=2) == json.dumps([2.5, (1,)], indent=2).replace("\n", "\n    ")


# Entries of each matrix kind, as its public constructor takes them.
ENTRIES = {
    LabeledMatrix: SCALARS,
    DistanceMatrix: st.integers() | st.integers(-(10**40), 10**40) | st.sampled_from(fx.Level),
    RelationMatrix: st.sampled_from([0, 1, None, "x", "", True, False, 2]),
    SignMatrix: st.sampled_from([1, -1, fx.Level.ONE, fx.Level.MINUS]),
    CategoryDistanceMatrix: st.none() | st.integers(min_value=1) | st.sampled_from([fx.Level.ONE, fx.Level.HUGE]),
}

CODE_POINTS = st.integers(0, 20) | st.integers(0xD800, 0xDFFF) | st.integers(0, sys.maxunicode)


@st.composite
def any_matrices(draw):
    """A matrix of any kind with 0-7 labels; labels may hold quotes,
    backslashes, non-ASCII and lone surrogates.  A distance matrix may keep
    code-point rows, as ``leaf_matrix`` makes them, surrogates included."""
    kind = draw(st.sampled_from([*ENTRIES, fx.code_point_matrix]))
    n = draw(st.integers(0, 7))
    labels = draw(st.lists(TEXT, min_size=n, max_size=n, unique=True))
    rows = [draw(st.lists(ENTRIES.get(kind, CODE_POINTS), min_size=n, max_size=n)) for _ in range(n)]
    return kind(labels, rows)


def emitted(matrices, single: bool) -> str:
    """The JSON text as run() writes it: a JSON text never ends in a newline."""
    return _matrices_text(matrices, "json", single=single) + "\n"


class TestMatrixText:
    @settings(max_examples=400, deadline=None)
    @given(any_matrices(), st.integers(0, 3))
    def test_matches_json_dumps(self, matrix, level):
        expected = json.dumps(matrix.to_json_dict(), indent=2).replace("\n", "\n" + "  " * level)
        assert _matrix_text(matrix, level) == expected

    @settings(max_examples=400, deadline=None)
    @given(any_matrices(), st.sampled_from([",", ",\n      ", ""]))
    def test_row_text_is_the_joined_cells(self, matrix, sep):
        texts = matrix._texts(sep)
        if texts is None:  # the base kind writes through to_json_dict
            return
        assert texts == [sep.join(map(json.dumps, values)) for values in matrix.to_json_dict()["rows"]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(any_matrices(), max_size=3))
    def test_single_and_list_forms(self, matrices):
        documents = [m.to_json_dict() for m in matrices]
        assert emitted(matrices, single=False) == json.dumps(documents, indent=2) + "\n"
        if matrices:
            assert emitted(matrices, single=True) == json.dumps(documents[0], indent=2) + "\n"

    def test_empty(self):
        assert emitted([], single=False) == "[]\n"
        for kind in ENTRIES:
            empty = kind([], [])
            assert emitted([empty], single=True) == json.dumps(empty.to_json_dict(), indent=2) + "\n"
            assert emitted([empty], single=False) == json.dumps([empty.to_json_dict()], indent=2) + "\n"

    @pytest.mark.parametrize(
        "matrix",
        [
            DistanceMatrix(("a", 'b"'), ((0, -3), (10**40, fx.Level.HUGE))),
            RelationMatrix(("a", "b\\"), ((1, None), ("x", 0))),
            SignMatrix(("a", "b"), ((1, fx.Level.MINUS), (-1, fx.Level.ONE))),
            CategoryDistanceMatrix(("é", "\ud800"), ((None, 1), (fx.Level.ONE, None))),
        ],
    )
    def test_fixed_kinds_skip_to_json_dict(self, monkeypatch, matrix):
        expected = json.dumps([matrix.to_json_dict()] * 2, indent=2) + "\n"
        monkeypatch.setattr(LabeledMatrix, "to_json_dict", None)
        assert emitted([matrix, matrix], single=False) == expected


def reference_matrix_csv(matrix) -> str:
    """The CSV document as ``csv`` wrote it from each kind's CSV value: a
    relation as 0/1, an absent category distance as an empty cell, any other
    int as its digits; the base class's entries as they are."""
    rows = [["", *matrix.labels]]
    for label, row in zip(matrix.labels, matrix.entries):
        if type(matrix) is not LabeledMatrix:
            row = ["" if v is None else int.__repr__(int(v)) for v in row]
        rows.append([label, *row])
    return fx.reference_csv_text(rows)


class TestMatrixCsv:
    @settings(max_examples=400, deadline=None)
    @given(any_matrices())
    def test_matches_csv_writer(self, matrix):
        assert matrix.to_csv() == reference_matrix_csv(matrix)

    @given(st.lists(any_matrices(), max_size=3))
    def test_documents_joined_by_blank_line(self, matrices):
        # Every document ends in a newline, so run() adds none.
        assert _matrices_text(matrices, "csv") == "\n".join(map(reference_matrix_csv, matrices))

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb", ""])
    @pytest.mark.parametrize("kind", [DistanceMatrix, fx.code_point_matrix])
    def test_labels_that_need_quoting(self, label, kind):
        # Only a label ever needs quoting.  A lone "\r" is quoted on every
        # Python version, so csv.reader reads every label back.  An empty
        # label is quoted only where it stands alone, as the header of a
        # matrix without labels does.
        matrix, alone = kind((label, "x"), ((0, 3), (3, 0))), kind((label,), ((0,),))
        assert matrix.to_csv() == reference_matrix_csv(matrix) and alone.to_csv() == reference_matrix_csv(alone)
        quoted = {"a,b": '"a,b"', 'a"b': '"a""b"', "a\rb": '"a\rb"', "a\nb": '"a\nb"', "": ""}[label]
        assert matrix.to_csv() == f",{quoted},x\n{quoted},0,3\nx,3,0\n"
        assert alone.to_csv() == f",{quoted}\n{quoted},0\n"
        assert [row[0] for row in csv.reader(io.StringIO(matrix.to_csv(), newline=""))] == ["", label, "x"]
        assert kind((), ()).to_csv() == '""\n'

    def test_entry_texts(self):
        assert RelationMatrix(("a", "b"), ((1, 0), (True, None))).to_csv() == ",a,b\na,1,0\nb,1,0\n"
        categories = CategoryDistanceMatrix(("N", "V"), ((None, fx.Level.ONE), (2, None)))
        assert categories.to_csv() == ",N,V\nN,,1\nV,2,\n"
        assert SignMatrix(("a",), ((fx.Level.MINUS,),)).to_csv() == ",a\na,-1\n"
        assert LabeledMatrix(("a", "b"), ((None, 1.5), ("x,y", True))).to_csv() == ',a,b\na,,1.5\nb,"x,y",True\n'


def reference_records(matrices) -> list[dict]:
    """The triangle records as the CLI built them from classify_triangle."""
    return [
        {"tree": tree, "vertices": [x, y, z], **classify_triangle(matrix, x, y, z).to_json_dict()}
        for tree, matrix in enumerate(matrices)
        for x, y, z in combinations(matrix.labels, 3)
    ]


def reference_csv(records: list[dict]) -> str:
    return fx.reference_csv_text(
        [["tree", "vertices", "kind", "sides", "base"]]
        + [
            [
                r["tree"],
                " ".join(r["vertices"]),
                r["kind"],
                "%d %d %d" % tuple(r["sides"]),
                "" if r["base"] is None else "%d" % r["base"],
            ]
            for r in records
        ]
    )


# Labels as a matrix document may hold them: any text without a lone
# surrogate, including quotes, commas, spaces and newlines.
LABELS = st.text(
    st.sampled_from(['"', ",", " ", "\n", "\\", "é", "😀", "a", "b"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=4,
)


@st.composite
def distance_matrices(draw, min_size: int = 0, max_size: int = 6):
    """Small matrices whose entries repeat often, so every kind appears;
    some are negative, asymmetric or have a nonzero diagonal, and some
    entries are ``Level`` members, which must be written as the ints they
    equal."""
    n = draw(st.integers(min_size, max_size))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    values = st.integers(-2, 3) | st.integers(-(10**20), 10**20) | st.sampled_from(fx.Level)
    rows = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n)]
    return DistanceMatrix(labels, rows)


class TestTriangleText:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(distance_matrices(), max_size=4))
    def test_matches_record_dicts(self, matrices):
        records = reference_records(matrices)
        assert _triangle_text(matrices, "json") == json.dumps(records, indent=2)
        assert _triangle_text(matrices, "csv") == reference_csv(records)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(distance_matrices(3, 12), min_size=2, max_size=3))
    def test_larger_matrices(self, matrices):
        # Every matrix has triangles, so heads carry tree indices above 0,
        # with first labels up to the tenth and a run of up to ten thirds.
        records = reference_records(matrices)
        assert {r["tree"] for r in records} == set(range(len(matrices)))
        assert _triangle_text(matrices, "json") == json.dumps(records, indent=2)
        assert _triangle_text(matrices, "csv") == reference_csv(records)

    def test_every_kind_is_written(self):
        matrices = [
            DistanceMatrix(("a", 'b"', "c,d"), ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
            DistanceMatrix(("x", "y", "z"), ((0, 1, 2), (1, 0, 2), (2, 2, 0))),
            DistanceMatrix(("p", "q", "r"), ((0, -1, 3), (5, 0, 2), (3, 2, 0))),
            DistanceMatrix(("u", "v"), ((0, 1), (1, 0))),
        ]
        records = reference_records(matrices)
        assert [r["kind"] for r in records] == ["equilateral", "isosceles", "violating"]
        assert _triangle_text(matrices, "json") == json.dumps(records, indent=2)
        assert _triangle_text(matrices, "csv") == reference_csv(records)

    def test_no_triangles(self):
        assert _triangle_text([], "json") == "[]"
        assert _triangle_text([DistanceMatrix(("a",), ((0,),))], "csv") == "tree,vertices,kind,sides,base\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 9)), min_size=1, max_size=3))
    def test_tree_matrices(self, shapes):
        matrices = [leaf_matrix(random_tree(seed, leaves, "mixed:4")) for seed, leaves in shapes]
        records = reference_records(matrices)
        assert _triangle_text(matrices, "json") == json.dumps(records, indent=2)
        assert _triangle_text(matrices, "csv") == reference_csv(records)

    @settings(max_examples=100, deadline=None)
    @given(distance_matrices(), st.lists(st.permutations(range(6)), min_size=1, max_size=3), st.data())
    def test_matrices_sharing_side_triples(self, matrix, orders, data):
        # Each copy reorders the first matrix and swaps some entries for the
        # Level members they equal, so its triples repeat earlier side
        # triples under another tree index, in other types and orders.
        as_level = {int(level): level for level in fx.Level}
        matrices = [matrix]
        for order in orders:
            order = [i for i in order if i < matrix.size]
            entry = (lambda d: as_level.get(d, d)) if data.draw(st.booleans()) else (lambda d: d)
            rows = [[entry(matrix.entries[x][y]) for y in order] for x in order]
            matrices.append(DistanceMatrix([matrix.labels[i] for i in order], rows))
        records = reference_records(matrices)
        assert _triangle_text(matrices, "json") == json.dumps(records, indent=2)
        assert _triangle_text(matrices, "csv") == reference_csv(records)


class TestAllTriangles:
    @settings(max_examples=200, deadline=None)
    @given(distance_matrices())
    def test_matches_classify_triangle(self, matrix):
        if matrix.size < 3:
            return
        assert all_triangles(matrix) == [
            ((x, y, z), classify_triangle(matrix, x, y, z)) for x, y, z in combinations(matrix.labels, 3)
        ]

    @settings(max_examples=200, deadline=None)
    @given(distance_matrices())
    def test_sides_are_plain_ints(self, matrix):
        # Equal entries share a class whatever their type (1 and Level.ONE),
        # so both functions write sides and base as plain ints.
        if matrix.size < 3:
            return
        for (x, y, z), cls in all_triangles(matrix):
            assert {type(side) for side in cls.sides} | {type(cls.base)} <= {int, type(None)}
            assert repr(cls) == repr(classify_triangle(matrix, x, y, z))

    def test_one_record_per_side_triple(self):
        # Triples with the same sides in matrix order share one immutable
        # TriangleClass; Level.ONE and 1 are the same side.
        one = fx.Level.ONE
        rows = [[0, one, 2, 2, 5], [1, 0, 2, 2, 3], [2, 2, 0, 1, 3], [2, 2, one, 0, 2], [5, 3, 3, 2, 0]]
        matrix = DistanceMatrix(tuple("abcde"), rows)
        triangles = all_triangles(matrix)
        keys = {(rows[x][y], rows[x][z], rows[y][z]) for x, y, z in combinations(range(5), 3)}
        assert {cls.kind.value for _, cls in triangles} == {"isosceles", "violating"}
        assert len({id(cls) for _, cls in triangles}) == len(keys) < len(triangles)
        assert [repr(cls) for _, cls in triangles] == [repr(classify_triangle(matrix, *t)) for t, _ in triangles]


def reference_check(matrices, trees: bool) -> tuple[str, str]:
    """``check``'s JSON and CSV stdout as the CLI built it from one dict
    per violation: the tree's index, the axiom and the indices, with the
    tree left out of the JSON of a --matrix check."""
    records = [
        {"tree": tree, "axiom": axiom, "indices": list(indices)}
        for tree, matrix in enumerate(matrices)
        for part in fx.brute_axiom_scan(matrix.entries)
        for axiom, indices in part
    ]
    csv_text = fx.reference_csv_text(
        [["tree", "axiom", "indices"]]
        + [[r["tree"], r["axiom"], " ".join(map(str, r["indices"]))] for r in records]
    )
    if not trees:
        for record in records:
            del record["tree"]
    return json.dumps(records, indent=2) + "\n", csv_text


def check_run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


class TestCheckText:
    @settings(max_examples=200, deadline=None)
    @given(distance_matrices())
    def test_matrix_document(self, matrix):
        json_text, csv_text = reference_check([matrix], trees=False)
        code = 0 if json_text == "[]\n" else 1
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "matrix.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(matrix.to_json_dict(), handle)
            assert check_run(["check", "--matrix", path]) == (code, json_text)
            assert check_run(["check", "--matrix", path, "--format", "csv"]) == (code, csv_text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(distance_matrices(), max_size=4))
    def test_tree_file(self, matrices):
        # A tree's leaf matrix passes every check, so each tree's matrix is
        # replaced by an arbitrary one to reach the records that name a tree.
        json_text, csv_text = reference_check(matrices, trees=True)
        code = 0 if json_text == "[]\n" else 1
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trees.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("(X (A a) (B b))\n" * len(matrices))
            for fmt, text in (("json", json_text), ("csv", csv_text)):
                with mock.patch("ultratree.cli.leaf_matrix", side_effect=matrices):
                    assert check_run(["check", path, "--format", fmt]) == (code, text)

    def test_no_violations(self, tmp_path):
        trees = tmp_path / "trees.txt"
        trees.write_text(f"{fx.TREE_FIRST}\n{fx.TREE_SEVENTH}\n")
        ultrametric = tmp_path / "matrix.json"
        ultrametric.write_text(json.dumps({"labels": list(fx.LABELS_AMJH), "rows": fx.MATRIX_FIRST}))
        for argv in (["check", str(trees)], ["check", "--matrix", str(ultrametric)]):
            assert check_run(argv) == (0, "[]\n")
            assert check_run([*argv, "--format", "csv"]) == (0, "tree,axiom,indices\n")


# Tokens json escapes, and ones disambiguate must rename: a repeated word or
# label, or a label#k that is also a word or label.
TOKENS = st.text(st.sampled_from(['"', "\\", "é", "😀", "\x00", "\x7f", "#", "1", "X", "W"]), min_size=1, max_size=3)


@st.composite
def relabelled_trees(draw):
    """A random tree's shape, every label and word drawn from TOKENS."""
    shape = random_tree(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 9)), draw(st.sampled_from(["binary", "mixed:4"])))
    labels = draw(st.lists(TOKENS, min_size=len(shape), max_size=len(shape)))
    words = [word and draw(TOKENS) for word in shape._word]
    return PhraseTree(list(zip(labels, words, shape._up)))


def theorem_run(lines: list[str], nodes: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trees.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        return check_run(["theorem", path, "--nodes", nodes])


class TestTheoremText:
    """``theorem`` and ``randtest`` write each disagreement from one template:
    their text must be json.dumps of the report dict, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(relabelled_trees(), max_size=4), st.sampled_from(["leaves", "all"]))
    def test_tree_file(self, trees, nodes):
        report = theorem_report(trees, nodes=nodes)
        expected = (1 if report["disagreements"] else 0, json.dumps(report, indent=2) + "\n")
        assert theorem_run([t.to_bracketed() for t in trees], nodes) == expected

    @pytest.mark.parametrize(
        "lines, nodes",
        [
            (["# comments only", "", "#"], "all"),  # trees_tested 0
            (["(S (A a) (B b))", "(X (W a) (X (W b) (W c)))"], "all"),  # no disagreement
            (['(X (X (W X)) (X ("é\\ w2) (X (W X#1))))'], "all"),  # a word among the labels
            (["(X (X (W X)) (X (W w2) (X (W w3))))"], "leaves"),
        ],
    )
    def test_edge_files(self, lines, nodes):
        trees = [parse_tree(line) for line in lines if line and not line.startswith("#")]
        report = theorem_report(trees, nodes=nodes)
        expected = (1 if report["disagreements"] else 0, json.dumps(report, indent=2) + "\n")
        assert theorem_run(lines, nodes) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        trees=st.integers(0, 15),
        max_leaves=st.integers(1, 12),
        arity=st.sampled_from(["binary", "mixed:4", "mixed:9"]),
        nodes=st.sampled_from(["leaves", "all"]),
    )
    def test_randtest(self, seed, trees, max_leaves, arity, nodes):
        report = random_theorem_suite(seed, trees, max_leaves, arity, nodes=nodes)
        code = 1 if report["disagreements"] else 0
        with tempfile.TemporaryDirectory() as directory:
            out = os.path.join(directory, "found.json")
            argv = ["randtest", "--seed", str(seed), "--trees", str(trees), "--max-leaves", str(max_leaves)]
            argv += ["--arity", arity, "--nodes", nodes, "--counterexamples", out]
            assert check_run(argv) == (code, json.dumps(report, indent=2) + "\n")
            with open(out, encoding="utf-8") as handle:
                assert handle.read() == json.dumps(report["disagreements"], indent=2)


@pytest.fixture()
def inputs(tmp_path):
    """Paths of a tree file, a distance matrix, a category matrix and two
    hierarchy documents."""
    paths = {
        "trees": f"{fx.TREE_FIRST}\n(X (A a) (B b))\n",
        "matrix": json.dumps({"labels": ["a", "b", "c", "d"], "rows": [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 5], [2, 2, 5, 0]]}),
        "categories": json.dumps(
            {
                "labels": ["N", "V", "A", "P"],
                "rows": [[None, 2, 3, 4], [2, None, 3, 4], [3, 3, None, 4], [4, 4, 4, None]],
            }
        ),
        "language": json.dumps({"kind": "language", "strategies": [{"covered": ["SU", "DO"], "primary": True}]}),
        "downset": json.dumps(
            {"kind": "downset", "order": {"nodes": ["a", "b"], "edges": [["a", "b"]]}, "inventory": ["a"]}
        ),
    }
    for name, text in paths.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    paths["out"] = str(tmp_path / "counterexamples.json")
    return paths


# Every subcommand form that exits 0 or 1; {name} is an input path.
FORMS = [
    "matrix {trees}", "matrix {trees} --format csv", "matrix --xbar", "matrix --xbar --i 2 --format csv",
    "check {trees}", "check --matrix {matrix}", "check --matrix {matrix} --format csv",
    "triangles {trees}", "triangles --matrix {matrix}", "triangles --xbar", "triangles {trees} --format csv",
    "dominance {trees}", "dominance {trees} --format csv",
    "ccommand {trees}", "ccommand {trees} --nodes all --format csv",
    "cucommand {trees} --nodes all", "govern {trees}", "govern {trees} --format csv",
    "theorem {trees}", "theorem {trees} --nodes all",
    "mindist", "mindist {trees}", "mindist --format csv", "mindist --i 0", "mindist --order N,V,A,P --i 1",
    "complexity {trees}", "complexity {trees} --bound 1 --format csv",
    "features", "features --ap 1", "features --matrix {categories}",
    "hierarchy {language}", "hierarchy {downset}",
    "randtest --seed 3 --trees 20", "randtest --seed 3 --trees 20 --nodes all --counterexamples {out}",
    "randtest --seed 0 --exhaustive-leaves 4 --nodes all",
]


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("form", FORMS)
    def test_run_leaves_no_cycles(self, inputs, capsys, form):
        argv = form.format(**inputs).split()
        code = run(argv)  # first call: the parser and any lazy state are built
        assert code in (0, 1)
        gc.disable()
        try:
            gc.collect()
            assert run(argv) == code
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


class TestCounterexamplesFile:
    def test_same_bytes_as_json_dump(self, inputs, capsys):
        assert run(["randtest", "--seed", "3", "--trees", "20", "--nodes", "all", "--counterexamples", inputs["out"]]) == 1
        report = json.loads(capsys.readouterr().out)
        with open(inputs["out"], encoding="utf-8") as handle:
            written = handle.read()
        assert report["disagreements"]
        assert written == json.dumps(report["disagreements"], indent=2)
