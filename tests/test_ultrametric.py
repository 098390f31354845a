"""Leaf matrices, axiom checks, triangle classification, and the template."""

import copy
import json
import pickle
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from ultratree import (
    DistanceMatrix,
    DuplicateVertex,
    NonSquare,
    PhraseTree,
    TooFewLabels,
    TriangleKind,
    UnknownLabel,
    Violation,
    ViolationReport,
    all_triangles,
    check_metric,
    check_ultrametric,
    classify_triangle,
    leaf_matrix,
    parse_tree,
    random_tree,
    xbar_template,
)
from ultratree import ultrametric
from ultratree.cli import _matrix_text, run
from ultratree.matrix import CODE_POINTS
from ultratree.ultrametric import _above, _check_axioms, _linkage, _prim

from . import helpers as fx


def matrix(entries, labels=fx.LABELS_AMJH):
    return DistanceMatrix(labels, entries)


class TestLeafMatrix:
    def test_balanced_tree(self):
        m = leaf_matrix(parse_tree(fx.TREE_FIRST))
        assert m.labels == fx.LABELS_AMJH
        assert m.entries == fx.MATRIX_FIRST

    def test_flat_four_ary(self):
        m = leaf_matrix(parse_tree(fx.TREE_EIGHTH))
        assert m.entries == fx.MATRIX_EIGHTH

    def test_single_pair(self):
        m = leaf_matrix(parse_tree("(X (A a) (B b))"))
        assert m.labels == ("a", "b")
        assert m.entries == ((0, 1), (1, 0))

    def test_corrected_shapes(self):
        third = leaf_matrix(parse_tree(fx.TREE_THIRD_CORRECTED))
        sixth = leaf_matrix(parse_tree(fx.TREE_SIXTH_CORRECTED))
        assert third.entries == fx.MATRIX_THIRD_CORRECTED
        assert sixth.entries == fx.MATRIX_SIXTH_CORRECTED

    def test_duplicate_words_suffixed(self):
        m = leaf_matrix(parse_tree("(S (X (D the) (N man)) (Y (D the) (N dog)))"))
        assert m.labels == ("the#1", "man", "the#2", "dog")
        assert m.entry("the#1", "the#2") == 2

    def test_rows_are_code_points_with_an_int_view(self):
        m = leaf_matrix(random_tree(1, 30, "mixed:4"))
        t = DistanceMatrix(m.labels, m.entries)
        assert {type(row) for row in m._rows} == {str} and {type(row) for row in t._rows} == {tuple}
        assert t.entries is t._rows  # tuple rows are their own view: no copy
        assert m.entries is m.entries and m.entries == tuple(tuple(map(ord, row)) for row in m._rows)
        assert m == t and t == m and hash(m) == hash(t) and repr(m) == repr(t)
        assert [m.entry(x, y) for x in m.labels for y in m.labels] == [t.entry(x, y) for x in t.labels for y in t.labels]
        fresh = leaf_matrix(random_tree(1, 30, "mixed:4"))
        for copied in (copy.copy(fresh), copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
            # Copies keep the code-point rows, and copying builds no int view on the original.
            assert {type(row) for row in copied._rows} == {str} and copied._entries is None and fresh._entries is None
            assert copied == m and hash(copied) == hash(m) and copied.entries == m.entries
        for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert copied.entries is copied._rows and copied == t
        assert len(pickle.dumps(fresh)) <= len(pickle.dumps(t))  # one form stored, not rows and view
        assert m.to_json_dict() == t.to_json_dict() and m.to_csv() == t.to_csv()
        assert _matrix_text(m) == _matrix_text(t) and m._texts(",") == t._texts(",")
        assert _check_axioms(fresh) == ([], []) and fresh._entries is None  # certified on its code points alone

    @pytest.mark.parametrize(
        "chain, kind",
        [
            # The root, one above the chain, is higher than any code point: tuple rows.
            (sys.maxunicode + 6, tuple),
            # The one leaf distance, 0xD805, is a lone surrogate, which no writer encodes.
            (0xD804, str),
        ],
    )
    def test_heights_past_code_points(self, tmp_path, capsys, chain, kind):
        text = "(X (W w) " + "(U " * chain + "(W v)" + ")" * chain + ")"
        m = leaf_matrix(parse_tree(text))
        assert type(m._rows[0]) is kind
        assert m == DistanceMatrix(("w", "v"), ((0, chain + 1), (chain + 1, 0)))
        assert check_metric(m).ok and check_ultrametric(m).ok
        path = tmp_path / "chain.trees"
        path.write_text(text + "\n")
        assert run(["matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.encode()) == [{"labels": ["w", "v"], "rows": [[0, chain + 1], [chain + 1, 0]]}]
        assert run(["matrix", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out.encode() == b",w,v\nw,0,%d\nv,%d,0\n" % (chain + 1, chain + 1)
        assert run(["check", str(path)]) == 0
        assert capsys.readouterr().out == "[]\n"

    def test_single_leaf(self):
        m = leaf_matrix(parse_tree("(N dog)"))
        assert m.labels == ("dog",) and m.entries == ((0,),)


class TestCheckMetric:
    def test_clean(self):
        assert check_metric(matrix(fx.MATRIX_FIRST)).ok

    def test_report_is_ok_only_with_both_lists_empty(self):
        fault = Violation("symmetry", (0, 1))
        assert ViolationReport().ok
        assert not ViolationReport(metric_violations=(fault,)).ok
        assert not ViolationReport(ultrametric_violations=(fault,)).ok

    def test_symmetry_violation(self):
        report = check_metric(DistanceMatrix(("a", "b"), ((0, 1), (2, 0))))
        assert [(v.axiom, v.indices) for v in report.metric_violations] == [
            ("symmetry", (0, 1))
        ]

    def test_triangle_violation(self):
        report = check_metric(
            DistanceMatrix(("a", "b", "c"), ((0, 5, 1), (5, 0, 1), (1, 1, 0)))
        )
        assert [(v.axiom, v.indices) for v in report.metric_violations] == [
            ("triangle_inequality", (0, 2, 1))
        ]

    def test_zero_diagonal_violation(self):
        report = check_metric(DistanceMatrix(("a", "b"), ((1, 2), (2, 0))))
        assert ("zero_diagonal", (0,)) in [
            (v.axiom, v.indices) for v in report.metric_violations
        ]

    def test_positivity_violation(self):
        report = check_metric(DistanceMatrix(("a", "b"), ((0, 0), (0, 0))))
        axioms = {(v.axiom, v.indices) for v in report.metric_violations}
        assert ("positivity", (0, 1)) in axioms and ("positivity", (1, 0)) in axioms

    def test_non_square_rejected_at_construction(self):
        with pytest.raises(NonSquare):
            DistanceMatrix(("a", "b"), ((0, 1),))
        with pytest.raises(NonSquare):
            DistanceMatrix(("a", "b"), ((0, 1, 2), (1, 0, 2)))


class TestCheckUltrametric:
    @pytest.mark.parametrize(
        "entries",
        [
            fx.MATRIX_FIRST,
            fx.MATRIX_SECOND,
            fx.MATRIX_THIRD_CORRECTED,
            fx.MATRIX_FOURTH,
            fx.MATRIX_FIFTH,
            fx.MATRIX_SIXTH_CORRECTED,
            fx.MATRIX_SEVENTH,
            fx.MATRIX_EIGHTH,
        ],
    )
    def test_tree_matrices_are_ultrametric(self, entries):
        assert check_ultrametric(matrix(entries)).ok

    def test_third_printed_single_violation(self):
        report = check_ultrametric(matrix(fx.MATRIX_THIRD_PRINTED))
        triples = [v.indices for v in report.ultrametric_violations]
        # one violating unordered triple: M, H with witness J
        assert triples == [(1, 2, 3)]

    def test_sixth_printed_two_violations(self):
        report = check_ultrametric(matrix(fx.MATRIX_SIXTH_PRINTED))
        triples = [v.indices for v in report.ultrametric_violations]
        # the far pair (A, H) with either intermediate M or J
        assert triples == [(0, 1, 3), (0, 2, 3)]

    def test_random_tree_matrices_pass_both_checks(self):
        # Every minimum-height leaf matrix is a genuine ultrametric.
        for seed in range(1000):
            tree = random_tree(seed, 2 + seed % 11, "mixed:4")
            m = leaf_matrix(tree)
            assert check_metric(m).ok
            assert check_ultrametric(m).ok


TREE_MATRICES = [
    leaf_matrix(PhraseTree.from_nested(nested))
    for count in range(1, 8)
    for nested in fx.all_tree_shapes(count)
] + [leaf_matrix(random_tree(seed, 2 + seed % 40, "mixed:4")) for seed in range(60)]


@st.composite
def random_matrices(draw):
    n = draw(st.integers(0, 9))
    cells = st.integers(-2, 6)
    rows = [[draw(cells) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
    return rows


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of 0-12 labels with a zero diagonal and entries
    from 0 to at most 4 off it, so ties and zeros are common."""
    n = draw(st.integers(0, 12))
    cells = st.integers(0, draw(st.integers(0, 4)))
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            rows[x][y] = rows[y][x] = draw(cells)
    return tuple(map(tuple, rows))


@st.composite
def perturbed_tree_matrices(draw, permuted=False):
    """A tree leaf matrix with 1-3 entries raised or lowered symmetrically;
    if ``permuted``, with its labels in a drawn order and 0-3 entries changed."""
    entries = draw(st.sampled_from(TREE_MATRICES)).entries
    order = draw(st.permutations(range(len(entries)))) if permuted else range(len(entries))
    rows = [[entries[x][y] for y in order] for x in order]
    n = len(rows)
    if n >= 2:
        for _ in range(draw(st.integers(0 if permuted else 1, 3))):
            x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            rows[x][y] = rows[y][x] = rows[x][y] + draw(st.sampled_from([-2, -1, 1, 2, 3]))
    return rows


class TestAxiomScanOracle:
    """The suspect-pair scans against the plain O(n^3) loop, in order."""

    @staticmethod
    def check(rows):
        labels = [f"l{i}" for i in range(len(rows))]
        metric, ultra = fx.brute_axiom_scan(rows)
        matrices = [DistanceMatrix(labels, rows)]
        if all(0 <= d <= sys.maxunicode for row in rows for d in row):  # also as leaf_matrix keeps rows
            matrices.append(fx.code_point_matrix(labels, rows))
        for m in matrices:
            assert check_metric(m).to_json_list() == [{"axiom": a, "indices": list(i)} for a, i in metric]
            assert check_ultrametric(m).to_json_list() == [{"axiom": a, "indices": list(i)} for a, i in ultra]

    @settings(max_examples=300, deadline=None)
    @given(random_matrices())
    # A negative entry: triangle violations such as (0, 2, 1), none ultrametric.
    @example([[0, 3, -1], [3, 0, 3], [-1, 3, 0]])
    # Asymmetric: the scan reads d(2, 1), below the diagonal.
    @example([[0, 2, 1], [2, 0, 5], [1, 1, 0]])
    # A non-zero diagonal entry, on an otherwise ultrametric matrix.
    @example([[0, 2, 2], [2, 1, 1], [2, 1, 0]])
    # A zero entry off the diagonal, above it only.
    @example([[0, 0, 2], [1, 0, 2], [2, 2, 0]])
    # A negative entry below the diagonal only: positivity, symmetry and
    # the full scan all come from the lower triangle.
    @example([[0, 2, 2], [2, 0, 2], [-1, 2, 0]])
    # Rows 0 and 2 fail positivity and nothing else; the matrix is
    # symmetric and not negative, so only its suspect pair (1, 3) is scanned.
    @example([[0, 3, 0, 1], [3, 0, 3, 5], [0, 3, 0, 1], [1, 5, 1, 0]])
    def test_random_matrices(self, rows):
        self.check(rows)

    @settings(max_examples=300, deadline=None)
    @given(perturbed_tree_matrices())
    def test_perturbed_tree_matrices(self, rows):
        self.check(rows)

    @settings(max_examples=300, deadline=None)
    @given(perturbed_tree_matrices(permuted=True))
    def test_permuted_tree_matrices(self, rows):
        # Labels out of leaf order: the own-order certificate fails, and
        # the suspect pairs come from Prim's order.
        self.check(rows)

    @pytest.mark.parametrize(
        "rows, metric",
        [
            ([], []),
            ([[0]], []),
            ([[2]], [("zero_diagonal", (0,))]),
            ([[0, 3], [3, 0]], []),
            ([[0, 0], [0, 0]], [("positivity", (0, 1)), ("positivity", (1, 0))]),
            ([[0, 1], [2, 0]], [("symmetry", (0, 1))]),
            # A zero step m[1][0]: no certificate in the own order, and
            # Prim's order finds no suspect pair.
            ([[0, 0, 2], [0, 0, 2], [2, 2, 0]], [("positivity", (0, 1)), ("positivity", (1, 0))]),
        ],
    )
    def test_small_matrices(self, rows, metric):
        m = DistanceMatrix([f"l{i}" for i in range(len(rows))], rows)
        assert _check_axioms(m) == (metric, [])
        self.check(rows)

    def test_guard_examples_report_violations(self):
        negative = DistanceMatrix("abc", [[0, 3, -1], [3, 0, 3], [-1, 3, 0]])
        triangles = [v.indices for v in check_metric(negative).metric_violations
                     if v.axiom == "triangle_inequality"]
        assert (0, 2, 1) in triangles
        assert check_ultrametric(negative).ok
        asymmetric = DistanceMatrix("abc", [[0, 2, 1], [2, 0, 5], [1, 1, 0]])
        assert [v.indices for v in check_ultrametric(asymmetric).ultrametric_violations] == [
            (0, 2, 1),
            (1, 0, 2),
        ]

    def test_tree_matrices_have_no_suspect_pairs(self):
        # Keeps the scans O(n^2) on every tree: none of them visits a pair.
        for m in TREE_MATRICES:
            assert _linkage(m.entries, m.size)[0] == []

    def test_tree_matrices_never_run_prim(self, monkeypatch, tmp_path, capsys):
        # Every leaf matrix is certified in its own label order, so check
        # on a tree takes O(n) Python steps and never searches for a
        # spanning tree.
        def no_prim(m, n):
            raise AssertionError("Prim's algorithm ran on a leaf matrix")

        monkeypatch.setattr(ultrametric, "_prim", no_prim)
        tree = random_tree(1, 300, "mixed:4")
        for m in [*TREE_MATRICES, leaf_matrix(tree)]:
            assert _check_axioms(m) == ([], [])
        # A non-zero diagonal entry is read off the diagonal; the suspect
        # pairs never read it.
        m = leaf_matrix(tree)
        rows = [list(row) for row in m.entries]
        rows[5][5] = 3
        assert _check_axioms(DistanceMatrix(m.labels, rows)) == ([("zero_diagonal", (5,))], [])
        path = tmp_path / "t300.trees"
        path.write_text(tree.to_bracketed() + "\n")
        assert run(["check", str(path)]) == 0
        assert capsys.readouterr().out == "[]\n"


class TestSingleLinkage:
    """Prim's order and attach weights against the minimax-path closure."""

    @settings(max_examples=300, deadline=None)
    @given(symmetric_matrices())
    @example(())
    @example(((0,),))
    @example(((0, 0, 2), (0, 0, 2), (2, 2, 0)))
    def test_prim_order_gives_the_subdominant_ultrametric(self, m):
        n = len(m)
        u = fx.minimax_closure(m)
        joins = list(_prim(m, n))
        order, weights = [0, *(y for y, _ in joins)][:n], [w for _, w in joins]
        assert sorted(order) == list(range(n))
        for j in range(n):
            for i in range(j):
                assert u[order[i]][order[j]] == max(weights[i:j])
        above = [(x, y) for x in range(n) for y in range(x + 1, n) if m[x][y] > u[x][y]]
        pairs, least = _linkage(m, n)
        assert pairs == above
        assert least == min([m[x][y] for x in range(n) for y in range(n) if x != y], default=1)
        # The own label order certifies exactly when no entry lies below
        # the largest step between its labels, and then it finds the same pairs.
        steps = [m[k][k - 1] for k in range(1, n)]
        below = any(m[i][j] < max(steps[i:j]) for j in range(n) for i in range(j))
        assert _above(m, zip(range(1, n), steps)) == (None if below else above)
        # Code-point rows give the same answers, read as they are.
        text = fx.code_point_matrix(range(n), m)._rows
        assert _linkage(text, n, CODE_POINTS) == (pairs, least)
        assert _above(text, zip(range(1, n), map(chr, steps)), CODE_POINTS) == (None if below else above)
        assert _above(text, ((y, chr(w)) for y, w in joins), CODE_POINTS) == above


class TestTriangles:
    def test_isosceles_with_base(self):
        cls = classify_triangle(matrix(fx.MATRIX_FIRST), "A", "M", "J")
        assert cls.kind is TriangleKind.ISOSCELES
        assert cls.sides == (1, 2, 2)
        assert cls.base == 1

    def test_equilateral(self):
        cls = classify_triangle(matrix(fx.MATRIX_EIGHTH), "A", "M", "J")
        assert cls.kind is TriangleKind.EQUILATERAL
        assert cls.sides == (1, 1, 1)
        assert cls.base is None

    def test_violating(self):
        cls = classify_triangle(matrix(fx.MATRIX_SIXTH_PRINTED), "A", "M", "H")
        assert cls.kind is TriangleKind.VIOLATING
        assert cls.sides == (1, 2, 3)

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            classify_triangle(matrix(fx.MATRIX_FIRST), "A", "A", "J")

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            classify_triangle(matrix(fx.MATRIX_FIRST), "A", "M", "Q")

    def test_all_triangles_eighth_all_equilateral(self):
        results = all_triangles(matrix(fx.MATRIX_EIGHTH))
        assert len(results) == 4
        assert all(cls.kind is TriangleKind.EQUILATERAL for _, cls in results)

    def test_all_triangles_first_all_isosceles(self):
        results = all_triangles(matrix(fx.MATRIX_FIRST))
        assert len(results) == 4
        assert all(cls.kind is TriangleKind.ISOSCELES for _, cls in results)

    def test_all_triangles_names_each_triple_once_in_order(self):
        m = leaf_matrix(random_tree(3, 9, "mixed:4"))
        found = all_triangles(m)
        assert [vertices for vertices, _ in found] == list(combinations(m.labels, 3))
        assert all(triangle == classify_triangle(m, *vertices) for vertices, triangle in found)

    def test_three_label_single_triple(self):
        m = DistanceMatrix(("a", "b", "c"), ((0, 1, 2), (1, 0, 2), (2, 2, 0)))
        results = all_triangles(m)
        assert len(results) == 1
        assert results[0][1].kind is TriangleKind.ISOSCELES

    def test_too_few_labels(self):
        with pytest.raises(TooFewLabels):
            all_triangles(DistanceMatrix(("a", "b"), ((0, 1), (1, 0))))

    def test_clean_matrices_never_violating(self):
        for seed in range(200):
            tree = random_tree(seed, 3 + seed % 9, "mixed:4")
            for _, cls in all_triangles(leaf_matrix(tree)):
                assert cls.kind is not TriangleKind.VIOLATING


class TestXbarTemplate:
    def test_base_case(self):
        m = xbar_template(0)
        assert m.labels == ("Spec", "X", "YP")
        assert m.entries == ((0, 2, 2), (2, 0, 1), (2, 1, 0))

    def test_next_level(self):
        m = xbar_template(1)
        assert (m.entry("Spec", "X"), m.entry("Spec", "YP"), m.entry("X", "YP")) == (
            3,
            3,
            2,
        )

    def test_affine_growth(self):
        base = xbar_template(0)
        for i in (1, 2, 5, 10):
            grown = xbar_template(i)
            for x in base.labels:
                for y in base.labels:
                    if x != y:
                        assert grown.entry(x, y) == base.entry(x, y) + i

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xbar_template(-1)
