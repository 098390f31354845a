"""Leaf distance matrices, metric/ultrametric axiom checks, and triangles.

The distance between two leaves is the minimum branching height of their
lowest common ancestor.  Matrices built this way are always ultrametric:
every triangle is isosceles (small base, two equal long sides) or
equilateral, and strictly binary branching rules the equilateral case out.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import accumulate, repeat
from operator import itemgetter, lt

from .errors import DuplicateVertex, TooFewLabels, UltratreeError, _Record, _set
from .matrix import TUPLES, DistanceMatrix
from .trees import PhraseTree

AXIOM_ZERO_DIAGONAL = "zero_diagonal"
AXIOM_POSITIVITY = "positivity"
AXIOM_SYMMETRY = "symmetry"
AXIOM_TRIANGLE = "triangle_inequality"
AXIOM_ULTRAMETRIC = "ultrametric"


class Violation(_Record):
    """One failed axiom instance; indices point into the matrix labels."""

    __slots__ = _fields = ("axiom", "indices")

    def __init__(self, axiom: str, indices: tuple[int, ...]):
        _set(self, "axiom", axiom)
        _set(self, "indices", indices)

    def to_json_dict(self) -> dict:
        return {"axiom": self.axiom, "indices": list(self.indices)}


class ViolationReport(_Record):
    __slots__ = _fields = ("metric_violations", "ultrametric_violations")

    def __init__(
        self,
        metric_violations: tuple[Violation, ...] = (),
        ultrametric_violations: tuple[Violation, ...] = (),
    ):
        _set(self, "metric_violations", metric_violations)
        _set(self, "ultrametric_violations", ultrametric_violations)

    @property
    def ok(self) -> bool:
        return not self.metric_violations and not self.ultrametric_violations

    def to_json_list(self) -> list[dict]:
        return [
            v.to_json_dict()
            for v in (*self.metric_violations, *self.ultrametric_violations)
        ]


class TriangleKind(str, Enum):
    EQUILATERAL = "equilateral"
    ISOSCELES = "isosceles"
    VIOLATING = "violating"


class TriangleClass(_Record):
    """Classified triangle: sides sorted ascending, base set when isosceles."""

    __slots__ = _fields = ("kind", "sides", "base")

    def __init__(self, kind: TriangleKind, sides: tuple[int, int, int], base: int | None = None):
        _set(self, "kind", kind)
        _set(self, "sides", sides)
        _set(self, "base", base)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "sides": list(self.sides), "base": self.base}


def _leaf_rows(tree: PhraseTree, cells, zero) -> list:
    """Each leaf's row, left to right: ``before + zero + after``, where ``cells(h)`` gives a distance h's cell as
    written before the zero and as written after it.  One preorder pass gives each node the cells before and after
    its leaf span: its parent's, extended by the parent's cells over the parent's other children, so a unary node's
    are its parent's.  Only nodes with children left to visit keep theirs, on a stack.  O(N) Python steps over N
    nodes, O(N·n) copying."""
    end, height, words = tree._end, tree._height, tree._word
    rank = [*accumulate([word is not None for word in words], initial=0)]  # leaves before each position
    empty = zero[:0]
    stack, rows = [(empty, empty, empty, empty, 0, rank[-1], len(words))], []  # the root's parent adds no cell
    for q, arity in enumerate(tree._arity):
        frame = before, after, lead, trail, lo, hi, stop = stack.pop()  # q's parent's cells, span and end
        if end[q] < stop:
            stack.append(frame)  # for q's next sibling
        before, after = before + lead * (rank[q] - lo), trail * (hi - rank[end[q]]) + after
        if arity:
            stack.append((before, after, *cells(height[q]), rank[q], rank[end[q]], end[q]))
        else:
            rows.append(before + zero + after)
    return rows


def leaf_matrix(tree: PhraseTree) -> DistanceMatrix:
    """Pairwise leaf distances: entry(x, y) is the height of lca(x, y).

    Labels are the leaf words in left-to-right order; duplicated words get a
    positional ``#k`` suffix so the matrix stays well defined for sentences
    with repeated words.  The rows come from ``_leaf_rows``'s before/after pass with a code point per cell, a
    ``str`` whose code points are the distances (tuples if the root is above ``sys.maxunicode``), in O(N) Python
    steps over N nodes and O(N·n) byte copying.  The matrix is made from those rows; only its labels are checked.
    """
    unit = chr if tree._height[0] <= 0x10FFFF else lambda h: (h,)  # a row of one entry; 0x10FFFF is sys.maxunicode
    rows = _leaf_rows(tree, lambda h: (unit(h),) * 2, unit(0))
    return DistanceMatrix._made(tree.leaf_labels(), tuple(rows))


def _above(m, joins, form=TUPLES) -> list[tuple[int, int]] | None:
    """Pairs ``(x, y)``, x < y, ascending, whose entry is above v, or None once
    one is below v.  Vertex 0, then each ``(vertex, weight)`` of ``joins``,
    joins in turn; v between the i-th and j-th is the largest weight in (i, j].
    Each row of v, in m's row ``form`` and read back from its vertex, extends the last by a bisection
    and a slice and meets the vertex's row at C speed: O(n) Python steps, O(n) more per row above v."""
    join, back, v, above, in_order = form.row, [0], form.row(()), [], True  # back: the vertices joined, last first
    for y, w in joins:
        j = len(back)
        k = bisect_right(v, w)  # v rises back along the join order; raise its head to w
        v = join((w,)) * (k + 1) + v[k:]
        mine = m[y][j - 1 :: -1] if in_order else join(itemgetter(*back)(m[y]))
        if mine != v:
            if any(map(lt, mine, v)):
                return None
            above += [(min(x, y), max(x, y)) for x, a, b in zip(back, mine, v) if a != b]
        in_order = in_order and y == j
        back.insert(0, y)
    return sorted(above)


def _prim(m, n: int):
    """Yield ``(vertex, weight)`` as Prim's algorithm, from vertex 0, attaches
    each vertex of ``m`` at its least entry to the vertices attached before."""
    left, best = list(range(1, n)), list(m[0][1:] if n else ())
    while left:
        i = best.index(min(best))
        y, w = left.pop(i), best.pop(i)
        yield y, w
        row = m[y]
        for k, x in enumerate(left):
            if row[x] < best[k]:
                best[k] = row[x]


def _linkage(m, n: int, form=TUPLES) -> tuple[list[tuple[int, int]], int]:
    """Single linkage of the symmetric ``m``: the pairs ``(x, y)``, x < y,
    ascending, above its subdominant ultrametric u (Gower & Ross 1969), the
    only ones that can be the long side of a violating triple, and its least
    join weight (1 if n < 2), which is the least entry off the diagonal.
    The own label order is tried if its steps ``m[k][k-1]`` are positive: u is
    at most the largest step in (i, j], and equal to it if ``_above`` certifies
    the order, as for a tree's leaves: O(n) Python steps, O(n^2) compares at
    C speed.  Else Prim's order, always certified, costs O(n^2) Python steps."""
    steps = [m[k][k - 1] for k in range(1, n)]
    least = form.number(min(steps)) if steps else 1
    pairs = _above(m, zip(range(1, n), steps), form) if least > 0 else None
    if pairs is None:
        joins = [*_prim(m, n)]
        pairs, least = _above(m, joins, form), form.number(min(map(itemgetter(1), joins))) if joins else 1
    return pairs, least


def _check_axioms(matrix: DistanceMatrix) -> tuple[list, list]:
    """Every failed axiom of ``matrix`` as ``(axiom, indices)`` pairs: the
    metric list (zero diagonal, positivity, symmetry, triangle) and the
    ultrametric list, each in report order.

    A symmetric matrix (its columns equal its rows) gets its suspect pairs
    and least entry off the diagonal from ``_linkage``.  Its entries are read
    one by one, as ints, only if that entry is not positive, and every pair is
    suspect only if it is negative; an asymmetric matrix gets both.  Each
    suspect pair (x, y) costs one scan over z per inequality.
    """
    m, n, form = matrix._rows, matrix.size, matrix._form
    columns = form.columns(m, n)
    pairs, least = _linkage(m, n, form) if columns == m else ([], -1)  # asymmetric: read as if negative
    diagonal = [(AXIOM_ZERO_DIAGONAL, (x,)) for x, row in enumerate(m) if row[x] != form.zero]
    if (pairs or least <= 0) and m is not matrix.entries:  # entries to read one by one, as ints
        m, columns = matrix.entries, tuple(zip(*matrix.entries))
    positivity, symmetry, triangle, ultrametric = [], [], [], []
    if least <= 0:
        for x, row, column in zip(range(n), m, columns):
            positivity += [(AXIOM_POSITIVITY, (x, y)) for y, d in enumerate(row) if d <= 0 and y != x]
            symmetry += [(AXIOM_SYMMETRY, (x, y)) for y in range(x + 1, n) if row[y] != column[y]]
    if least < 0:
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    for x, y in pairs:
        row, column = m[x], columns[y]
        d = row[y]
        # z = x or y fails the triangle only through a negative diagonal
        # entry, and never the ultrametric test: d itself is a side there.
        sides = [*zip(range(n), row, column)]
        triangle += [(AXIOM_TRIANGLE, (x, z, y)) for z, a, b in sides if d > a + b and z != x and z != y]
        ultrametric += [(AXIOM_ULTRAMETRIC, (x, z, y)) for z, a, b in sides if d > a and d > b]
    return diagonal + positivity + symmetry + triangle, ultrametric


def check_metric(matrix: DistanceMatrix) -> ViolationReport:
    """Scan the four measure axioms: zero diagonal, positivity, symmetry, triangle.

    The triangle scan reports canonical triples ``(x, z, y)`` with x < y and
    ``d(x,y) > d(x,z) + d(z,y)``, visiting only the k suspect pairs (x, y).
    It costs O(n) Python steps, O(n^2) compares at C speed and O(k*n) when
    the label order keeps every single-linkage cluster contiguous (every leaf
    matrix), and Prim's O(n^2) steps otherwise.  Entries are read one by one
    for positivity and symmetry only when one off the diagonal is 0 or less
    or the matrix is asymmetric, and a negative or asymmetric matrix gets the
    full O(n^3) scan.  A leaf matrix's certificate copies and compares its code-point rows as bytes.
    """
    metric, _ = _check_axioms(matrix)
    return ViolationReport(metric_violations=tuple([Violation(*v) for v in metric]))


def check_ultrametric(matrix: DistanceMatrix) -> ViolationReport:
    """Scan the strengthened triangle condition d(x,y) <= max(d(x,z), d(z,y)).

    Every violating canonical triple ``(x, z, y)`` with x < y is listed; an
    empty report certifies the matrix ultrametric.  One pass finds both this
    and ``check_metric``'s report, at the cost stated there.
    """
    _, ultrametric = _check_axioms(matrix)
    return ViolationReport(ultrametric_violations=tuple([Violation(*v) for v in ultrametric]))


def classify_triangle(matrix: DistanceMatrix, x: str, y: str, z: str) -> TriangleClass:
    """Classify the triangle on three distinct labels.

    Equilateral: all sides equal.  Isosceles: the two largest sides equal and
    a strictly smaller base.  Violating: the two largest sides differ, which
    cannot happen in a true ultrametric.  Sides and base are plain ints.
    """
    if len({x, y, z}) != 3:
        raise DuplicateVertex(f"triangle vertices must be distinct, got {(x, y, z)}")
    return _TriangleClasses(_triangle_class)[matrix.entry(x, y), matrix.entry(x, z), matrix.entry(y, z)]


def _triangle_class(kind: str, *sides) -> TriangleClass:
    sides = (*map(int, sides),)  # an IntEnum entry reads as the int it equals
    return TriangleClass(TriangleKind(kind), sides, sides[0] if kind == "isosceles" else None)


class _TriangleClasses(dict):
    """Side triple, in matrix order -> ``make(kind, a, b, c)`` from its sorted
    sides and ``TriangleKind`` value, made on the key's first lookup.  Equal
    keys (1 and an ``IntEnum`` member) share an entry: ``make`` must not keep
    the entries' types."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        a, b, c = sorted(key)
        self[key] = value = self.make("equilateral" if a == c else "isosceles" if b == c else "violating", a, b, c)
        return value


def _triangles(m):
    """Yield ``(x, y, keys)`` for each position pair x < y < n - 1 in
    ``itertools.combinations`` order; ``keys`` yields the side triple
    ``(m[x][y], m[x][z], m[y][z])`` for z = y + 1 ... n - 1."""
    n = len(m)
    for x, row_x in enumerate(m):
        for y in range(x + 1, n - 1):
            yield x, y, zip(repeat(row_x[y]), row_x[y + 1 :], m[y][y + 1 :])


def all_triangles(matrix: DistanceMatrix) -> list[tuple[tuple[str, str, str], TriangleClass]]:
    """Classify every unordered label triple, as ``classify_triangle`` does;
    triples with the same sides share one class."""
    if matrix.size < 3:
        raise TooFewLabels(f"need at least 3 labels, got {matrix.size}")
    labels = matrix.labels
    classes = _TriangleClasses(_triangle_class)
    return [
        ((labels[x], labels[y], z), triangle)
        for x, y, keys in _triangles(matrix.entries)
        for z, triangle in zip(labels[y + 1 :], map(classes.__getitem__, keys))
    ]


def xbar_template(i: int) -> DistanceMatrix:
    """Specifier/head/complement distance template at head height ``i``.

    The specifier sits two levels above the head, the complement phrase one
    level above it, so the triangle is isosceles with base i+1 and never
    equilateral.
    """
    if i < 0:
        raise UltratreeError("template height must be non-negative")
    far = i + 2
    near = i + 1
    return DistanceMatrix(
        ("Spec", "X", "YP"),
        ((0, far, far), (far, 0, near), (far, near, 0)),
    )
