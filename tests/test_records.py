"""The package's immutable records, type by type.

Each public record keeps what it had as a frozen dataclass: its fields and
defaults, its ``repr``, field equality and hashing for records of the same
class only, AttributeError on assignment and ``del``, the coercions of its
constructor, and copy and pickle round trips.  The pinned reprs are the
dataclasses' output.
"""

import copy
import pickle

import pytest

from ultratree import (
    ACCESSIBILITY_HIERARCHY,
    DEFAULT_FEATURE_ROWS,
    DEFAULT_GOVERNOR_CATEGORIES,
    Chain,
    ComplexityReport,
    ConstraintViolation,
    CuDomain,
    Disagreement,
    FeatureTable,
    GovernorPolicy,
    Node,
    PartialOrder,
    Strategy,
    TriangleClass,
    TriangleKind,
    UltratreeError,
    Violation,
    ViolationReport,
)

# Each record type: its fields in constructor order, values for them, and
# the repr of the record built from those values.
RECORDS = {
    Node: (
        ("id", "label", "word", "children"),
        (0, "S", None, (Node(1, "A", "a", ()),)),
        "Node(id=0, label='S', word=None, children=(Node(id=1, label='A', word='a', children=()),))",
    ),
    GovernorPolicy: (
        ("governor_categories",),
        (frozenset({"V"}),),
        "GovernorPolicy(governor_categories=frozenset({'V'}))",
    ),
    CuDomain: (
        ("owner", "distance_set", "members"),
        (1, {1: 0, 2: 1}, frozenset({2})),
        "CuDomain(owner=1, distance_set={1: 0, 2: 1}, members=frozenset({2}))",
    ),
    Disagreement: (
        ("a", "b", "holds"),
        (1, 2, "c_command"),
        "Disagreement(a=1, b=2, holds='c_command')",
    ),
    Violation: (
        ("axiom", "indices"),
        ("ultrametric", (0, 1, 2)),
        "Violation(axiom='ultrametric', indices=(0, 1, 2))",
    ),
    ViolationReport: (
        ("metric_violations", "ultrametric_violations"),
        ((Violation("symmetry", (0, 1)),), ()),
        "ViolationReport(metric_violations=(Violation(axiom='symmetry', indices=(0, 1)),),"
        " ultrametric_violations=())",
    ),
    TriangleClass: (
        ("kind", "sides", "base"),
        (TriangleKind.ISOSCELES, (1, 2, 2), 1),
        "TriangleClass(kind=<TriangleKind.ISOSCELES: 'isosceles'>, sides=(1, 2, 2), base=1)",
    ),
    ComplexityReport: (
        ("per_tree", "max_height", "bound", "exceeding"),
        (((0, 3), (1, 1)), 3, 2, (0,)),
        "ComplexityReport(per_tree=((0, 3), (1, 1)), max_height=3, bound=2, exceeding=(0,))",
    ),
    FeatureTable: (
        ("rows",),
        ({"N": (1, -1), "V": (-1, 1), "A": (1, 1), "P": (-1, -1)},),
        "FeatureTable(rows={'N': (1, -1), 'V': (-1, 1), 'A': (1, 1), 'P': (-1, -1)})",
    ),
    Chain: (("elements",), (("SU", "DO"),), "Chain(elements=('SU', 'DO'))"),
    Strategy: (
        ("name", "covered", "primary"),
        ("main", frozenset({"SU"}), True),
        "Strategy(name='main', covered=frozenset({'SU'}), primary=True)",
    ),
    ConstraintViolation: (
        ("constraint", "detail"),
        ("AHC1", "no strategy relativizes SU"),
        "ConstraintViolation(constraint='AHC1', detail='no strategy relativizes SU')",
    ),
    PartialOrder: (
        ("nodes", "edges"),
        (frozenset({"red"}), frozenset({("red", "red")})),
        "PartialOrder(nodes=frozenset({'red'}), edges=frozenset({('red', 'red')}))",
    ),
}

# Each record type: another value for each of its fields.
CHANGED = {
    Node: (1, "T", "s", ()),
    GovernorPolicy: (frozenset({"P"}),),
    CuDomain: (2, {1: 0}, frozenset({1})),
    Disagreement: (2, 1, "cu_command"),
    Violation: ("metric", (0, 2, 1)),
    ViolationReport: ((), (Violation("symmetry", (0, 1)),)),
    TriangleClass: (TriangleKind.VIOLATING, (1, 2, 3), None),
    ComplexityReport: (((0, 3),), 4, 3, ()),
    FeatureTable: ({"N": (1, -1), "V": (-1, 1), "A": (1, 1), "P": (1, -1)},),
    Chain: (("DO", "SU"),),
    Strategy: ("other", frozenset({"DO"}), False),
    ConstraintViolation: ("AHC2", "language has no primary strategy"),
    PartialOrder: (frozenset({"red", "blue"}), frozenset()),
}

# Records holding a dict are unhashable, as their dataclasses were.
UNHASHABLE = {CuDomain, FeatureTable}

record_types = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def build(cls):
    fields, values, _ = RECORDS[cls]
    return cls(*values)


@record_types
class TestEveryRecord:
    def test_fields_by_position_and_keyword(self, cls):
        fields, values, _ = RECORDS[cls]
        record = build(cls)
        assert tuple(getattr(record, name) for name in fields) == values
        assert cls(**dict(zip(fields, values))) == record

    def test_repr_is_the_dataclass_repr(self, cls):
        assert repr(build(cls)) == RECORDS[cls][2]

    def test_equality_and_hash(self, cls):
        a, b = build(cls), build(cls)
        assert a == b and not a != b and a is not b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        elif cls is Node:  # structural, over the subtree
            assert hash(a) == hash(b)
        else:
            assert hash(a) == hash(b) == hash(RECORDS[cls][1])

    def test_one_changed_field_is_unequal(self, cls):
        fields, values, _ = RECORDS[cls]
        for k, other in enumerate(CHANGED[cls]):
            assert build(cls) != cls(*values[:k], other, *values[k + 1 :])

    def test_unequal_to_tuples_and_other_records(self, cls):
        fields, values, _ = RECORDS[cls]
        record = build(cls)
        assert record != values and values != record
        # Another record type built from the same values holds equal fields.
        twins = []
        for other in RECORDS:
            if other is not cls and len(RECORDS[other][0]) == len(fields):
                try:
                    twins.append(other(*values))
                except (TypeError, ValueError):  # values its constructor rejects
                    continue
        assert twins and all(record != twin and twin != record for twin in twins)

    def test_assignment_and_del_raise(self, cls):
        fields, values, _ = RECORDS[cls]
        record = build(cls)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in fields) == values
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle(self, cls, round_trip):
        record = build(cls)
        again = round_trip(record)
        assert type(again) is cls and again == record
        assert repr(again) == repr(record)


class TestDefaults:
    def test_governor_policy(self):
        assert GovernorPolicy() == GovernorPolicy(DEFAULT_GOVERNOR_CATEGORIES)
        assert GovernorPolicy().governor_categories == frozenset({"V", "P"})

    def test_violation_report(self):
        assert ViolationReport() == ViolationReport((), ())
        assert ViolationReport(ultrametric_violations=(Violation("u", (0, 1, 2)),)).metric_violations == ()

    def test_triangle_base(self):
        assert TriangleClass(TriangleKind.VIOLATING, (1, 2, 3)).base is None

    def test_feature_table_copies_the_default_rows(self):
        first, second = FeatureTable(), FeatureTable()
        assert first.rows == DEFAULT_FEATURE_ROWS
        assert first.rows is not DEFAULT_FEATURE_ROWS and first.rows is not second.rows

    def test_chain(self):
        assert Chain().elements == ACCESSIBILITY_HIERARCHY

    def test_strategy_not_primary(self):
        assert Strategy("s", ["SU"]).primary is False

    def test_partial_order_without_edges(self):
        assert PartialOrder(["a"]).edges == frozenset()

    @pytest.mark.parametrize(
        "cls", [Node, CuDomain, Disagreement, Violation, ComplexityReport, ConstraintViolation, Strategy],
        ids=lambda cls: cls.__name__,
    )
    def test_required_fields(self, cls):
        with pytest.raises(TypeError):
            cls()


class TestCoercions:
    def test_governor_policy_frozenset(self):
        policy = GovernorPolicy(["V", "P", "V"])
        assert type(policy.governor_categories) is frozenset
        assert policy == GovernorPolicy(frozenset({"P", "V"}))

    def test_chain_tuple(self):
        chain = Chain(["SU", "DO"])
        assert chain.elements == ("SU", "DO") and chain == Chain(("SU", "DO"))
        with pytest.raises(UltratreeError, match="unique"):
            Chain(["SU", "SU"])

    def test_strategy_frozenset(self):
        assert Strategy("s", ["SU", "DO"]).covered == frozenset({"SU", "DO"})

    def test_partial_order_frozensets(self):
        order = PartialOrder(["a", "b"], [["a", "b"]])
        assert type(order.nodes) is frozenset and order.nodes == {"a", "b"}
        assert order.edges == frozenset({("a", "b")})
        assert order == PartialOrder({"b", "a"}, {("a", "b")})

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({"N": (1, -1), "V": (-1, 1), "A": (1, 1)}, "cover exactly"),
            ({**DEFAULT_FEATURE_ROWS, "P": (0, -1)}, "must be \\+1 or -1"),
        ],
        ids=["missing-category", "bad-value"],
    )
    def test_feature_table_rows_checked(self, rows, message):
        with pytest.raises(UltratreeError, match=message):
            FeatureTable(rows)


class TestDictFields:
    """A record's dict field reads as a dict but refuses change, so nothing
    done through the attribute reaches the record."""

    CHANGES = {
        "setitem": lambda d, key: d.__setitem__(key, None),
        "delitem": lambda d, key: d.__delitem__(key),
        "clear": lambda d, key: d.clear(),
        "pop": lambda d, key: d.pop(key),
        "popitem": lambda d, key: d.popitem(),
        "setdefault": lambda d, key: d.setdefault("new", 0),
        "update": lambda d, key: d.update({key: None}),
        "ior": lambda d, key: d.__ior__({key: None}),
    }

    @pytest.mark.parametrize("cls, field", [(FeatureTable, "rows"), (CuDomain, "distance_set")],
                             ids=["FeatureTable", "CuDomain"])
    @pytest.mark.parametrize("round_trip", [lambda r: r, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["built", "deepcopy", "pickle"])
    def test_change_through_the_attribute_is_refused(self, cls, field, round_trip):
        record = round_trip(build(cls))
        value = getattr(record, field)
        key = next(iter(value))
        for change in self.CHANGES.values():
            with pytest.raises(TypeError, match="read-only"):
                change(value, key)
        assert record == build(cls) and repr(record) == RECORDS[cls][2]
        assert value == RECORDS[cls][1][RECORDS[cls][0].index(field)]
