"""Accessibility-hierarchy constraints and down-set validation."""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    ACCESSIBILITY_HIERARCHY,
    Chain,
    CyclicOrder,
    PartialOrder,
    Strategy,
    UltratreeError,
    UnknownLabel,
    check_downset,
    check_language,
    check_strategy,
    load_berlin_kay_order,
)
from ultratree.hierarchy import check_document

from . import helpers as fx


def strategy(covered, primary=False, name="s"):
    return Strategy(name=name, covered=frozenset(covered), primary=primary)


class TestChain:
    def test_default_elements(self):
        assert Chain().elements == ("SU", "DO", "IO", "OBL", "GEN", "OCOMP")
        assert Chain().elements == ACCESSIBILITY_HIERARCHY

    def test_position(self):
        assert Chain().position("SU") == 0
        assert Chain().position("OCOMP") == 5

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            Chain().position("OBJ")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Chain(("SU", "SU"))


class TestCheckStrategy:
    def test_contiguous_prefix_clean(self):
        assert check_strategy(Chain(), strategy({"SU", "DO", "IO"}, primary=True)) == []

    def test_gap_is_contiguity_violation(self):
        violations = check_strategy(Chain(), strategy({"SU", "IO"}))
        assert [v.constraint for v in violations] == ["AHC2"]
        assert "DO" in violations[0].detail

    def test_primary_without_subject_reach(self):
        violations = check_strategy(Chain(), strategy({"DO", "IO"}, primary=True))
        assert [v.constraint for v in violations] == ["PRC2"]

    def test_empty_coverage_rejected(self):
        violations = check_strategy(Chain(), strategy(set()))
        assert [v.constraint for v in violations] == ["AHC2"]

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            check_strategy(Chain(), strategy({"SU", "OBJ"}))

    def test_exactly_21_contiguous_coverings_accepted(self):
        chain = Chain()
        accepted = 0
        for bits in itertools.product((0, 1), repeat=6):
            covered = {
                label for label, bit in zip(chain.elements, bits) if bit
            }
            if not check_strategy(chain, strategy(covered)):
                accepted += 1
        assert accepted == 21  # 6 * 7 / 2 non-empty contiguous segments

    def test_primary_accepts_exactly_the_prefixes(self):
        chain = Chain()
        accepted = []
        for bits in itertools.product((0, 1), repeat=6):
            covered = {
                label for label, bit in zip(chain.elements, bits) if bit
            }
            if not check_strategy(chain, strategy(covered, primary=True)):
                accepted.append(covered)
        assert len(accepted) == 6
        for covered in accepted:
            assert covered == set(chain.elements[: len(covered)])

    def test_any_cutoff_point_is_permitted(self):
        # cutting off at any point is a permission, not a constraint
        chain = Chain()
        for length in range(1, 7):
            covered = set(chain.elements[:length])
            assert check_strategy(chain, strategy(covered, primary=True)) == []
            assert check_strategy(chain, strategy(covered, primary=False)) == []


class TestCheckLanguage:
    def test_clean_language(self):
        report = check_language(Chain(), [strategy({"SU", "DO"}, primary=True)])
        assert report == []

    def test_no_primary_strategy(self):
        report = check_language(Chain(), [strategy({"SU", "DO"})])
        assert [v.constraint for v in report] == ["PRC1"]

    def test_union_missing_subject(self):
        report = check_language(
            Chain(),
            [strategy({"DO", "IO"}, primary=True), strategy({"GEN"}, name="t")],
        )
        assert "AHC1" in [v.constraint for v in report]

    def test_no_strategies_at_all(self):
        report = check_language(Chain(), [])
        assert {v.constraint for v in report} == {"AHC1", "PRC1"}

    def test_aggregates_strategy_violations(self):
        report = check_language(
            Chain(),
            [strategy({"SU", "IO"}, primary=True, name="gappy")],
        )
        assert [v.constraint for v in report] == ["AHC2", "PRC2"]


class TestDownset:
    def chain_order(self):
        return PartialOrder(
            nodes=frozenset({"a", "b", "c"}),
            edges=frozenset({("a", "b"), ("b", "c")}),
        )

    def test_empty_inventory(self):
        assert check_downset(self.chain_order(), set())

    def test_prefix_closed(self):
        assert check_downset(self.chain_order(), {"a", "b"})

    def test_gap_not_closed(self):
        assert not check_downset(self.chain_order(), {"b"})
        assert not check_downset(self.chain_order(), {"a", "c"})

    def test_full_set(self):
        assert check_downset(self.chain_order(), {"a", "b", "c"})

    def test_unknown_inventory_label(self):
        with pytest.raises(UnknownLabel):
            check_downset(self.chain_order(), {"z"})

    def test_unknown_edge_endpoint(self):
        order = PartialOrder(frozenset({"a"}), frozenset({("a", "z")}))
        with pytest.raises(UnknownLabel):
            check_downset(order, set())

    def test_cycle_detected(self):
        order = PartialOrder(
            frozenset({"a", "b"}), frozenset({("a", "b"), ("b", "a")})
        )
        with pytest.raises(CyclicOrder):
            check_downset(order, set())

    def test_predecessors_transitive(self):
        assert self.chain_order().predecessors("c") == {"a", "b"}
        with pytest.raises(UnknownLabel, match="^label 'z' not a node$"):
            self.chain_order().predecessors("z")

    def test_long_chain_validates_in_linear_time(self):
        # One predecessor walk per node took 2.2 s on a 2,000-node chain.
        n = 20_000
        order = PartialOrder([f"n{i}" for i in range(n)], [(f"n{i}", f"n{i + 1}") for i in range(n - 1)])
        start = time.perf_counter()
        assert check_downset(order, {"n0", "n1"})
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "a")],
            [("a", "b"), ("b", "a")],
            [("c", "a"), ("a", "b"), ("b", "c"), ("c", "d")],
            [(f"n{i}", f"n{(i + 1) % 5000}") for i in range(5000)],
        ],
        ids=["self-loop", "two-cycle", "three-cycle-with-tail", "long-cycle"],
    )
    def test_cycles_refused(self, edges):
        order = PartialOrder({node for edge in edges for node in edge} | {"alone"}, edges)
        with pytest.raises(CyclicOrder, match="^the edge set contains a cycle$"):
            order.validate()

    def test_unknown_endpoint_before_cycle(self):
        order = PartialOrder({"a", "b"}, {("a", "a"), ("b", "z"), ("y", "b")})
        with pytest.raises(UnknownLabel, match="^edge endpoint 'y' not a node$"):
            order.validate()

    def test_downsets_closed_under_intersection_and_union(self):
        rng = random.Random(11)
        for _ in range(40):
            size = rng.randint(2, 8)
            labels = [f"n{i}" for i in range(size)]
            edges = {
                (labels[i], labels[j])
                for i in range(size)
                for j in range(i + 1, size)
                if rng.random() < 0.3
            }
            order = PartialOrder(frozenset(labels), frozenset(edges))
            downsets = []
            for bits in itertools.product((0, 1), repeat=size):
                inventory = {l for l, bit in zip(labels, bits) if bit}
                if check_downset(order, inventory):
                    downsets.append(inventory)
            for _ in range(20):
                x = rng.choice(downsets)
                y = rng.choice(downsets)
                assert check_downset(order, x & y)
                assert check_downset(order, x | y)


def closure_verdict(nodes, edges, inventory):
    """What check_downset should return or raise, from a boolean transitive
    closure (Warshall): the least unknown edge endpoint, then a cycle, then
    the first unknown inventory label, then whether every label below a
    member is a member."""
    unknown = sorted({endpoint for edge in edges for endpoint in edge} - set(nodes))
    if unknown:
        return UnknownLabel, f"edge endpoint {unknown[0]!r} not a node"
    index = {node: i for i, node in enumerate(nodes)}
    below = [[False] * len(nodes) for _ in nodes]  # below[i][j]: i precedes j
    for a, b in edges:
        below[index[a]][index[b]] = True
    for k, i, j in itertools.product(range(len(nodes)), repeat=3):
        below[i][j] = below[i][j] or (below[i][k] and below[k][j])
    if any(below[i][i] for i in range(len(nodes))):
        return CyclicOrder, "the edge set contains a cycle"
    for label in inventory:
        if label not in index:
            return UnknownLabel, f"inventory label {label!r} not a node"
    return all(nodes[i] in inventory for i, j in itertools.product(range(len(nodes)), repeat=2)
               if below[i][j] and nodes[j] in inventory)


@st.composite
def orders(draw):
    """A few nodes, random edges (self-loops and cycles included), now and
    then an edge endpoint or inventory label that is not a node."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 7)))]
    known = st.sampled_from(nodes)
    labels = [known | st.sampled_from(["u0", "u1", "u2"]) if draw(st.integers(0, 3)) == 0 else known for _ in "abc"]
    edges = draw(st.lists(st.tuples(labels[0], labels[1]), max_size=10))
    inventory = draw(st.lists(labels[2], max_size=len(nodes) + 1))
    return nodes, edges, inventory


class TestAgainstClosure:
    @settings(max_examples=400, deadline=None)
    @given(orders())
    def test_validate_and_check_downset(self, case):
        nodes, edges, inventory = case
        order = PartialOrder(nodes, edges)
        expected = closure_verdict(nodes, edges, inventory)
        if isinstance(expected, bool):
            assert check_downset(order, inventory) is expected
            return
        kind, message = expected
        with pytest.raises(kind) as raised:
            check_downset(order, inventory)
        assert type(raised.value) is kind and str(raised.value) == message
        if message.startswith("inventory"):
            order.validate()  # the order itself is sound
        else:
            with pytest.raises(kind) as raised:
                order.validate()
            assert str(raised.value) == message

    def test_acyclic_orders_from_random_dags(self):
        # Edges only from lower to higher index: never a cycle, often a chain.
        rng = random.Random(5)
        for _ in range(200):
            nodes = [f"n{i}" for i in range(rng.randint(1, 8))]
            edges = [(a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.4]
            inventory = [node for node in nodes if rng.random() < 0.5]
            assert check_downset(PartialOrder(nodes, edges), inventory) is closure_verdict(nodes, edges, inventory)


class TestFaultChoiceIsDeterministic:
    """With several faults of one kind, the message names the same one under
    every hash seed: the least edge endpoint, the first inventory label in
    document order, the least covered label."""

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"kind": "downset", "order": {"nodes": ["a"], "edges": [["a", "q"], ["x", "a"], ["m", "n"], ["b", "c"]]},
              "inventory": []}, "edge endpoint 'b' not a node"),
            ({"kind": "downset", "inventory": ["black", "mauve", "teal", "white", "zinc", "azure"]},
             "inventory label 'mauve' not a node"),
            ({"kind": "language", "strategies": [{"covered": ["SU", "XX", "YY", "ZZ", "DO", "AA"], "primary": True}]},
             "label 'AA' not on the chain"),
        ],
        ids=["edge-endpoints", "inventory", "covered"],
    )
    def test_same_message_under_two_hash_seeds(self, tmp_path, document, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        errors = set()
        for seed in ("0", "1"):
            child = fx.run_python("-m", "ultratree", "hierarchy", str(path), PYTHONHASHSEED=seed)
            assert (child.returncode, child.stdout) == (2, "")
            errors.add(child.stderr)
        assert errors == {f"error: {path}: {message}\n"}


class TestBerlinKayData:
    def test_loads_eleven_terms(self):
        order = load_berlin_kay_order()
        assert len(order.nodes) == 11
        check_downset(order, set())  # validates acyclicity on the way

    def test_early_stages_are_downsets(self):
        order = load_berlin_kay_order()
        assert check_downset(order, {"black", "white"})
        assert check_downset(order, {"black", "white", "red"})
        assert check_downset(order, {"black", "white", "red", "green", "yellow"})

    def test_skipping_red_fails(self):
        order = load_berlin_kay_order()
        assert not check_downset(order, {"black", "white", "blue"})

    def test_green_yellow_either_order(self):
        order = load_berlin_kay_order()
        assert check_downset(order, {"black", "white", "red", "green"})
        assert check_downset(order, {"black", "white", "red", "yellow"})


class TestDocuments:
    @pytest.mark.parametrize(
        "document, message",
        [
            ({"nodes": 3, "edges": []}, "nodes: expected a list of strings"),
            ({"nodes": ["a"]}, "edges: missing"),
            ({"nodes": ["a"], "edges": [["a"]]}, "edges: expected a list of [earlier, later] string pairs"),
            ([["a", "b"]], "document: expected an object"),
        ],
        ids=["nodes-number", "no-edges", "edge-single", "array"],
    )
    def test_partial_order_names_json_path(self, document, message):
        with pytest.raises(UltratreeError) as err:
            PartialOrder.from_json_dict(document)
        assert str(err.value) == message
        with pytest.raises(ValueError):  # UltratreeError is a ValueError
            PartialOrder.from_json_dict(document)

    def test_partial_order_path_within_a_document(self):
        with pytest.raises(UltratreeError, match=r"^order\.edges: missing$"):
            PartialOrder.from_json_dict({"nodes": []}, "order")

    def test_partial_order_round_trip(self):
        order = load_berlin_kay_order()
        assert PartialOrder.from_json_dict(order.to_json_dict()) == order

    def test_check_document_reports(self):
        language = {"kind": "language", "strategies": [{"covered": ["SU", "IO"], "primary": True}]}
        report, passed = check_document(language)
        assert not passed
        assert [v["constraint"] for v in report] == ["AHC2", "PRC2"]
        downset = {"kind": "downset", "inventory": ["white", "black"]}
        assert check_document(downset) == ({"inventory": ["black", "white"], "downward_closed": True}, True)

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"kind": "downset", "order": {"nodes": ["a"]}, "inventory": []}, "h.json: order.edges: missing"),
            ({"kind": "downset", "inventory": ["zz"]}, "h.json: inventory label 'zz' not a node"),
            ({"kind": "language", "strategies": [{"covered": ["ZZ"]}]}, "h.json: label 'ZZ' not on the chain"),
            (3, "h.json: document: expected an object"),
        ],
        ids=["order-path", "inventory-check", "chain-check", "number"],
    )
    def test_check_document_names_source_once(self, document, message):
        with pytest.raises(UltratreeError) as err:
            check_document(document, source="h.json")
        assert str(err.value) == message
