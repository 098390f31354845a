"""Linguistic partial-order hierarchies: relativization strategies and color terms.

Two classic cross-linguistic orderings are validated here.  The noun-phrase
accessibility hierarchy SU > DO > IO > OBL > GEN > OCOMP constrains
relative-clause forming strategies: each strategy must cover a contiguous
segment, a language needs a primary strategy, and a primary strategy must
run all the way up to subjects.  Color-term inventories are validated as
down-sets of a partial order (the Berlin-Kay ordering ships as editable data;
any order can be supplied).
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence

from .errors import CyclicOrder, UltratreeError, UnknownLabel, _read_json, _Record, _set

ACCESSIBILITY_HIERARCHY = ("SU", "DO", "IO", "OBL", "GEN", "OCOMP")

AHC1 = "AHC1"  # some strategy must reach subjects
AHC2 = "AHC2"  # a strategy covers a contiguous segment
PRC1 = "PRC1"  # a language has a primary strategy
PRC2 = "PRC2"  # a primary strategy covers everything above its low point


class Chain(_Record):
    """A total order of grammatical positions, most accessible first."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: Iterable[str] = ACCESSIBILITY_HIERARCHY):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise UltratreeError("chain elements must be unique")
        _set(self, "elements", elements)

    def position(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not on the chain") from None


class Strategy(_Record):
    """A relative-clause forming strategy and the positions it covers."""

    __slots__ = _fields = ("name", "covered", "primary")

    def __init__(self, name: str, covered: Iterable[str], primary: bool = False):
        _set(self, "name", name)
        _set(self, "covered", frozenset(covered))
        _set(self, "primary", primary)


class ConstraintViolation(_Record):
    __slots__ = _fields = ("constraint", "detail")

    def __init__(self, constraint: str, detail: str):
        _set(self, "constraint", constraint)
        _set(self, "detail", detail)

    def to_json_dict(self) -> dict:
        return {"constraint": self.constraint, "detail": self.detail}


def check_strategy(chain: Chain, strategy: Strategy) -> list[ConstraintViolation]:
    """Per-strategy constraints: contiguity, and subject reach when primary.

    A covered set that skips positions (or covers none) violates the
    contiguity constraint; a primary strategy whose coverage is not a prefix
    of the chain starting at the most accessible position violates the
    primary-reach constraint.
    """
    # Labels in sorted order, so the unknown one named is the same under every hash seed.
    positions = sorted(chain.position(label) for label in sorted(strategy.covered))
    violations: list[ConstraintViolation] = []
    if not positions:
        violations.append(
            ConstraintViolation(AHC2, f"strategy {strategy.name!r} covers no positions")
        )
    elif positions[-1] - positions[0] + 1 != len(positions):
        have = set(positions)
        gap = next(
            chain.elements[p]
            for p in range(positions[0], positions[-1])
            if p not in have
        )
        violations.append(
            ConstraintViolation(
                AHC2,
                f"strategy {strategy.name!r} skips {gap} inside its segment",
            )
        )
    if strategy.primary and not (positions and positions == list(range(len(positions)))):
        violations.append(
            ConstraintViolation(
                PRC2,
                f"primary strategy {strategy.name!r} does not cover every "
                f"position from {chain.elements[0]} down",
            )
        )
    return violations


def check_language(chain: Chain, strategies: Sequence[Strategy]) -> list[ConstraintViolation]:
    """Language-level constraints over a set of strategies.

    Aggregates every per-strategy violation, then checks that some strategy
    relativizes the top of the chain and that a primary strategy exists.
    """
    violations: list[ConstraintViolation] = []
    for strategy in strategies:
        violations.extend(check_strategy(chain, strategy))
    top = chain.elements[0]
    if not any(top in strategy.covered for strategy in strategies):
        violations.append(
            ConstraintViolation(AHC1, f"no strategy relativizes {top}")
        )
    if not any(strategy.primary for strategy in strategies):
        violations.append(
            ConstraintViolation(PRC1, "language has no primary strategy")
        )
    return violations


class PartialOrder(_Record):
    """A finite strict partial order given by nodes and (earlier, later) edges."""

    __slots__ = _fields = ("nodes", "edges")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = frozenset()):
        _set(self, "nodes", frozenset(nodes))
        _set(self, "edges", frozenset((a, b) for a, b in edges))

    @classmethod
    def from_json_dict(cls, data: dict, at: str = "") -> "PartialOrder":
        """Read ``{"nodes": [str, ...], "edges": [[earlier, later], ...]}``; errors
        name the JSON path at fault, ``at`` being the path of ``data``."""
        data = _object(data, at)
        return cls(_field(data, at, "nodes", "strings"), _field(data, at, "edges", "edges"))

    def to_json_dict(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": sorted(list(edge) for edge in self.edges),
        }

    def validate(self) -> None:
        """Raise UnknownLabel for the least edge endpoint that is not a node,
        then CyclicOrder if some node lies below itself."""
        from graphlib import CycleError, TopologicalSorter

        unknown = {endpoint for edge in self.edges for endpoint in edge} - self.nodes
        if unknown:
            raise UnknownLabel(f"edge endpoint {min(unknown)!r} not a node")
        try:
            TopologicalSorter(self._incoming()).prepare()
        except CycleError:
            raise CyclicOrder("the edge set contains a cycle") from None

    def _incoming(self) -> dict[str, list[str]]:
        """Each node's direct predecessors."""
        incoming: dict[str, list[str]] = {node: [] for node in self.nodes}
        for a, b in self.edges:
            incoming[b].append(a)
        return incoming

    def predecessors(self, label: str) -> frozenset[str]:
        """All nodes strictly below ``label`` in the transitive closure."""
        if label not in self.nodes:
            raise UnknownLabel(f"label {label!r} not a node")
        incoming = self._incoming()
        out: set[str] = set()
        stack = list(incoming[label])
        while stack:
            node = stack.pop()
            if node not in out:
                out.add(node)
                stack.extend(incoming[node])
        return frozenset(out)


def load_berlin_kay_order() -> PartialOrder:
    """The bundled color-term partial order, read as any JSON file is from the
    plain, editable ``data/berlin_kay.json``.  It follows the standard published
    staging: black/white before red, red before green and yellow, both before
    blue, then brown, then the late terms.  Any other order can be checked
    instead, as a JSON document of ``nodes`` and ``(earlier, later)`` edges."""
    path = os.path.join(os.path.dirname(__file__), "data", "berlin_kay.json")
    return PartialOrder.from_json_dict(_read_json(path))


def check_downset(order: PartialOrder, inventory: Iterable[str]) -> bool:
    """Whether an inventory is downward closed under the partial order.

    Every edge into a member must start at a member; by induction every
    predecessor of a member is then a member.  The empty inventory and the
    full node set are trivially closed.  The first inventory label that is
    not a node raises UnknownLabel.
    """
    order.validate()
    members: set[str] = set()
    for label in inventory:
        if label not in order.nodes:
            raise UnknownLabel(f"inventory label {label!r} not a node")
        members.add(label)
    return all(a in members for a, b in order.edges if b in members)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# Each kind of document field: the phrase its error uses, and its test.
_FIELDS = {
    "chain": ("a non-empty list of distinct strings", lambda v: _strings(v) and 0 < len(v) == len(set(v))),
    "strings": ("a list of strings", _strings),
    "list": ("a list", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "edges": (
        "a list of [earlier, later] string pairs",
        lambda v: isinstance(v, list) and all(_strings(e) and len(e) == 2 for e in v),
    ),
}


def _object(value, at: str) -> dict:
    if not isinstance(value, dict):
        raise UltratreeError(f"{at or 'document'}: expected an object")
    return value


def _field(obj: dict, at: str, key: str, kind: str, default=None):
    """``obj[key]`` checked as ``kind``, or ``default`` if absent; ``at`` is the JSON path of ``obj``."""
    path = f"{at}.{key}" if at else key
    if key not in obj:
        if default is None:
            raise UltratreeError(f"{path}: missing")
        return default
    expected, test = _FIELDS[kind]
    if not test(obj[key]):
        raise UltratreeError(f"{path}: expected {expected}")
    return obj[key]


def check_document(data, source: str = "<json>") -> tuple[object, bool]:
    """The JSON report of the check a hierarchy document asks for, and whether
    it passed: check_language for ``"kind": "language"``, check_downset for
    ``"kind": "downset"``.  Every error names ``source`` and the JSON path."""
    try:
        kind = _object(data, "").get("kind")
        if kind == "language":
            chain = Chain(_field(data, "", "chain", "chain", ACCESSIBILITY_HIERARCHY))
            strategies = []
            for i, item in enumerate(_field(data, "", "strategies", "list")):
                at = f"strategies[{i}]"
                strategies.append(
                    Strategy(
                        name=_field(_object(item, at), at, "name", "string", f"strategy{i}"),
                        covered=frozenset(_field(item, at, "covered", "strings")),
                        primary=_field(item, at, "primary", "bool", False),
                    )
                )
            violations = check_language(chain, strategies)
            return [v.to_json_dict() for v in violations], not violations
        if kind == "downset":
            if "order" in data:
                order = PartialOrder.from_json_dict(data["order"], "order")
            else:  # read only when no order is given
                order = load_berlin_kay_order()
            inventory = _field(data, "", "inventory", "strings")
            closed = check_downset(order, inventory)
            return {"inventory": sorted(inventory), "downward_closed": closed}, closed
        raise UltratreeError('kind: expected "language" or "downset"')
    except UltratreeError as exc:
        raise type(exc)(f"{source}: {exc}") from exc
