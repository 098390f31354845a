"""The four workloads: seeded inputs, their CLI op lists, and output checks.

An *op* is one input run through its workload's fixed subcommand sequence.
Each op carries the exit code every subcommand must return and a check that
reads the subcommands' stdout against the shape the benchmark generated.
Input sizes follow a fixed schedule, so the seed changes shapes, labels and
order but not the amount of work; that keeps run-to-run spread low.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from shapes import GOVERNORS, Shape, parse_bracketed, random_shape

OPS_PER_PASS = 120  # p90 of 120 samples leaves 12 beyond it
COMPLEXITY_BOUND = 12  # the CLI's default --bound
DEFAULT_CATEGORY_ORDER = ("D", "N", "V", "A", "P")

# The sweep op: many small random trees in one randtest call.
SWEEP_TREES = 40
SWEEP_MAX_LEAVES = 10

CORPUS_LEAVES = (20, 28, 36, 44, 52)
RELATIONS_LEAVES = (10, 13, 16, 19, 22)
VIOLATIONS_LABELS = (16, 22, 28, 34, 40)


@dataclass
class Op:
    commands: list[list[str]]
    expect: list[int]
    check: Callable[[list[str]], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, int, Path], Op]
    sizes: tuple[int, ...] = ()


def _as_int_rows(rows) -> list[list[int]]:
    return [[int(v) for v in row] for row in rows]


# -- sweep -------------------------------------------------------------------

def _build_sweep(rng: random.Random, _size: int, _path: Path) -> Op:
    seed = rng.randrange(2**31)
    argv = [
        "randtest", "--seed", str(seed), "--trees", str(SWEEP_TREES),
        "--max-leaves", str(SWEEP_MAX_LEAVES), "--nodes", "all",
    ]

    def check(outputs: list[str]) -> str | None:
        report = json.loads(outputs[0])
        if report["trees_tested"] != SWEEP_TREES:
            return f"trees_tested is {report['trees_tested']}"
        if not report["disagreements"]:
            return "no disagreements, so exit code 1 is unexplained"
        by_tree: dict[str, list] = {}
        for item in report["disagreements"]:
            by_tree.setdefault(item["tree"], []).append((item["a"], item["b"], item["relation"]))
        for text, reported in by_tree.items():
            shape = parse_bracketed(text)
            if len(shape.leaves) > SWEEP_MAX_LEAVES:
                return f"tree with {len(shape.leaves)} leaves: {text}"
            names = shape.names()
            expected = [(names[a], names[b], r) for a, b, r in shape.disagreements()]
            if not expected:
                return f"disagreements reported on {text}, which has none"
            # A tree drawn twice in one sweep is reported twice.
            if len(reported) % len(expected) or reported != expected * (len(reported) // len(expected)):
                return f"disagreements differ on {text}"
        return None

    return Op([argv], [1], check)


# -- corpus ------------------------------------------------------------------

def _write_tree(path: Path, shape: Shape) -> str:
    path.write_text(shape.bracketed() + "\n", encoding="utf-8")
    return str(path)


def _category_minima(shape: Shape) -> tuple[list[str], list[list[int | None]]]:
    leaves = shape.leaves
    cats = [shape.label[n] for n in leaves]
    best: dict[tuple[str, str], int] = {}
    for i, j in combinations(range(len(leaves)), 2):
        pair = tuple(sorted((cats[i], cats[j])))
        d = shape.distance(leaves[i], leaves[j])
        if d < best.get(pair, d + 1):
            best[pair] = d
    order = [c for c in DEFAULT_CATEGORY_ORDER if c in cats]
    order += sorted(set(cats) - set(order))
    return order, [[best.get(tuple(sorted((x, y)))) for y in order] for x in order]


def _build_corpus(rng: random.Random, size: int, path: Path) -> Op:
    shape = random_shape(rng, size, unary=0.1)
    tree = _write_tree(path.with_suffix(".trees"), shape)
    root_height = shape.height[0]

    def check(outputs: list[str]) -> str | None:
        leaves = shape.leaves
        (matrix,) = json.loads(outputs[0])
        if matrix["labels"] != shape.leaf_labels():
            return "leaf labels differ"
        for i, a in enumerate(leaves):
            for j, b in enumerate(leaves):
                if matrix["rows"][i][j] != (0 if i == j else shape.distance(a, b)):
                    return f"leaf distance ({i}, {j}) differs"
        if json.loads(outputs[1]) != []:
            return "a tree matrix failed an axiom"
        mindist = json.loads(outputs[2])
        if [mindist["labels"], mindist["rows"]] != list(_category_minima(shape)):
            return "category minima differ"
        report = json.loads(outputs[3])
        if report["per_tree"] != [{"tree": 0, "height": root_height}]:
            return f"root height differs from {root_height}"
        return None

    return Op(
        [["matrix", tree], ["check", tree], ["mindist", tree], ["complexity", tree]],
        [0, 0, 0, 1 if root_height > COMPLEXITY_BOUND else 0],
        check,
    )


# -- relations ---------------------------------------------------------------

def _build_relations(rng: random.Random, size: int, path: Path) -> Op:
    shape = random_shape(rng, size, unary=0.15)
    tree = _write_tree(path.with_suffix(".trees"), shape)
    found = shape.disagreements()

    def check(outputs: list[str]) -> str | None:
        n = shape.size
        members = shape.cu_members()
        expected = {
            "dominance": [[shape.dominates(a, b) for b in range(n)] for a in range(n)],
            "ccommand": [[shape.c_commands(a, b) for b in range(n)] for a in range(n)],
            "cucommand": [[b in members[a] for b in range(n)] for a in range(n)],
            "govern": [
                [
                    a != b and shape.label[a] in GOVERNORS and shape.height[a] == shape.height[b]
                    and b in members[a] and a in members[b]
                    for b in range(n)
                ]
                for a in range(n)
            ],
        }
        labels = shape.node_labels()
        for name, output in zip(expected, outputs):
            (matrix,) = json.loads(output)
            if matrix["labels"] != labels:
                return f"{name}: node labels differ"
            if _as_int_rows(matrix["rows"]) != _as_int_rows(expected[name]):
                return f"{name}: matrix differs"
        names = shape.names()
        report = json.loads(outputs[4])
        want = [
            {"tree": shape.bracketed(), "a": names[a], "b": names[b], "relation": r}
            for a, b, r in found
        ]
        if report != {"trees_tested": 1, "disagreements": want}:
            return "theorem report differs"
        return None

    return Op(
        [
            ["dominance", tree],
            ["ccommand", tree, "--nodes", "all"],
            ["cucommand", tree, "--nodes", "all"],
            ["govern", tree],
            ["theorem", tree, "--nodes", "all"],
        ],
        [0, 0, 0, 0, 1 if found else 0],
        check,
    )


# -- violations --------------------------------------------------------------

def _build_violations(rng: random.Random, size: int, path: Path) -> Op:
    shape = random_shape(rng, size, unary=0.0)
    leaves = shape.leaves
    n = len(leaves)
    # triangles gets the leading half of the labels.  Its JSON record of a
    # triple costs about 15 times a check's scan of it, so on the whole
    # matrix it would hide the check's reject path.
    half = max(3, n // 2)  # triangles needs three labels
    rows = [[0 if i == j else shape.distance(a, b) for j, b in enumerate(leaves)] for i, a in enumerate(leaves)]
    # Raise a few entries in the leading half above the root height: each
    # raised pair (x, y) becomes the long side of violating triangles.
    # Raising an entry never breaks a triangle whose long side is another
    # pair, so the expected report is exactly the triples over raised pairs.
    pairs = list(combinations(range(half), 2))
    raised = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
    for x, y in raised:
        rows[x][y] = rows[y][x] = shape.height[0] + 1 + rng.randrange(3)
    expected = set()
    for x, y in raised:
        for z in range(n):
            if z in (x, y):
                continue
            if rows[x][y] > rows[x][z] + rows[z][y]:
                expected.add(("triangle_inequality", (x, z, y)))
            if rows[x][y] > max(rows[x][z], rows[z][y]):
                expected.add(("ultrametric", (x, z, y)))
    labels = shape.leaf_labels()
    matrix = str(path.with_suffix(".json"))
    part = str(path.with_suffix(".part.json"))
    Path(matrix).write_text(json.dumps({"labels": labels, "rows": rows}), encoding="utf-8")
    Path(part).write_text(
        json.dumps({"labels": labels[:half], "rows": [row[:half] for row in rows[:half]]}),
        encoding="utf-8",
    )

    def check(outputs: list[str]) -> str | None:
        reported = {(v["axiom"], tuple(v["indices"])) for v in json.loads(outputs[0])}
        if reported != expected:
            return f"violations differ: {len(expected - reported)} planted triples missing"
        triangles = json.loads(outputs[1])
        if len(triangles) != half * (half - 1) * (half - 2) // 6:
            return f"{len(triangles)} triangles for {half} labels"
        index = {label: i for i, label in enumerate(labels[:half])}
        for record in triangles:
            x, y, z = (index[v] for v in record["vertices"])
            sides = sorted((rows[x][y], rows[x][z], rows[y][z]))
            kind = (
                "equilateral" if sides[0] == sides[2]
                else "isosceles" if sides[1] == sides[2] else "violating"
            )
            if record["sides"] != sides or record["kind"] != kind:
                return f"triangle {record['vertices']} misclassified"
        return None

    return Op([["check", "--matrix", matrix], ["triangles", "--matrix", part]], [1, 0], check)


# Why each workload exists, and its input size, is in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", _build_sweep),
        Workload("corpus", _build_corpus, CORPUS_LEAVES),
        Workload("relations", _build_relations, RELATIONS_LEAVES),
        Workload("violations", _build_violations, VIOLATIONS_LABELS),
    )
}


def generate(workload: Workload, seed: int, directory: Path) -> list[Op]:
    """The workload's op list for ``seed``, with input files under ``directory``."""
    rng = random.Random(f"{workload.name}:{seed}")
    sizes = [workload.sizes[i % len(workload.sizes)] if workload.sizes else 0 for i in range(OPS_PER_PASS)]
    rng.shuffle(sizes)
    return [workload.build(rng, size, directory / f"op{i:03d}") for i, size in enumerate(sizes)]
