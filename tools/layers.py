"""Per-layer timings of ultratree, on one source tree or on two in alternating rounds.

    python tools/layers.py [--parent DIR] [--rounds R] [--sizes 50,100,200,400]
                           [--out BENCH.json]

The side "change" is this checkout's ``src``; ``--parent DIR`` adds the side
"parent", ``DIR/src``.  Each side runs each round in a fresh interpreter, and
the sides alternate: the parent goes first in even rounds.  A side measures:

* layers: each row of ``rows()`` on ``random_tree(1, n, "mixed:4")`` at each
  size, ``REPEATS`` repeats of ``CALLS`` calls with the cyclic collector off.
  Each repeat is scaled to nominal speed by ``perfbench/speed.py`` (its
  reference task three times before and three after) and reported in ms per
  call.  The Prim row's labels are shuffled by ``random.Random(25)``.
* families: ``FAMILY_LAYERS`` on each ``tests/helpers.SHAPE_FAMILIES``
  family at ``FAMILY_N`` and twice that, ``REPEATS`` repeats of one call
  each, and the time ratio per doubling of the node count from the two
  minima.  A layer whose output is linear in the nodes is flagged above
  ``FLAG_RATIO``.
* fixed rows: each row of ``fixed_rows()`` on its own fixed input, timed as
  the layer rows and reported at that input's size: ``_triangle_text`` JSON on
  the leaf matrix of ``random_tree(1, 40, "mixed:4")``, and ``check --matrix``
  (``cli._cmd_check``: the file read, the scan and the records) and the scan
  alone on ``tests/pins.py``'s ``raised`` document, a 60-leaf tree's leaf
  matrix with four entries raised above the root height.
* runs: for each of ``RUNS``, the peak RSS (the child's ``ru_maxrss``, from
  ``os.wait4``) and wall time of ``python -m ultratree`` on a file of trees
  ``random_tree(seed, leaves, "mixed:4")``, in a fresh process with stdout to
  a file, once per round.

It prints a table.  ``--out FILE`` writes the ``machine`` and ``per_layer``
sections of that JSON file, keeping its other sections; each value holds the
median and min over every repeat of every round, per side.  A row or layer
that a side's source lacks is left out for that side.  Stdlib only; pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
CALLS = 3  # calls per repeat on the layer rows
REPEATS = 5  # repeats per round of each layer row and family layer
FAMILY_N = 200  # each shape family is timed at this size and twice it
# Peak RSS runs: name -> (subcommand, the (seed, leaves) of each tree of its file).
RUNS = {
    "matrix": ("matrix", [(1, 1000)]),
    "triangles": ("triangles", [(1, 150)]),
    "govern": ("govern", [(seed, 200) for seed in range(20)]),
}
FLAG_RATIO = 2.6
# Family layers whose output is linear in the nodes, so their time should be too.
FAMILY_LAYERS = {"parse_tree": True, "_Facts": True, "tree_category_minima": True, "leaf_matrix": False}


def _shuffled(matrix):
    """``matrix`` with its labels in ``random.Random(25)``'s shuffled order."""
    order = list(range(matrix.size))
    random.Random(25).shuffle(order)
    rows = [[matrix.entries[i][j] for j in order] for i in order]
    return type(matrix)([matrix.labels[i] for i in order], rows)


def _kept(relation, tree, *args):
    """``relation(tree, *args)`` once the tree's command pass is built and kept."""
    from ultratree import command

    command._facts(tree)
    return partial(relation, tree, *args)


def rows(tree, text: str) -> dict:
    """Row name -> a thunk that makes one call, built outside the timings."""
    from ultratree import cli, command, lexdist, trees, ultrametric

    leaf = ultrametric.leaf_matrix
    return {
        "parse_tree": lambda: partial(trees.parse_tree, text),
        "leaf_matrix": lambda: partial(leaf, tree),
        "_check_axioms, own order": lambda: partial(ultrametric._check_axioms, leaf(tree)),
        "_check_axioms, Random(25) shuffle (Prim)": lambda: partial(ultrametric._check_axioms, _shuffled(leaf(tree))),
        "_Facts, the command pass alone": lambda: partial(command._Facts, tree),
        "c_command_matrix(all), kept pass": lambda: _kept(command.c_command_matrix, tree, "all"),
        "dominance_matrix": lambda: partial(trees.dominance_matrix, tree),
        "government_matrix, kept pass": lambda: _kept(command.government_matrix, tree),
        "node_labels": lambda: tree.node_labels,
        "tree_category_minima": lambda: partial(lexdist.tree_category_minima, tree),
        "_matrix_text(leaf_matrix)": lambda: partial(cli._matrix_text, leaf(tree)),
        "leaf_matrix.to_csv": lambda: leaf(tree).to_csv,
        "_matrix_text(c_command_matrix(all))": lambda: partial(cli._matrix_text, command.c_command_matrix(tree, "all")),
    }


def fixed_rows(raised: str) -> dict:
    """Row name -> (input size, a thunk that makes one call), on fixed inputs; ``raised`` is the path of
    ``tests/pins.py``'s ``raised`` document."""
    from ultratree import cli, leaf_matrix, random_tree, ultrametric

    check = argparse.Namespace(command="check", file=None, matrix=raised, xbar=False, i=None, format="json")
    triangles = [leaf_matrix(random_tree(1, 40, "mixed:4"))]
    return {
        "_triangle_text json, leaf matrix": (40, lambda: partial(cli._triangle_text, triangles, "json")),
        "check --matrix json, raised (_cmd_check)": (60, lambda: partial(cli._cmd_check, check)),
        "_check_axioms, raised": (60, lambda: partial(ultrametric._check_axioms, cli._distance_matrices(check, "")[0])),
    }


def family_layers(text: str) -> dict:
    from ultratree import command, lexdist, trees, ultrametric

    tree = trees.parse_tree(text)
    return {
        "parse_tree": partial(trees.parse_tree, text),
        "_Facts": partial(command._Facts, tree),
        "tree_category_minima": partial(lexdist.tree_category_minima, tree),
        "leaf_matrix": partial(ultrametric.leaf_matrix, tree),
    }


def timed(call, calls: int) -> list[float]:
    """``REPEATS`` scaled timings of ``calls`` calls, in ms per call."""
    from speed import references, scale

    times = []
    for _ in range(REPEATS):
        gc.collect()
        gc.disable()
        before = references()
        start = perf_counter_ns()
        for _ in range(calls):
            call()
        elapsed = perf_counter_ns() - start
        after = references()
        gc.enable()
        times.append(round(scale(elapsed, before + after) / calls / 1e6, 6))
    return times


def worker(job: dict) -> dict:
    """One side's round, in this process: the layer rows and the families."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from ultratree import random_tree

    result: dict = {"layers": {}, "families": {}}

    def time_row(name: str, n: int, make) -> None:
        try:
            call = make()
        except (AttributeError, ImportError):  # a name this side's source lacks
            return
        result["layers"].setdefault(name, {})[str(n)] = timed(call, CALLS)

    for n in job["sizes"]:
        tree = random_tree(1, n, "mixed:4")
        for name, make in rows(tree, tree.to_bracketed()).items():
            time_row(name, n, make)
    for name, (n, make) in fixed_rows(job["raised"]).items():
        time_row(name, n, make)
    for family, texts in job["families"].items():
        for text in texts:
            try:
                calls = family_layers(text)
            except (AttributeError, ImportError):
                continue
            entry = result["families"].setdefault(family, {"nodes": []})
            entry["nodes"].append(text.count("("))
            for name, call in calls.items():
                entry.setdefault(name, []).append(timed(call, 1))
    return result


def peak_run(src: Path, command: str, tree_file: Path, scratch: Path) -> tuple[float, float]:
    """Peak RSS in MB and wall seconds of ``command`` on ``tree_file`` in a fresh interpreter, stdout to a file."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with open(scratch / "run.out", "wb") as out:
        start = perf_counter_ns()
        child = subprocess.Popen([sys.executable, "-m", "ultratree", command, str(tree_file)], stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = (perf_counter_ns() - start) / 1e9
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"{command} exited {child.returncode} on {src}")
    return round(usage.ru_maxrss / 1024, 2), round(wall, 4)  # ru_maxrss is in kilobytes on Linux


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    if os.path.exists("/proc/cpuinfo"):  # Linux names the model there
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    libc = " ".join(platform.libc_ver()).strip()
    return {
        "cpu": f"{cpu}, {os.cpu_count()} CPUs",
        "os": f"{platform.system()} {platform.machine()}" + (f", {libc}" if libc else ""),
        "python": f"{platform.python_version()} ({platform.python_implementation()})",
    }


def _summary(values: list[float]) -> dict:
    return {"median": round(statistics.median(values), 6), "min": min(values)}


def collect(sides: dict, args, families: dict, scratch: Path) -> dict:
    """Run every round of every side and pool the repeats."""
    from tests.pins import INPUTS
    from ultratree import random_tree

    (scratch / "raised.json").write_text(INPUTS["raised"])
    tree_files = {}
    for name, (_, trees) in RUNS.items():
        tree_files[name] = scratch / f"{name}.trees"
        tree_files[name].write_text("".join(random_tree(seed, n, "mixed:4").to_bracketed() + "\n" for seed, n in trees))
    job = json.dumps({"sizes": args.sizes, "families": families, "raised": str(scratch / "raised.json")})
    layers: dict = {}
    shapes: dict = {}
    runs: dict = {name: {side: {"peak_rss_mb": [], "wall_s": []} for side in sides} for name in RUNS}
    names = list(sides)
    for r in range(args.rounds):
        for side in names if r % 2 == 0 else names[::-1]:
            env = {**os.environ, "PYTHONPATH": str(sides[side]), "PYTHONDONTWRITEBYTECODE": "1"}
            argv = [sys.executable, str(Path(__file__).resolve()), "--worker"]
            done = subprocess.run(argv, input=job, capture_output=True, text=True, env=env, check=True)
            result = json.loads(done.stdout)
            for name, by_size in result["layers"].items():
                for n, times in by_size.items():
                    layers.setdefault(name, {}).setdefault(n, {}).setdefault(side, []).extend(times)
            for family, entry in result["families"].items():
                for name, per_size in entry.items():
                    if name != "nodes":
                        into = shapes.setdefault(family, {}).setdefault(name, {}).setdefault(side, [[] for _ in per_size])
                        for pooled, times in zip(into, per_size):
                            pooled.extend(times)
                shapes[family].setdefault("nodes", entry["nodes"])
            for name, (command, _) in RUNS.items():
                mb, wall = peak_run(sides[side], command, tree_files[name], scratch)
                runs[name][side]["peak_rss_mb"].append(mb)
                runs[name][side]["wall_s"].append(wall)
    return {
        "layers": {
            name: {n: {side: _summary(times) for side, times in by_side.items()} for n, by_side in by_size.items()}
            for name, by_size in layers.items()
        },
        "families": {family: _ratios(entry) for family, entry in shapes.items()},
        "runs": runs,
    }


def _ratios(entry: dict) -> dict:
    """Each layer's minima at n and 2n, and its time ratio per doubling of the nodes."""
    small, large = entry["nodes"]
    out: dict = {"nodes": [small, large]}
    for name, by_side in entry.items():
        if name == "nodes":
            continue
        out[name] = {}
        for side, (at_n, at_2n) in by_side.items():
            ratio = (min(at_2n) / min(at_n)) ** (math.log(2) / math.log(large / small)) if large > small else None
            flagged = bool(FAMILY_LAYERS[name] and ratio and ratio > FLAG_RATIO)
            out[name][side] = {"min": [min(at_n), min(at_2n)], "ratio": ratio and round(ratio, 3), "flagged": flagged}
    return out


def report(found: dict) -> None:
    print("layer rows: ms per call at nominal speed, median / min per side")
    for name, by_size in found["layers"].items():
        for n, by_side in by_size.items():
            cells = "  ".join(f"{side} {v['median']:.4f} / {v['min']:.4f}" for side, v in by_side.items())
            if {"parent", "change"} <= by_side.keys():
                cells += f"  change/parent {by_side['change']['median'] / by_side['parent']['median']:.3f}"
            print(f"  {name:<42} n={n:<5} {cells}")
    print(f"families: time ratio per doubling of the nodes (* above {FLAG_RATIO} on a linear-output layer)")
    for family, entry in found["families"].items():
        for name, by_side in entry.items():
            if name != "nodes":
                cells = "  ".join(f"{side} {v['ratio']}{'*' if v['flagged'] else ''}" for side, v in by_side.items())
                print(f"  {family:<16} {name:<22} nodes {entry['nodes']}  {cells}")
    print("fresh-process runs: peak RSS (MB) and wall time (s) per round")
    for name, by_side in found["runs"].items():
        cells = "  ".join(f"{side} {v['peak_rss_mb']} MB {v['wall_s']} s" for side, v in by_side.items())
        print(f"  {name:<10} {cells}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, help="a second checkout, timed as the side 'parent'")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")], default=[50, 100, 200, 400])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(json.load(sys.stdin))))
        return 0
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from tests.helpers import SHAPE_FAMILIES

    sides = {"change": ROOT / "src"}
    if args.parent:
        sides = {"parent": args.parent.resolve() / "src", **sides}
    families = {name: [make(FAMILY_N), make(2 * FAMILY_N)] for name, make in SHAPE_FAMILIES.items()}
    with tempfile.TemporaryDirectory() as scratch:
        found = collect(sides, args, families, Path(scratch))
    report(found)
    if args.out:
        protocol = (
            f"tools/layers.py --rounds {args.rounds} --sizes {','.join(map(str, args.sizes))}: sides"
            f" {', '.join(sides)}, one fresh interpreter per side and round, the parent first in even rounds;"
            f" {REPEATS} repeats per round, families made at {FAMILY_N} and {2 * FAMILY_N}, runs"
            f" {', '.join(f'{c} on {len(t)} tree(s) of {t[0][1]} leaves' for c, t in RUNS.values())};"
            " layer rows in ms per call at nominal speed (perfbench/speed.py), median and min over"
            " every repeat of every round"
        )
        document = json.loads(args.out.read_text()) if args.out.exists() else {}
        document.update(machine=machine(), per_layer={"protocol": protocol, **found})
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
