"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each function in ``SPANS`` with a wrapper in
every ``ultratree`` module that holds it (modules import each other's
functions by name), and on the class for methods.  The program's files are
not edited.  Each wrapper records one span: its own time, the time of the
spans it caused, and an input size where one is cheap to read.  A span's self
time is its duration minus its children's.  A wrapper's own bookkeeping is
left out of its span and of its parent's self time, so self times hold only
program work; an inclusive time still holds the bookkeeping of the spans
nested inside it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


def _leaves(tree) -> int:
    return sum(1 for n in tree.nodes if not n.children)


def _labels(matrix) -> int:
    return matrix.size


# (module, attribute, span name, input size from the arguments).  Sizes are
# leaves for trees and labels for matrices.  Per-pair helpers (lca,
# dominates, cu_domain) carry no size: reading one per call would cost more
# than the call.
SPANS = (
    ("trees", "parse_tree", "trees.parse", None),
    ("trees", "PhraseTree.__init__", "trees.build", None),
    ("trees", "random_tree", "trees.build", lambda a, k: a[1] if len(a) > 1 else k["leaf_count"]),
    ("trees", "assign_heights", "trees.heights", lambda a, k: _leaves(a[0])),
    ("trees", "dominance_matrix", "trees.dominance_matrix", lambda a, k: _leaves(a[0])),
    ("trees", "lca", "trees.lca", None),
    ("trees", "dominates", "trees.dominates", None),
    ("trees", "serialize_tree", "trees.serialize", None),
    ("ultrametric", "leaf_matrix", "ultrametric.leaf_matrix", lambda a, k: _leaves(a[0])),
    ("ultrametric", "check_metric", "ultrametric.check_metric", lambda a, k: _labels(a[0])),
    ("ultrametric", "check_ultrametric", "ultrametric.check_ultrametric", lambda a, k: _labels(a[0])),
    ("ultrametric", "all_triangles", "ultrametric.all_triangles", lambda a, k: _labels(a[0])),
    ("command", "theorem_check", "command.theorem_check", lambda a, k: _leaves(a[0])),
    ("command", "random_theorem_suite", "command.random_theorem_suite", None),
    ("command", "label_disagreements", "command.label_disagreements", None),
    ("command", "c_command_matrix", "command.c_command_matrix", lambda a, k: _leaves(a[0])),
    ("command", "cu_command_matrix", "command.cu_command_matrix", lambda a, k: _leaves(a[0])),
    ("command", "government_matrix", "command.government_matrix", lambda a, k: _leaves(a[0])),
    ("command", "cu_domain", "command.cu_domain", None),
    ("lexdist", "min_distance_matrix", "lexdist.min_distance_matrix", lambda a, k: sum(map(_leaves, a[0]))),
    ("lexdist", "complexity", "lexdist.complexity", lambda a, k: sum(map(_leaves, a[0]))),
    ("matrix", "LabeledMatrix.to_json_dict", "matrix.to_json", lambda a, k: _labels(a[0])),
    ("matrix", "LabeledMatrix.from_json_dict", "matrix.load", lambda a, k: len(a[1]["labels"])),
    ("matrix", "LabeledMatrix.__init__", "matrix.validate", None),
    ("cli", "run", "cli.run", None),
)


# Spans reported as ``<name>_s``: inclusive time of the outermost span.
TIMED = tuple(dict.fromkeys(name for _, _, name, _ in SPANS if name != "cli.run"))


class Tracer:
    """Collects spans in memory for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # per open span: [children's time]
        self.open = Counter()  # span name -> how many are open
        self.inclusive_ns = Counter()  # outermost spans only, so recursion counts once
        self.self_ns = Counter()
        self.calls = Counter()
        self.by_size: dict[tuple[str, int | None], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts = Counter()
        self._op_domains: set[tuple[int, int]] = set()
        self._op_trees: dict[int, object] = {}

    # -- counters read from arguments and results ------------------------------

    def _count(self, name: str, args, result) -> None:
        counts = self.counts
        if name == "trees.parse":
            counts["trees.parse.nodes"] += len(result)
        elif name == "trees.build" and result is None:  # PhraseTree.__init__, not random_tree
            counts["trees.build.trees"] += 1
        elif name == "ultrametric.leaf_matrix":
            counts["ultrametric.leaf_matrix.entries"] += result.size**2
        elif name in ("ultrametric.check_metric", "ultrametric.check_ultrametric"):
            n = args[0].size
            counts["ultrametric.triples_scanned"] += n * (n - 1) // 2 * max(n - 2, 0)
            counts["ultrametric.violations"] += len(result.metric_violations) + len(
                result.ultrametric_violations
            )
        elif name == "command.cu_domain":
            tree = args[0]
            # Holding the tree keeps its id unique until the op ends.
            self._op_trees[id(tree)] = tree
            self._op_domains.add((id(tree), args[1]))
        elif name == "matrix.validate":
            counts["matrix.entries_validated"] += args[0].size ** 2

    def end_op(self) -> None:
        self.counts["command.cu_domain.distinct"] += len(self._op_domains)
        self._op_domains.clear()
        self._op_trees.clear()

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, size):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entered = perf_counter_ns()
            n = size(args, kwargs) if size is not None else None
            frame = [0]
            tracer.stack.append(frame)
            tracer.open[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                tracer.stack.pop()
                tracer.open[name] -= 1
                if not tracer.open[name]:
                    tracer.inclusive_ns[name] += duration
                own = duration - frame[0]
                tracer.self_ns[name] += own
                tracer.calls[name] += 1
                row = tracer.by_size[(name, n)]
                row[0] += 1
                row[1] += duration
                row[2] += own
            tracer._count(name, args, result)
            if tracer.stack:
                tracer.stack[-1][0] += perf_counter_ns() - entered
            return result

        return span

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "ultratree" or name.startswith("ultratree.")
        }
        for module, attribute, name, size in SPANS:
            owner = modules[f"ultratree.{module}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self.wrap(name, raw.__func__, size)))
                else:
                    setattr(cls, method, self.wrap(name, raw, size))
                continue
            original = getattr(owner, attribute)
            wrapped = self.wrap(name, original, size)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals for the pass, keyed by the benchmark's metric names."""
        out = {f"{name}_s": self.inclusive_ns[name] / 1e9 for name in TIMED}
        counts = self.counts
        trees = counts["trees.build.trees"]
        heights = self.calls["trees.heights"]
        domains = self.calls["command.cu_domain"]
        distinct = counts["command.cu_domain.distinct"]
        out.update(
            {
                "trees.parse.nodes": counts["trees.parse.nodes"],
                "trees.build.trees": trees,
                "trees.heights.calls": heights,
                "trees.heights.per_tree": heights / trees if trees else 0.0,
                "trees.lca.calls": self.calls["trees.lca"],
                "trees.dominates.calls": self.calls["trees.dominates"],
                "ultrametric.leaf_matrix.entries": counts["ultrametric.leaf_matrix.entries"],
                "ultrametric.triples_scanned": counts["ultrametric.triples_scanned"],
                "ultrametric.violations": counts["ultrametric.violations"],
                "command.cu_domain.calls": domains,
                "command.cu_domain.distinct": distinct,
                "command.cu_domain.reuse": distinct / domains if domains else 0.0,
                "matrix.entries_validated": counts["matrix.entries_validated"],
                "cli.self_s": self.self_ns["cli.run"] / 1e9,
                "trace.spans": sum(self.calls.values()),
            }
        )
        return out

    def table(self) -> list[dict]:
        """Every (span, input size) cell: calls, inclusive and self seconds."""
        return [
            {"span": name, "n": n, "calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
            for (name, n), (calls, total, own) in sorted(
                self.by_size.items(), key=lambda item: (item[0][0], item[0][1] or 0)
            )
        ]
